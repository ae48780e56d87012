#include "formats/bgzf_parallel.h"

#include <algorithm>
#include <cstring>

#include "formats/bgzf.h"
#include "obs/metrics.h"

namespace ngsx::bgzf {

namespace {

// Parallel-path observability (docs/OBSERVABILITY.md, layer "bgzf"): the
// per-block codec metrics live in bgzf.cpp; here we only track what is
// unique to the parallel reader — blocks in its window and restarts
// forced by seeks.
struct ParallelReaderMetrics {
  obs::Gauge& readahead_depth = obs::gauge("bgzf.decode.readahead_depth");
  obs::Counter& seek_restarts = obs::counter("bgzf.decode.seek_restarts");
};

ParallelReaderMetrics& reader_metrics() {
  static ParallelReaderMetrics m;
  return m;
}

int checked_threads(int threads) {
  NGSX_CHECK_MSG(threads >= 1, "need at least one compression worker");
  return threads;
}

}  // namespace

std::unique_ptr<WriterBase> open_writer(const std::string& path, int level,
                                        int threads,
                                        OutputFile::Commit commit) {
  if (checked_threads(threads) == 1) {
    return std::make_unique<Writer>(path, level, commit);
  }
  return std::make_unique<ParallelWriter>(path, threads, level, commit);
}

ParallelWriter::ParallelWriter(const std::string& path, int threads,
                               int level, OutputFile::Commit commit)
    : out_(std::make_unique<OutputFile>(
          path, OutputFile::kDefaultBufferBytes, commit)),
      level_(level),
      window_(exec::process_pool(),
              2 * static_cast<size_t>(checked_threads(threads)) + 4, threads,
              [this](std::string&& block, uint64_t) {
                out_->write(block);
                compressed_bytes_.fetch_add(block.size(),
                                            std::memory_order_relaxed);
              }) {
  pending_.reserve(kMaxBlockInput);
}

ParallelWriter::~ParallelWriter() {
  // Destruction without close() rolls the output back (see bgzf::Writer),
  // once no block is compressing or being written.
  if (!closed_) {
    closed_ = true;
    window_.discard();
    out_->discard();
  }
}

void ParallelWriter::write(std::string_view data) {
  NGSX_CHECK_MSG(!closed_, "write on closed parallel BGZF writer");
  while (!data.empty()) {
    size_t room = kMaxBlockInput - pending_.size();
    size_t take = std::min(room, data.size());
    pending_.append(data.data(), take);
    data.remove_prefix(take);
    if (pending_.size() == kMaxBlockInput) {
      submit_pending();
    }
  }
}

void ParallelWriter::flush_block() {
  if (!pending_.empty()) {
    submit_pending();
  }
}

void ParallelWriter::submit_pending() {
  window_.wait_for_room();  // rethrows a compression or write error
  window_.push([raw = std::move(pending_), level = level_] {
    // One long-lived z_stream per worker thread, recycled via
    // deflateReset (a level change falls back to reinit).
    thread_local Deflater deflater;
    std::string block;
    deflater.compress(raw, block, level);
    return block;
  });
  pending_.clear();
  pending_.reserve(kMaxBlockInput);
}

void ParallelWriter::close() {
  if (closed_) {
    return;
  }
  closed_ = true;
  try {
    if (!pending_.empty()) {
      submit_pending();
    }
    window_.finish();
    out_->write(eof_marker());
    compressed_bytes_.fetch_add(eof_marker().size(),
                                std::memory_order_relaxed);
    out_->close();
  } catch (...) {
    window_.discard();  // nothing may still be compressing or writing
    out_->discard();
    throw;
  }
}

// ---------------------------------------------------------- ParallelReader

int resolve_decode_threads(int requested) {
  if (requested < 0) {
    throw UsageError("decode threads must be >= 0 (0 = auto)");
  }
  return requested == 0 ? exec::hardware_threads() : requested;
}

std::unique_ptr<ReaderBase> open_reader(const std::string& path,
                                        int decode_threads) {
  int threads = resolve_decode_threads(decode_threads);
  if (threads <= 1) {
    return std::make_unique<Reader>(path);
  }
  return std::make_unique<ParallelReader>(path, threads);
}

ParallelReader::ParallelReader(const std::string& path, int threads,
                               size_t readahead_blocks)
    : file_(path),
      window_(exec::process_pool(), std::max<size_t>(readahead_blocks, 1),
              checked_threads(threads)) {}

// restart() drops the window and takes its blocks off the gauge.
ParallelReader::~ParallelReader() { restart(0); }

void ParallelReader::restart(uint64_t coffset) {
  // Blocks still in flight are dropped; account for them so the
  // readahead-depth gauge returns to zero.
  if (obs::metrics_enabled()) {
    reader_metrics().readahead_depth.sub(
        static_cast<int64_t>(window_.size()));
  }
  window_.discard();
  scan_cursor_ = coffset;
  error_ = nullptr;
  have_block_ = false;
  block_pos_ = 0;
  current_ = Decoded{};
  current_.coffset = coffset;  // tell() anchor until the first block lands
}

void ParallelReader::top_up() {
  while (scan_cursor_ < file_.size() && !window_.full()) {
    // Framing: a header peek and one read per block.
    std::string raw;
    try {
      char header[kBlockHeaderSize];
      size_t got = file_.pread(header, sizeof(header), scan_cursor_);
      if (got < sizeof(header)) {
        throw FormatError("truncated BGZF block header at offset " +
                          std::to_string(scan_cursor_));
      }
      size_t total =
          peek_block_size(std::string_view(header, sizeof(header)));
      raw = file_.read_at(scan_cursor_, total);
      if (raw.size() != total) {
        throw FormatError("truncated BGZF block at offset " +
                          std::to_string(scan_cursor_));
      }
    } catch (...) {
      // Queued as a ticket of its own, so it is raised once the blocks
      // before it are consumed, where the sequential reader raises it;
      // nothing past it is framed.
      window_.push([error = std::current_exception()]() -> Decoded {
        std::rethrow_exception(error);
      });
      scan_cursor_ = file_.size();
      return;
    }
    const uint64_t coffset = scan_cursor_;
    scan_cursor_ += raw.size();
    window_.push([raw = std::move(raw), coffset] {
      // One long-lived inflate state per worker thread.
      thread_local Inflater inflater;
      Decoded out;
      out.coffset = coffset;
      out.csize = raw.size();
      inflater.decompress(raw, out.payload, coffset);
      return out;
    });
    if (obs::metrics_enabled()) {
      reader_metrics().readahead_depth.add(1);
    }
  }
}

bool ParallelReader::fetch_next() {
  if (error_ != nullptr) {
    std::rethrow_exception(error_);  // sticky until the next seek
  }
  top_up();
  if (window_.empty()) {
    // Clean end of stream: park the cursor one past the last scanned
    // block, so tell() == (file size, 0) exactly like the sequential
    // reader's failed load_block.
    have_block_ = false;
    current_.coffset += current_.csize;
    current_.csize = 0;
    current_.payload.clear();
    block_pos_ = 0;
    return false;
  }
  if (obs::metrics_enabled()) {
    reader_metrics().readahead_depth.sub(1);
  }
  try {
    current_ = window_.pop();
  } catch (...) {
    have_block_ = false;  // current_.coffset stays at the last good block
    error_ = std::current_exception();
    throw;
  }
  have_block_ = true;
  block_pos_ = 0;
  return true;
}

bool ParallelReader::ensure_data() {
  // Skip empty blocks (e.g. the EOF marker) but keep consuming: BGZF
  // permits empty blocks mid-stream — same policy as the sequential
  // reader's load loop, so tell() stays offset-identical.
  while (!have_block_ || block_pos_ >= current_.payload.size()) {
    if (!fetch_next()) {
      return false;
    }
  }
  return true;
}

size_t ParallelReader::read(void* buf, size_t n) {
  char* out = static_cast<char*>(buf);
  size_t total = 0;
  while (total < n) {
    if (!ensure_data()) {
      break;
    }
    size_t take = std::min(n - total, current_.payload.size() - block_pos_);
    std::memcpy(out + total, current_.payload.data() + block_pos_, take);
    block_pos_ += take;
    total += take;
  }
  return total;
}

uint64_t ParallelReader::tell() {
  if (!have_block_) {
    return make_voffset(current_.coffset, 0);
  }
  if (block_pos_ >= current_.payload.size()) {
    return make_voffset(current_.coffset + current_.csize, 0);
  }
  return make_voffset(current_.coffset, static_cast<uint32_t>(block_pos_));
}

void ParallelReader::seek(uint64_t voffset) {
  uint64_t coffset = voffset_coffset(voffset);
  uint32_t uoffset = voffset_uoffset(voffset);
  if (have_block_ && current_.coffset == coffset) {
    // Repositioning within the delivered block: no restart.
    if (uoffset > current_.payload.size()) {
      throw FormatError("BGZF seek offset beyond block payload");
    }
    block_pos_ = uoffset;
    return;
  }
  // Seek invalidation: drop the blocks in flight and reframe from the
  // target block (its framing is revalidated by the scanner, exactly as
  // the sequential reader's load_block would).
  if (obs::metrics_enabled()) {
    reader_metrics().seek_restarts.add(1);
  }
  restart(coffset);
  if (!fetch_next()) {
    if (uoffset == 0) {
      return;  // seeking to EOF is legal; tell() anchors at coffset
    }
    throw FormatError("BGZF seek past end of file");
  }
  if (uoffset > current_.payload.size()) {
    throw FormatError("BGZF seek offset beyond block payload");
  }
  block_pos_ = uoffset;
}

bool ParallelReader::eof() {
  if (have_block_ && block_pos_ < current_.payload.size()) {
    return false;
  }
  // Advancing to the next non-empty block consumes only exhausted or
  // empty blocks, mirroring the sequential reader's peek-by-load.
  return !ensure_data();
}

}  // namespace ngsx::bgzf
