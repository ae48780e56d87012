// ngsx/formats/bgzf_parallel.h
//
// Multi-threaded BGZF codec endpoints, htslib's `--threads` idea applied
// to both directions: BGZF blocks are independent gzip members, so
// compression *and* decompression — the dominant CPU costs of writing and
// reading BAM — parallelize perfectly once the block framing is known.
//
// Both run on exec::process_pool() through an exec::OrderedWindow that the
// calling thread drives; neither owns a thread. `threads` caps how many of
// the object's blocks are compressing or inflating at once.
//
// ParallelWriter: input is cut into the same fixed-size blocks as the
// sequential bgzf::Writer. write() issues each full block as a deflate
// task (waiting for room once 2 * threads + 4 are in flight), and the
// finished blocks reach the file in order, written by whichever thread
// completes the oldest one. The output is byte-identical to the
// sequential writer's (deflate is deterministic at a fixed level), just
// produced with more cores. tell() / virtual offsets are intentionally
// absent: compressed offsets only materialize after compression, and the
// bulk-output paths this writer serves (collation's name-grouped,
// duplicate-marked and sorted BAM outputs, through open_writer) never
// need them. Use bgzf::Writer when building indexes.
//
// ParallelReader: the dual on the decode side (the paper accepts BAM
// reading as inherently sequential; block-level inflation is the part
// that is not). read() tops the window up by framing the next blocks off
// their BSIZE headers and issuing each as an inflate task (each worker
// keeps a long-lived inflate state), then takes the next block back in
// file order — through the same ReaderBase API as the sequential reader:
// byte-identical stream, virtual offsets and error messages. The window
// (readahead_blocks) bounds the blocks read ahead; a seek outside the
// current block drops it and reframes from the target block.

#pragma once

#include <atomic>
#include <exception>
#include <memory>
#include <string>
#include <string_view>

#include "exec/pipeline.h"
#include "formats/bgzf.h"
#include "util/binio.h"
#include "util/common.h"

namespace ngsx::bgzf {

class ParallelWriter final : public WriterBase {
 public:
  /// At most `threads` (>= 1) blocks compress at once and 2 * threads + 4
  /// are in flight, so buffered memory grows with the width.
  ParallelWriter(const std::string& path, int threads, int level = 6,
                 OutputFile::Commit commit = OutputFile::Commit::kAtomic);
  ~ParallelWriter() override;

  ParallelWriter(const ParallelWriter&) = delete;
  ParallelWriter& operator=(const ParallelWriter&) = delete;

  using WriterBase::write;
  void write(std::string_view data) override;

  void flush_block() override;

  /// Writes every block in flight, appends the EOF marker, closes the
  /// file, and rethrows the first compression/write error (in block order).
  void close() override;

  /// Counts blocks as they reach the file, so mid-stream it lags the
  /// sequential writer by the blocks still in flight.
  uint64_t compressed_bytes() const override {
    return compressed_bytes_.load(std::memory_order_relaxed);
  }

 private:
  void submit_pending();

  std::unique_ptr<OutputFile> out_;
  int level_;
  std::atomic<uint64_t> compressed_bytes_{0};

  std::string pending_;
  bool closed_ = false;

  exec::OrderedWindow<std::string> window_;
};

/// Opens a BGZF writer at `level` with `threads` (>= 1) blocks compressing
/// at once: 1 gives the sequential Writer, more the ParallelWriter; the
/// bytes are the same either way. `commit` is passed to the OutputFile.
std::unique_ptr<WriterBase> open_writer(
    const std::string& path, int level, int threads,
    OutputFile::Commit commit = OutputFile::Commit::kAtomic);

/// Default number of blocks read ahead of the consumer (the window).
constexpr size_t kDefaultReadahead = 32;

/// Resolves a decode-thread request: 0 means auto (hardware width),
/// negative throws UsageError, anything else passes through.
int resolve_decode_threads(int requested);

/// Parallel BGZF reader (see file comment). read()/tell()/seek()/eof()
/// behave exactly like the sequential Reader (byte-identical stream,
/// identical virtual offsets, identical FormatError messages including
/// compressed offsets, raised at the same block). At most `threads` (>= 1)
/// blocks inflate at once. Not thread-safe: one consumer thread, like the
/// sequential Reader.
class ParallelReader final : public ReaderBase {
 public:
  explicit ParallelReader(const std::string& path, int threads,
                          size_t readahead_blocks = kDefaultReadahead);
  ~ParallelReader() override;

  ParallelReader(const ParallelReader&) = delete;
  ParallelReader& operator=(const ParallelReader&) = delete;

  size_t read(void* buf, size_t n) override;
  uint64_t tell() override;
  void seek(uint64_t voffset) override;
  bool eof() override;
  uint64_t compressed_size() const override { return file_.size(); }

 private:
  /// One decompressed block in file order.
  struct Decoded {
    std::string payload;
    uint64_t coffset = 0;  // compressed offset of the block
    size_t csize = 0;      // compressed size of the block
  };

  /// Drops the window and reframes from compressed offset `coffset`;
  /// resets all consumer-side cursor state.
  void restart(uint64_t coffset);
  /// Frames blocks off the file and issues their inflates until the
  /// window is full or the scan ends: at end of file, or at a framing
  /// error, issued as a ticket that rethrows it.
  void top_up();
  /// Pops the next block in file order into `current_`; false at end of
  /// stream. Errors are sticky until the next seek.
  bool fetch_next();
  /// Advances until `current_` has unread bytes, skipping empty blocks;
  /// false at end of stream.
  bool ensure_data();

  InputFile file_;
  exec::OrderedWindow<Decoded> window_;

  // Framing scan, run on the consumer's thread by top_up().
  uint64_t scan_cursor_ = 0;  // compressed offset of the next block
  std::exception_ptr error_;  // delivered error; sticky until a seek

  // Consumer-side cursor (single-threaded, like the sequential Reader).
  Decoded current_;
  bool have_block_ = false;
  size_t block_pos_ = 0;  // read cursor within current_.payload
};

/// Opens `path` with `decode_threads` blocks inflating at once (0 = auto,
/// negative rejected); <= 1 resolves to the sequential Reader.
std::unique_ptr<ReaderBase> open_reader(const std::string& path,
                                        int decode_threads);

}  // namespace ngsx::bgzf
