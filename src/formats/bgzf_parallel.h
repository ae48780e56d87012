// ngsx/formats/bgzf_parallel.h
//
// Multi-threaded BGZF codec endpoints, htslib's `--threads` idea applied
// to both directions: BGZF blocks are independent gzip members, so
// compression *and* decompression — the dominant CPU costs of writing and
// reading BAM — parallelize perfectly once the block framing is known.
//
// ParallelWriter: input is cut into the same fixed-size blocks as the
// sequential bgzf::Writer and fed through an exec::Pipeline (bounded
// input channel -> pool-parallel compression -> ordered sink), so the
// output file is byte-identical to the sequential writer's (deflate is
// deterministic at a fixed level), just produced with more cores.
// tell() / virtual offsets are intentionally absent: compressed offsets
// only materialize after compression, and the bulk-output paths this
// writer serves (collation's spill runs and its name-grouped, duplicate-
// marked and sorted BAM outputs, through open_writer) never need them.
// Use bgzf::Writer when building indexes.
//
// ParallelReader: the dual pipeline on the decode side (the paper accepts
// BAM reading as inherently sequential; block-level inflation is the part
// that is not). A framing scanner walks BSIZE headers to produce
// compressed-block extents, worker threads inflate blocks concurrently
// (each holding a long-lived z_stream recycled via inflateReset), and an
// ordered committer hands the payloads back in file order through the
// same ReaderBase API as the sequential reader — byte-identical output,
// with a bounded readahead window and seek invalidation so virtual-offset
// random access still works.

#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "exec/channel.h"
#include "exec/pipeline.h"
#include "exec/pool.h"
#include "formats/bgzf.h"
#include "util/binio.h"
#include "util/common.h"

namespace ngsx::bgzf {

class ParallelWriter final : public WriterBase {
 public:
  /// `threads` compression workers (>= 1); blocks are committed to the
  /// file in order by the pipeline's own committing thread. The input queue
  /// and the reorder window each hold at most 2 * threads + 4 blocks (the
  /// exec::Pipeline default), so buffered memory grows with the width.
  ParallelWriter(const std::string& path, int threads, int level = 6,
                 OutputFile::Commit commit = OutputFile::Commit::kAtomic);
  ~ParallelWriter() override;

  ParallelWriter(const ParallelWriter&) = delete;
  ParallelWriter& operator=(const ParallelWriter&) = delete;

  using WriterBase::write;
  void write(std::string_view data) override;

  void flush_block() override;

  /// Drains the pipeline, appends the EOF marker, closes the file, and
  /// rethrows the first worker/writer error if any occurred.
  void close() override;

  /// Counts blocks as the ordered sink commits them, so mid-stream it lags
  /// the sequential writer by the blocks still in flight.
  uint64_t compressed_bytes() const override {
    return compressed_bytes_.load(std::memory_order_relaxed);
  }

 private:
  void submit_pending();

  std::unique_ptr<OutputFile> out_;
  std::atomic<uint64_t> compressed_bytes_{0};

  std::string pending_;
  bool closed_ = false;

  exec::Pool pool_;
  exec::Pipeline<std::string, std::string> pipeline_;
};

/// Opens a BGZF writer at `level` with `threads` compression workers
/// (>= 1): 1 gives the sequential Writer, more the ParallelWriter; the
/// bytes are the same either way. `commit` is passed to the OutputFile.
std::unique_ptr<WriterBase> open_writer(
    const std::string& path, int level, int threads,
    OutputFile::Commit commit = OutputFile::Commit::kAtomic);

/// Default number of decompressed blocks buffered ahead of the consumer
/// (the readahead window; also the pipeline's uncommitted-ticket window).
constexpr size_t kDefaultReadahead = 32;

/// Resolves a decode-thread request: 0 means auto (hardware width),
/// negative throws UsageError, anything else passes through.
int resolve_decode_threads(int requested);

/// Multi-threaded BGZF reader (see file comment). Construction starts the
/// decode pipeline at offset 0; read()/tell()/seek()/eof() behave exactly
/// like the sequential Reader (byte-identical stream, identical virtual
/// offsets, identical FormatError messages including compressed offsets).
/// A seek outside the currently delivered block cancels the in-flight
/// pipeline and restarts it at the target block. Errors raised by worker
/// threads surface from the consumer's next read()/seek()/eof() call.
/// Not thread-safe: one consumer thread, like the sequential Reader.
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

  /// (Re)starts the scan/inflate/commit pipeline at compressed offset
  /// `coffset`; resets all consumer-side cursor state.
  void start(uint64_t coffset);
  /// Cancels the pipeline and joins the driver thread.
  void stop();
  /// Driver-thread body: runs the ordered pipeline, publishes blocks into
  /// `blocks_`, records the first error, closes the channel on exit.
  void drive(uint64_t start_coffset);
  /// Pops the next block in file order into `current_`; false at end of
  /// stream (rethrows a recorded pipeline error first).
  bool fetch_next();
  /// Advances until `current_` has unread bytes, skipping empty blocks;
  /// false at end of stream.
  bool ensure_data();

  InputFile file_;
  int threads_;
  size_t readahead_;
  exec::Pool pool_;

  // Pipeline plumbing; rebuilt on every start().
  std::unique_ptr<exec::Channel<Decoded>> blocks_;
  std::thread driver_;
  std::atomic<bool> cancel_{false};
  std::mutex error_mu_;
  std::exception_ptr error_;  // first scan/inflate error; sticky until seek

  // Consumer-side cursor (single-threaded, like the sequential Reader).
  Decoded current_;
  bool have_block_ = false;
  bool drained_ = false;   // channel returned end-of-stream
  size_t block_pos_ = 0;   // read cursor within current_.payload
};

/// Opens `path` with `decode_threads` inflate workers (0 = auto, negative
/// rejected); <= 1 resolves to the sequential Reader, so callers pay for
/// a thread pool only when they asked for one.
std::unique_ptr<ReaderBase> open_reader(const std::string& path,
                                        int decode_threads);

}  // namespace ngsx::bgzf
