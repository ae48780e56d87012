// ngsx/core/sort.h
//
// External-merge sorting of alignment records under a pluggable key.
//
// The paper's BAM experiments assume coordinate-sorted input ("a 117 GB
// sorted BAM dataset", §V-C) — the standard upstream `samtools sort` step —
// so coordinate sorting is provided (sort_to_bam). The same spill/merge
// machinery, generalized from the fixed coordinate key to any strict weak
// order over records, also powers the read-pair collation stage
// (core/collate.h). Records travel as raw BAM bodies (RawRecord) and keys
// are read straight from the bytes, as biobambam's collate/sort does:
// records are buffered up to a memory budget, each full buffer is
// stable-sorted and spilled as a run on a background exec::SerialStage,
// and the runs are k-way merged on drain. The whole sort is stable for
// ANY key: each run is stable-sorted, runs are created in input order,
// and the merge breaks key ties by run index — so records with equal keys
// keep their input order no matter how (or whether) the input spilled.
// That stability is what makes collation output byte-identical between
// in-memory and forced-spill configurations.
//
// Spill runs are private to the sorter and never outlive it, so they are
// not compressed: a run is a BAM file whose BGZF blocks are stored (level
// 0), written by the sequential bgzf::Writer on the spill stage's one
// thread, in place (OutputFile::Commit::kDirect: no fsync, no rename), and
// read back as raw bodies (bam::BamFileReader::next_raw). The final merge
// reads at most 16 runs at once; beyond that, contiguous groups of runs
// are first merged into runs of their own, oldest first, which keeps the
// run order and so the output bytes. Run files are named
// "<target>.<pid>.<token>.run<N>.tmp.bam" (pre-merged ones
// ".merge<pass>.<N>.tmp.bam") with a process-wide monotonic token, so
// concurrent sorts sharing a temp directory — or even targeting the same
// output path — never collide. Every created run is removed when
// the sorter is destroyed, drained or not, so a failure mid-spill or
// mid-merge leaves no ".tmp.bam" litter behind.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "exec/serial.h"
#include "formats/sam.h"

namespace ngsx::bam {
class BamFileReader;
}

namespace ngsx::core {

struct SortOptions {
  /// Records buffered in memory before spilling a run. The default keeps
  /// runs around a few hundred MB of record bodies. Because runs are
  /// sorted and written on a background stage while the next buffer
  /// fills, peak residency can briefly reach ~1.5x this budget.
  size_t max_records_in_memory = 1'000'000;

  /// BGZF level for the output (spill runs are not compressed).
  int compression_level = 6;

  /// BGZF blocks compressing at once for the output (>= 1; 1 = the
  /// sequential bgzf::Writer). The bytes do not depend on it.
  int threads = 1;

  /// Directory for spill runs; empty = alongside the output file.
  std::string temp_dir;
};

/// One alignment as a raw BAM record body (without block_size) in the
/// normalised form bam::normalize_record produces: exactly the bytes
/// bam::encode_record writes after its block_size. Sorting and collation
/// carry records in this form, and bam::RecordView reads their fields.
using RawRecord = std::string;

/// Pluggable record order for the external-merge machinery, over raw
/// bodies. A plain function pointer: orders must be stateless so that
/// spill runs written by a background thread compare identically at merge
/// time.
using RecordLess = bool (*)(std::string_view, std::string_view);

/// Coordinate order: (ref id as unsigned so -1 sorts last, position) —
/// samtools' sort order.
bool coord_less(std::string_view a, std::string_view b);

/// Rank of a record with flag word `flag` within its read-name group under
/// collation order: primary read1 (0), primary read2 (1), primary unpaired
/// (2), then secondary/supplementary lines (3).
int pairing_rank(uint16_t flag);

/// Name-collation order: read name (plain byte-wise comparison), then
/// pairing_rank — so a group's primary mates are adjacent with R1 first.
/// Records with equal (name, rank) keep input order per the stability
/// contract above.
bool name_collate_less(std::string_view a, std::string_view b);

/// Unified streaming record source over SAM or BAM (picked by ".bam"
/// extension). `decode_threads` selects parallel BGZF inflate for BAM
/// input (0 = auto, 1 = sequential); it is ignored for SAM.
class AlignmentInput {
 public:
  explicit AlignmentInput(const std::string& path, int decode_threads = 1);
  ~AlignmentInput();

  const sam::SamHeader& header() const;

  /// Reads the next record as a RawRecord: BAM bodies are validated and
  /// normalised (bam::normalize_record), SAM records encoded once.
  bool next_raw(RawRecord& body);

 private:
  std::unique_ptr<bam::BamFileReader> bam_;
  std::unique_ptr<sam::SamFileReader> sam_;
  std::string raw_;              // the body as stored (BAM) or encoded (SAM)
  sam::AlignmentRecord record_;  // SAM: the parsed line
};

/// The external-merge engine: push records in any order, drain them in
/// `less` order. Single producer; drain() may be called once.
class ExternalSorter {
 public:
  /// `target_path` is the output file the runs are named after; the sorter
  /// itself never writes it. Spill runs land in options.temp_dir when set,
  /// else next to the target.
  ExternalSorter(sam::SamHeader header, const std::string& target_path,
                 RecordLess less, const SortOptions& options);

  /// Finishes the background spill stage and removes every surviving run
  /// file — the scope guard that keeps failed sorts litter-free.
  ~ExternalSorter();

  ExternalSorter(const ExternalSorter&) = delete;
  ExternalSorter& operator=(const ExternalSorter&) = delete;

  /// Buffers one record, spilling a run when the buffer is full. Rethrows
  /// the first background spill error, if any.
  void push(RawRecord body);

  /// Forces the current buffer out as a run now (the collation stage calls
  /// this when its *bucket* memory, not the sorter's buffer, overflows).
  /// No-op on an empty buffer.
  void flush_run();

  /// Emits every pushed record in (less, input-order) order, then removes
  /// the runs. In-memory inputs are sorted and emitted directly; spilled
  /// inputs k-way merge the runs with the final buffer spilled as the last
  /// run. One-shot: push() after drain() is a usage error.
  void drain(const std::function<void(RawRecord&&)>& emit);

  uint64_t total() const { return total_; }
  bool spilled() const { return runs_created_ > 0; }
  /// Spill runs written over the sorter's lifetime (monotonic; survives
  /// drain()'s run-file cleanup).
  size_t runs() const { return runs_created_; }
  uint64_t spilled_records() const {
    return spilled_records_.load(std::memory_order_relaxed);
  }
  /// Bytes written to committed runs.
  uint64_t spilled_bytes() const {
    return spilled_bytes_.load(std::memory_order_relaxed);
  }

 private:
  /// K-way merges `runs` (in run order) into `emit`; returns the count.
  uint64_t merge_runs(const std::vector<std::string>& runs,
                      const std::function<void(RawRecord&&)>& emit) const;
  void remove_runs() noexcept;

  sam::SamHeader header_;
  RecordLess less_;
  std::string run_base_;       // "<dir>/<target filename>.<pid>.<token>"
  size_t buffer_cap_;
  std::vector<RawRecord> buffer_;
  std::vector<std::string> run_paths_;
  size_t runs_created_ = 0;
  uint64_t total_ = 0;
  bool drained_ = false;
  std::atomic<uint64_t> spilled_records_{0};
  std::atomic<uint64_t> spilled_bytes_{0};
  exec::SerialStage spill_stage_;
};

/// Coordinate-sorts `in_path` (".sam" or ".bam", by extension) into a
/// sorted BAM at `out_bam`. Returns the number of records written.
uint64_t sort_to_bam(const std::string& in_path, const std::string& out_bam,
                     const SortOptions& options = {});

/// True if the SAM/BAM file at `path` is coordinate-sorted (unmapped
/// records allowed only in a trailing block).
bool is_coordinate_sorted(const std::string& path);

}  // namespace ngsx::core
