// ngsx/core/collate.h
//
// Streaming read-pair collation on the exec pipeline (docs/COLLATION.md).
//
// Coordinate-sorted BAM scatters a template's two mates far apart; every
// pair-oriented consumer (FASTQ re-export for re-alignment, duplicate
// marking, name-grouped BAM) first has to reunite them. The classic tool
// answer is a full name sort. CollateStage does better for the common
// case: a bounded hash bucket keyed by read name pairs most mates in one
// streaming pass — on coordinate-sorted input, mates sit within an insert
// size of each other, so the bucket stays small — and only the overflow
// falls back to the external-merge machinery (core/sort.h) under the
// name-collation key, where a k-way merge reunites spilled mates.
//
// Emission contract:
//   * pairs completed in memory emit immediately, in completion order
//     (position of the SECOND mate in the input);
//   * records still pending at finish() — orphans plus everything that
//     spilled — emit in name-collation order after the merge.
// The streaming path (FASTQ export) therefore depends on the memory
// budget for its *order*, never for its *content*: every complete pair
// is emitted exactly once under any budget. Outputs that must be
// byte-identical across budgets (collate_to_bam, mark_duplicates) do not
// use the hash path at all — they impose full name-collation order
// through ExternalSorter, whose stability contract (sort.h) makes the
// result independent of how the input spilled.
//
// Records travel as raw BAM bodies (RawRecord, core/sort.h) from the parse
// stage to the output: keys, pair signatures and quality scores are read
// from the bytes, duplicate marking patches the flag word in place, and
// only FASTQ export decodes a record, at its sink.
//
// Duplicate marking (mark_duplicates) is two passes:
//   pass A streams pairs through CollateStage and keeps, per pair
//   signature, the best pair seen; pass B re-reads the input in
//   name-collation order and marks (or drops) every name group whose
//   pair lost. The signature is the canonically ordered pair of ends
//   (ref id, strand, 5' unclipped coordinate) — unclipped so that
//   soft/hard-clipped copies of the same fragment collide, 5'-oriented
//   so reverse-strand reads key on their unclipped END. Best pair = max
//   summed base quality (Phred >= 15, Picard's rule), ties to the
//   lexicographically smallest read name — a content-based rule, so the
//   winner table is independent of arrival order and memory budget.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/sort.h"
#include "formats/sam.h"

namespace ngsx::core {

struct CollateOptions {
  /// Record memory budget, in records: the pending-mate bucket holds up
  /// to half, the spill sorter's buffer the other half, and the parse
  /// read-ahead is sized to at most an eighth (ParsePlan). When the bucket
  /// fills, its entire contents spill as one run.
  size_t max_records_in_memory = 1'000'000;

  /// BGZF level for BAM outputs (spill runs are not compressed).
  int compression_level = 6;

  /// Directory for spill runs; empty = alongside the output.
  std::string temp_dir;

  /// BGZF inflates at once for BAM input (0 = auto, 1 = sequential).
  int decode_threads = 1;

  /// The collation width (0 = auto = hardware width), in tasks at once on
  /// the process pool. Record parse: BAM record bodies are validated and
  /// normalised on an exec::ordered_pipeline when > 1 and the budget
  /// allows (ParsePlan), and the consumer sees them in file order.
  /// Compression: BAM outputs deflate this many blocks at once
  /// (SortOptions::threads). Neither changes a byte of output.
  int parse_threads = 1;

  /// Most raw record bodies per parse-pipeline batch; smaller budgets get
  /// smaller batches (ParsePlan).
  size_t record_batch = 4096;

  /// FASTQ export only: write "<prefix>_orphans.fastq" (true) or drop
  /// orphaned mates after counting them (false).
  bool keep_orphans = true;
};

/// One run's counters; every collate program returns these (and mirrors
/// them into the collate.* metrics, docs/OBSERVABILITY.md).
struct CollateStats {
  uint64_t records = 0;      ///< input records consumed
  uint64_t pairs = 0;        ///< complete primary pairs emitted
  uint64_t orphans = 0;      ///< paired primaries whose mate never showed
  uint64_t singles = 0;      ///< unpaired primary records
  uint64_t passthrough = 0;  ///< secondary/supplementary records
  uint64_t spill_runs = 0;
  uint64_t spilled_records = 0;
  uint64_t spilled_bytes = 0;  ///< bytes written to spill runs
  uint64_t dup_pairs = 0;      ///< name groups marked/dropped as duplicates
  uint64_t dup_records = 0;    ///< records in those groups
  uint64_t written = 0;        ///< records written to the primary output
  double seconds = 0.0;
  std::vector<std::string> outputs;  ///< files created, in creation order
};

/// Downstream hooks for CollateStage. Unset callbacks drop the records
/// (the counters still run) — pass-A duplicate scanning uses only
/// on_pair, FASTQ export uses all four.
struct CollateEvents {
  /// A completed primary pair, R1 first.
  std::function<void(RawRecord&&, RawRecord&&)> on_pair;
  /// A paired primary whose mate never arrived (fires during finish()).
  std::function<void(RawRecord&&)> on_orphan;
  /// An unpaired primary (fires immediately on push()).
  std::function<void(RawRecord&&)> on_single;
  /// A secondary/supplementary line (fires immediately on push()).
  std::function<void(RawRecord&&)> on_passthrough;
};

/// The stateful collation stage: push records in any order, get pairs.
/// Single producer; finish() exactly once. See the file comment for the
/// emission contract and memory bound.
class CollateStage {
 public:
  /// `spill_target` is the path spill runs are named after (never
  /// written itself); runs land in options.temp_dir when set.
  CollateStage(sam::SamHeader header, const std::string& spill_target,
               CollateEvents events, const CollateOptions& options = {});

  CollateStage(const CollateStage&) = delete;
  CollateStage& operator=(const CollateStage&) = delete;

  void push(RawRecord body);

  /// Flushes pending mates through the spill merge: completes pairs that
  /// were split across spills, emits the rest as orphans. Mandatory.
  void finish();

  /// Final only after finish(); spill counters lag until then.
  const CollateStats& stats() const { return stats_; }

 private:
  void spill_pending();

  CollateEvents events_;
  size_t bucket_cap_;
  std::unordered_map<std::string, RawRecord> pending_;
  ExternalSorter sorter_;
  CollateStats stats_;
  bool finished_ = false;
};

/// Reads just the header of a SAM/BAM file.
sam::SamHeader read_header(const std::string& path);

/// How for_each_record parses BAM input: `workers` parse workers (1 = the
/// sequential path), `batch` bodies per pipeline ticket, and a pipeline
/// window of `window` tickets. At most in_flight() records are read but
/// not yet handed to the consumer, never more than an eighth of
/// max_records_in_memory. Budgets too small for a parallel window parse
/// sequentially, one record at a time.
struct ParsePlan {
  int workers = 1;
  size_t batch = 1;
  size_t window = 1;

  /// Window tickets (exec::PipelineOptions::window) and the batch at the
  /// consumer.
  size_t in_flight() const { return workers == 1 ? 1 : (window + 1) * batch; }
};

ParsePlan parse_plan(const CollateOptions& options);

/// Streams every record of `path` to `fn` in file order, as normalised raw
/// bodies (AlignmentInput::next_raw). BAM input parses on an ordered
/// pipeline when parse_plan(options).workers > 1; SAM input is always
/// sequential.
void for_each_record(const std::string& path, const CollateOptions& options,
                     const std::function<void(RawRecord&&)>& fn);

/// Name-grouped BAM: every input record, ordered by (read name,
/// pairing_rank, input order). Byte-identical for any memory budget.
CollateStats collate_to_bam(const std::string& in_path,
                            const std::string& out_bam,
                            const CollateOptions& options = {});

/// Paired-end FASTQ export: "<prefix>_R1.fastq" / "<prefix>_R2.fastq"
/// for complete pairs, plus "<prefix>_orphans.fastq" and
/// "<prefix>_singles.fastq" (each created only when non-empty, orphans
/// only when options.keep_orphans). Secondary/supplementary lines are
/// dropped — they re-render bases the primary line already carries.
CollateStats collate_to_fastq(const std::string& in_path,
                              const std::string& out_prefix,
                              const CollateOptions& options = {});

enum class DuplicateMode {
  kMark,  ///< set the 0x400 flag on every record of a duplicate group
  kDrop,  ///< omit duplicate groups from the output entirely
};

/// Two-pass streaming duplicate marking (see file comment) into a
/// name-grouped BAM at `out_bam`. Pre-existing duplicate flags are
/// cleared and recomputed. Only complete primary pairs with at least one
/// mapped end compete; orphans, singles and their groups always survive.
/// Byte-identical for any memory budget.
CollateStats mark_duplicates(const std::string& in_path,
                             const std::string& out_bam, DuplicateMode mode,
                             const CollateOptions& options = {});

}  // namespace ngsx::core
