// ngsx/core/convert.h
//
// The three converter instances of the paper's framework (§III):
//
//   1. SAM format converter           — Algorithm-1 byte partitioning, then
//                                       independent parse + convert + write
//                                       per rank (Figure 2).
//   2. BAM format converter           — preprocessing into BAMX + BAIX,
//                                       then parallel conversion by
//                                       record-range partitioning
//                                       (Figure 3); supports *partial
//                                       conversion* of a genomic region via
//                                       BAIX binary search.
//   3. Preprocessing-optimized SAM
//      format converter               — Algorithm 1 parallelizes the
//                                       preprocessing itself across M ranks
//                                       (Figure 5); the conversion phase is
//                                       converter 2's.
//
// Both preprocessors publish the same on-disk layout: a BAMXM manifest,
// M BAMX shards "<stem>-shard-<k>.bamx" carrying one global layout, and one
// merged BAIX (docs/FILEFORMATS.md). convert_bamx, ConversionSession and
// ngsx_serve read it, whichever preprocessor wrote it.
//
// Ranks execute as minimpi ranks (threads standing in for MPI processes);
// each rank opens the input independently and writes its own part file,
// mirroring the paper's "no communication after partitioning" property.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/target.h"
#include "formats/baix2.h"
#include "formats/bamx.h"

namespace ngsx::core {

/// A genomic region for partial conversion, zero-based half-open.
struct Region {
  int32_t ref_id = -1;
  int32_t begin = 0;
  int32_t end = 0;
};

/// Parses "chr1", "chr1:1000-2000" (1-based inclusive, samtools style)
/// against `header`. Throws UsageError on unknown chromosome / bad syntax.
Region parse_region(std::string_view text, const sam::SamHeader& header);

/// How conversion work is distributed over the execution width.
///
/// kStatic is the paper's scheme: one fixed byte/record range per rank,
/// no coordination after partitioning. kDynamic keeps the *same* N part
/// files (same record ranges, byte-identical output) but subdivides each
/// part into many chunks and feeds them through an ordered pipeline on
/// the process pool, so a skewed input (hot chromosome, variable record
/// density) rebalances onto idle workers instead of serializing on the
/// slowest rank.
enum class Schedule {
  kStatic,
  kDynamic,
};

/// Parses "static" / "dynamic". Throws UsageError otherwise.
Schedule parse_schedule(std::string_view name);
std::string_view schedule_name(Schedule schedule);

/// Options shared by the converters.
struct ConvertOptions {
  TargetFormat format = TargetFormat::kBed;
  int ranks = 1;                       // parallel conversion width (N)
  size_t read_buffer_bytes = 4 << 20;  // runtime read buffer per rank
  size_t record_batch = 4096;          // BAMX records fetched per pread
  bool include_header = true;          // SAM/BAM part files carry a header
  Schedule schedule = Schedule::kStatic;
  int threads = 0;                     // dynamic schedule width; 0 => ranks
  size_t chunk_bytes = 1 << 20;        // dynamic SAM chunk target size
  int decode_threads = 0;              // BGZF inflates at once; 0 => auto
};

/// Aggregate statistics of one conversion run.
struct ConvertStats {
  uint64_t records_in = 0;    // alignment objects parsed
  uint64_t records_out = 0;   // target objects emitted
  uint64_t bytes_in = 0;      // input bytes consumed
  uint64_t bytes_out = 0;     // output bytes produced
  double seconds = 0.0;       // wall time of the timed phase

  /// Paths of the part files produced (one per conversion rank).
  std::vector<std::string> outputs;
};

/// Statistics of a preprocessing phase.
struct PreprocessStats {
  uint64_t records = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  double seconds = 0.0;
};

// ---------------------------------------------------------------------------
// 1. SAM format converter (§III-A).
// ---------------------------------------------------------------------------

/// Converts `sam_path` into `options.format`, writing
/// `<out_dir>/part-<rank><ext>` per rank. The input is partitioned with
/// Algorithm 1 (forward variant) executed collectively by the ranks.
ConvertStats convert_sam(const std::string& sam_path,
                         const std::string& out_dir,
                         const ConvertOptions& options);

// ---------------------------------------------------------------------------
// 2. BAM format converter (§III-B).
// ---------------------------------------------------------------------------

/// Options for the single-pass parallel BAM preprocessor.
struct PreprocessOptions {
  int threads = 0;         // parse+encode tasks at once; 0 => hardware
  int decode_threads = 0;  // BGZF inflates at once; 0 => auto
  int shards = 0;          // M output shards; 0 => threads
  size_t chunk_records = 4096;  // records per pipeline ticket
};

/// Single-pass parallel preprocessing: BAM -> M BAMX shards + BAMXM
/// manifest + merged BAIX. Record framing stays serial (the §III-B
/// constraint) but runs once, on the calling thread, feeding an
/// exec::ordered_pipeline on the process pool whose tasks parse and encode
/// chunks under chunk-local layouts; the ordered commit stages the chunk
/// blobs and merges the global layout, and a final parallel pass
/// re-strides the staged records into M shards carrying the global layout
/// while the per-chunk sorted BAIX runs are merged on the pool. The
/// published BAMX record bytes and BAIX are bit-identical to a sequential
/// encode of every record under the global layout (the shards concatenate
/// to its data section), whatever the width or shard count.
/// `threads` = 1 runs the same single pass at width 1.
///
/// Writes `manifest_path` (must end in ".bamxm"), shards named
/// "<manifest stem>-shard-<k>.bamx" next to it, and `baix_path`. Shards
/// are committed atomically and the manifest is written last, so a failure
/// mid-preprocess never publishes a partial shard or a manifest pointing at
/// one.
PreprocessStats preprocess_bam_parallel(const std::string& bam_path,
                                        const std::string& manifest_path,
                                        const std::string& baix_path,
                                        const PreprocessOptions& options = {});

/// Parallel conversion phase over a preprocessed BAMX file — either a
/// monolithic .bamx or a .bamxm shard manifest (`bamx_path` is sniffed by
/// magic). With `region`, performs partial conversion: the BAIX is
/// binary-searched for the region and only the matching records are
/// fetched (random access) and converted.
ConvertStats convert_bamx(const std::string& bamx_path,
                          const std::string& baix_path,
                          const std::string& out_dir,
                          const ConvertOptions& options,
                          std::optional<Region> region = std::nullopt);

/// Extended partial conversion over a BAIX v2 index (the paper's
/// future-work "more partial conversion types"): overlap or start-within
/// region semantics plus index-resolvable filters (min MAPQ, strand,
/// duplicate exclusion). Non-matching records are never fetched.
ConvertStats convert_bamx_filtered(const std::string& bamx_path,
                                   const std::string& baix2_path,
                                   const std::string& out_dir,
                                   const ConvertOptions& options,
                                   const Region& region,
                                   baix2::RegionMode mode,
                                   const baix2::Filter& filter = {});

/// Builds the v2 index next to an existing BAMX file.
void build_baix2(const std::string& bamx_path, const std::string& baix2_path);

/// Convenience: the paper's "conversion without preprocessing" baseline —
/// a purely sequential BAM -> target stream (what Table I's ours-without-
/// preprocessing column for BAM measures).
ConvertStats convert_bam_sequential(const std::string& bam_path,
                                    const std::string& out_path,
                                    TargetFormat format,
                                    int decode_threads = 1);

// ---------------------------------------------------------------------------
// 3. Preprocessing-optimized SAM format converter (§III-C).
// ---------------------------------------------------------------------------

/// Parallel preprocessing: SAM is partitioned with Algorithm 1 across
/// `m_ranks`. Each rank measures its partition, the ranks agree on the
/// global layout and their record bases, and rank k encodes shard k under
/// that layout. Writes the same layout as preprocess_bam_parallel — the
/// manifest, "<manifest stem>-shard-<k>.bamx" next to it (one per rank) and
/// the merged `baix_path` — and for the same records the BAIX bytes and the
/// concatenated shard data are identical. The manifest is written last.
PreprocessStats preprocess_sam_parallel(const std::string& sam_path,
                                        const std::string& manifest_path,
                                        const std::string& baix_path,
                                        int m_ranks);

}  // namespace ngsx::core
