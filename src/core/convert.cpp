#include "core/convert.h"

#include <malloc.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <iterator>

#include "core/partition.h"
#include "core/session.h"
#include "exec/pipeline.h"
#include "exec/pool.h"
#include "formats/bam.h"
#include "mpi/minimpi.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/simd.h"
#include "util/strutil.h"
#include "util/timer.h"

namespace fs = std::filesystem;

namespace ngsx::core {

using sam::AlignmentRecord;
using sam::SamHeader;

// --------------------------------------------------------------- schedule

Schedule parse_schedule(std::string_view name) {
  if (name == "static") {
    return Schedule::kStatic;
  }
  if (name == "dynamic") {
    return Schedule::kDynamic;
  }
  throw UsageError("unknown schedule '" + std::string(name) +
                   "' (expected static or dynamic)");
}

std::string_view schedule_name(Schedule schedule) {
  return schedule == Schedule::kStatic ? "static" : "dynamic";
}

// ------------------------------------------------------------------- region

Region parse_region(std::string_view text, const SamHeader& header) {
  Region region;
  size_t colon = text.rfind(':');
  std::string_view chrom = text;
  if (colon != std::string_view::npos &&
      text.find('-', colon) != std::string_view::npos) {
    chrom = text.substr(0, colon);
    std::string_view range = text.substr(colon + 1);
    size_t dash = range.find('-');
    int64_t beg1 =
        strutil::parse_int<int64_t>(range.substr(0, dash), "region begin");
    int64_t end1 =
        strutil::parse_int<int64_t>(range.substr(dash + 1), "region end");
    if (beg1 < 1 || end1 < beg1) {
      throw UsageError("bad region range in '" + std::string(text) + "'");
    }
    region.begin = static_cast<int32_t>(beg1 - 1);  // 1-based incl -> 0-based
    region.end = static_cast<int32_t>(end1);        // inclusive -> half-open
  }
  region.ref_id = header.ref_id(chrom);
  if (region.ref_id < 0) {
    throw UsageError("unknown chromosome '" + std::string(chrom) +
                     "' in region '" + std::string(text) + "'");
  }
  if (colon == std::string_view::npos ||
      text.find('-', colon) == std::string_view::npos) {
    region.begin = 0;
    region.end = static_cast<int32_t>(header.ref_length(region.ref_id));
  }
  return region;
}

// ----------------------------------------------------------------- internals

namespace {

struct LocalStats {
  uint64_t records_in = 0;
  uint64_t records_out = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
};

/// The runtime's read buffer (Figure 2): iterates complete lines over a
/// byte range of a file, reading `buffer_bytes` at a time.
class LineRangeReader {
 public:
  LineRangeReader(const InputFile& file, ByteRange range, size_t buffer_bytes)
      : file_(file), range_(range), cursor_(range.begin),
        buffer_bytes_(std::max<size_t>(buffer_bytes, 64 << 10)) {}

  /// Next complete line (without '\n'); false when the range is exhausted.
  bool next(std::string_view& line) {
    while (true) {
      size_t nl = pos_ + simd::find_byte(buffer_.data() + pos_,
                                         buffer_.size() - pos_, '\n');
      if (nl != buffer_.size()) {
        line = std::string_view(buffer_.data() + pos_, nl - pos_);
        pos_ = nl + 1;
        return true;
      }
      if (cursor_ >= range_.end) {
        if (pos_ < buffer_.size()) {
          // Trailing line without newline (can only be the file's last).
          line = std::string_view(buffer_.data() + pos_,
                                  buffer_.size() - pos_);
          pos_ = buffer_.size();
          return true;
        }
        return false;
      }
      buffer_.erase(0, pos_);
      pos_ = 0;
      size_t want = static_cast<size_t>(
          std::min<uint64_t>(buffer_bytes_, range_.end - cursor_));
      std::string chunk = file_.read_at(cursor_, want);
      if (chunk.empty()) {
        cursor_ = range_.end;
        continue;
      }
      cursor_ += chunk.size();
      buffer_ += chunk;
    }
  }

 private:
  const InputFile& file_;
  ByteRange range_;
  uint64_t cursor_;
  size_t buffer_bytes_;
  std::string buffer_;
  size_t pos_ = 0;
};

std::string part_path(const std::string& out_dir, int rank,
                      TargetFormat format) {
  return out_dir + "/part-" + std::to_string(rank) +
         std::string(target_extension(format));
}

/// Reads the SAM header and the offset where alignment lines begin.
// Converter observability (docs/OBSERVABILITY.md, layer "convert").
// Stage wall time comes from obs::StageScope (registered only when the
// stage actually runs); these record the merged record/byte totals, once
// per conversion.
void record_convert_stats(const ConvertStats& stats) {
  if (!obs::metrics_enabled()) {
    return;
  }
  obs::counter("convert.records.in").add(stats.records_in);
  obs::counter("convert.records.out").add(stats.records_out);
  obs::counter("convert.bytes.in").add(stats.bytes_in);
  obs::counter("convert.bytes.out").add(stats.bytes_out);
}

void record_preprocess_stats(const PreprocessStats& stats) {
  if (!obs::metrics_enabled()) {
    return;
  }
  obs::counter("convert.preprocess.records").add(stats.records);
  obs::counter("convert.preprocess.bytes_in").add(stats.bytes_in);
  obs::counter("convert.preprocess.bytes_out").add(stats.bytes_out);
}

std::pair<SamHeader, uint64_t> read_sam_header(const std::string& path) {
  sam::SamFileReader reader(path);
  return {reader.header(), reader.alignment_start_offset()};
}

ConvertStats merge_stats(const std::vector<LocalStats>& locals) {
  ConvertStats stats;
  for (const LocalStats& l : locals) {
    stats.records_in += l.records_in;
    stats.records_out += l.records_out;
    stats.bytes_in += l.bytes_in;
    stats.bytes_out += l.bytes_out;
  }
  return stats;
}

/// Publishes every rank's LocalStats into the captured `locals` vector so
/// the post-run merge works on every transport. Under threads one writer
/// (rank 0) fills the shared vector; under shm/tcp each process owns a
/// private copy of `locals`, so every rank fills its own — which is what
/// makes the function return correct totals on all ranks of a launched
/// world.
void publish_locals(mpi::Comm& comm, const LocalStats& local,
                    std::vector<LocalStats>& locals) {
  static_assert(std::is_trivially_copyable_v<LocalStats>);
  const std::vector<LocalStats> all =
      comm.allgather_values<LocalStats>(local);
  if (comm.rank() == 0 || !mpi::ranks_share_address_space()) {
    std::copy(all.begin(), all.end(), locals.begin());
  }
}

/// The dynamic schedule is a single-process thread-pool path (no ranks);
/// under ngsx_mpirun every launched rank would run the whole conversion
/// and race on the part files.
void check_schedule_not_launched() {
  if (mpi::launched()) {
    throw UsageError(
        "--schedule dynamic runs a single-process pool and cannot execute "
        "inside an ngsx_mpirun world; use --schedule static");
  }
}

// ------------------------------------------------- dynamic scheduling core

/// One unit of dynamically-scheduled work: a slice of part `part`'s input,
/// as a byte range (SAM) or record/entry index range (BAMX/BAIX).
struct Chunk {
  int part = 0;
  uint64_t begin = 0;
  uint64_t end = 0;
};

/// What the parallel parse stage hands to the ordered commit stage.
struct ChunkResult {
  std::vector<AlignmentRecord> records;
  uint64_t bytes_in = 0;
};

/// Runs `chunks` (listed in global record order, grouped by part) through
/// an ordered pipeline on the process pool: `parse` runs on the pool with
/// dynamic chunk claiming, the commit stage feeds each part's records —
/// strictly in chunk order — into that part's TargetWriter. Because the
/// part record ranges equal the static schedule's, the part files come out
/// byte-identical to static mode; only the execution schedule differs.
ConvertStats run_dynamic_chunks(
    const std::vector<Chunk>& chunks, int n_parts,
    const std::string& out_dir, const ConvertOptions& options,
    const SamHeader& header,
    const std::function<ChunkResult(const Chunk&)>& parse) {
  std::vector<LocalStats> locals(static_cast<size_t>(n_parts));
  std::vector<std::string> outputs(static_cast<size_t>(n_parts));
  std::vector<bool> opened(static_cast<size_t>(n_parts), false);

  int current_part = -1;
  std::unique_ptr<TargetWriter> writer;
  auto open_part = [&](int part) {
    const std::string out_path = part_path(out_dir, part, options.format);
    outputs[static_cast<size_t>(part)] = out_path;
    opened[static_cast<size_t>(part)] = true;
    return make_target_writer(options.format, out_path, header,
                              options.include_header);
  };
  auto close_part = [&] {
    if (writer != nullptr) {
      writer->close();
      locals[static_cast<size_t>(current_part)].bytes_out =
          writer->bytes_written();
      writer.reset();
    }
  };

  size_t cursor = 0;
  exec::PipelineOptions popt;
  popt.workers = options.threads > 0 ? options.threads : options.ranks;

  exec::ordered_pipeline<Chunk, ChunkResult>(
      exec::process_pool(),
      [&](Chunk& chunk) {
        if (cursor >= chunks.size()) {
          return false;
        }
        chunk = chunks[cursor++];
        return true;
      },
      [&](Chunk&& chunk, uint64_t) { return parse(chunk); },
      [&](ChunkResult&& result, uint64_t ticket) {
        // Tickets are issued in source order, so ticket == chunk index.
        const Chunk& chunk = chunks[static_cast<size_t>(ticket)];
        if (chunk.part != current_part) {
          close_part();
          current_part = chunk.part;
          writer = open_part(chunk.part);
        }
        LocalStats& local = locals[static_cast<size_t>(chunk.part)];
        local.bytes_in += result.bytes_in;
        for (const AlignmentRecord& rec : result.records) {
          ++local.records_in;
          if (writer->write(rec)) {
            ++local.records_out;
          }
        }
      },
      popt);
  close_part();

  // Parts whose range held no chunks still get their (possibly
  // header-only) part file, exactly as a static rank would produce.
  for (int p = 0; p < n_parts; ++p) {
    if (!opened[static_cast<size_t>(p)]) {
      auto empty_writer = open_part(p);
      empty_writer->close();
      locals[static_cast<size_t>(p)].bytes_out =
          empty_writer->bytes_written();
    }
  }

  ConvertStats stats = merge_stats(locals);
  stats.outputs = std::move(outputs);
  return stats;
}

/// Splits each part's record-index range into batches of `batch` records.
std::vector<Chunk> record_chunks(
    const std::vector<std::pair<uint64_t, uint64_t>>& ranges,
    uint64_t batch) {
  std::vector<Chunk> chunks;
  for (size_t p = 0; p < ranges.size(); ++p) {
    auto [begin, end] = ranges[p];
    for (uint64_t at = begin; at < end; at += batch) {
      chunks.push_back(Chunk{static_cast<int>(p), at,
                             std::min<uint64_t>(end, at + batch)});
    }
  }
  return chunks;
}

// ------------------------------------------ the preprocessed on-disk layout

/// Where a preprocessed dataset lives (docs/FILEFORMATS.md "BAMXM"): the
/// manifest, and next to it the shards "<stem>-shard-<k>.bamx", where
/// <stem> is the manifest's file name without ".bamxm". Both preprocessors
/// name their shards through this, so there is one on-disk layout.
struct DatasetPaths {
  std::string dir;
  std::string stem;

  explicit DatasetPaths(const std::string& manifest_path) {
    const fs::path path(strutil::ends_with(manifest_path, ".bamxm")
                            ? manifest_path.substr(0, manifest_path.size() - 6)
                            : manifest_path);
    dir = path.has_parent_path() ? path.parent_path().string() : ".";
    stem = path.filename().string();
  }

  std::string shard_name(int k) const {
    return stem + "-shard-" + std::to_string(k) + ".bamx";
  }
  std::string shard_path(int k) const { return dir + "/" + shard_name(k); }
};

/// Publishes a dataset whose shards are all committed: merges the sorted
/// BAIX runs on the process pool, saves the BAIX, and saves the manifest
/// last, so a reader can never observe a manifest whose shards or index
/// are missing.
/// `runs` must be in record order (each run's indices below the next
/// run's); std::merge takes the left run on ties, so the merged index
/// equals BaixIndex::from_entries' stable sort over all entries.
void publish_dataset(std::vector<std::vector<bamx::BaixEntry>> runs,
                     const bamx::BamxManifest& manifest,
                     const std::string& manifest_path,
                     const std::string& baix_path) {
  {
    obs::Span span("convert", "preprocess.index");
    while (runs.size() > 1) {
      std::vector<std::vector<bamx::BaixEntry>> next((runs.size() + 1) / 2);
      exec::TaskGroup group(exec::process_pool());
      for (size_t i = 0; i + 1 < runs.size(); i += 2) {
        group.spawn([&, i] {
          std::vector<bamx::BaixEntry> merged;
          merged.reserve(runs[i].size() + runs[i + 1].size());
          std::merge(runs[i].begin(), runs[i].end(), runs[i + 1].begin(),
                     runs[i + 1].end(), std::back_inserter(merged),
                     bamx::baix_entry_less);
          next[i / 2] = std::move(merged);
        });
      }
      if (runs.size() % 2 != 0) {
        next.back() = std::move(runs.back());
      }
      group.wait();
      runs = std::move(next);
    }
    std::vector<bamx::BaixEntry> entries =
        runs.empty() ? std::vector<bamx::BaixEntry>{} : std::move(runs[0]);
    bamx::BaixIndex::from_sorted_entries(std::move(entries)).save(baix_path);
  }
  manifest.save(manifest_path);
}

/// Bytes on disk of a published dataset: manifest, shards and BAIX.
uint64_t dataset_bytes(const DatasetPaths& paths,
                       const bamx::BamxManifest& manifest,
                       const std::string& manifest_path,
                       const std::string& baix_path) {
  uint64_t bytes = ngsx::file_size(manifest_path) + ngsx::file_size(baix_path);
  for (const bamx::ManifestShard& s : manifest.shards) {
    bytes += ngsx::file_size(paths.dir + "/" + s.path);
  }
  return bytes;
}

}  // namespace

// ------------------------------------------------------- 1. SAM converter

ConvertStats convert_sam(const std::string& sam_path,
                         const std::string& out_dir,
                         const ConvertOptions& options) {
  NGSX_CHECK_MSG(options.ranks >= 1, "ranks must be >= 1");
  obs::StageScope stage("convert.stage.convert", "convert", "convert");
  fs::create_directories(out_dir);
  auto [header, body_offset] = read_sam_header(sam_path);
  const uint64_t file_size = ngsx::file_size(sam_path);
  const ByteRange body{body_offset, file_size};

  if (options.schedule == Schedule::kDynamic) {
    // Dynamic schedule: same part ranges as the static schedule (so part
    // files are byte-identical), but each part is subdivided into
    // Algorithm-1 byte chunks claimed dynamically from the pool.
    check_schedule_not_launched();
    WallTimer timer;
    InputFile file(sam_path);
    auto ranges = partition_sam_forward(file, body, options.ranks);
    std::vector<Chunk> chunks;
    for (size_t p = 0; p < ranges.size(); ++p) {
      const ByteRange range = ranges[p];
      if (range.size() == 0) {
        continue;
      }
      const uint64_t target = std::max<uint64_t>(options.chunk_bytes, 1);
      const int k = static_cast<int>(
          std::clamp<uint64_t>(range.size() / target, 1, 1 << 14));
      for (const ByteRange& sub : partition_sam_forward(file, range, k)) {
        if (sub.size() != 0) {
          chunks.push_back(Chunk{static_cast<int>(p), sub.begin, sub.end});
        }
      }
    }
    ConvertStats stats = run_dynamic_chunks(
        chunks, options.ranks, out_dir, options, header,
        [&](const Chunk& chunk) {
          ChunkResult out;
          out.bytes_in = chunk.end - chunk.begin;
          LineRangeReader lines(file, ByteRange{chunk.begin, chunk.end},
                                options.read_buffer_bytes);
          std::string_view line;
          while (lines.next(line)) {
            if (line.empty() || line[0] == '@') {
              continue;
            }
            out.records.emplace_back();
            sam::parse_record(line, header, out.records.back());
          }
          return out;
        });
    stats.seconds = timer.seconds();
    record_convert_stats(stats);
    return stats;
  }

  std::vector<LocalStats> locals(static_cast<size_t>(options.ranks));
  std::vector<std::string> outputs(static_cast<size_t>(options.ranks));
  for (int r = 0; r < options.ranks; ++r) {
    // Part paths are a pure function of the rank, so they need no
    // communication even when the ranks are separate processes.
    outputs[static_cast<size_t>(r)] = part_path(out_dir, r, options.format);
  }

  WallTimer timer;
  mpi::run(options.ranks, [&](mpi::Comm& comm) {
    const int rank = comm.rank();
    InputFile file(sam_path);  // each rank opens the input independently
    ByteRange range = partition_sam_distributed(file, body, comm);

    const std::string out_path = part_path(out_dir, rank, options.format);
    auto writer = make_target_writer(options.format, out_path, header,
                                     options.include_header);

    LocalStats local;
    local.bytes_in = range.size();

    LineRangeReader lines(file, range, options.read_buffer_bytes);
    AlignmentRecord rec;
    std::string_view line;
    while (lines.next(line)) {
      if (line.empty() || line[0] == '@') {
        continue;  // stray header line or blank
      }
      sam::parse_record(line, header, rec);
      ++local.records_in;
      if (writer->write(rec)) {
        ++local.records_out;
      }
    }
    writer->close();
    local.bytes_out = writer->bytes_written();
    publish_locals(comm, local, locals);
  });

  ConvertStats stats = merge_stats(locals);
  stats.seconds = timer.seconds();
  stats.outputs = std::move(outputs);
  record_convert_stats(stats);
  return stats;
}

// ------------------------------------------------------- 2. BAM converter

PreprocessStats preprocess_bam_parallel(const std::string& bam_path,
                                        const std::string& manifest_path,
                                        const std::string& baix_path,
                                        const PreprocessOptions& options) {
  obs::StageScope stage("convert.stage.preprocess", "convert", "preprocess");
  WallTimer timer;
  PreprocessStats stats;
  stats.bytes_in = ngsx::file_size(bam_path);

  const int threads =
      options.threads > 0 ? options.threads : exec::hardware_threads();
  const int n_shards = options.shards > 0 ? options.shards : threads;
  const uint64_t chunk_records =
      std::max<uint64_t>(options.chunk_records, 1);
  const DatasetPaths paths(manifest_path);

  bam::BamFileReader reader(bam_path, options.decode_threads);
  const SamHeader header = reader.header();

  // One raw chunk = the framed (but undecoded) bodies of up to
  // chunk_records BAM records; one encoded chunk = those records under a
  // chunk-local layout, plus the chunk's sorted BAIX run.
  struct RawChunk {
    std::string bytes;
    std::vector<uint32_t> sizes;
  };
  struct EncodedChunk {
    bamx::BamxLayout layout;
    std::string blob;
    std::vector<bamx::BaixEntry> entries;
  };
  /// A committed chunk inside the staging file, still on its local layout.
  struct Segment {
    bamx::BamxLayout layout;
    uint64_t n_records = 0;
    uint64_t offset = 0;
  };

  // The staging file holds the local-layout chunk blobs between the
  // pipeline and the re-stride pass; it is scratch, never published, and
  // removed on every exit path.
  const std::string staging_path = manifest_path + ".segs.tmp";
  struct StagingGuard {
    std::string path;
    ~StagingGuard() {
      std::error_code ec;
      fs::remove(path, ec);
    }
  } staging_guard{staging_path};

  std::vector<Segment> segments;
  std::vector<std::vector<bamx::BaixEntry>> runs;
  bamx::BamxLayout global;
  uint64_t total_records = 0;
  uint64_t staging_bytes = 0;

  // Stage 1 — the single pass: serial framing source, parallel
  // parse+encode workers, ordered committer (ticket order == file order,
  // so record bases and the staged byte order equal the sequential pass).
  {
    obs::Span span("convert", "preprocess.pipeline");
    OutputFile staging(staging_path, 1 << 20, OutputFile::Commit::kDirect);
    try {
      exec::PipelineOptions popt;
      popt.workers = threads;
      exec::ordered_pipeline<RawChunk, EncodedChunk>(
          exec::process_pool(),
          [&](RawChunk& chunk) {
            obs::Span frame_span("convert", "preprocess.frame");
            std::string body;
            while (chunk.sizes.size() < chunk_records &&
                   reader.next_raw(body)) {
              chunk.sizes.push_back(static_cast<uint32_t>(body.size()));
              chunk.bytes += body;
            }
            return !chunk.sizes.empty();
          },
          [&](RawChunk&& chunk, uint64_t) {
            obs::Span encode_span("convert", "preprocess.encode");
            // Raw BAM bodies transcode straight into BAMX: one validating
            // scan for the chunk layout, then per-section copies, with no
            // AlignmentRecord in between (bytes equal to decode + encode).
            EncodedChunk out;
            const std::string_view bytes(chunk.bytes);
            std::vector<bam::RecordShape> shapes(chunk.sizes.size());
            size_t off = 0;
            for (size_t k = 0; k < chunk.sizes.size(); ++k) {
              shapes[k] =
                  bam::scan_record(bytes.substr(off, chunk.sizes[k]));
              out.layout.accommodate(shapes[k]);
              off += chunk.sizes[k];
            }
            out.blob.reserve(shapes.size() * out.layout.stride());
            out.entries.reserve(shapes.size());
            off = 0;
            for (size_t k = 0; k < shapes.size(); ++k) {
              bamx::transcode_bam_record(bytes.substr(off, chunk.sizes[k]),
                                         shapes[k], out.layout, out.blob);
              out.entries.push_back(
                  bamx::BaixEntry{shapes[k].ref_id, shapes[k].pos, k});
              off += chunk.sizes[k];
            }
            std::stable_sort(out.entries.begin(), out.entries.end(),
                             bamx::baix_entry_less);
            return out;
          },
          [&](EncodedChunk&& chunk, uint64_t) {
            obs::Span commit_span("convert", "preprocess.commit");
            const uint64_t n = chunk.entries.size();
            for (bamx::BaixEntry& e : chunk.entries) {
              e.record_index += total_records;
            }
            runs.push_back(std::move(chunk.entries));
            segments.push_back(Segment{chunk.layout, n, staging_bytes});
            staging.write(chunk.blob);
            staging_bytes += chunk.blob.size();
            global.merge(chunk.layout);
            total_records += n;
          },
          popt);
      staging.close();
    } catch (...) {
      staging.discard();
      throw;
    }
  }
  stats.records = total_records;
  if (obs::metrics_enabled()) {
    obs::counter("convert.preprocess.chunks").add(segments.size());
    obs::counter("convert.preprocess.shards").add(n_shards);
  }

  // Stage 2a — parallel re-stride: each shard owner copies its record
  // range out of the staging segments into a final atomic-commit BAMX
  // carrying the merged global layout. Per-section byte copies — no
  // re-parse; restride_record output is bit-identical to a direct encode
  // under the global layout.
  std::vector<uint64_t> seg_bases(segments.size() + 1, 0);
  for (size_t s = 0; s < segments.size(); ++s) {
    seg_bases[s + 1] = seg_bases[s] + segments[s].n_records;
  }
  auto shard_ranges = split_records(total_records, n_shards);
  bamx::BamxManifest manifest;
  manifest.layout = global;
  manifest.n_records = total_records;
  manifest.shards.resize(static_cast<size_t>(n_shards));
  {
    obs::Span span("convert", "preprocess.restride");
    InputFile staged(staging_path);
    exec::TaskGroup group(exec::process_pool());
    for (int s = 0; s < n_shards; ++s) {
      group.spawn([&, s] {
        auto [lo, hi] = shard_ranges[static_cast<size_t>(s)];
        bamx::BamxWriter writer(paths.shard_path(s), header, global);
        size_t seg = static_cast<size_t>(
            std::upper_bound(seg_bases.begin(), seg_bases.end() - 1, lo) -
            seg_bases.begin() - 1);
        std::string bytes;
        std::string rec_out;
        for (uint64_t at = lo; at < hi;) {
          while (seg_bases[seg + 1] <= at) {
            ++seg;
          }
          const Segment& segment = segments[seg];
          const uint64_t from_stride = segment.layout.stride();
          const uint64_t take =
              std::min<uint64_t>(hi, seg_bases[seg + 1]) - at;
          bytes = staged.read_at(
              segment.offset + (at - seg_bases[seg]) * from_stride,
              static_cast<size_t>(take * from_stride));
          for (uint64_t k = 0; k < take; ++k) {
            rec_out.clear();
            bamx::restride_record(
                std::string_view(bytes).substr(
                    static_cast<size_t>(k * from_stride),
                    static_cast<size_t>(from_stride)),
                segment.layout, global, rec_out);
            writer.write_raw(rec_out);
          }
          at += take;
        }
        writer.close();
        manifest.shards[static_cast<size_t>(s)] =
            bamx::ManifestShard{paths.shard_name(s), hi - lo, lo};
      });
    }
    group.wait();
  }

  // Stage 2b — merge the per-chunk sorted BAIX runs (ticket order is
  // record order) on the pool, then publish the index and the manifest.
  publish_dataset(std::move(runs), manifest, manifest_path, baix_path);
  stats.bytes_out = dataset_bytes(paths, manifest, manifest_path, baix_path);
  stats.seconds = timer.seconds();
  record_preprocess_stats(stats);
  // The chunk buffers were allocated and freed on the process pool's
  // workers, whose malloc arenas outlive this pass and are not reused by
  // the conversion's rank threads: hand the free pages back now.
  malloc_trim(0);
  return stats;
}

ConvertStats convert_bamx(const std::string& bamx_path,
                          const std::string& baix_path,
                          const std::string& out_dir,
                          const ConvertOptions& options,
                          std::optional<Region> region) {
  NGSX_CHECK_MSG(options.ranks >= 1, "ranks must be >= 1");
  obs::StageScope stage("convert.stage.convert", "convert", "convert");
  fs::create_directories(out_dir);

  // Session setup: sniff and open the source (monolithic .bamx or .bamxm
  // shard manifest), lazily load the BAIX. One-shot here; ngsx_serve keeps
  // a session resident across requests.
  ConversionSession session(SessionOptions{bamx_path, baix_path, {}});
  const bamx::RecordSource& probe = session.source();
  const SamHeader header = session.header();
  const uint64_t n_records = session.num_records();
  const uint64_t stride = session.stride();

  // Partial conversion: locate the region in the BAIX by binary search
  // (paper §III-B); each rank then converts an equal share of the matching
  // index entries.
  size_t region_first = 0;
  size_t region_last = 0;
  if (region.has_value()) {
    NGSX_CHECK_MSG(!baix_path.empty(),
                   "partial conversion requires a BAIX index");
    std::tie(region_first, region_last) =
        session.baix().query(region->ref_id, region->begin, region->end);
  }

  if (options.schedule == Schedule::kDynamic) {
    // Dynamic schedule: the static record ranges are subdivided into
    // record batches dispatched through the pool; `probe` is shared by the
    // parse workers (its reads are positioned and const).
    check_schedule_not_launched();
    WallTimer timer;
    std::vector<Chunk> chunks;
    std::function<ChunkResult(const Chunk&)> parse;
    if (!region.has_value()) {
      chunks = record_chunks(split_records(n_records, options.ranks),
                             options.record_batch);
      parse = [&](const Chunk& chunk) {
        ChunkResult out;
        probe.read_range(chunk.begin, chunk.end, out.records);
        out.bytes_in = (chunk.end - chunk.begin) * stride;
        return out;
      };
    } else {
      chunks = record_chunks(
          split_records(region_last - region_first, options.ranks),
          options.record_batch);
      parse = [&](const Chunk& chunk) {
        ChunkResult out;
        out.bytes_in = (chunk.end - chunk.begin) * stride;
        for (uint64_t e = chunk.begin; e < chunk.end; ++e) {
          const bamx::BaixEntry& entry =
              session.baix().entry(region_first + static_cast<size_t>(e));
          out.records.emplace_back();
          probe.read(entry.record_index, out.records.back());
        }
        return out;
      };
    }
    ConvertStats stats = run_dynamic_chunks(chunks, options.ranks, out_dir,
                                            options, header, parse);
    stats.seconds = timer.seconds();
    record_convert_stats(stats);
    return stats;
  }

  std::vector<LocalStats> locals(static_cast<size_t>(options.ranks));
  std::vector<std::string> outputs(static_cast<size_t>(options.ranks));
  for (int r = 0; r < options.ranks; ++r) {
    outputs[static_cast<size_t>(r)] = part_path(out_dir, r, options.format);
  }

  WallTimer timer;
  mpi::run(options.ranks, [&](mpi::Comm& comm) {
    const int rank = comm.rank();
    auto reader_ptr = bamx::open_record_source(bamx_path);
    const bamx::RecordSource& reader = *reader_ptr;
    const std::string out_path = part_path(out_dir, rank, options.format);
    auto writer = make_target_writer(options.format, out_path, header,
                                     options.include_header);
    LocalStats local;

    if (!region.has_value()) {
      // Full conversion: even record-range split (exact thanks to the
      // fixed stride), bulk fetches of record_batch records at a time.
      auto ranges = split_records(n_records, comm.size());
      auto [begin, end] = ranges[static_cast<size_t>(rank)];
      std::vector<AlignmentRecord> batch;
      for (uint64_t at = begin; at < end;) {
        uint64_t take = std::min<uint64_t>(options.record_batch, end - at);
        batch.clear();
        reader.read_range(at, at + take, batch);
        for (const AlignmentRecord& rec : batch) {
          ++local.records_in;
          if (writer->write(rec)) {
            ++local.records_out;
          }
        }
        at += take;
        local.bytes_in += take * stride;
      }
    } else {
      // Partial conversion: equal share of BAIX entries, random access per
      // record (entries point anywhere in the BAMX).
      auto ranges =
          split_records(region_last - region_first, comm.size());
      auto [begin, end] = ranges[static_cast<size_t>(rank)];
      AlignmentRecord rec;
      for (uint64_t e = begin; e < end; ++e) {
        const bamx::BaixEntry& entry =
            session.baix().entry(region_first + static_cast<size_t>(e));
        reader.read(entry.record_index, rec);
        ++local.records_in;
        local.bytes_in += stride;
        if (writer->write(rec)) {
          ++local.records_out;
        }
      }
    }
    writer->close();
    local.bytes_out = writer->bytes_written();
    publish_locals(comm, local, locals);
  });

  ConvertStats stats = merge_stats(locals);
  stats.seconds = timer.seconds();
  stats.outputs = std::move(outputs);
  record_convert_stats(stats);
  return stats;
}

void build_baix2(const std::string& bamx_path,
                 const std::string& baix2_path) {
  obs::StageScope stage("convert.stage.index", "convert", "build_baix2");
  auto reader = bamx::open_record_source(bamx_path);
  baix2::Baix2Index::build(*reader).save(baix2_path);
}

ConvertStats convert_bamx_filtered(const std::string& bamx_path,
                                   const std::string& baix2_path,
                                   const std::string& out_dir,
                                   const ConvertOptions& options,
                                   const Region& region,
                                   baix2::RegionMode mode,
                                   const baix2::Filter& filter) {
  NGSX_CHECK_MSG(options.ranks >= 1, "ranks must be >= 1");
  obs::StageScope stage("convert.stage.convert", "convert", "convert");
  fs::create_directories(out_dir);

  ConversionSession session(SessionOptions{bamx_path, {}, baix2_path});
  const bamx::RecordSource& probe = session.source();
  const SamHeader header = session.header();
  const uint64_t stride = session.stride();

  // Resolve the matching record set on the index alone, then hand each
  // rank an equal share (indices are ascending, so shares stay I/O-local).
  std::vector<uint64_t> matches = session.plan(region, mode, filter);

  if (options.schedule == Schedule::kDynamic) {
    check_schedule_not_launched();
    WallTimer timer;
    std::vector<Chunk> chunks = record_chunks(
        split_records(matches.size(), options.ranks), options.record_batch);
    ConvertStats stats = run_dynamic_chunks(
        chunks, options.ranks, out_dir, options, header,
        [&](const Chunk& chunk) {
          ChunkResult out;
          out.bytes_in = (chunk.end - chunk.begin) * stride;
          for (uint64_t k = chunk.begin; k < chunk.end; ++k) {
            out.records.emplace_back();
            probe.read(matches[static_cast<size_t>(k)], out.records.back());
          }
          return out;
        });
    stats.seconds = timer.seconds();
    record_convert_stats(stats);
    return stats;
  }

  std::vector<LocalStats> locals(static_cast<size_t>(options.ranks));
  std::vector<std::string> outputs(static_cast<size_t>(options.ranks));
  for (int r = 0; r < options.ranks; ++r) {
    outputs[static_cast<size_t>(r)] = part_path(out_dir, r, options.format);
  }

  WallTimer timer;
  mpi::run(options.ranks, [&](mpi::Comm& comm) {
    const int rank = comm.rank();
    auto reader_ptr = bamx::open_record_source(bamx_path);
    const bamx::RecordSource& reader = *reader_ptr;
    const std::string out_path = part_path(out_dir, rank, options.format);
    auto writer = make_target_writer(options.format, out_path, header,
                                     options.include_header);
    LocalStats local;

    auto shares = split_records(matches.size(), comm.size());
    auto [begin, end] = shares[static_cast<size_t>(rank)];
    AlignmentRecord rec;
    for (uint64_t k = begin; k < end; ++k) {
      reader.read(matches[static_cast<size_t>(k)], rec);
      ++local.records_in;
      local.bytes_in += stride;
      if (writer->write(rec)) {
        ++local.records_out;
      }
    }
    writer->close();
    local.bytes_out = writer->bytes_written();
    publish_locals(comm, local, locals);
  });

  ConvertStats stats = merge_stats(locals);
  stats.seconds = timer.seconds();
  stats.outputs = std::move(outputs);
  record_convert_stats(stats);
  return stats;
}

ConvertStats convert_bam_sequential(const std::string& bam_path,
                                    const std::string& out_path,
                                    TargetFormat format,
                                    int decode_threads) {
  obs::StageScope stage("convert.stage.convert", "convert", "convert");
  WallTimer timer;
  bam::BamFileReader reader(bam_path, decode_threads);
  auto writer = make_target_writer(format, out_path, reader.header(),
                                   /*include_header=*/true);
  ConvertStats stats;
  stats.bytes_in = ngsx::file_size(bam_path);
  AlignmentRecord rec;
  while (reader.next(rec)) {
    ++stats.records_in;
    if (writer->write(rec)) {
      ++stats.records_out;
    }
  }
  writer->close();
  stats.bytes_out = writer->bytes_written();
  stats.outputs = {out_path};
  stats.seconds = timer.seconds();
  record_convert_stats(stats);
  return stats;
}

// ------------------------------------- 3. preprocessing-optimized SAM

PreprocessStats preprocess_sam_parallel(const std::string& sam_path,
                                        const std::string& manifest_path,
                                        const std::string& baix_path,
                                        int m_ranks) {
  NGSX_CHECK_MSG(m_ranks >= 1, "ranks must be >= 1");
  obs::StageScope stage("convert.stage.preprocess", "convert", "preprocess");
  const DatasetPaths paths(manifest_path);
  auto [header, body_offset] = read_sam_header(sam_path);
  const ByteRange body{body_offset, ngsx::file_size(sam_path)};

  /// What pass 1 of one rank tells the others.
  struct Measure {
    bamx::BamxLayout layout;
    uint64_t n_records = 0;
  };

  WallTimer timer;
  bamx::BamxManifest published;
  mpi::run(m_ranks, [&](mpi::Comm& comm) {
    const int rank = comm.rank();
    InputFile file(sam_path);
    const ByteRange range = partition_sam_distributed(file, body, comm);
    const auto for_each_record = [&](const auto& fn) {
      LineRangeReader lines(file, range, 4 << 20);
      AlignmentRecord rec;
      std::string_view line;
      while (lines.next(line)) {
        if (line.empty() || line[0] == '@') {
          continue;
        }
        sam::parse_record(line, header, rec);
        fn(rec);
      }
    };

    // Pass 1 (measure): this partition's layout and record count. Every
    // rank then derives the same manifest: the merged global layout and
    // each shard's record base (a prefix sum over ranks).
    Measure local;
    for_each_record([&](const AlignmentRecord& rec) {
      local.layout.accommodate(rec);
      ++local.n_records;
    });
    bamx::BamxManifest manifest;
    for (const Measure& m : comm.allgather_values(local)) {
      manifest.layout.merge(m.layout);
      manifest.shards.push_back(bamx::ManifestShard{
          paths.shard_name(static_cast<int>(manifest.shards.size())),
          m.n_records, manifest.n_records});
      manifest.n_records += m.n_records;
    }
    const uint64_t base =
        manifest.shards[static_cast<size_t>(rank)].record_base;

    // Pass 2 (encode): shard `rank` under the global layout, plus this
    // rank's sorted BAIX run over global record indices.
    std::vector<bamx::BaixEntry> run;
    run.reserve(local.n_records);
    bamx::BamxWriter writer(paths.shard_path(rank), header, manifest.layout);
    for_each_record([&](const AlignmentRecord& rec) {
      writer.write(rec);
      run.push_back(bamx::BaixEntry{rec.ref_id, rec.pos, base + run.size()});
    });
    writer.close();
    std::stable_sort(run.begin(), run.end(), bamx::baix_entry_less);

    // The runs travel to rank 0 as messages, so every transport works;
    // rank 0 publishes once all shards are committed (a failed rank aborts
    // the gather, and nothing is published).
    auto runs = comm.gather_vectors(0, run);
    if (rank == 0) {
      publish_dataset(std::move(runs), manifest, manifest_path, baix_path);
    }
    if (rank == 0 || !mpi::ranks_share_address_space()) {
      published = std::move(manifest);
    }
  });

  PreprocessStats stats;
  stats.records = published.n_records;
  stats.bytes_in = body.size();
  stats.bytes_out = dataset_bytes(paths, published, manifest_path, baix_path);
  stats.seconds = timer.seconds();
  record_preprocess_stats(stats);
  return stats;
}

}  // namespace ngsx::core
