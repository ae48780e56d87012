// BAM preprocessing benchmark: the single-pass pipeline (framing ->
// scan+transcode workers -> ordered commit appending each chunk to its
// shard) at widths 1, 2 and 4, plus an analytic model calibrated from the
// measured serial per-stage costs.
//
// Emits BENCH_preproc.json (path configurable with --json) with two
// sections:
//
//   "measured": real wall-clock seconds of preprocess_bam_parallel (BAMXM
//     manifest) on this machine at each width; width 1 is the sequential
//     baseline.
//   "modeled": wall time predicted from the measured serial per-stage
//     costs under P genuinely concurrent workers. Run sequentially, every
//     stage is paid in turn; the pipeline leaves record framing and the
//     ordered shard writes as serial stages that overlap each other and
//     the workers (the paper's §III-B observation), then commits the
//     shards (fsync + rename) and builds the BAIX:
//
//       T_seq     = t_decode + t_frame + t_parse + t_encode + t_write
//                   + t_sync + t_index
//       T_pipe(P) = max(t_frame, t_write,
//                       (t_decode + t_parse + t_encode) / P)
//                   + t_sync + t_index
//
//     t_index is a serial stable sort of every entry plus the save, an
//     upper bound on the pipeline's merge of sorted per-chunk runs.
//
// Usage: bench_preproc [--pairs N] [--repeats R] [--json PATH]

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/convert.h"
#include "formats/bam.h"
#include "formats/bamx.h"
#include "formats/bgzf.h"
#include "obs/metrics.h"
#include "simdata/readsim.h"
#include "util/cli.h"
#include "util/tempdir.h"
#include "util/timer.h"

using namespace ngsx;

namespace {

struct Measured {
  std::string preprocessor;
  int threads = 0;
  double seconds = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const uint64_t pairs = static_cast<uint64_t>(args.get_int("pairs", 20000));
  const int repeats = static_cast<int>(args.get_int("repeats", 3));
  const std::string json_path = args.get("json", "BENCH_preproc.json");

  obs::enable_metrics();

  TempDir tmp("bench_preproc");
  const std::string bam_path = tmp.file("input.bam");
  std::printf("=== BAM preprocessing: one-pass pipeline by width ===\n");
  auto genome = simdata::ReferenceGenome::simulate(
      simdata::mouse_like_references(2'000'000), 99);
  std::vector<sam::AlignmentRecord> records;
  {
    simdata::ReadSimConfig cfg;
    cfg.seed = 99;
    records = simdata::simulate_alignments(genome, pairs, cfg);
    bam::BamFileWriter w(bam_path, genome.header());
    for (const auto& r : records) {
      w.write(r);
    }
    w.close();
  }
  const uint64_t bam_bytes = file_size(bam_path);
  std::printf("dataset: %llu records, %.1f MB BAM\n",
              static_cast<unsigned long long>(records.size()),
              bam_bytes / 1e6);

  // --------------------------------------------- serial per-stage costs
  // t_decode: BGZF inflate of the whole file, no record interpretation.
  double t_decode;
  {
    bgzf::Reader reader(bam_path);
    char buf[1 << 16];
    WallTimer timer;
    while (reader.read(buf, sizeof(buf)) > 0) {
    }
    t_decode = timer.seconds();
  }
  // t_frame: record framing on top of the decode — the sequential residue
  // of the pipeline. Measured as (decode + framing) - decode.
  std::vector<std::string> bodies;
  double t_frame;
  {
    bam::BamFileReader reader(bam_path, /*decode_threads=*/1);
    std::string body;
    WallTimer timer;
    while (reader.next_raw(body)) {
      bodies.push_back(body);
    }
    t_frame = std::max(0.0, timer.seconds() - t_decode);
  }
  // t_parse: the validating walk over every raw BAM body that yields its
  // BAMX section lengths (what the workers measure the chunk layout with).
  double t_parse;
  bamx::BamxLayout layout;
  std::vector<bam::RecordShape> shapes(bodies.size());
  {
    WallTimer timer;
    for (size_t i = 0; i < bodies.size(); ++i) {
      shapes[i] = bam::scan_record(bodies[i]);
      layout.accommodate(shapes[i]);
    }
    t_parse = timer.seconds();
  }
  // t_encode: raw BAM body -> fixed-stride BAMX bytes by section copies.
  double t_encode;
  std::string blob;
  blob.reserve(bodies.size() * layout.stride());  // as the workers do
  {
    WallTimer timer;
    for (size_t i = 0; i < bodies.size(); ++i) {
      bamx::transcode_bam_record(bodies[i], shapes[i], layout, blob);
    }
    t_encode = timer.seconds();
  }
  // t_write: the ordered commit appending every chunk blob to a shard
  // (chunks of PreprocessOptions::chunk_records records); t_sync: the
  // shard commit after the pass (fsync + rename).
  double t_write;
  double t_sync;
  {
    TempDir out("bench_preproc_write");
    OutputFile shard(out.file("x-shard-0.bamx"));
    const size_t chunk_bytes =
        core::PreprocessOptions{}.chunk_records * layout.stride();
    WallTimer timer;
    for (size_t at = 0; at < blob.size(); at += chunk_bytes) {
      shard.write(std::string_view(blob).substr(at, chunk_bytes));
    }
    t_write = timer.seconds();
    WallTimer sync_timer;
    shard.close();
    t_sync = sync_timer.seconds();
  }
  // t_index: the BAIX over every record, sorted and saved.
  double t_index;
  {
    TempDir out("bench_preproc_index");
    std::vector<bamx::BaixEntry> entries;
    entries.reserve(shapes.size());
    for (size_t i = 0; i < shapes.size(); ++i) {
      entries.push_back(bamx::BaixEntry{shapes[i].ref_id, shapes[i].pos, i});
    }
    WallTimer timer;
    bamx::BaixIndex::from_entries(std::move(entries)).save(out.file("x.baix"));
    t_index = timer.seconds();
  }
  std::printf("serial stage costs: decode %.3f s, frame %.3f s, parse %.3f "
              "s, encode %.3f s, write %.3f s, sync %.3f s, index %.3f s\n",
              t_decode, t_frame, t_parse, t_encode, t_write, t_sync, t_index);

  // ------------------------------------------------------------- measured
  std::vector<Measured> measured;
  auto record_best = [&](const std::string& name, int threads, auto run) {
    double best = 1e300;
    for (int r = 0; r < repeats; ++r) {
      best = std::min(best, run());
    }
    measured.push_back(Measured{name, threads, best});
    std::printf("  %-10s threads=%d  %8.3f s\n", name.c_str(), threads,
                best);
  };

  std::printf("measured (best of %d runs):\n", repeats);
  for (int threads : {1, 2, 4}) {
    record_best("one-pass", threads, [&] {
      TempDir out("bench_preproc_par");
      core::PreprocessOptions opt;
      opt.threads = threads;
      opt.decode_threads = threads;
      auto stats = core::preprocess_bam_parallel(
          bam_path, out.file("x.bamxm"), out.file("x.baix"), opt);
      return stats.seconds;
    });
  }

  // -------------------------------------------------------------- modeled
  const double t_seq = t_decode + t_frame + t_parse + t_encode + t_write +
                       t_sync + t_index;
  const std::vector<int> model_threads = {1, 2, 4, 8, 16};
  std::vector<double> modeled_s;
  std::printf("modeled (P concurrent workers, from serial stage costs; "
              "sequential baseline %.3f s):\n", t_seq);
  for (int p : model_threads) {
    double pipe =
        std::max({t_frame, t_write, (t_decode + t_parse + t_encode) / p}) +
        t_sync + t_index;
    modeled_s.push_back(pipe);
    std::printf("  P=%-2d %8.3f s (%.2fx over sequential)\n", p, pipe,
                t_seq / pipe);
  }

  // ----------------------------------------------------------------- JSON
  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"records\": %llu,\n",
               static_cast<unsigned long long>(records.size()));
  std::fprintf(f, "  \"bam_mb\": %.2f,\n", bam_bytes / 1e6);
  std::fprintf(f, "  \"decode_s\": %.4f,\n", t_decode);
  std::fprintf(f, "  \"frame_s\": %.4f,\n", t_frame);
  std::fprintf(f, "  \"parse_s\": %.4f,\n", t_parse);
  std::fprintf(f, "  \"encode_s\": %.4f,\n", t_encode);
  std::fprintf(f, "  \"write_s\": %.4f,\n", t_write);
  std::fprintf(f, "  \"sync_s\": %.4f,\n", t_sync);
  std::fprintf(f, "  \"index_s\": %.4f,\n", t_index);
  std::fprintf(f, "  \"sequential_modeled_s\": %.4f,\n", t_seq);
  std::fprintf(f, "  \"measured\": [\n");
  for (size_t i = 0; i < measured.size(); ++i) {
    const Measured& m = measured[i];
    std::fprintf(f,
                 "    {\"preprocessor\": \"%s\", \"threads\": %d, "
                 "\"seconds\": %.4f}%s\n",
                 m.preprocessor.c_str(), m.threads, m.seconds,
                 i + 1 < measured.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"modeled\": [\n");
  for (size_t i = 0; i < model_threads.size(); ++i) {
    std::fprintf(f,
                 "    {\"threads\": %d, \"seconds\": %.4f, "
                 "\"speedup\": %.2f}%s\n",
                 model_threads[i], modeled_s[i], t_seq / modeled_s[i],
                 i + 1 < model_threads.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  // Full ngsx.metrics.v1 snapshot: the convert.preprocess.* spans and
  // counters for every run above (docs/OBSERVABILITY.md).
  std::fprintf(f, "  \"obs\": %s\n}\n", obs::metrics_json().c_str());
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
