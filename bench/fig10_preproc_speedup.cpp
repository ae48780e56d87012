// Figure 10 reproduction: speedup of the (parallelized) SAM preprocessing
// step of the preprocessing-optimized SAM format converter.
//
// Paper (§V-F): the same 15.7 GB SAM dataset; sequential preprocessing
// takes 2187 s. Reported shape: scalability *within a single node* is
// bridled by the I/O bottleneck, but performance scales well as more nodes
// join, demonstrating that Algorithm 1 parallelizes the preprocessing
// effectively in distributed environments.
//
// Method: real parallel preprocessing runs validate Algorithm 1 behaviour;
// measured parse+encode costs replay at 15.7 GB scale. The within-node
// I/O ceiling emerges from block placement sharing one node's I/O path.

#include <cstdio>

#include "bench_util.h"
#include "cluster/costmodel.h"
#include "core/convert.h"
#include "formats/bam.h"
#include "simdata/readsim.h"
#include "util/cli.h"
#include "util/tempdir.h"

using namespace ngsx;
using cluster::IoPattern;
using cluster::Phase;
using cluster::RankWork;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const uint64_t pairs = static_cast<uint64_t>(args.get_int("pairs", 15000));

  bench::print_header("Figure 10: SAM preprocessing speedup");

  // Functional check: SAM preprocessing at M=1 and M=4 and the BAM
  // preprocessor over the same records publish one and the same index.
  {
    TempDir tmp("fig10");
    auto genome = simdata::ReferenceGenome::simulate(
        simdata::mouse_like_references(1'000'000), 10);
    simdata::ReadSimConfig rcfg;
    rcfg.seed = 10;
    auto records = simdata::simulate_alignments(genome, 4000, rcfg);
    const std::string sam_path = tmp.file("in.sam");
    const std::string bam_path = tmp.file("in.bam");
    {
      sam::SamFileWriter sw(sam_path, genome.header());
      bam::BamFileWriter bw(bam_path, genome.header());
      for (const auto& r : records) {
        sw.write(r);
        bw.write(r);
      }
      sw.close();
      bw.close();
    }
    auto one = core::preprocess_sam_parallel(sam_path, tmp.file("m1.bamxm"),
                                             tmp.file("m1.baix"), 1);
    auto four = core::preprocess_sam_parallel(sam_path, tmp.file("m4.bamxm"),
                                              tmp.file("m4.baix"), 4);
    core::PreprocessOptions popt;
    popt.threads = 4;
    auto bam = core::preprocess_bam_parallel(bam_path, tmp.file("b.bamxm"),
                                             tmp.file("b.baix"), popt);
    const std::string baix = read_file(tmp.file("m1.baix"));
    std::printf("functional check: %llu records; SAM M=1, SAM M=4 and BAM "
                "record totals %s, BAIX files %s\n",
                static_cast<unsigned long long>(one.records),
                one.records == four.records && one.records == bam.records
                    ? "agree"
                    : "DISAGREE",
                baix == read_file(tmp.file("m4.baix")) &&
                        baix == read_file(tmp.file("b.baix"))
                    ? "identical"
                    : "DIFFER");
  }

  auto costs = cluster::calibrate_conversion(pairs, /*seed=*/10);
  cluster::ClusterSim sim(bench::paper_cluster());
  const uint64_t records = static_cast<uint64_t>(
      bench::kFig9SamBytes / costs.sam_bytes_per_record);
  const double cpu_factor = bench::opteron_cpu_factor(
      costs,
      costs.sam_parse + costs.format_cpu.at(core::TargetFormat::kFastq));
  // Preprocessing = parse SAM text + encode BAMX + write BAMX/BAIX.
  const double cpu_per_record =
      cpu_factor * (costs.sam_parse + costs.bamx_encode);
  const double out_bytes_per_record = costs.bamx_bytes_per_record + 16.0;

  auto make_work = [&](int p) {
    std::vector<RankWork> work(static_cast<size_t>(p));
    double recs = static_cast<double>(records) / p;
    for (auto& w : work) {
      w.phases = {
          Phase::read(bench::kFig9SamBytes / p, IoPattern::kIrregular),
          Phase::compute(recs * cpu_per_record),
          Phase::write(recs * out_bytes_per_record, IoPattern::kRegular),
      };
    }
    return work;
  };

  auto series = cluster::speedup_series(
      sim, {1, 2, 4, 8, 16, 32, 64, 128}, make_work);
  bench::print_series("SAM -> BAMX preprocessing", series);
  std::printf("sequential replay %.0f s (paper: 2187 s on the same anchor"
              " hardware)\n", series[0].seconds);

  std::printf("\npaper shape: sequential 2187 s; limited scaling within one\n"
              "node (<=8 cores share its I/O path), good scaling beyond as\n"
              "nodes add I/O bandwidth. Within-node ceiling here: speedup at\n"
              "8 cores %.1fx vs 16 cores %.1fx.\n",
              series[3].speedup, series[4].speedup);
  return 0;
}
