// `gen`: seeded inputs and reference digests for one workload.
//
// Everything here runs outside the timed sections. The reference digests
// come from the oracle path each workload's contract names: the sequential
// BAM converter for bam_to_sam, a 1-rank run for sam_to_bam and an
// in-memory collation for markdup.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "common.h"
#include "core/collate.h"
#include "core/convert.h"
#include "exec/pool.h"
#include "formats/bam.h"
#include "formats/bgzf_parallel.h"
#include "formats/sam.h"
#include "simdata/readsim.h"
#include "simdata/reference.h"
#include "util/binio.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace ngsx;

namespace {

void write_sam(const std::string& path, const sam::SamHeader& header,
               const std::vector<sam::AlignmentRecord>& recs, size_t n) {
  sam::SamFileWriter writer(path, header);
  for (size_t i = 0; i < n; ++i) {
    writer.write(recs[i]);
  }
  writer.close();
}

// The bytes bam::BamFileWriter writes (header, then records, one BGZF
// stream), compressed on every core to keep generation short.
void write_bam(const std::string& path, const sam::SamHeader& header,
               const std::vector<sam::AlignmentRecord>& recs, size_t n) {
  bgzf::ParallelWriter writer(path, exec::hardware_threads());
  std::string buf;
  bam::encode_header(header, buf);
  for (size_t i = 0; i < n; ++i) {
    bam::encode_record(recs[i], buf);
    if (buf.size() >= (1 << 20)) {
      writer.write(buf);
      buf.clear();
    }
  }
  writer.write(buf);
  writer.close();
}

// Reference digest of `input` for `workload`, computed by the oracle path.
std::string reference_digest(const std::string& workload,
                             const std::string& input,
                             const std::string& scratch) {
  fs::remove_all(scratch);
  fs::create_directories(scratch);
  std::string digest;
  if (workload == "bam_to_sam") {
    core::convert_bam_sequential(input, scratch + "/ref.sam",
                                 core::TargetFormat::kSam, 1);
    digest = digest_sam_parts({scratch + "/ref.sam"}).str();
  } else if (workload == "sam_to_bam") {
    core::ConvertOptions opt;
    opt.format = core::TargetFormat::kBam;
    opt.ranks = 1;
    const core::ConvertStats st = core::convert_sam(input, scratch, opt);
    digest = digest_bam_parts(st.outputs).str();
  } else if (workload == "markdup") {
    core::CollateOptions opt;  // default budget holds every record
    core::mark_duplicates(input, scratch + "/ref.bam",
                          core::DuplicateMode::kMark, opt);
    digest = digest_file(scratch + "/ref.bam").str();
  }
  fs::remove_all(scratch);
  return digest;
}

// Seeded region requests: `hot_frac` of them are 3-30 kb viewport windows
// inside a `hot_mb` hot set on chr1, the rest uniform windows of up to
// 100 kb anywhere; formats are mostly sam, some bed.
void write_requests(const std::string& path, const sam::SamHeader& header,
                    uint64_t seed, size_t count, double hot_mb,
                    double hot_frac) {
  std::mt19937_64 rng(seed ^ 0x5eedf00dULL);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const auto& refs = header.references();
  const int64_t chr1_len = header.ref_length(0);
  const int64_t hot_len =
      std::min<int64_t>(static_cast<int64_t>(hot_mb * 1e6), chr1_len);
  const int64_t hot_begin = static_cast<int64_t>(
      unit(rng) * static_cast<double>(chr1_len - hot_len));
  std::vector<double> weights;
  for (const auto& ref : refs) {
    weights.push_back(static_cast<double>(ref.length));
  }
  std::discrete_distribution<size_t> pick_ref(weights.begin(), weights.end());

  std::string out;
  for (size_t i = 0; i < count; ++i) {
    size_t ref = 0;
    int64_t begin = 0;
    int64_t len = 0;
    if (unit(rng) < hot_frac) {
      len = 3000 + static_cast<int64_t>(unit(rng) * 27000);
      begin = hot_begin +
              static_cast<int64_t>(unit(rng) * static_cast<double>(hot_len));
    } else {
      ref = pick_ref(rng);
      len = 1000 + static_cast<int64_t>(unit(rng) * 99000);
      begin = static_cast<int64_t>(unit(rng) *
                                   static_cast<double>(refs[ref].length));
    }
    const int64_t ref_len = refs[ref].length;
    begin = std::min(begin, std::max<int64_t>(0, ref_len - len));
    const int64_t end = std::min(begin + len, ref_len);
    const char* format = unit(rng) < 0.85 ? "sam" : "bed";
    out += "CONVERT " + refs[ref].name + ":" + std::to_string(begin + 1) +
           "-" + std::to_string(end) + " " + format + " noheader\n";
  }
  write_file(path, out);
}

}  // namespace

// gen --workload W --seed N --dir D --records R --genome-mb G
//     --hot-mb H --hot-frac F [--requests Q]
//
// --hot-mb and --hot-frac are region_serve's traffic mix, which both the
// workload's request stream (--requests lines, region_serve only) and the
// traced run's probe request stream follow.
int cmd_gen(const CliArgs& args) {
  const std::string workload = need(args, "workload");
  const std::string dir = need(args, "dir");
  const uint64_t seed = static_cast<uint64_t>(need_int(args, "seed"));
  const uint64_t records = static_cast<uint64_t>(need_int(args, "records"));
  const double genome_mb = need_double(args, "genome-mb");
  const double hot_mb = need_double(args, "hot-mb");
  const double hot_frac = need_double(args, "hot-frac");
  if (records < 2 || kSmallRecords > records ||
      (workload != "bam_to_sam" && workload != "sam_to_bam" &&
       workload != "markdup" && workload != "region_serve")) {
    std::fprintf(stderr, "gen: bad arguments\n");
    return 2;
  }
  fs::create_directories(dir);

  const simdata::ReferenceGenome genome = simdata::ReferenceGenome::simulate(
      simdata::mouse_like_references(
          static_cast<uint64_t>(genome_mb * 1e6)),
      seed);
  simdata::ReadSimConfig cfg;
  cfg.seed = seed;
  const std::vector<sam::AlignmentRecord> recs =
      simdata::simulate_alignments(genome, records / 2, cfg);
  const sam::SamHeader& header = genome.header();
  const size_t n_small = std::min<size_t>(kSmallRecords, recs.size());

  JsonObject info;
  info.num("records", static_cast<double>(recs.size()));
  if (workload == "sam_to_bam") {
    write_sam(dir + "/in.sam", header, recs, recs.size());
    write_sam(dir + "/small.sam", header, recs, n_small);
    info.str("ref", reference_digest(workload, dir + "/in.sam",
                                     dir + "/ref.tmp"));
    info.str("ref_small", reference_digest(workload, dir + "/small.sam",
                                           dir + "/ref.tmp"));
  } else {
    write_bam(dir + "/in.bam", header, recs, recs.size());
  }
  if (workload == "bam_to_sam" || workload == "markdup") {
    write_bam(dir + "/small.bam", header, recs, n_small);
    info.str("ref", reference_digest(workload, dir + "/in.bam",
                                     dir + "/ref.tmp"));
    info.str("ref_small", reference_digest(workload, dir + "/small.bam",
                                           dir + "/ref.tmp"));
  }
  // The probe set of the traced run: its own reads on the same genome.
  simdata::ReadSimConfig probe_cfg = cfg;
  probe_cfg.seed = seed + 1;
  const std::vector<sam::AlignmentRecord> probe =
      simdata::simulate_alignments(genome, kProbeRecords / 2, probe_cfg);
  write_sam(dir + "/probe.sam", header, probe, probe.size());
  write_bam(dir + "/probe.bam", header, probe, probe.size());
  write_requests(dir + "/probe_requests.txt", header, seed + 1,
                 kProbeRequests, hot_mb, hot_frac);
  if (workload == "region_serve") {
    core::PreprocessOptions popt;
    core::preprocess_bam_parallel(dir + "/in.bam", dir + "/serve.bamxm",
                                  dir + "/serve.baix", popt);
    write_requests(dir + "/requests.txt", header, seed,
                   static_cast<size_t>(need_int(args, "requests")), hot_mb,
                   hot_frac);
  }
  write_file(dir + "/info.json", info.dump() + "\n");
  return 0;
}

}  // namespace perfbench
