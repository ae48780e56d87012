// Tests for the preprocessors and their one on-disk layout (BAMXM shard
// manifests + merged BAIX): every published segment against a sequential
// encode of its records under its own layout, SAM- vs BAM-derived
// datasets, the ShardedBamxReader record-space view, manifest validation,
// and crash-consistency when a shard committer dies mid-preprocess.

#include <gtest/gtest.h>

#include <filesystem>

#include "core/convert.h"
#include "formats/bam.h"
#include "simdata/readsim.h"
#include "util/iopolicy.h"
#include "util/tempdir.h"

namespace ngsx::core {
namespace {

namespace fs = std::filesystem;
using sam::AlignmentRecord;

/// The same simulated records written as SAM and as BAM.
struct Dataset {
  TempDir tmp;
  simdata::ReferenceGenome genome;
  std::vector<AlignmentRecord> records;
  std::string sam_path;
  std::string bam_path;

  explicit Dataset(uint64_t pairs = 300, uint64_t seed = 41,
                   const std::vector<sam::Reference>& refs =
                       simdata::mouse_like_references(400000))
      : genome(simdata::ReferenceGenome::simulate(refs, seed)) {
    simdata::ReadSimConfig cfg;
    cfg.seed = seed;
    records = simdata::simulate_alignments(genome, pairs, cfg);
    sam_path = tmp.file("in.sam");
    bam_path = tmp.file("in.bam");
    sam::SamFileWriter sw(sam_path, genome.header());
    bam::BamFileWriter bw(bam_path, genome.header());
    for (const auto& r : records) {
      sw.write(r);
      bw.write(r);
    }
    sw.close();
    bw.close();
  }
};

std::string concat_outputs(const ConvertStats& stats) {
  std::string all;
  for (const auto& path : stats.outputs) {
    all += read_file(path);
  }
  return all;
}

/// The oracle: measure every record, then encode them in order into one
/// monolithic BAMX under that layout, and index them with from_entries'
/// stable sort. What any preprocessor must reproduce byte for byte.
void encode_sequentially(const Dataset& d, const std::string& bamx_path,
                         const std::string& baix_path) {
  bamx::BamxLayout layout;
  for (const AlignmentRecord& rec : d.records) {
    layout.accommodate(rec);
  }
  bamx::BamxWriter writer(bamx_path, d.genome.header(), layout);
  std::vector<bamx::BaixEntry> entries;
  for (const AlignmentRecord& rec : d.records) {
    writer.write(rec);
    entries.push_back(bamx::BaixEntry{rec.ref_id, rec.pos, entries.size()});
  }
  writer.close();
  bamx::BaixIndex::from_entries(std::move(entries)).save(baix_path);
}

/// The oracle for a published dataset over `records`: each shard holds
/// exactly its segments, each segment is bamx::encode_record of its
/// records under its own layout (the one a measuring pass over them
/// yields), every record decodes equal to the input, and the BAIX equals
/// BaixIndex::from_entries over all records.
void expect_dataset(const std::string& manifest_path,
                    const std::string& baix_path,
                    const std::vector<AlignmentRecord>& records) {
  const bamx::BamxManifest m = bamx::BamxManifest::load(manifest_path);
  ASSERT_EQ(m.n_records, records.size());
  std::vector<std::string> shards(m.shards.size());
  uint64_t base = 0;
  for (const bamx::ManifestSegment& seg : m.segments) {
    bamx::BamxLayout measured;
    for (uint64_t i = base; i < base + seg.n_records; ++i) {
      measured.accommodate(records[i]);
      bamx::encode_record(records[i], seg.layout, shards[seg.shard]);
    }
    EXPECT_EQ(seg.layout, measured) << "segment at record " << base;
    base += seg.n_records;
  }
  const std::string dir = fs::path(manifest_path).parent_path().string();
  for (size_t k = 0; k < m.shards.size(); ++k) {
    EXPECT_EQ(read_file(dir + "/" + m.shards[k]), shards[k]) << m.shards[k];
  }
  std::vector<AlignmentRecord> decoded;
  bamx::ShardedBamxReader(manifest_path).read_range(0, records.size(),
                                                    decoded);
  EXPECT_EQ(decoded, records);
  std::vector<bamx::BaixEntry> entries;
  for (const AlignmentRecord& rec : records) {
    entries.push_back(bamx::BaixEntry{rec.ref_id, rec.pos, entries.size()});
  }
  const std::string want = manifest_path + ".oracle.baix";
  bamx::BaixIndex::from_entries(std::move(entries)).save(want);
  EXPECT_EQ(read_file(baix_path), read_file(want));
}

/// The oracle's files next to a parallel preprocessor run over `d`.
/// `opt` controls the parallel run.
struct PreprocPair {
  std::string seq_bamx, seq_baix, manifest, par_baix;
  PreprocessStats par_stats;
};

PreprocPair preprocess_both(const Dataset& d, PreprocessOptions opt) {
  PreprocPair p;
  p.seq_bamx = d.tmp.file("seq.bamx");
  p.seq_baix = d.tmp.file("seq.baix");
  p.manifest = d.tmp.file("par.bamxm");
  p.par_baix = d.tmp.file("par.baix");
  encode_sequentially(d, p.seq_bamx, p.seq_baix);
  p.par_stats = preprocess_bam_parallel(d.bam_path, p.manifest, p.par_baix,
                                        opt);
  return p;
}

// ----------------------------------------------------- byte identity

TEST(PreprocessParallel, SegmentsMatchSequentialEncode) {
  Dataset d(400);
  PreprocessOptions opt;
  opt.threads = 4;
  opt.shards = 3;
  opt.chunk_records = 37;  // many chunks, so many segments per shard
  PreprocPair p = preprocess_both(d, opt);

  EXPECT_EQ(p.par_stats.records, d.records.size());
  expect_dataset(p.manifest, p.par_baix, d.records);
  // The BAIX also equals the one over the monolithic sequential encode.
  EXPECT_EQ(read_file(p.par_baix), read_file(p.seq_baix));

  // Chunk t is segment t, in shard t % 3.
  bamx::BamxManifest manifest = bamx::BamxManifest::load(p.manifest);
  ASSERT_EQ(manifest.segments.size(), (d.records.size() + 36) / 37);
  for (size_t t = 0; t < manifest.segments.size(); ++t) {
    EXPECT_EQ(manifest.segments[t].shard, t % 3);
    EXPECT_EQ(manifest.segments[t].n_records,
              std::min<uint64_t>(37, d.records.size() - 37 * t));
  }
}

TEST(PreprocessParallel, FullConversionMatchesSequentialPreprocess) {
  Dataset d(350);
  PreprocessOptions opt;
  opt.threads = 3;
  opt.shards = 4;
  opt.chunk_records = 53;
  PreprocPair p = preprocess_both(d, opt);

  for (Schedule schedule : {Schedule::kStatic, Schedule::kDynamic}) {
    ConvertOptions options;
    options.format = TargetFormat::kBed;
    options.ranks = 3;
    options.schedule = schedule;
    auto seq = convert_bamx(p.seq_bamx, p.seq_baix,
                            d.tmp.subdir("out-seq"), options);
    auto par = convert_bamx(p.manifest, p.par_baix,
                            d.tmp.subdir("out-par"), options);
    EXPECT_EQ(seq.records_in, d.records.size());
    EXPECT_EQ(concat_outputs(par), concat_outputs(seq));
  }
}

TEST(PreprocessParallel, PartialConversionMatchesSequentialPreprocess) {
  Dataset d(350);
  PreprocessOptions opt;
  opt.threads = 4;
  opt.chunk_records = 29;
  PreprocPair p = preprocess_both(d, opt);

  ConvertOptions options;
  options.format = TargetFormat::kSam;
  options.include_header = false;
  options.ranks = 2;
  Region region = parse_region("chr1:1-150000", d.genome.header());
  auto seq = convert_bamx(p.seq_bamx, p.seq_baix, d.tmp.subdir("part-seq"),
                          options, region);
  auto par = convert_bamx(p.manifest, p.par_baix, d.tmp.subdir("part-par"),
                          options, region);
  EXPECT_GT(seq.records_in, 0u);
  EXPECT_EQ(concat_outputs(par), concat_outputs(seq));
}

TEST(PreprocessParallel, Baix2BuildsOverManifest) {
  Dataset d(200);
  PreprocessOptions opt;
  opt.threads = 2;
  opt.shards = 3;
  PreprocPair p = preprocess_both(d, opt);

  const std::string seq2 = d.tmp.file("seq.baix2");
  const std::string par2 = d.tmp.file("par.baix2");
  build_baix2(p.seq_bamx, seq2);
  build_baix2(p.manifest, par2);
  EXPECT_EQ(read_file(par2), read_file(seq2));
}

// ------------------------------------------------ SAM- vs BAM-derived

/// Asserts that two published datasets agree on everything that must not
/// depend on the preprocessor: the BAIX bytes, the record count and the
/// decoded records. (Segments and shards differ: one Algorithm-1
/// partition per rank vs one chunk per segment.)
void expect_same_dataset(const std::string& dir, const std::string& a,
                         const std::string& b) {
  EXPECT_EQ(read_file(dir + "/" + a + ".baix"),
            read_file(dir + "/" + b + ".baix"));
  bamx::ShardedBamxReader ra(dir + "/" + a + ".bamxm");
  bamx::ShardedBamxReader rb(dir + "/" + b + ".bamxm");
  ASSERT_EQ(ra.num_records(), rb.num_records());
  std::vector<AlignmentRecord> records_a, records_b;
  ra.read_range(0, ra.num_records(), records_a);
  rb.read_range(0, rb.num_records(), records_b);
  EXPECT_EQ(records_a, records_b);
}

/// Runs both preprocessors with M shards over `d` (SAM at M ranks, BAM at
/// M shards), checks each against the oracle and that they publish the
/// same dataset.
void expect_sam_matches_bam(const Dataset& d, int m) {
  SCOPED_TRACE("M=" + std::to_string(m));
  const std::string sam = "sam" + std::to_string(m);
  const std::string bam = "bam" + std::to_string(m);
  auto sam_stats = preprocess_sam_parallel(
      d.sam_path, d.tmp.file(sam + ".bamxm"), d.tmp.file(sam + ".baix"), m);
  PreprocessOptions opt;
  opt.threads = 3;
  opt.shards = m;
  opt.chunk_records = 7;
  auto bam_stats = preprocess_bam_parallel(
      d.bam_path, d.tmp.file(bam + ".bamxm"), d.tmp.file(bam + ".baix"), opt);
  EXPECT_EQ(sam_stats.records, d.records.size());
  EXPECT_EQ(bam_stats.records, d.records.size());
  EXPECT_EQ(bamx::ShardedBamxReader(d.tmp.file(sam + ".bamxm")).num_shards(),
            static_cast<size_t>(m));
  expect_dataset(d.tmp.file(sam + ".bamxm"), d.tmp.file(sam + ".baix"),
                 d.records);
  expect_dataset(d.tmp.file(bam + ".bamxm"), d.tmp.file(bam + ".baix"),
                 d.records);
  expect_same_dataset(d.tmp.path(), sam, bam);
}

TEST(PreprocessCross, SamAndBamPublishTheSameDataset) {
  Dataset d(150);
  for (int m : {1, 3, 9}) {
    expect_sam_matches_bam(d, m);
  }
  // 20 records over 8 shards: more shards than records per shard.
  Dataset few(10, 19, {sam::Reference{"chr1", 200000}});
  expect_sam_matches_bam(few, 8);
  Dataset empty(0);
  for (int m : {1, 3}) {
    expect_sam_matches_bam(empty, m);
  }
}

// --------------------------------------------------- sharded record space

TEST(ShardedBamxReader, ReadsAcrossShardBoundaries) {
  Dataset d(150);
  PreprocessOptions opt;
  opt.threads = 2;
  opt.shards = 4;
  opt.chunk_records = 17;
  PreprocPair p = preprocess_both(d, opt);

  bamx::BamxReader seq(p.seq_bamx);
  bamx::ShardedBamxReader sharded(p.manifest);
  ASSERT_EQ(sharded.num_records(), seq.num_records());
  EXPECT_EQ(sharded.num_shards(), 4u);
  EXPECT_EQ(sharded.header(), seq.header());

  // Every record individually (random access crossing all boundaries).
  AlignmentRecord a, b;
  for (uint64_t i = 0; i < seq.num_records(); ++i) {
    seq.read(i, a);
    sharded.read(i, b);
    EXPECT_EQ(a, b) << "record " << i;
    EXPECT_EQ(sharded.read_ref_pos(i), seq.read_ref_pos(i));
  }

  // Bulk ranges that straddle shard boundaries.
  const uint64_t n = seq.num_records();
  for (auto [lo, hi] : std::vector<std::pair<uint64_t, uint64_t>>{
           {0, n}, {1, n - 1}, {n / 4 - 1, 3 * n / 4 + 1}, {n / 2, n / 2}}) {
    std::vector<AlignmentRecord> want, got;
    seq.read_range(lo, hi, want);
    sharded.read_range(lo, hi, got);
    EXPECT_EQ(got, want) << "range [" << lo << ", " << hi << ")";
  }
}

TEST(OpenRecordSource, SniffsMagic) {
  Dataset d(50);
  PreprocessOptions opt;
  opt.threads = 2;
  opt.shards = 2;
  PreprocPair p = preprocess_both(d, opt);

  EXPECT_NE(dynamic_cast<bamx::BamxReader*>(
                bamx::open_record_source(p.seq_bamx).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<bamx::ShardedBamxReader*>(
                bamx::open_record_source(p.manifest).get()),
            nullptr);

  const std::string junk = d.tmp.file("junk.bamx");
  write_file(junk, "not a bamx file");
  EXPECT_THROW(bamx::open_record_source(junk), FormatError);
}

TEST(PreprocessParallel, EmptyBamYieldsEmptyManifest) {
  TempDir tmp;
  auto genome = simdata::ReferenceGenome::simulate(
      simdata::mouse_like_references(100000), 7);
  const std::string bam = tmp.file("empty.bam");
  {
    bam::BamFileWriter w(bam, genome.header());
    w.close();
  }
  PreprocessOptions opt;
  opt.threads = 3;
  opt.shards = 3;
  auto stats = preprocess_bam_parallel(bam, tmp.file("e.bamxm"),
                                       tmp.file("e.baix"), opt);
  EXPECT_EQ(stats.records, 0u);
  bamx::ShardedBamxReader reader(tmp.file("e.bamxm"));
  EXPECT_EQ(reader.num_records(), 0u);
  bamx::BaixIndex baix = bamx::BaixIndex::load(tmp.file("e.baix"));
  EXPECT_EQ(baix.size(), 0u);
}

// ------------------------------------------------------ manifest validation

TEST(BamxManifest, RoundTripAndValidation) {
  TempDir tmp;
  bamx::BamxManifest m;
  m.header = sam::SamHeader::from_references({{"chr1", 1000}});
  m.n_records = 30;
  m.shards = {"a.bamx", "b.bamx"};
  bamx::BamxLayout small;
  small.max_qname = 10;
  small.max_seq = 50;
  bamx::BamxLayout big = small;
  big.max_aux = 40;
  m.segments = {{0, small, 10}, {1, big, 0}, {0, big, 20}};
  const std::string path = tmp.file("m.bamxm");
  m.save(path);
  EXPECT_EQ(bamx::BamxManifest::load(path), m);

  // Truncation inside the segment table must be detected.
  std::string bytes = read_file(path);
  write_file(path, bytes.substr(0, bytes.size() - 3));
  EXPECT_THROW(bamx::BamxManifest::load(path), FormatError);

  // Wrong magic.
  std::string bad = bytes;
  bad[0] = 'Z';
  write_file(path, bad);
  EXPECT_THROW(bamx::BamxManifest::load(path), FormatError);

  // Segment counts not summing to the total.
  bamx::BamxManifest sum = m;
  sum.n_records = 31;
  sum.save(path);
  EXPECT_THROW(bamx::BamxManifest::load(path), FormatError);

  // No shards at all.
  bamx::BamxManifest none;
  none.save(path);
  EXPECT_THROW(bamx::BamxManifest::load(path), FormatError);
}

TEST(ShardedBamxReader, RejectsShardSizeMismatch) {
  Dataset d(80);
  PreprocessOptions opt;
  opt.threads = 2;
  opt.shards = 2;
  PreprocPair p = preprocess_both(d, opt);

  // A shard whose size disagrees with its segments (here: one record of
  // another dataset appended) must not open.
  bamx::BamxManifest m = bamx::BamxManifest::load(p.manifest);
  const std::string shard = d.tmp.file(m.shards[0]);
  write_file(shard, read_file(shard) + std::string(
                                           m.segments[0].layout.stride(), 0));
  EXPECT_THROW(bamx::ShardedBamxReader reader(p.manifest), FormatError);
}

// ------------------------------------------------------- crash consistency

/// Clears injected rules on scope exit (mirrors fault_injection_test).
struct FaultScope {
  FaultScope(const std::string& substr, const io::Fault& fault) {
    io::IoPolicy::instance().inject(substr, fault);
  }
  ~FaultScope() { io::IoPolicy::instance().clear(); }
};

TEST(PreprocessParallel, ShardCommitterDeathPublishesNothing) {
  Dataset d(200);
  io::Fault fault;
  fault.op = io::Op::kWrite;
  fault.kind = io::FaultKind::kEnospc;
  fault.bytes = 256;  // the shard data blows past this immediately
  fault.err = ENOSPC;
  const std::string manifest = d.tmp.file("crash.bamxm");
  {
    FaultScope scope("-shard-", fault);
    PreprocessOptions opt;
    opt.threads = 4;
    opt.shards = 4;
    opt.chunk_records = 16;
    EXPECT_THROW(
        preprocess_bam_parallel(d.bam_path, manifest, d.tmp.file("crash.baix"),
                                opt),
        Error);
  }
  // A dead committer must leave no partial shard under a final name, no
  // staging leftovers, and — critically — no manifest (it is written
  // last, so a manifest always implies a complete shard set).
  for (const auto& entry : fs::directory_iterator(d.tmp.path())) {
    const std::string name = entry.path().filename().string();
    EXPECT_EQ(name.find("-shard-"), std::string::npos) << name;
    EXPECT_EQ(name.find(".tmp."), std::string::npos) << name;
    EXPECT_EQ(name.find(".bamxm"), std::string::npos) << name;
  }
  // The input survives untouched and a clean retry succeeds.
  auto stats = preprocess_bam_parallel(d.bam_path, manifest,
                                       d.tmp.file("crash.baix"));
  EXPECT_EQ(stats.records, d.records.size());
}

}  // namespace
}  // namespace ngsx::core
