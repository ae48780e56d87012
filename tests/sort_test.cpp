// Tests for the external-merge coordinate sorter.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <thread>

#include "core/sort.h"
#include "formats/bai.h"
#include "formats/bam.h"
#include "formats/sam.h"
#include "obs/metrics.h"
#include "testutil.h"
#include "util/tempdir.h"

namespace ngsx::core {
namespace {

using sam::AlignmentRecord;
using sam::SamHeader;

SamHeader sort_header() {
  return SamHeader::from_references({{"chr1", 500000}, {"chr2", 300000}});
}

/// Shuffled records, including unmapped ones.
std::vector<AlignmentRecord> shuffled_records(size_t n, uint64_t seed) {
  SamHeader header = sort_header();
  Rng rng(seed);
  std::vector<AlignmentRecord> records;
  for (size_t i = 0; i < n; ++i) {
    AlignmentRecord rec = testutil::random_record(rng, header);
    rec.qname = "q" + std::to_string(i);  // unique, for stability checks
    records.push_back(rec);
  }
  return records;
}

void write_bam(const std::string& path,
               const std::vector<AlignmentRecord>& records) {
  bam::BamFileWriter w(path, sort_header());
  for (const auto& rec : records) {
    w.write(rec);
  }
  w.close();
}

std::vector<AlignmentRecord> read_bam(const std::string& path) {
  bam::BamFileReader r(path);
  std::vector<AlignmentRecord> out;
  AlignmentRecord rec;
  while (r.next(rec)) {
    out.push_back(rec);
  }
  return out;
}

void expect_sorted_same_multiset(const std::vector<AlignmentRecord>& input,
                                 const std::vector<AlignmentRecord>& output) {
  ASSERT_EQ(output.size(), input.size());
  // Sorted by coordinate, unmapped last.
  for (size_t i = 1; i < output.size(); ++i) {
    uint32_t ra = static_cast<uint32_t>(output[i - 1].ref_id);
    uint32_t rb = static_cast<uint32_t>(output[i].ref_id);
    ASSERT_TRUE(ra < rb || (ra == rb && output[i - 1].pos <= output[i].pos))
        << "records " << i - 1 << ", " << i;
  }
  // Same multiset (match by unique qname, then full equality).
  std::map<std::string, const AlignmentRecord*> by_name;
  for (const auto& rec : input) {
    by_name[rec.qname] = &rec;
  }
  for (const auto& rec : output) {
    auto it = by_name.find(rec.qname);
    ASSERT_NE(it, by_name.end()) << rec.qname;
    EXPECT_EQ(rec, *it->second);
  }
}

/// Files in `dir` whose name marks them temporary: spill runs
/// ("*.tmp.bam") and atomic-commit staging files ("*.tmp.<pid>").
int count_tmp_files(const std::string& dir) {
  int n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().find(".tmp") != std::string::npos) {
      ++n;
    }
  }
  return n;
}

TEST(Sort, InMemoryPath) {
  TempDir tmp;
  auto records = shuffled_records(500, 1);
  write_bam(tmp.file("in.bam"), records);
  uint64_t n = sort_to_bam(tmp.file("in.bam"), tmp.file("out.bam"));
  EXPECT_EQ(n, records.size());
  expect_sorted_same_multiset(records, read_bam(tmp.file("out.bam")));
  EXPECT_TRUE(is_coordinate_sorted(tmp.file("out.bam")));
}

TEST(Sort, ExternalMergePath) {
  TempDir tmp;
  auto records = shuffled_records(1000, 2);
  write_bam(tmp.file("in.bam"), records);
  SortOptions options;
  options.max_records_in_memory = 64;  // forces ~16 runs
  uint64_t n = sort_to_bam(tmp.file("in.bam"), tmp.file("out.bam"), options);
  EXPECT_EQ(n, records.size());
  expect_sorted_same_multiset(records, read_bam(tmp.file("out.bam")));
  EXPECT_TRUE(is_coordinate_sorted(tmp.file("out.bam")));
  EXPECT_EQ(count_tmp_files(tmp.path()), 0);  // spill runs cleaned up
}

TEST(Sort, ExternalMatchesInMemory) {
  TempDir tmp;
  auto records = shuffled_records(800, 3);
  write_bam(tmp.file("in.bam"), records);
  sort_to_bam(tmp.file("in.bam"), tmp.file("mem.bam"));
  SortOptions tiny;
  tiny.max_records_in_memory = 10;
  sort_to_bam(tmp.file("in.bam"), tmp.file("ext.bam"), tiny);
  EXPECT_EQ(read_bam(tmp.file("mem.bam")), read_bam(tmp.file("ext.bam")));
}

TEST(Sort, ParallelWidthMatchesSequential) {
  // SortOptions::threads deflates spill runs and the output on workers;
  // the bytes must not change, in memory or under forced spills.
  TempDir tmp;
  write_bam(tmp.file("in.bam"), shuffled_records(1500, 4));
  for (bool spill : {false, true}) {
    const std::string tag = spill ? "ext" : "mem";
    SortOptions options;
    options.temp_dir = tmp.path();
    if (spill) {
      options.max_records_in_memory = 16;
    }
    options.threads = 1;
    sort_to_bam(tmp.file("in.bam"), tmp.file(tag + "1.bam"), options);
    options.threads = 4;
    sort_to_bam(tmp.file("in.bam"), tmp.file(tag + "4.bam"), options);
    EXPECT_EQ(read_file(tmp.file(tag + "1.bam")),
              read_file(tmp.file(tag + "4.bam")))
        << tag;
  }
  EXPECT_EQ(count_tmp_files(tmp.path()), 0);
}

TEST(Sort, SpillRunsSkipTheFsync) {
  // Runs are deleted before the sort returns, so they are written in
  // place: the only fsync is the output's atomic commit.
  TempDir tmp;
  write_bam(tmp.file("in.bam"), shuffled_records(500, 5));
  obs::enable_metrics();
  obs::reset_metrics();
  SortOptions options;
  options.max_records_in_memory = 64;
  options.threads = 2;
  sort_to_bam(tmp.file("in.bam"), tmp.file("out.bam"), options);
  const uint64_t fsyncs = obs::snapshot().counter_value("io.binio.fsyncs");
  obs::enable_metrics(false);
  obs::reset_metrics();
  EXPECT_EQ(fsyncs, 1u);
  EXPECT_EQ(count_tmp_files(tmp.path()), 0);
}

TEST(Sort, StableForEqualCoordinates) {
  TempDir tmp;
  // Many records at the same coordinate: input order must be preserved.
  std::vector<AlignmentRecord> records;
  for (int i = 0; i < 200; ++i) {
    AlignmentRecord rec;
    rec.qname = "dup" + std::to_string(i);
    rec.ref_id = 0;
    rec.pos = 1000;
    rec.cigar = sam::parse_cigar("50M");
    rec.seq = std::string(50, 'A');
    records.push_back(rec);
  }
  write_bam(tmp.file("in.bam"), records);
  SortOptions tiny;
  tiny.max_records_in_memory = 16;
  sort_to_bam(tmp.file("in.bam"), tmp.file("out.bam"), tiny);
  auto out = read_bam(tmp.file("out.bam"));
  ASSERT_EQ(out.size(), records.size());
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].qname, "dup" + std::to_string(i));
  }
}

TEST(Sort, ConcurrentSortsSharingTempDir) {
  // Regression: run paths used to be deterministic per target, so two
  // spilling sorts sharing a temp directory could clobber each other's
  // runs. Paths now embed pid + a process-wide token.
  TempDir tmp;
  namespace fs = std::filesystem;
  const std::string shared = tmp.file("spill");
  fs::create_directories(shared);
  auto records_a = shuffled_records(600, 21);
  auto records_b = shuffled_records(600, 22);
  write_bam(tmp.file("a.bam"), records_a);
  write_bam(tmp.file("b.bam"), records_b);
  SortOptions options;
  options.max_records_in_memory = 32;  // both sorts spill many runs
  options.temp_dir = shared;
  std::thread ta([&] {
    sort_to_bam(tmp.file("a.bam"), tmp.file("a_sorted.bam"), options);
  });
  std::thread tb([&] {
    sort_to_bam(tmp.file("b.bam"), tmp.file("b_sorted.bam"), options);
  });
  ta.join();
  tb.join();
  expect_sorted_same_multiset(records_a, read_bam(tmp.file("a_sorted.bam")));
  expect_sorted_same_multiset(records_b, read_bam(tmp.file("b_sorted.bam")));
  EXPECT_TRUE(fs::is_empty(shared));  // every run cleaned up
}

TEST(Sort, RepeatedSortsSameTargetDoNotCollide) {
  // Same output path, same temp dir, sequential invocations: the
  // monotonic run token keeps every invocation's runs distinct even
  // though target and pid are identical.
  TempDir tmp;
  auto records = shuffled_records(300, 23);
  write_bam(tmp.file("in.bam"), records);
  SortOptions options;
  options.max_records_in_memory = 32;
  options.temp_dir = tmp.path();
  sort_to_bam(tmp.file("in.bam"), tmp.file("out.bam"), options);
  std::string first = read_bam(tmp.file("out.bam")).empty() ? "" : "ok";
  sort_to_bam(tmp.file("in.bam"), tmp.file("out.bam"), options);
  expect_sorted_same_multiset(records, read_bam(tmp.file("out.bam")));
  EXPECT_EQ(first, "ok");
  EXPECT_EQ(count_tmp_files(tmp.path()), 0);
}

TEST(Sort, SamInputAccepted) {
  TempDir tmp;
  auto records = shuffled_records(300, 4);
  {
    sam::SamFileWriter w(tmp.file("in.sam"), sort_header());
    for (const auto& rec : records) {
      w.write(rec);
    }
    w.close();
  }
  uint64_t n = sort_to_bam(tmp.file("in.sam"), tmp.file("out.bam"));
  EXPECT_EQ(n, records.size());
  expect_sorted_same_multiset(records, read_bam(tmp.file("out.bam")));
}

TEST(Sort, EmptyInput) {
  TempDir tmp;
  write_bam(tmp.file("in.bam"), {});
  EXPECT_EQ(sort_to_bam(tmp.file("in.bam"), tmp.file("out.bam")), 0u);
  EXPECT_TRUE(read_bam(tmp.file("out.bam")).empty());
  EXPECT_TRUE(is_coordinate_sorted(tmp.file("out.bam")));
}

TEST(Sort, SortedOutputFeedsBaiBuild) {
  // End-to-end: unsorted BAM -> sort -> BAI build succeeds (it rejects
  // unsorted input, so this proves the order contract).
  TempDir tmp;
  auto records = shuffled_records(400, 5);
  write_bam(tmp.file("in.bam"), records);
  EXPECT_FALSE(is_coordinate_sorted(tmp.file("in.bam")));
  sort_to_bam(tmp.file("in.bam"), tmp.file("out.bam"));
  EXPECT_NO_THROW(bai::BaiIndex::build(tmp.file("out.bam")));
}

TEST(IsSorted, DetectsOrderViolations) {
  TempDir tmp;
  std::vector<AlignmentRecord> records;
  AlignmentRecord a;
  a.qname = "a";
  a.ref_id = 0;
  a.pos = 100;
  AlignmentRecord b = a;
  b.qname = "b";
  b.pos = 50;
  write_bam(tmp.file("bad.bam"), {a, b});
  EXPECT_FALSE(is_coordinate_sorted(tmp.file("bad.bam")));
  write_bam(tmp.file("good.bam"), {b, a});
  EXPECT_TRUE(is_coordinate_sorted(tmp.file("good.bam")));

  // Unmapped in the middle is a violation; trailing unmapped is fine.
  AlignmentRecord u;
  u.qname = "u";
  u.flag = sam::kUnmapped;
  write_bam(tmp.file("mid.bam"), {b, u, a});
  EXPECT_FALSE(is_coordinate_sorted(tmp.file("mid.bam")));
  write_bam(tmp.file("tail.bam"), {b, a, u});
  EXPECT_TRUE(is_coordinate_sorted(tmp.file("tail.bam")));
}

}  // namespace
}  // namespace ngsx::core
