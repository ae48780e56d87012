#include "core/sort.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <utility>

#include "formats/bam.h"
#include "formats/sam.h"
#include "util/strutil.h"

namespace fs = std::filesystem;

namespace ngsx::core {

using sam::AlignmentRecord;
using sam::SamHeader;

bool coord_less(std::string_view a, std::string_view b) {
  const bam::RecordView va(a);
  const bam::RecordView vb(b);
  uint32_t ra = static_cast<uint32_t>(va.ref_id());
  uint32_t rb = static_cast<uint32_t>(vb.ref_id());
  if (ra != rb) {
    return ra < rb;
  }
  return va.pos() < vb.pos();
}

int pairing_rank(uint16_t flag) {
  if ((flag & (sam::kSecondary | sam::kSupplementary)) != 0) {
    return 3;
  }
  if ((flag & sam::kPaired) == 0) {
    return 2;
  }
  return (flag & sam::kRead2) != 0 ? 1 : 0;
}

bool name_collate_less(std::string_view a, std::string_view b) {
  const bam::RecordView va(a);
  const bam::RecordView vb(b);
  if (int c = va.qname().compare(vb.qname()); c != 0) {
    return c < 0;
  }
  return pairing_rank(va.flag()) < pairing_rank(vb.flag());
}

// ------------------------------------------------------------ AlignmentInput

AlignmentInput::AlignmentInput(const std::string& path, int decode_threads) {
  if (strutil::ends_with(path, ".bam")) {
    bam_ = std::make_unique<bam::BamFileReader>(path, decode_threads);
  } else {
    sam_ = std::make_unique<sam::SamFileReader>(path);
  }
}

AlignmentInput::~AlignmentInput() = default;

const SamHeader& AlignmentInput::header() const {
  return bam_ ? bam_->header() : sam_->header();
}

bool AlignmentInput::next_raw(RawRecord& body) {
  if (bam_) {
    if (!bam_->next_raw(raw_)) {
      return false;
    }
    bam::normalize_record(raw_, body);
    return true;
  }
  if (!sam_->next(record_)) {
    return false;
  }
  raw_.clear();
  bam::encode_record(record_, raw_);
  body.assign(raw_, sizeof(int32_t));  // drop block_size
  return true;
}

// ------------------------------------------------------------ ExternalSorter

namespace {

/// Process-wide run-name token: two sorters in one process never share a
/// run path even when they share target path and temp_dir. The pid in the
/// name covers concurrent *processes* sharing a temp_dir.
std::atomic<uint64_t> g_run_token{0};

/// Spill runs are private and short-lived: their BGZF blocks are stored,
/// not deflated (EXPERIMENTS.md measures this against length-prefixed raw
/// bodies and against level 6).
constexpr int kSpillLevel = 0;

/// Most runs one merge reads at once, a reader each; more are pre-merged
/// in groups first, so merge memory stays flat as the input grows.
constexpr size_t kMaxFanIn = 16;

}  // namespace

ExternalSorter::ExternalSorter(SamHeader header,
                               const std::string& target_path,
                               RecordLess less, const SortOptions& options)
    : header_(std::move(header)),
      less_(less),
      // Halve the budget per buffer: one buffer fills while the previous
      // one sorts and is written on the spill stage (queue depth 1),
      // keeping peak residency near the configured budget.
      buffer_cap_(std::max<size_t>(1, options.max_records_in_memory / 2)),
      spill_stage_(1) {
  NGSX_CHECK_MSG(options.max_records_in_memory >= 2,
                 "memory budget too small to sort");
  const std::string base =
      options.temp_dir.empty()
          ? target_path
          : options.temp_dir + "/" + fs::path(target_path).filename().string();
  run_base_ = base + "." + std::to_string(getpid()) + "." +
              std::to_string(g_run_token.fetch_add(1));
  buffer_.reserve(std::min<size_t>(buffer_cap_, 1 << 20));
}

ExternalSorter::~ExternalSorter() {
  try {
    spill_stage_.finish();  // no run may still be mid-write when we unlink
  } catch (...) {
    // The error was already observable via push()/drain(); cleanup
    // proceeds regardless.
  }
  remove_runs();
}

void ExternalSorter::push(RawRecord body) {
  NGSX_CHECK_MSG(!drained_, "push on a drained ExternalSorter");
  buffer_.push_back(std::move(body));
  ++total_;
  if (buffer_.size() >= buffer_cap_) {
    flush_run();
  }
}

void ExternalSorter::flush_run() {
  if (buffer_.empty()) {
    return;
  }
  // The run index is claimed synchronously (runs stay in input order, the
  // merge's stability tie-break); the sort + write happen on the stage.
  std::string run_path =
      run_base_ + ".run" + std::to_string(runs_created_) + ".tmp.bam";
  ++runs_created_;
  run_paths_.push_back(run_path);
  spilled_records_.fetch_add(buffer_.size(), std::memory_order_relaxed);
  std::vector<RawRecord> spill_buffer;
  spill_buffer.reserve(std::min<size_t>(buffer_cap_, 1 << 20));
  buffer_.swap(spill_buffer);
  spill_stage_.submit([this, run_path = std::move(run_path),
                       records = std::move(spill_buffer)]() mutable {
    std::stable_sort(records.begin(), records.end(), less_);
    bam::BamFileWriter run(run_path, header_, kSpillLevel, 1,
                           OutputFile::Commit::kDirect);
    for (const RawRecord& body : records) {
      run.write_body(body);
    }
    run.close();
    spilled_bytes_.fetch_add(run.compressed_bytes(),
                             std::memory_order_relaxed);
  });
}

void ExternalSorter::drain(const std::function<void(RawRecord&&)>& emit) {
  NGSX_CHECK_MSG(!drained_, "ExternalSorter drained twice");
  drained_ = true;

  if (run_paths_.empty()) {
    // Fast path: everything fit in memory.
    spill_stage_.finish();
    std::stable_sort(buffer_.begin(), buffer_.end(), less_);
    for (auto& body : buffer_) {
      emit(std::move(body));
    }
    buffer_.clear();
    return;
  }

  flush_run();  // the final partial buffer becomes the last run
  spill_stage_.finish();  // every run committed (or the first error throws)

  // Cap the fan-in: merge contiguous groups of runs, oldest first, into
  // one run each. A merged run keeps its group's place in the run order,
  // so the run-index tie-break still follows input order: same bytes.
  for (size_t pass = 0; run_paths_.size() > kMaxFanIn; ++pass) {
    std::vector<std::string> inputs = run_paths_;
    std::vector<std::string> merged;
    for (size_t begin = 0; begin < inputs.size(); begin += kMaxFanIn) {
      const size_t end = std::min(inputs.size(), begin + kMaxFanIn);
      std::string path = run_base_ + ".merge" + std::to_string(pass) + "." +
                         std::to_string(merged.size()) + ".tmp.bam";
      run_paths_.push_back(path);  // removed with the rest on failure
      bam::BamFileWriter run(path, header_, kSpillLevel, 1,
                             OutputFile::Commit::kDirect);
      merge_runs({inputs.begin() + static_cast<std::ptrdiff_t>(begin),
                  inputs.begin() + static_cast<std::ptrdiff_t>(end)},
                 [&](RawRecord&& body) { run.write_body(body); });
      run.close();
      merged.push_back(std::move(path));
    }
    run_paths_ = std::move(inputs);
    remove_runs();
    run_paths_ = std::move(merged);
  }

  NGSX_CHECK_MSG(merge_runs(run_paths_, emit) == total_, "merge lost records");
  remove_runs();
}

uint64_t ExternalSorter::merge_runs(
    const std::vector<std::string>& runs,
    const std::function<void(RawRecord&&)>& emit) const {
  // K-way merge on a binary heap of run heads. Ties break by run index,
  // which — because runs are created in input order and each run is
  // stably sorted — makes the whole sort stable under any key.
  struct Head {
    RawRecord body;
    size_t run;
  };
  auto after = [this](const Head& a, const Head& b) {
    if (less_(a.body, b.body)) {
      return false;
    }
    if (less_(b.body, a.body)) {
      return true;
    }
    return a.run > b.run;
  };
  std::vector<std::unique_ptr<bam::BamFileReader>> readers;
  readers.reserve(runs.size());
  std::vector<Head> heap;
  heap.reserve(runs.size());
  for (size_t r = 0; r < runs.size(); ++r) {
    readers.push_back(std::make_unique<bam::BamFileReader>(runs[r]));
    Head head{RawRecord(), r};
    if (readers.back()->next_raw(head.body)) {
      heap.push_back(std::move(head));
    }
  }
  std::make_heap(heap.begin(), heap.end(), after);

  uint64_t merged = 0;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), after);
    Head& head = heap.back();
    emit(std::move(head.body));
    ++merged;
    if (readers[head.run]->next_raw(head.body)) {
      std::push_heap(heap.begin(), heap.end(), after);
    } else {
      heap.pop_back();
    }
  }
  return merged;
}

void ExternalSorter::remove_runs() noexcept {
  for (const auto& run : run_paths_) {
    std::error_code ec;
    fs::remove(run, ec);  // best effort; missing (never-written) runs are fine
  }
  run_paths_.clear();
}

// ------------------------------------------------------------------ sorting

namespace {

uint64_t sort_file(const std::string& in_path, const std::string& out_bam,
                   RecordLess less, const SortOptions& options) {
  AlignmentInput source(in_path);
  ExternalSorter sorter(source.header(), out_bam, less, options);
  {
    RawRecord body;
    while (source.next_raw(body)) {
      sorter.push(std::move(body));
    }
  }
  uint64_t written = 0;
  bam::BamFileWriter writer(out_bam, source.header(),
                            options.compression_level, options.threads);
  sorter.drain([&](RawRecord&& body) {
    writer.write_body(body);
    ++written;
  });
  writer.close();
  return written;
}

}  // namespace

uint64_t sort_to_bam(const std::string& in_path, const std::string& out_bam,
                     const SortOptions& options) {
  return sort_file(in_path, out_bam, coord_less, options);
}

bool is_coordinate_sorted(const std::string& path) {
  AlignmentInput source(path);
  RawRecord body;
  uint32_t last_ref = 0;
  int32_t last_pos = -1;
  bool seen_unmapped = false;
  while (source.next_raw(body)) {
    const bam::RecordView rec(body);
    if (rec.ref_id() < 0) {
      seen_unmapped = true;
      continue;
    }
    if (seen_unmapped) {
      return false;  // mapped record after the unmapped block
    }
    uint32_t ref = static_cast<uint32_t>(rec.ref_id());
    if (ref < last_ref || (ref == last_ref && rec.pos() < last_pos)) {
      return false;
    }
    last_ref = ref;
    last_pos = rec.pos();
  }
  return true;
}

}  // namespace ngsx::core
