#include "core/collate.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <utility>

#include "exec/pipeline.h"
#include "exec/pool.h"
#include "formats/bam.h"
#include "formats/fastq.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/strutil.h"

namespace ngsx::core {

using sam::AlignmentRecord;
using sam::SamHeader;

namespace {

// Collate observability (docs/OBSERVABILITY.md, layer "collate"). Stats
// are mirrored here once per program run; the live-bucket gauge tracks
// the pending-mate count as the stage runs.
struct CollateMetrics {
  obs::Counter& records = obs::counter("collate.records");
  obs::Counter& pairs = obs::counter("collate.pairs");
  obs::Counter& orphans = obs::counter("collate.orphans");
  obs::Counter& singles = obs::counter("collate.singles");
  obs::Counter& passthrough = obs::counter("collate.passthrough");
  obs::Counter& spills = obs::counter("collate.spills");
  obs::Counter& spilled_records = obs::counter("collate.spilled_records");
  obs::Counter& spilled_bytes = obs::counter("collate.spilled_bytes");
  obs::Counter& dups_marked = obs::counter("collate.dups_marked");
  obs::Gauge& live_records = obs::gauge("collate.live_records");
};

CollateMetrics& collate_metrics() {
  static CollateMetrics m;
  return m;
}

void mirror_metrics(const CollateStats& s) {
  if (!obs::metrics_enabled()) {
    return;
  }
  CollateMetrics& m = collate_metrics();
  m.records.add(s.records);
  m.pairs.add(s.pairs);
  m.orphans.add(s.orphans);
  m.singles.add(s.singles);
  m.passthrough.add(s.passthrough);
  m.spills.add(s.spill_runs);
  m.spilled_records.add(s.spilled_records);
  m.spilled_bytes.add(s.spilled_bytes);
  m.dups_marked.add(s.dup_records);
}

/// The collation width: parse_threads with 0 resolved to the hardware.
int collate_width(const CollateOptions& options) {
  return options.parse_threads == 0 ? exec::hardware_threads()
                                    : std::max(1, options.parse_threads);
}

SortOptions to_sort_options(const CollateOptions& options) {
  SortOptions out;
  out.max_records_in_memory = options.max_records_in_memory;
  out.compression_level = options.compression_level;
  out.threads = collate_width(options);
  out.temp_dir = options.temp_dir;
  return out;
}

struct Timer {
  std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  }
};

/// Drains a name-collated sorter as whole name groups. Within a group,
/// records arrive in (pairing_rank, input order): primary R1, primary
/// R2, primary unpaired, then secondary/supplementary lines.
void drain_groups(ExternalSorter& sorter,
                  const std::function<void(std::vector<RawRecord>&&)>& fn) {
  std::vector<RawRecord> group;
  sorter.drain([&](RawRecord&& body) {
    if (!group.empty() && bam::RecordView(group.front()).qname() !=
                              bam::RecordView(body).qname()) {
      fn(std::move(group));
      group.clear();
    }
    group.push_back(std::move(body));
  });
  if (!group.empty()) {
    fn(std::move(group));
  }
}

/// pairing_rank of a raw body.
int rank_of(std::string_view body) {
  return pairing_rank(bam::RecordView(body).flag());
}

/// The primary mates of a name group, if the group has exactly one of
/// each; group order puts them first (see drain_groups).
std::pair<const RawRecord*, const RawRecord*> primary_pair(
    const std::vector<RawRecord>& group) {
  const RawRecord* r1 = nullptr;
  const RawRecord* r2 = nullptr;
  for (const auto& body : group) {
    const int rank = rank_of(body);
    if (rank > 1) {
      continue;  // not a paired primary
    }
    const RawRecord*& slot = rank == 1 ? r2 : r1;
    if (slot != nullptr) {
      return {nullptr, nullptr};  // malformed: two primaries of one rank
    }
    slot = &body;
  }
  if (r1 == nullptr || r2 == nullptr) {
    return {nullptr, nullptr};
  }
  return {r1, r2};
}

// ------------------------------------------------------- pair signatures

/// One fragment end for duplicate detection: reference, strand, and the
/// 5'-most aligned base extended through clipping — reverse-strand reads
/// key on their unclipped END, forward on their unclipped START, so two
/// copies of a fragment collide however the aligner clipped them.
/// Unmapped ends are all-default.
struct FragmentEnd {
  int32_t ref = -1;
  int32_t pos = -1;
  bool reverse = false;

  bool operator==(const FragmentEnd&) const = default;
  bool operator<(const FragmentEnd& o) const {
    if (ref != o.ref) {
      return ref < o.ref;
    }
    if (pos != o.pos) {
      return pos < o.pos;
    }
    return reverse < o.reverse;
  }
};

FragmentEnd end_of(std::string_view body) {
  const bam::RecordView rec(body);
  if ((rec.flag() & sam::kUnmapped) != 0 || rec.ref_id() < 0) {
    return {};
  }
  const bool reverse = (rec.flag() & sam::kReverse) != 0;
  return {rec.ref_id(),
          reverse ? rec.unclipped_end() : rec.unclipped_start(), reverse};
}

/// Canonically ordered pair of fragment ends — R1/R2 labelling does not
/// matter, so a flipped copy of the fragment still collides.
struct PairSignature {
  FragmentEnd a;
  FragmentEnd b;

  bool operator==(const PairSignature&) const = default;
};

struct PairSignatureHash {
  size_t operator()(const PairSignature& s) const {
    uint64_t h = 0x9e3779b97f4a7c15ull;
    auto mix = [&h](uint64_t v) {
      v *= 0xff51afd7ed558ccdull;
      v ^= v >> 33;
      h = (h ^ v) * 0xc4ceb9fe1a85ec53ull;
    };
    mix(static_cast<uint64_t>(static_cast<uint32_t>(s.a.ref)) << 32 |
        static_cast<uint32_t>(s.a.pos));
    mix(static_cast<uint64_t>(static_cast<uint32_t>(s.b.ref)) << 32 |
        static_cast<uint32_t>(s.b.pos));
    mix(static_cast<uint64_t>(s.a.reverse) << 1 |
        static_cast<uint64_t>(s.b.reverse));
    return static_cast<size_t>(h);
  }
};

/// Signature of a complete pair; nullopt when both ends are unmapped
/// (placement-free records cannot be positional duplicates).
std::optional<PairSignature> pair_signature(std::string_view r1,
                                            std::string_view r2) {
  FragmentEnd a = end_of(r1);
  FragmentEnd b = end_of(r2);
  if (a.ref < 0 && b.ref < 0) {
    return std::nullopt;
  }
  if (b < a) {
    std::swap(a, b);
  }
  return PairSignature{a, b};
}

/// Picard's scoring rule: the sum of base qualities >= 15. Records
/// without stored qualities score 0 (the read-name tie-break keeps the
/// choice deterministic).
int64_t base_quality_score(std::string_view body) {
  const std::string_view quals = bam::RecordView(body).quals();
  if (quals.empty() || static_cast<uint8_t>(quals[0]) == 0xFF) {
    return 0;  // absent
  }
  int64_t score = 0;
  for (char raw : quals) {
    // The score of the Phred+33 character a decoded record holds
    // (seqcodec::quals_to_ascii), so raw bytes above 94 wrap as they do
    // there.
    const int q = static_cast<char>(raw + 33) - 33;
    if (q >= 15) {
      score += q;
    }
  }
  return score;
}

/// The winner for one signature: best score, ties to the smallest read
/// name. Content-based, so the table is identical whatever order pairs
/// arrive in — the root of mark_duplicates' budget independence.
struct BestPair {
  int64_t score = -1;
  std::string qname;

  void offer(int64_t s, std::string_view name) {
    if (s > score || (s == score && name < qname)) {
      score = s;
      qname = name;
    }
  }
};

using BestBySignature =
    std::unordered_map<PairSignature, BestPair, PairSignatureHash>;

}  // namespace

// -------------------------------------------------------------- streaming

SamHeader read_header(const std::string& path) {
  AlignmentInput in(path);
  return in.header();
}

ParsePlan parse_plan(const CollateOptions& options) {
  ParsePlan plan;
  const int width = collate_width(options);
  const size_t share = options.max_records_in_memory / 8;
  if (width == 1 || share < static_cast<size_t>(width) + 1) {
    return plan;  // sequential: one record in flight
  }
  // The pipeline's default window, shrunk with the batch until the
  // records in flight fit the share.
  const size_t full_window = 2 * static_cast<size_t>(width) + 4;
  plan.workers = width;
  plan.batch = std::clamp<size_t>(share / (full_window + width), 1,
                                  std::max<size_t>(1, options.record_batch));
  plan.window = std::min(full_window, share / plan.batch - width);
  return plan;
}

void for_each_record(const std::string& path, const CollateOptions& options,
                     const std::function<void(RawRecord&&)>& fn) {
  const ParsePlan plan = parse_plan(options);
  if (plan.workers == 1 || !strutil::ends_with(path, ".bam")) {
    AlignmentInput in(path, options.decode_threads);
    RawRecord body;
    while (in.next_raw(body)) {
      fn(std::move(body));
    }
    return;
  }

  // Parallel BAM record parse: batches of raw record bodies fan out to the
  // pool to be validated and normalised, and commit strictly in file order.
  bam::BamFileReader reader(path, options.decode_threads);
  exec::Pool pool(plan.workers);
  exec::PipelineOptions pipeline;
  pipeline.window = plan.window;
  exec::ordered_pipeline<std::vector<std::string>, std::vector<RawRecord>>(
      pool,
      [&](std::vector<std::string>& bodies) {
        bodies.clear();
        std::string body;
        while (bodies.size() < plan.batch && reader.next_raw(body)) {
          bodies.push_back(std::move(body));
        }
        return !bodies.empty();
      },
      [](std::vector<std::string>&& bodies, uint64_t) {
        std::vector<RawRecord> out(bodies.size());
        for (size_t i = 0; i < bodies.size(); ++i) {
          bam::normalize_record(bodies[i], out[i]);
        }
        return out;
      },
      [&](std::vector<RawRecord>&& bodies, uint64_t) {
        for (auto& body : bodies) {
          fn(std::move(body));
        }
      },
      pipeline);
}

// ------------------------------------------------------------ CollateStage

CollateStage::CollateStage(SamHeader header, const std::string& spill_target,
                           CollateEvents events, const CollateOptions& options)
    : events_(std::move(events)),
      // Half the budget for the pending bucket, half for the sorter's
      // spill buffer (which drains to a run every time the bucket does).
      bucket_cap_(std::max<size_t>(1, options.max_records_in_memory / 2)),
      sorter_(std::move(header), spill_target, name_collate_less,
              to_sort_options(options)) {}

void CollateStage::push(RawRecord body) {
  NGSX_CHECK_MSG(!finished_, "push on a finished CollateStage");
  ++stats_.records;
  const int rank = rank_of(body);
  if (rank == 3) {
    ++stats_.passthrough;
    if (events_.on_passthrough) {
      events_.on_passthrough(std::move(body));
    }
    return;
  }
  if (rank == 2) {
    ++stats_.singles;
    if (events_.on_single) {
      events_.on_single(std::move(body));
    }
    return;
  }

  std::string name(bam::RecordView(body).qname());
  auto it = pending_.find(name);
  if (it != pending_.end()) {
    if (rank_of(it->second) == rank) {
      // Malformed: two primaries of the same rank under one name. Shunt
      // the newcomer to the spill path; finish() emits it as an orphan.
      sorter_.push(std::move(body));
      return;
    }
    auto node = pending_.extract(it);
    if (obs::metrics_enabled()) {
      collate_metrics().live_records.sub(1);
    }
    ++stats_.pairs;
    if (events_.on_pair) {
      if (rank == 1) {
        events_.on_pair(std::move(node.mapped()), std::move(body));
      } else {
        events_.on_pair(std::move(body), std::move(node.mapped()));
      }
    }
    return;
  }

  pending_.emplace(std::move(name), std::move(body));
  if (obs::metrics_enabled()) {
    collate_metrics().live_records.add(1);
  }
  if (pending_.size() >= bucket_cap_) {
    spill_pending();
  }
}

void CollateStage::spill_pending() {
  // Bucket-iteration order is unspecified, but every spilled record goes
  // through the stable name sort before anything downstream sees it.
  for (auto& [name, body] : pending_) {
    sorter_.push(std::move(body));
  }
  if (obs::metrics_enabled()) {
    collate_metrics().live_records.sub(static_cast<int64_t>(pending_.size()));
  }
  pending_.clear();
  sorter_.flush_run();
}

void CollateStage::finish() {
  NGSX_CHECK_MSG(!finished_, "CollateStage finished twice");
  finished_ = true;
  for (auto& [name, body] : pending_) {
    sorter_.push(std::move(body));
  }
  if (obs::metrics_enabled()) {
    collate_metrics().live_records.sub(static_cast<int64_t>(pending_.size()));
  }
  pending_.clear();

  // Everything in the sorter is a paired primary: pending survivors plus
  // spilled records. Groups reuniting exactly R1 + R2 become pairs; any
  // other shape is orphaned.
  drain_groups(sorter_, [&](std::vector<RawRecord>&& group) {
    if (group.size() == 2 && rank_of(group[0]) == 0 &&
        rank_of(group[1]) == 1) {
      ++stats_.pairs;
      if (events_.on_pair) {
        events_.on_pair(std::move(group[0]), std::move(group[1]));
      }
      return;
    }
    for (auto& body : group) {
      ++stats_.orphans;
      if (events_.on_orphan) {
        events_.on_orphan(std::move(body));
      }
    }
  });

  stats_.spill_runs = sorter_.runs();
  stats_.spilled_records = sorter_.spilled_records();
  stats_.spilled_bytes = sorter_.spilled_bytes();
}

// ---------------------------------------------------------- the programs

CollateStats collate_to_bam(const std::string& in_path,
                            const std::string& out_bam,
                            const CollateOptions& options) {
  obs::StageScope stage("convert.stage.collate", "collate", "to_bam");
  Timer timer;
  CollateStats stats;

  SamHeader header = read_header(in_path);
  ExternalSorter sorter(header, out_bam, name_collate_less,
                        to_sort_options(options));
  for_each_record(in_path, options,
                  [&](RawRecord&& body) { sorter.push(std::move(body)); });
  stats.records = sorter.total();

  bam::BamFileWriter writer(out_bam, header, options.compression_level,
                            collate_width(options));
  drain_groups(sorter, [&](std::vector<RawRecord>&& group) {
    auto [r1, r2] = primary_pair(group);
    if (r1 != nullptr) {
      ++stats.pairs;
    }
    for (const auto& body : group) {
      const int rank = rank_of(body);
      if (rank == 3) {
        ++stats.passthrough;
      } else if (rank == 2) {
        ++stats.singles;
      } else if (r1 == nullptr) {
        ++stats.orphans;
      }
      writer.write_body(body);
      ++stats.written;
    }
  });
  stats.spill_runs = sorter.runs();
  stats.spilled_records = sorter.spilled_records();
  stats.spilled_bytes = sorter.spilled_bytes();
  writer.close();
  stats.outputs.push_back(out_bam);
  stats.seconds = timer.seconds();
  mirror_metrics(stats);
  return stats;
}

CollateStats collate_to_fastq(const std::string& in_path,
                              const std::string& out_prefix,
                              const CollateOptions& options) {
  obs::StageScope stage("convert.stage.collate", "collate", "to_fastq");
  Timer timer;

  fastq::FastqWriter r1_out(out_prefix + "_R1.fastq");
  fastq::FastqWriter r2_out(out_prefix + "_R2.fastq");
  std::unique_ptr<fastq::FastqWriter> orphans_out;
  std::unique_ptr<fastq::FastqWriter> singles_out;
  auto lazy = [](std::unique_ptr<fastq::FastqWriter>& writer,
                 std::string path) -> fastq::FastqWriter& {
    if (!writer) {
      writer = std::make_unique<fastq::FastqWriter>(std::move(path));
    }
    return *writer;
  };
  // Records are decoded only here, at the sink.
  AlignmentRecord rec;
  auto write = [&rec](fastq::FastqWriter& out, const RawRecord& body) {
    bam::decode_record(body, rec);
    out.write(rec);
  };

  CollateEvents events;
  events.on_pair = [&](RawRecord&& r1, RawRecord&& r2) {
    write(r1_out, r1);
    write(r2_out, r2);
  };
  if (options.keep_orphans) {
    events.on_orphan = [&](RawRecord&& body) {
      write(lazy(orphans_out, out_prefix + "_orphans.fastq"), body);
    };
  }
  events.on_single = [&](RawRecord&& body) {
    write(lazy(singles_out, out_prefix + "_singles.fastq"), body);
  };
  // on_passthrough stays unset: secondary/supplementary lines re-render
  // bases the primary line already exported.

  CollateStage stage_impl(read_header(in_path), out_prefix + ".collate",
                          std::move(events), options);
  for_each_record(in_path, options, [&](RawRecord&& body) {
    stage_impl.push(std::move(body));
  });
  stage_impl.finish();

  CollateStats stats = stage_impl.stats();
  stats.written = r1_out.records() + r2_out.records();
  r1_out.close();
  r2_out.close();
  stats.outputs.push_back(out_prefix + "_R1.fastq");
  stats.outputs.push_back(out_prefix + "_R2.fastq");
  if (orphans_out) {
    stats.written += orphans_out->records();
    orphans_out->close();
    stats.outputs.push_back(out_prefix + "_orphans.fastq");
  }
  if (singles_out) {
    stats.written += singles_out->records();
    singles_out->close();
    stats.outputs.push_back(out_prefix + "_singles.fastq");
  }
  stats.seconds = timer.seconds();
  mirror_metrics(stats);
  return stats;
}

CollateStats mark_duplicates(const std::string& in_path,
                             const std::string& out_bam, DuplicateMode mode,
                             const CollateOptions& options) {
  obs::StageScope stage("convert.stage.collate", "collate", "mark_duplicates");
  Timer timer;

  SamHeader header = read_header(in_path);

  // Pass A: stream pairs, keep the best pair per signature. The table is
  // content-addressed, so neither arrival order nor spilling changes it.
  BestBySignature best;
  CollateStats stats;
  {
    CollateEvents events;
    events.on_pair = [&](RawRecord&& r1, RawRecord&& r2) {
      std::optional<PairSignature> sig = pair_signature(r1, r2);
      if (!sig.has_value()) {
        return;
      }
      best[*sig].offer(base_quality_score(r1) + base_quality_score(r2),
                       bam::RecordView(r1).qname());
    };
    CollateStage scan(header, out_bam + ".pairscan", std::move(events),
                      options);
    for_each_record(in_path, options, [&](RawRecord&& body) {
      scan.push(std::move(body));
    });
    scan.finish();
    stats = scan.stats();
  }

  // Pass B: re-read in name-collation order; a group whose primary pair
  // lost its signature slot is marked (or dropped) whole. The 0x400 bit is
  // cleared on the way in and set on the way out, in place.
  ExternalSorter sorter(header, out_bam, name_collate_less,
                        to_sort_options(options));
  for_each_record(in_path, options, [&](RawRecord&& body) {
    bam::set_flag(body.data(), bam::RecordView(body).flag() &
                                   static_cast<uint16_t>(~sam::kDuplicate));
    sorter.push(std::move(body));
  });

  bam::BamFileWriter writer(out_bam, header, options.compression_level,
                            collate_width(options));
  drain_groups(sorter, [&](std::vector<RawRecord>&& group) {
    bool duplicate = false;
    auto [r1, r2] = primary_pair(group);
    if (r1 != nullptr) {
      std::optional<PairSignature> sig = pair_signature(*r1, *r2);
      if (sig.has_value()) {
        auto it = best.find(*sig);
        duplicate = it != best.end() &&
                    it->second.qname != bam::RecordView(*r1).qname();
      }
    }
    if (duplicate) {
      ++stats.dup_pairs;
      stats.dup_records += group.size();
      if (mode == DuplicateMode::kDrop) {
        return;
      }
    }
    for (auto& body : group) {
      if (duplicate) {
        bam::set_flag(body.data(), static_cast<uint16_t>(
                                       bam::RecordView(body).flag() |
                                       sam::kDuplicate));
      }
      writer.write_body(body);
      ++stats.written;
    }
  });
  stats.spill_runs += sorter.runs();
  stats.spilled_records += sorter.spilled_records();
  stats.spilled_bytes += sorter.spilled_bytes();
  writer.close();
  stats.outputs.push_back(out_bam);
  stats.seconds = timer.seconds();
  mirror_metrics(stats);
  return stats;
}

}  // namespace ngsx::core
