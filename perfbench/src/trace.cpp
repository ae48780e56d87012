// `trace`: the traced run. Spans are recorded here, in the benchmark's own
// code, around calls into each layer's public functions (nothing inside
// src/ is instrumented); they stay in memory and are written when the
// phase ends. A span has a name, a layer, start and end, its parent and,
// for daemon requests, a request id. A layer's self time is its spans'
// time minus the time of the child spans they cover.
//
//   --phase job     the workload's job, made of the same calls the real
//                   binary makes (ngsx_convert or ngsx_serve), with spans
//   --phase probes  one timed call per layer on the seed's probe inputs,
//                   plus the daemon request breakdown
//
// Both phases need --dir (the workload's inputs), --out, --socket and
// --cache-mb (region_serve's cache size); the job phase also needs
// --workload and, for markdup, --collate-mem. --spans PATH
// writes the spans; --no-spans turns them off.
//
// Each phase prints one JSON object: its metrics and the self time per
// layer.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "client.h"
#include "common.h"
#include "core/collate.h"
#include "core/convert.h"
#include "core/partition.h"
#include "core/session.h"
#include "exec/pool.h"
#include "formats/bgzf.h"
#include "formats/bgzf_parallel.h"
#include "formats/sam.h"
#include "obs/metrics.h"
#include "serve/cache.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/binio.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace ngsx;

namespace {

class Tracer {
 public:
  struct Span {
    std::string name;
    std::string layer;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    int64_t request = -1;
  };

  explicit Tracer(bool on) : on_(on) {}

  /// Runs `fn` inside a span; returns the span's wall seconds (measured
  /// even when spans are off, so probes can report it).
  template <class Fn>
  double span(const std::string& name, const std::string& layer, Fn&& fn,
              int64_t request = -1) {
    const int id = open(name, layer, request);
    const double t = now_s();
    fn();
    const double dt = now_s() - t;
    close(id);
    return dt;
  }

  int open(const std::string& name, const std::string& layer,
           int64_t request = -1) {
    if (!on_) {
      return -1;
    }
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, layer, now_s(), 0.0, parent, request});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    if (id < 0) {
      return;
    }
    spans_[id].end = now_s();
    stack_.pop_back();
  }

  /// Self seconds per layer: each span minus its direct children (spans
  /// nest and run one at a time, so the children never overlap).
  std::map<std::string, double> self_by_layer() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child[s.parent] += s.end - s.start;
      }
    }
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (!spans_[i].layer.empty()) {
        self[spans_[i].layer] += spans_[i].end - spans_[i].start - child[i];
      }
    }
    return self;
  }

  void write(const std::string& path) const {
    std::string out = "[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      JsonObject o;
      o.str("name", spans_[i].name);
      o.str("layer", spans_[i].layer);
      o.num("start_s", spans_[i].start - spans_[0].start);
      o.num("end_s", spans_[i].end - spans_[0].start);
      o.num("parent", spans_[i].parent);
      if (spans_[i].request >= 0) {
        o.num("request", static_cast<double>(spans_[i].request));
      }
      out += "  " + o.dump() + (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    write_file(path, out + "]\n");
  }

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

double hist_sum_s(const obs::Snapshot& snap, const char* name) {
  const obs::HistogramSnapshot* h = snap.histogram_value(name);
  return h == nullptr ? 0.0 : static_cast<double>(h->sum) / 1e6;
}

double counter(const obs::Snapshot& snap, const char* name) {
  return static_cast<double>(snap.counter_value(name));
}

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::istringstream in(read_file(path));
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  return lines;
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Serving {
  std::string data;      // .bamxm
  std::string baix;
  std::string requests;  // request lines
  std::string socket;    // socket path for the in-process daemon
  size_t cache_bytes = 0;
};

// A Server on its own thread, as ngsx_serve runs it.
class InProcessDaemon {
 public:
  InProcessDaemon(const core::ConversionSession& session, size_t cache_bytes,
                  const std::string& socket)
      : pool_(kConnections), server_(session, pool_, options(cache_bytes)) {
    fs::remove(socket);
    thread_ = std::thread([this, socket] { server_.serve_unix(socket); });
    for (int i = 0; i < 5000 && !fs::exists(socket); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ~InProcessDaemon() {
    server_.stop();
    thread_.join();
  }
  InProcessDaemon(const InProcessDaemon&) = delete;
  InProcessDaemon& operator=(const InProcessDaemon&) = delete;

  serve::Server& server() { return server_; }

 private:
  static serve::ServerOptions options(size_t cache_bytes) {
    serve::ServerOptions opt;
    opt.cache_bytes = cache_bytes;
    return opt;
  }
  exec::Pool pool_;
  serve::Server server_;
  std::thread thread_;
};

// ------------------------------------------------------------------ job

void job_phase(const CliArgs& args, Tracer& tr, JsonObject& out) {
  const std::string workload = need(args, "workload");
  const std::string dir = need(args, "dir");
  const std::string outdir = need(args, "out");
  fs::create_directories(outdir);
  const int root = tr.open("job", "");
  if (workload == "bam_to_sam") {
    // ngsx_convert --in in.bam --to sam --ranks 4
    const std::string bamx = outdir + "/input.bamxm";
    const std::string baix = outdir + "/input.baix";
    tr.span("preprocess_bam_parallel", "core.preprocess", [&] {
      core::preprocess_bam_parallel(dir + "/in.bam", bamx, baix, {});
    });
    tr.span("convert_bamx", "core.convert", [&] {
      core::ConvertOptions opt;
      opt.format = core::TargetFormat::kSam;
      opt.ranks = kConnections;
      core::convert_bamx(bamx, baix, outdir, opt);
    });
  } else if (workload == "sam_to_bam") {
    // ngsx_convert --in in.sam --to bam --ranks 4
    tr.span("convert_sam", "core.convert", [&] {
      core::ConvertOptions opt;
      opt.format = core::TargetFormat::kBam;
      opt.ranks = kConnections;
      core::convert_sam(dir + "/in.sam", outdir, opt);
    });
  } else if (workload == "markdup") {
    // ngsx_convert --collate mark-dups --collate-mem N
    tr.span("mark_duplicates", "core.collate", [&] {
      core::CollateOptions opt;
      opt.max_records_in_memory =
          static_cast<size_t>(need_int(args, "collate-mem"));
      opt.decode_threads = 0;
      opt.parse_threads = 0;
      core::mark_duplicates(dir + "/in.bam", outdir + "/markdup.bam",
                            core::DuplicateMode::kMark, opt);
    });
  } else if (workload == "region_serve") {
    // ngsx_serve over its socket: open, then one client replays requests.
    std::unique_ptr<core::ConversionSession> session;
    tr.span("session_open", "core.session", [&] {
      core::SessionOptions sopt;
      sopt.bamx_path = dir + "/serve.bamxm";
      sopt.baix_path = dir + "/serve.baix";
      session = std::make_unique<core::ConversionSession>(sopt);
    });
    std::unique_ptr<InProcessDaemon> daemon;
    tr.span("server_start", "serve", [&] {
      daemon = std::make_unique<InProcessDaemon>(
          *session, static_cast<size_t>(need_int(args, "cache-mb")) << 20,
          need(args, "socket"));
    });
    const std::vector<std::string> requests = read_lines(dir + "/requests.txt");
    int64_t failed = 0;
    {
      // Closed before the daemon stops: an open idle connection would
      // hold its shutdown.
      Connection conn(need(args, "socket"));
      std::string payload;
      for (int64_t k = 0; k < kTraceRequests; ++k) {
        bool ok = false;
        tr.span("request", "serve.socket", [&] {
          if (!conn.round_trip(requests[k % requests.size()], ok, payload)) {
            ok = false;
          }
        }, k);
        failed += ok ? 0 : 1;
      }
    }
    tr.span("server_stop", "serve", [&] { daemon.reset(); });
    out.num("requests", static_cast<double>(kTraceRequests));
    out.num("failed", static_cast<double>(failed));
  }
  tr.close(root);

  // Job-scoped obs counters (ngsx_convert arms metrics the same way).
  const obs::Snapshot snap = obs::snapshot();
  const std::string input =
      dir + (workload == "sam_to_bam" ? "/in.sam" : "/in.bam");
  const double in_bytes = static_cast<double>(fs::file_size(input));
  out.num("io.read_mb", counter(snap, "io.binio.read_bytes") / 1e6);
  out.num("io.write_mb", counter(snap, "io.binio.write_bytes") / 1e6);
  out.num("io.write_amp", counter(snap, "io.binio.write_bytes") / in_bytes);
  out.num("io.fsyncs", counter(snap, "io.binio.fsyncs"));
}

// ------------------------------------------------------------------ probes

void serve_probes(const Serving& sv, Tracer& tr, JsonObject& out) {
  const std::vector<std::string> requests = read_lines(sv.requests);
  std::unique_ptr<core::ConversionSession> session;
  const serve::ProtoRequest first = serve::parse_request(requests.at(0));
  out.num("session.open_s", tr.span("session_open", "core.session", [&] {
    core::SessionOptions sopt;
    sopt.bamx_path = sv.data;
    sopt.baix_path = sv.baix;
    session = std::make_unique<core::ConversionSession>(sopt);
    session->plan(session->parse(first.region), first.mode, first.filter);
  }));

  obs::reset_metrics();
  InProcessDaemon daemon(*session, sv.cache_bytes, sv.socket);
  serve::Server& server = daemon.server();
  const serve::CachedFetcher fetcher(session->source(), *server.cache());

  // Per-request breakdown on a sample, one request at a time, after one
  // warming pass so every variant sees the same cache state. Each layer's
  // cost is the difference between two nested ways of asking for the same
  // response: session call < Scheduler::submit < handle_line < socket.
  const size_t sample = std::min<size_t>(200, requests.size());
  Connection conn(sv.socket);
  std::string payload;
  bool ok = false;
  for (size_t i = 0; i < sample; ++i) {
    conn.round_trip(requests[i], ok, payload);
  }
  std::vector<double> plan_us, format_us, sched_us, proto_us, socket_us;
  for (size_t i = 0; i < sample; ++i) {
    const serve::ProtoRequest proto = serve::parse_request(requests[i]);
    serve::ServeRequest req;
    req.region = session->parse(proto.region);
    req.format = proto.format;
    req.mode = proto.mode;
    req.filter = proto.filter;
    req.include_header = proto.include_header;

    std::vector<uint64_t> plan;
    const double t_plan = tr.span("plan", "core.session", [&] {
      plan = session->plan(req.region, req.mode, req.filter);
    }, static_cast<int64_t>(i));
    const double t_format = tr.span("format_records", "core.session", [&] {
      payload.clear();
      session->format_records(plan, req.format, req.include_header, payload,
                              &fetcher);
    }, static_cast<int64_t>(i));
    const double t_submit = tr.span("submit", "serve.sched", [&] {
      server.scheduler().submit(req);
    }, static_cast<int64_t>(i));
    const double t_handle = tr.span("handle_line", "serve.proto", [&] {
      server.handle_line(requests[i]);
    }, static_cast<int64_t>(i));
    const double t_socket = tr.span("round_trip", "serve.socket", [&] {
      conn.round_trip(requests[i], ok, payload);
    }, static_cast<int64_t>(i));
    plan_us.push_back(t_plan * 1e6);
    format_us.push_back(t_format * 1e6);
    sched_us.push_back((t_submit - t_plan - t_format) * 1e6);
    proto_us.push_back((t_handle - t_submit) * 1e6);
    socket_us.push_back((t_socket - t_handle) * 1e6);
  }
  out.num("session.plan_us", median(plan_us));
  out.num("session.format_us", median(format_us));
  out.num("serve.sched_us", median(sched_us));
  out.num("serve.proto_us", median(proto_us));
  out.num("serve.socket_us", median(socket_us));

  // Cache and coalescing under concurrent load: four connections replay
  // the stream in a closed loop.
  obs::reset_metrics();
  const serve::BlockCache::Stats before = server.cache()->stats();
  tr.span("concurrent_replay", "serve", [&] {
    std::vector<std::thread> clients;
    for (int c = 0; c < kConnections; ++c) {
      clients.emplace_back([&, c] {
        Connection cc(sv.socket);
        std::string body;
        bool good = false;
        for (size_t k = c; k < std::min<size_t>(kProbeRequests, requests.size());
             k += kConnections) {
          cc.round_trip(requests[k], good, body);
        }
      });
    }
    for (std::thread& t : clients) {
      t.join();
    }
  });
  const obs::Snapshot snap = obs::snapshot();
  const double hits = counter(snap, "serve.cache.hits");
  const double misses = counter(snap, "serve.cache.misses");
  out.num("serve.cache_hit_ratio", hits / std::max(1.0, hits + misses));
  out.num("serve.cache_evictions",
          static_cast<double>(server.cache()->stats().evictions -
                              before.evictions));
  out.num("serve.coalesced_frac", counter(snap, "serve.coalesced") /
                                      std::max(1.0, counter(snap, "serve.requests")));
  out.num("serve.rejects", counter(snap, "serve.admission_rejects"));
}

void probe_phase(const CliArgs& args, Tracer& tr, JsonObject& out) {
  const std::string dir = need(args, "dir");
  const std::string outdir = need(args, "out");
  fs::create_directories(outdir);
  const int nproc = exec::hardware_threads();
  const std::string probe_sam = dir + "/probe.sam";
  const std::string probe_bam = dir + "/probe.bam";

  // formats.bgzf: parallel decode of the probe BAM, then the BGZF writer
  // over the same uncompressed bytes.
  std::string raw;
  obs::reset_metrics();
  double dt = tr.span("decode", "formats.bgzf", [&] {
    auto reader = bgzf::open_reader(probe_bam, nproc);
    std::string buf(1 << 20, '\0');
    for (size_t n; (n = reader->read(buf.data(), buf.size())) > 0;) {
      raw.append(buf, 0, n);
    }
  });
  out.num("bgzf.decode_mb_s", static_cast<double>(raw.size()) / 1e6 / dt);
  out.num("bgzf.inflate_s", hist_sum_s(obs::snapshot(), "bgzf.decode.inflate_us"));
  obs::reset_metrics();
  dt = tr.span("encode", "formats.bgzf", [&] {
    bgzf::Writer writer(outdir + "/probe.bgz");
    for (size_t off = 0; off < raw.size(); off += 1 << 16) {
      writer.write(std::string_view(raw).substr(off, 1 << 16));
    }
    writer.close();
  });
  out.num("bgzf.encode_mb_s", static_cast<double>(raw.size()) / 1e6 / dt);
  out.num("bgzf.deflate_s", hist_sum_s(obs::snapshot(), "bgzf.encode.deflate_us"));

  // formats.sam: parse the probe SAM, then format the parsed records.
  std::vector<sam::AlignmentRecord> recs;
  sam::SamHeader header;
  dt = tr.span("parse", "formats.sam", [&] {
    sam::SamFileReader reader(probe_sam);
    header = reader.header();
    sam::AlignmentRecord rec;
    while (reader.next(rec)) {
      recs.push_back(rec);
    }
  });
  out.num("sam.parse_mb_s", static_cast<double>(fs::file_size(probe_sam)) / 1e6 / dt);
  std::string text;
  dt = tr.span("format", "formats.sam", [&] {
    for (const sam::AlignmentRecord& rec : recs) {
      sam::format_record(rec, header, text);
      text += '\n';
    }
  });
  out.num("sam.format_mb_s", static_cast<double>(text.size()) / 1e6 / dt);

  // core.partition + core.convert (SAM path) + mpi: Algorithm-1 boundaries
  // for 4 ranks, then the whole 4-rank SAM -> BAM conversion.
  std::vector<core::ByteRange> parts;
  out.num("partition.s", tr.span("partition_sam_forward", "core.partition", [&] {
    const InputFile file(probe_sam);
    const uint64_t body = sam::SamFileReader(probe_sam).alignment_start_offset();
    parts = core::partition_sam_forward(file, {body, file.size()}, kConnections);
  }));
  obs::reset_metrics();
  core::ConvertStats cs;
  out.num("convert.sam_s", tr.span("convert_sam", "core.convert", [&] {
    core::ConvertOptions opt;
    opt.format = core::TargetFormat::kBam;
    opt.ranks = kConnections;
    cs = core::convert_sam(probe_sam, outdir + "/sam_to_bam", opt);
  }));
  double largest = 0.0;
  double total = 0.0;
  for (const std::string& part : cs.outputs) {
    const double size = static_cast<double>(fs::file_size(part));
    largest = std::max(largest, size);
    total += size;
  }
  out.num("convert.part_skew",
          largest / (total / static_cast<double>(cs.outputs.size())));
  out.num("mpi.wait_s", hist_sum_s(obs::snapshot(), "mpi.transport.wait_us"));

  // core.preprocess + exec + core.convert (BAMX path).
  obs::reset_metrics();
  core::PreprocessStats ps;
  const std::string bamxm = outdir + "/probe.bamxm";
  const std::string baix = outdir + "/probe.baix";
  const double pre_s = tr.span("preprocess_bam_parallel", "core.preprocess", [&] {
    ps = core::preprocess_bam_parallel(probe_bam, bamxm, baix, {});
  });
  out.num("preprocess.s", pre_s);
  out.num("preprocess.records_per_s", static_cast<double>(ps.records) / pre_s);
  obs::Snapshot snap = obs::snapshot();
  out.num("exec.pipeline.transform_s", hist_sum_s(snap, "exec.pipeline.transform_us"));
  out.num("exec.pipeline.commit_wait_s", hist_sum_s(snap, "exec.pipeline.commit_wait_us"));
  out.num("convert.bamx_s", tr.span("convert_bamx", "core.convert", [&] {
    core::ConvertOptions opt;
    opt.format = core::TargetFormat::kSam;
    opt.ranks = kConnections;
    core::convert_bamx(bamxm, baix, outdir + "/bamx_to_sam", opt);
  }));
  snap = obs::snapshot();
  out.num("exec.pool.tasks", counter(snap, "exec.pool.tasks"));
  out.num("exec.pool.steals", counter(snap, "exec.pool.steals"));
  out.num("exec.pool.parks", counter(snap, "exec.pool.parks"));
  out.num("exec.pool.task_s", hist_sum_s(snap, "exec.pool.task_us"));

  // core.collate (+ core.sort): duplicate marking with a budget of an
  // eighth of the records, so it spills.
  core::CollateStats cst;
  const double col_s = tr.span("mark_duplicates", "core.collate", [&] {
    core::CollateOptions opt;
    opt.max_records_in_memory = std::max<size_t>(recs.size() / 8, 64);
    opt.decode_threads = 0;
    opt.parse_threads = 0;
    cst = core::mark_duplicates(probe_bam, outdir + "/markdup.bam",
                                core::DuplicateMode::kMark, opt);
  });
  out.num("collate.s", col_s);
  out.num("collate.records_per_s", static_cast<double>(cst.records) / col_s);
  out.num("collate.spill_runs", static_cast<double>(cst.spill_runs));
  out.num("collate.spilled_mb", static_cast<double>(cst.spilled_bytes) / 1e6);

  // core.session + serve: the workload's own daemon data when it has one.
  Serving sv;
  if (fs::exists(dir + "/serve.bamxm")) {
    sv.data = dir + "/serve.bamxm";
    sv.baix = dir + "/serve.baix";
    sv.requests = dir + "/requests.txt";
  } else {
    sv.data = bamxm;
    sv.baix = baix;
    sv.requests = dir + "/probe_requests.txt";
  }
  sv.socket = need(args, "socket");
  sv.cache_bytes = static_cast<size_t>(need_int(args, "cache-mb")) << 20;
  serve_probes(sv, tr, out);
}

}  // namespace

int cmd_trace(const CliArgs& args) {
  const std::string phase = need(args, "phase");
  const std::string spans = args.get("spans", "");
  Tracer tr(!args.get_bool("no-spans", false));
  obs::enable_metrics();
  JsonObject out;
  if (phase == "job") {
    job_phase(args, tr, out);
  } else if (phase == "probes") {
    probe_phase(args, tr, out);
  } else {
    std::fprintf(stderr, "trace: --phase job|probes\n");
    return 2;
  }
  JsonObject self;
  double attributed = 0.0;
  for (const auto& [layer, seconds] : tr.self_by_layer()) {
    self.num(layer, seconds);
    attributed += seconds;
  }
  out.raw("self_s", self.dump());
  out.num("attributed_s", attributed);
  if (!spans.empty()) {
    tr.write(spans);
  }
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace perfbench
