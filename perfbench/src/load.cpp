// `load`: the request generator for region_serve. Drives ngsx_serve over
// its Unix socket from kConnections connections, either as a closed loop
// (each connection sends its next request when the previous reply is in)
// or as an open loop at `--rate` requests per second, where request k is
// due at t0 + k/rate and its latency is counted from that due time, so a
// stall also charges the requests queued behind it. Request k is line
// `--start` + k of the stream; the summary reports how many lines the phase
// used, so the next phase can start after them. With --results, every
// kSampleEvery-th response's digest goes there for check-serve. Prints one
// JSON summary line.
//
//   load --socket S --requests F --mode closed|open --seconds T --start I
//        [--rate R (open)] [--results P]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "client.h"
#include "common.h"
#include "util/binio.h"

namespace perfbench {

using namespace ngsx;
using Clock = std::chrono::steady_clock;

namespace {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

}  // namespace

int cmd_load(const CliArgs& args) {
  const std::string socket_path = need(args, "socket");
  const std::string mode = need(args, "mode");
  const double seconds = need_double(args, "seconds");
  const uint64_t start = static_cast<uint64_t>(need_int(args, "start"));
  const double rate = mode == "open" ? need_double(args, "rate") : 1.0;
  const std::string results_path = args.get("results", "");

  std::vector<std::string> requests;
  {
    std::istringstream in(read_file(need(args, "requests")));
    for (std::string line; std::getline(in, line);) {
      requests.push_back(line);
    }
  }
  if (requests.empty() || rate <= 0 || (mode != "open" && mode != "closed")) {
    std::fprintf(stderr, "load: bad arguments\n");
    return 2;
  }
  const bool open_loop = mode == "open";

  std::vector<std::unique_ptr<Connection>> connections;
  for (int i = 0; i < kConnections; ++i) {
    connections.push_back(std::make_unique<Connection>(socket_path));
  }

  std::atomic<uint64_t> next{0};
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
  std::mutex mu;  // guards the result vectors below
  std::vector<double> latency_ms;
  std::vector<double> lateness_ms;
  std::string samples;

  // One phase: every connection takes request numbers k < k_end from the
  // shared counter. In the open loop, request k is due at t0 + k/rate.
  auto run_phase = [&](uint64_t k_end, Clock::time_point t0) {
    auto worker = [&](Connection& conn) {
      std::string payload;
      std::vector<double> my_lat;
      std::vector<double> my_late;
      std::string my_samples;
      for (;;) {
        const uint64_t k = next.fetch_add(1);
        if (k >= k_end) {
          break;
        }
        Clock::time_point due = Clock::now();
        if (open_loop) {
          due = t0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             static_cast<double>(k) / rate));
          std::this_thread::sleep_until(due);
          my_late.push_back(
              std::chrono::duration<double, std::milli>(Clock::now() - due)
                  .count());
        }
        const uint64_t index = (start + k) % requests.size();
        attempted.fetch_add(1);
        bool is_ok = false;
        if (!conn.ok() || !conn.round_trip(requests[index], is_ok, payload)) {
          failed.fetch_add(1);
          break;  // a dead connection fails the run; stop this client
        }
        if (!is_ok) {
          failed.fetch_add(1);
        }
        my_lat.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - due)
                .count());
        if (!results_path.empty() && k % kSampleEvery == 0) {
          Digest d;
          d.add(payload);
          d.items = 1;
          my_samples += std::to_string(index) + " " + (is_ok ? "1 " : "0 ") +
                        d.str() + "\n";
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      latency_ms.insert(latency_ms.end(), my_lat.begin(), my_lat.end());
      lateness_ms.insert(lateness_ms.end(), my_late.begin(), my_late.end());
      samples += my_samples;
    };
    std::vector<std::thread> threads;
    for (auto& conn : connections) {
      threads.emplace_back(worker, std::ref(*conn));
    }
    for (std::thread& t : threads) {
      t.join();
    }
  };

  JsonObject out;
  const Clock::time_point begin = Clock::now();
  if (open_loop) {
    const Clock::time_point t0 = begin + std::chrono::milliseconds(5);
    run_phase(static_cast<uint64_t>(seconds * rate), t0);
    next.store(static_cast<uint64_t>(seconds * rate));
  } else {
    // Closed loop in bursts of kBurst requests: each burst is one page of
    // work whose wall time is a sample of job_s.
    std::vector<double> burst_s;
    while (std::chrono::duration<double>(Clock::now() - begin).count() <
               seconds &&
           failed.load() == 0) {
      const Clock::time_point t = Clock::now();
      const uint64_t k_end = next.load() + kBurst;
      run_phase(k_end, t);
      next.store(k_end);
      burst_s.push_back(std::chrono::duration<double>(Clock::now() - t).count());
    }
    double busy = 0.0;
    for (double b : burst_s) {
      busy += b;
    }
    out.num("bursts", static_cast<double>(burst_s.size()));
    out.num("burst_p50_s", percentile(burst_s, 0.5));
    out.num("completed_per_s", static_cast<double>(latency_ms.size()) / busy);
  }
  if (!results_path.empty()) {
    write_file(results_path, samples);
  }

  out.num("used", static_cast<double>(next.load()));
  out.num("attempted", static_cast<double>(attempted.load()));
  out.num("failed", static_cast<double>(failed.load()));
  out.num("elapsed_s",
          std::chrono::duration<double>(Clock::now() - begin).count());
  out.num("p50_ms", percentile(latency_ms, 0.50));
  out.num("p90_ms", percentile(latency_ms, 0.90));
  out.num("p99_ms", percentile(latency_ms, 0.99));
  out.num("samples", static_cast<double>(latency_ms.size()));
  if (open_loop) {
    out.num("late_p50_ms", percentile(lateness_ms, 0.50));
    out.num("late_p99_ms", percentile(lateness_ms, 0.99));
    out.num("late_max_ms", percentile(lateness_ms, 1.0));
  }
  std::printf("%s\n", out.dump().c_str());
  return failed.load() == 0 ? 0 : 1;
}

}  // namespace perfbench
