// Shared helpers of the ngsx_perfbench tool: record digests, a tiny JSON
// writer and the in-memory span recorder of the traced run.

#pragma once

#include <zlib.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/cli.h"

namespace perfbench {

// Settings that have one value in every run. The per-workload sizes and the
// region_serve traffic mix live in run.py's WORKLOADS table, which passes
// them as required flags.
constexpr int kConnections = 4;           // client connections; ranks of in-process jobs
constexpr uint64_t kBurst = 64;           // closed-loop page of region_serve, requests
constexpr uint64_t kSmallRecords = 2000;  // set-up input of the batch workloads
constexpr uint64_t kProbeRecords = 50000;   // probe set of the traced run
constexpr uint64_t kProbeRequests = 4000;   // probe request stream of the traced run
constexpr int64_t kTraceRequests = 500;   // requests of region_serve's traced job
constexpr uint64_t kSampleEvery = 25;     // load checks every 25th response

/// The value of --name, which the caller must pass.
inline std::string need(const ngsx::CliArgs& args, const std::string& name) {
  if (!args.has(name) || args.get(name, "").empty()) {
    throw std::invalid_argument("missing --" + name);
  }
  return args.get(name, "");
}
inline int64_t need_int(const ngsx::CliArgs& args, const std::string& name) {
  need(args, name);
  return args.get_int(name, 0);
}
inline double need_double(const ngsx::CliArgs& args, const std::string& name) {
  need(args, name);
  return args.get_double(name, 0.0);
}

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Order-sensitive digest of a byte stream: zlib's crc32 and adler32 (not
/// the ngsx kernels under test), the byte count and an item count.
struct Digest {
  uLong crc = crc32(0L, Z_NULL, 0);
  uLong adler = adler32(0L, Z_NULL, 0);
  uint64_t bytes = 0;
  uint64_t items = 0;

  void add(std::string_view data) {
    bytes += data.size();
    while (!data.empty()) {  // zlib takes at most a uInt per call
      const std::string_view piece = data.substr(0, 1u << 30);
      crc = crc32(crc, reinterpret_cast<const Bytef*>(piece.data()),
                  static_cast<uInt>(piece.size()));
      adler = adler32(adler, reinterpret_cast<const Bytef*>(piece.data()),
                      static_cast<uInt>(piece.size()));
      data.remove_prefix(piece.size());
    }
  }
  std::string str() const {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%08lx-%08lx-%llu-%llu", crc, adler,
                  static_cast<unsigned long long>(bytes),
                  static_cast<unsigned long long>(items));
    return buf;
  }
};

/// Flat JSON object of numbers and strings, written in insertion order.
class JsonObject {
 public:
  void num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    fields_.emplace_back(key, buf);
  }
  void str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') {
        quoted += '\\';
      }
      quoted += c;
    }
    fields_.emplace_back(key, quoted + "\"");
  }
  void raw(const std::string& key, std::string json) {
    fields_.emplace_back(key, std::move(json));
  }
  std::string dump() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      out += (i == 0 ? "\"" : ", \"") + fields_[i].first + "\": " +
             fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Digest of the alignment lines (header lines skipped) of SAM part files,
/// concatenated in the given order.
Digest digest_sam_parts(const std::vector<std::string>& paths);
/// Digest of the raw record bodies of BAM part files, in order.
Digest digest_bam_parts(const std::vector<std::string>& paths);
/// Digest of a file's raw bytes.
Digest digest_file(const std::string& path);

// Subcommands (one source file each).
int cmd_gen(const ngsx::CliArgs& args);
int cmd_digest(const ngsx::CliArgs& args);
int cmd_load(const ngsx::CliArgs& args);
int cmd_check_serve(const ngsx::CliArgs& args);
int cmd_trace(const ngsx::CliArgs& args);
int cmd_env(const ngsx::CliArgs& args);

}  // namespace perfbench
