// Output checks: record digests of converter part files (`digest`) and a
// sampled comparison of daemon responses against
// ConversionSession::format_records for the same region (`check-serve`).

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "core/session.h"
#include "formats/bam.h"
#include "serve/protocol.h"
#include "util/binio.h"

namespace perfbench {

using namespace ngsx;

Digest digest_sam_parts(const std::vector<std::string>& paths) {
  Digest d;
  for (const std::string& path : paths) {
    // Header lines ('@') come first in a SAM file; the rest are records.
    const std::string text = read_file(path);
    size_t body = 0;
    while (body < text.size() && text[body] == '@') {
      const size_t nl = text.find('\n', body);
      body = nl == std::string::npos ? text.size() : nl + 1;
    }
    const std::string_view records = std::string_view(text).substr(body);
    d.add(records);
    d.items += static_cast<uint64_t>(
        std::count(records.begin(), records.end(), '\n'));
  }
  return d;
}

Digest digest_bam_parts(const std::vector<std::string>& paths) {
  Digest d;
  std::string body;
  for (const std::string& path : paths) {
    bam::BamFileReader reader(path, 1);
    while (reader.next_raw(body)) {
      d.add(body);
      ++d.items;
    }
  }
  return d;
}

Digest digest_file(const std::string& path) {
  Digest d;
  d.add(read_file(path));
  d.items = 1;
  return d;
}

// digest (sam|bam|file) PATH... -> one digest line on stdout.
int cmd_digest(const CliArgs& args) {
  const std::vector<std::string>& pos = args.positional();
  if (pos.size() < 3) {
    std::fprintf(stderr, "digest: need KIND PATH...\n");
    return 2;
  }
  const std::string& kind = pos[1];
  const std::vector<std::string> paths(pos.begin() + 2, pos.end());
  Digest d;
  if (kind == "sam") {
    d = digest_sam_parts(paths);
  } else if (kind == "bam") {
    d = digest_bam_parts(paths);
  } else if (kind == "file" && paths.size() == 1) {
    d = digest_file(paths[0]);
  } else {
    std::fprintf(stderr, "digest: unknown kind %s\n", kind.c_str());
    return 2;
  }
  std::printf("%s\n", d.str().c_str());
  return 0;
}

// check-serve --data X.bamxm --baix X.baix --requests F --results R
//
// R holds one "<request index> <ok> <payload digest>" line per sampled
// response (written by `load`). Each is recomputed in-process through
// ConversionSession::format_records and compared. Prints
// "checked=<n> mismatched=<m>"; exits 1 on any mismatch.
int cmd_check_serve(const CliArgs& args) {
  core::SessionOptions sopt;
  sopt.bamx_path = need(args, "data");
  sopt.baix_path = need(args, "baix");
  const core::ConversionSession session(sopt);

  std::vector<std::string> requests;
  {
    std::istringstream in(read_file(need(args, "requests")));
    for (std::string line; std::getline(in, line);) {
      requests.push_back(line);
    }
  }
  std::istringstream results(read_file(need(args, "results")));
  uint64_t checked = 0;
  uint64_t mismatched = 0;
  size_t index = 0;
  int ok = 0;
  std::string got;
  std::string payload;
  while (results >> index >> ok >> got) {
    ++checked;
    if (index >= requests.size() || ok != 1) {
      ++mismatched;
      continue;
    }
    const serve::ProtoRequest req = serve::parse_request(requests[index]);
    const std::vector<uint64_t> plan =
        session.plan(session.parse(req.region), req.mode, req.filter);
    payload.clear();
    session.format_records(plan, req.format, req.include_header, payload);
    Digest want;
    want.add(payload);
    want.items = 1;
    if (want.str() != got) {
      ++mismatched;
      std::fprintf(stderr, "check-serve: request %zu (%s) differs\n", index,
                   requests[index].c_str());
    }
  }
  std::printf("checked=%llu mismatched=%llu\n",
              static_cast<unsigned long long>(checked),
              static_cast<unsigned long long>(mismatched));
  return mismatched == 0 && checked > 0 ? 0 : 1;
}

}  // namespace perfbench
