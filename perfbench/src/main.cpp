// ngsx_perfbench: the compiled half of the end-to-end benchmark. The
// Python front end (perfbench/run.py) calls one subcommand per step:
//
//   gen          seeded inputs + reference digests for one workload
//   digest       record digest of converter part files
//   load         open- or closed-loop client of ngsx_serve's socket
//   check-serve  sampled daemon responses vs ConversionSession
//   trace        traced in-process run: spans around layer calls
//   env          the environment block (nproc, SIMD, BGZF backend, ...)

#include <cstdio>
#include <exception>
#include <string>

#include "common.h"
#include "exec/pool.h"
#include "formats/bgzf.h"
#include "util/simd.h"

#ifndef NGSX_PERFBENCH_BUILD_TYPE
#define NGSX_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

int cmd_env(const ngsx::CliArgs&) {
  JsonObject env;
  env.num("nproc", ngsx::exec::hardware_threads());
  env.str("simd", ngsx::simd::level_name(ngsx::simd::active_level()));
  env.str("bgzf_backend", ngsx::bgzf::Deflater().backend());
  env.str("build_type", NGSX_PERFBENCH_BUILD_TYPE);
  std::printf("%s\n", env.dump().c_str());
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  const ngsx::CliArgs args(argc, argv);
  const std::string cmd = args.positional().empty() ? "" : args.positional()[0];
  try {
    if (cmd == "gen") return perfbench::cmd_gen(args);
    if (cmd == "digest") return perfbench::cmd_digest(args);
    if (cmd == "load") return perfbench::cmd_load(args);
    if (cmd == "check-serve") return perfbench::cmd_check_serve(args);
    if (cmd == "trace") return perfbench::cmd_trace(args);
    if (cmd == "env") return perfbench::cmd_env(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ngsx_perfbench %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr,
               "usage: ngsx_perfbench gen|digest|load|check-serve|trace|env"
               " [--flags]\n");
  return 2;
}
