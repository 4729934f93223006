// perfbench_harness — runs one benchmark workload and prints its result.
//
//   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                    [--work-dir DIR] [--allow-non-release]
//
// Output (stdout): a "host ..." provenance line, then as the LAST line
// one JSON object {"correct","attempted","failed","metrics"}. Untraced
// runs report the end-to-end metrics, traced runs the per-layer ones.
// Exit codes: 0 done (check "correct"), 1 a failed run (an unknown
// workload included), 2 usage or a refused build.
//
// The binary doubles as its own fleet worker: the serve_replay fleet
// re-execs it with a --fleet-worker token, handled before anything else.

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "runtime/fleet/worker.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_harness: %s\nusage: perfbench_harness --workload "
               "NAME --seed N --seconds S --trace 0|1 [--work-dir DIR] "
               "[--allow-non-release]\n",
               msg);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  parbounds::fleet::maybe_run_worker(argc, argv);

  perfbench::Options opts;
  opts.work_dir = ".bench_build/perfbench/work";
  bool allow_non_release = false;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--allow-non-release") {
      allow_non_release = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    std::uint64_t u = 0;
    if (a == "--workload") {
      opts.workload = v;
      have_workload = true;
    } else if (a == "--seed" && parse_u64(v, u)) {
      opts.seed = u;
      have_seed = true;
    } else if (a == "--seconds" && parse_u64(v, u) && u >= 1 && u <= 3600) {
      opts.seconds = static_cast<double>(u);
      have_seconds = true;
    } else if (a == "--trace" && parse_u64(v, u) && u <= 1) {
      opts.trace = u == 1;
    } else if (a == "--work-dir") {
      opts.work_dir = v;
    } else {
      return usage(("bad argument " + a + " " + v).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds)
    return usage("--workload, --seed and --seconds are required");

  if (perfbench::build_type() != "Release" && !allow_non_release) {
    std::fprintf(stderr,
                 "perfbench_harness: refusing to report numbers from a '%s' "
                 "build (configure with -DCMAKE_BUILD_TYPE=Release, or pass "
                 "--allow-non-release)\n",
                 std::string(perfbench::build_type()).c_str());
    return 2;
  }

  try {
    std::printf("host %s\n", perfbench::host_json().c_str());
    std::fflush(stdout);
    const perfbench::Outcome out = perfbench::run_workload(opts);
    std::printf("%s\n", perfbench::result_json(out.correct, out.attempted,
                                               out.failed, out.metrics)
                            .c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
  return 0;
}
