#pragma once
// Harness flag parsing, extracted from bench/harness.hpp so it is unit
// testable (test_bench_json covers it).
//
// Every bench binary accepts:
//
//   --jobs N        worker threads (0 = hardware concurrency)
//   --threads N     intra-trial pool size (ParallelFor); defaults to
//                   the resolved --jobs value. N must be >= 1: unlike
//                   --jobs there is no "auto" spelling, so --threads 0
//                   is rejected rather than silently remapped.
//   --json [PATH]   parbounds-bench-v1 report; bare --json uses the
//                   caller's default path
//   --trace [PATH]  Chrome trace-event span export; bare --trace uses
//                   the caller's default path
//   --via-service   route sweeps through an in-process SweepService
//                   with a content-addressed result cache
//                   (docs/SERVICE.md); report bytes stay identical to
//                   an in-process run
//   --cache-dir P   service result-cache directory (also the fleet's
//                   shared cell cache under --workers)
//   --cache-bytes N service cache size bound (0 = library default)
//   --workers N     execute sweeps across N fleet worker PROCESSES
//                   (docs/SERVICE.md#fleet); the merged report stays
//                   byte-identical to in-process --jobs 1. N must be
//                   >= 1: there is no "auto" fleet width, so
//                   --workers 0 is rejected rather than remapped.
//   --fleet-window K  per-worker credit window: each fleet worker holds
//                   up to K cells in flight (default 8; 1 = lock-step).
//                   K must be >= 1, and the flag only means something
//                   with --workers — either misuse is a typed error.
//   --help          print harness_usage() (the bench then adds
//                   google-benchmark's usage) and exit 0 before any
//                   sweep runs; --help wins over every other flag.
//
// Recognized flags are stripped from argv (google-benchmark parses the
// rest). A bare --json/--trace followed by another `--flag` takes the
// default path; a following token that begins with a single '-'
// (e.g. `--json -out.json`) is rejected with a pointer at the
// unambiguous `--json=-out.json` spelling — the old parser silently
// dropped the path in that case. Unknown flags normally pass through to
// google-benchmark, EXCEPT tokens starting with --via- or --cache-:
// those namespaces belong to the harness, so a typo there is rejected
// with a did-you-mean hint instead of being silently ignored. The same
// courtesy covers near-misses of --workers (`--worker`, `--wokers`)
// and --fleet-window (`--fleet-windw`, plus the tempting short
// spelling `--window`): any unknown --flag within edit distance 2 of
// either — or exactly `--window` — is rejected rather than passed
// through, because a silently dropped fleet flag would run the whole
// sweep in-process (or lock-step) and look like it worked.
//
// Benches with a measured floor or ceiling (bench_hotpath,
// bench_obs_overhead, bench_fleet_throughput) also take `--NAME=X` gate
// values; parse_gate_flags reads them strictly.

#include <cstdint>
#include <initializer_list>
#include <string>

namespace parbounds::runtime {

struct HarnessFlags {
  unsigned jobs = 0;        ///< 0 = hardware concurrency
  unsigned threads = 0;     ///< intra-trial pool size; 0 = follow jobs
  bool threads_set = false; ///< --threads given explicitly
  std::string json_path;    ///< empty = no JSON report
  std::string trace_path;   ///< empty = no span trace
  bool via_service = false; ///< route sweeps through the sweep service
  std::string cache_dir;    ///< service cache dir; empty = harness default
  std::uint64_t cache_bytes = 0;  ///< service cache bound; 0 = default
  unsigned workers = 0;     ///< fleet worker processes; 0 = fleet off
  unsigned fleet_window = 0; ///< per-worker credit window; 0 = default (8)
  bool help = false;        ///< --help: print usage, run nothing
  bool error = false;
  std::string error_message;

  /// The intra-trial pool size after applying the default: an explicit
  /// --threads wins, otherwise the resolved --jobs value.
  unsigned resolved_threads(unsigned resolved_jobs) const {
    return threads_set ? threads : resolved_jobs;
  }
};

/// Parse and strip --jobs/--threads/--json/--trace from argv. On error,
/// `error` is set, `error_message` names the offending token, and argv
/// is left partially compacted (callers should exit).
HarnessFlags parse_harness_flags(int& argc, char** argv,
                                 const std::string& default_json_path,
                                 const std::string& default_trace_path);

/// The harness flag block printed by --help.
const char* harness_usage();

/// A measured gate a bench takes as `--NAME=X`: a floor (--min-...) or
/// a ceiling (--max-...) on a ratio.
struct GateFlag {
  const char* name = nullptr;  ///< with the dashes, e.g. "--max-overhead"
  double* value = nullptr;     ///< holds the default; overwritten if given
};

/// Parse and strip the listed `--NAME=X` gates from argv. X must be a
/// finite, non-negative decimal with nothing after it; a bare --NAME
/// is an error too. Returns an empty string on success, else a message
/// naming the flag and the value (argv is then partially compacted;
/// callers should exit 2).
std::string parse_gate_flags(int& argc, char** argv,
                             std::initializer_list<GateFlag> gates);

/// Plain Levenshtein distance — small strings, tiny table. Shared by
/// every did-you-mean rejection (the --via-/--cache- namespaces here,
/// PARBOUNDS_SIMD values in simd_level.cpp).
std::size_t edit_distance(const std::string& a, const std::string& b);

}  // namespace parbounds::runtime
