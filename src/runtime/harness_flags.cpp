#include "runtime/harness_flags.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <vector>

namespace parbounds::runtime {

std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> prev(b.size() + 1);
  std::vector<std::size_t> cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

namespace {

/// The harness-owned flag namespaces. Tokens under --via-/--cache- that
/// match none of these are typos, not google-benchmark flags.
const char* const kServiceFlags[] = {"--via-service", "--cache-dir",
                                     "--cache-bytes"};

void reject_unknown_service_flag(const std::string& arg, HarnessFlags& out) {
  const std::string name = arg.substr(0, arg.find('='));
  const char* best = kServiceFlags[0];
  std::size_t best_dist = edit_distance(name, best);
  for (const char* candidate : kServiceFlags) {
    const std::size_t d = edit_distance(name, candidate);
    if (d < best_dist) {
      best = candidate;
      best_dist = d;
    }
  }
  out.error = true;
  out.error_message =
      "unknown flag '" + name + "'; did you mean '" + best + "'?";
}

/// Parse the value of --cache-bytes, a byte count >= 1 (0 is spelled by
/// omitting the flag, which takes the library default).
void set_cache_bytes(const char* text, HarnessFlags& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || v == 0) {
    out.error = true;
    out.error_message = std::string("--cache-bytes ") + text +
                        ": size bound must be a positive byte count";
    return;
  }
  out.cache_bytes = v;
}

/// Resolve the optional path after a bare --json/--trace at argv[i].
/// Consumes argv[i + 1] when it is a plain path; keeps the default when
/// the next token is another `--flag`; flags an error on a single-dash
/// token, which the old parser silently swallowed as "no path".
bool optional_path(const char* flag, int& i, int argc, char** argv,
                   std::string& path, HarnessFlags& out) {
  if (i + 1 >= argc) return true;
  const std::string next = argv[i + 1];
  if (next.empty() || next[0] != '-') {
    path = argv[++i];
    return true;
  }
  if (next.size() >= 2 && next[1] == '-') return true;  // another flag
  out.error = true;
  out.error_message = std::string(flag) + " " + next +
                      ": ambiguous path beginning with '-'; use " + flag +
                      "=" + next + " to force it";
  return false;
}

/// Parse the value of --threads (from `text`), enforcing N >= 1. There
/// is deliberately no --threads 0: "auto" is spelled by omitting the
/// flag (which follows --jobs), so a literal 0 is always a mistake.
void set_threads(const char* text, HarnessFlags& out) {
  char* end = nullptr;
  const unsigned long v = std::strtoul(text, &end, 10);
  if (end == text || *end != '\0' || v == 0) {
    out.error = true;
    out.error_message = std::string("--threads ") + text +
                        ": pool size must be a positive integer "
                        "(omit --threads to follow --jobs)";
    return;
  }
  out.threads = static_cast<unsigned>(v);
  out.threads_set = true;
}

/// Parse the value of --workers, enforcing N >= 1. As with --threads
/// there is no "auto" spelling: fleet-off is spelled by omitting the
/// flag, so a literal 0 is always a mistake.
void set_workers(const char* text, HarnessFlags& out) {
  char* end = nullptr;
  const unsigned long v = std::strtoul(text, &end, 10);
  if (end == text || *end != '\0' || v == 0) {
    out.error = true;
    out.error_message = std::string("--workers ") + text +
                        ": fleet width must be a positive integer "
                        "(omit --workers for in-process execution)";
    return;
  }
  out.workers = static_cast<unsigned>(v);
}

/// Parse the value of --fleet-window, enforcing K >= 1. There is no
/// "auto" spelling: the default window is spelled by omitting the
/// flag, and a window of 0 could never make progress anyway.
void set_fleet_window(const char* text, HarnessFlags& out) {
  char* end = nullptr;
  const unsigned long v = std::strtoul(text, &end, 10);
  if (end == text || *end != '\0' || v == 0) {
    out.error = true;
    out.error_message = std::string("--fleet-window ") + text +
                        ": credit window must be a positive integer "
                        "(omit --fleet-window for the default of 8)";
    return;
  }
  out.fleet_window = static_cast<unsigned>(v);
}

}  // namespace

const char* harness_usage() {
  return "harness flags:\n"
         "  --jobs N           worker threads (0 = hardware concurrency)\n"
         "  --threads N        intra-trial pool size (default: --jobs)\n"
         "  --json [PATH]      parbounds-bench-v1 report "
         "(default BENCH_<name>.json)\n"
         "  --trace [PATH]     Chrome trace-event span export "
         "(default TRACE_<name>.json)\n"
         "  --via-service      route sweeps through an in-process sweep "
         "service\n"
         "  --cache-dir P      service / shared fleet cell cache directory\n"
         "  --cache-bytes N    cache size bound in bytes\n"
         "  --workers N        run sweeps across N fleet worker processes\n"
         "  --fleet-window K   per-worker credit window under --workers "
         "(default 8)\n"
         "  --help             print this help and exit\n";
}

std::string parse_gate_flags(int& argc, char** argv,
                             std::initializer_list<GateFlag> gates) {
  int w = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const GateFlag* gate = nullptr;
    for (const GateFlag& g : gates)
      if (arg.compare(0, eq, g.name) == 0) gate = &g;
    if (gate == nullptr) {
      argv[w++] = argv[i];
      continue;
    }
    if (eq == std::string::npos) {
      argc = w;
      return std::string(gate->name) + " requires a value (" + gate->name +
             "=X)";
    }
    const std::string text = arg.substr(eq + 1);
    double v = 0.0;
    const auto res =
        std::from_chars(text.data(), text.data() + text.size(), v);
    if (text.empty() || res.ec != std::errc() ||
        res.ptr != text.data() + text.size() || !std::isfinite(v) ||
        v < 0.0) {
      argc = w;
      return std::string(gate->name) + "=" + text +
             ": gate value must be a finite, non-negative number";
    }
    *gate->value = v;
  }
  argc = w;
  return "";
}

HarnessFlags parse_harness_flags(int& argc, char** argv,
                                 const std::string& default_json_path,
                                 const std::string& default_trace_path) {
  HarnessFlags out;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--help") {
      out.help = true;
      return out;
    }
  int w = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--jobs") {
      if (i + 1 >= argc) {
        out.error = true;
        out.error_message = "--jobs requires a value";
        break;
      }
      out.jobs = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg.rfind("--jobs=", 0) == 0) {
      out.jobs =
          static_cast<unsigned>(std::strtoul(arg.c_str() + 7, nullptr, 10));
    } else if (arg == "--threads") {
      if (i + 1 >= argc) {
        out.error = true;
        out.error_message = "--threads requires a value";
        break;
      }
      set_threads(argv[++i], out);
      if (out.error) break;
    } else if (arg.rfind("--threads=", 0) == 0) {
      set_threads(arg.c_str() + 10, out);
      if (out.error) break;
    } else if (arg == "--json") {
      out.json_path = default_json_path;
      if (!optional_path("--json", i, argc, argv, out.json_path, out)) break;
    } else if (arg.rfind("--json=", 0) == 0) {
      out.json_path = arg.substr(7);
    } else if (arg == "--trace") {
      out.trace_path = default_trace_path;
      if (!optional_path("--trace", i, argc, argv, out.trace_path, out)) break;
    } else if (arg.rfind("--trace=", 0) == 0) {
      out.trace_path = arg.substr(8);
    } else if (arg == "--via-service") {
      out.via_service = true;
    } else if (arg == "--cache-dir") {
      if (i + 1 >= argc) {
        out.error = true;
        out.error_message = "--cache-dir requires a value";
        break;
      }
      out.cache_dir = argv[++i];
    } else if (arg.rfind("--cache-dir=", 0) == 0) {
      out.cache_dir = arg.substr(12);
    } else if (arg == "--cache-bytes") {
      if (i + 1 >= argc) {
        out.error = true;
        out.error_message = "--cache-bytes requires a value";
        break;
      }
      set_cache_bytes(argv[++i], out);
      if (out.error) break;
    } else if (arg.rfind("--cache-bytes=", 0) == 0) {
      set_cache_bytes(arg.c_str() + 14, out);
      if (out.error) break;
    } else if (arg == "--workers") {
      if (i + 1 >= argc) {
        out.error = true;
        out.error_message = "--workers requires a value";
        break;
      }
      set_workers(argv[++i], out);
      if (out.error) break;
    } else if (arg.rfind("--workers=", 0) == 0) {
      set_workers(arg.c_str() + 10, out);
      if (out.error) break;
    } else if (arg == "--fleet-window") {
      if (i + 1 >= argc) {
        out.error = true;
        out.error_message = "--fleet-window requires a value";
        break;
      }
      set_fleet_window(argv[++i], out);
      if (out.error) break;
    } else if (arg.rfind("--fleet-window=", 0) == 0) {
      set_fleet_window(arg.c_str() + 15, out);
      if (out.error) break;
    } else if (arg.rfind("--via-", 0) == 0 || arg.rfind("--cache-", 0) == 0) {
      reject_unknown_service_flag(arg, out);
      break;
    } else {
      // A near-miss of --workers (--worker, --wokers, ...) or of
      // --fleet-window (--fleet-windw, or the tempting short spelling
      // --window) must not fall through to google-benchmark: the sweep
      // would silently run in-process (or lock-step) and look like the
      // requested fleet run.
      const std::string name = arg.substr(0, arg.find('='));
      if (name.rfind("--", 0) == 0 && name != "--workers" &&
          edit_distance(name, "--workers") <= 2) {
        out.error = true;
        out.error_message =
            "unknown flag '" + name + "'; did you mean '--workers'?";
        break;
      }
      if (name.rfind("--", 0) == 0 && name != "--fleet-window" &&
          (name == "--window" ||
           edit_distance(name, "--fleet-window") <= 2)) {
        out.error = true;
        out.error_message =
            "unknown flag '" + name + "'; did you mean '--fleet-window'?";
        break;
      }
      argv[w++] = argv[i];
    }
  }
  if (!out.error && out.fleet_window > 0 && out.workers == 0) {
    out.error = true;
    out.error_message =
        "--fleet-window without --workers: the credit window applies to "
        "fleet worker processes (add --workers N)";
  }
  argc = w;
  return out;
}

}  // namespace parbounds::runtime
