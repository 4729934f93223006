#pragma once
// Shared measurement harness for the Table 1 reproduction benches.
//
// Every helper builds a fresh machine, stages a workload, runs one
// algorithm, and returns the MODEL cost (the paper's notion of time), not
// wall-clock. Each bench binary prints a paper-style table next to the
// corresponding lower-bound curve and also registers a few
// google-benchmark timers so the simulator's own throughput is tracked.
//
// Since the runtime PR, all repeated trials fan out through the
// work-stealing ExperimentRunner (src/runtime) with deterministic
// per-trial seeds, so every printed number is bit-identical for any
// --jobs value. Every bench accepts:
//
//   --jobs N       worker threads (default: hardware concurrency)
//   --threads N    intra-trial ParallelFor pool size (default: the
//                  resolved --jobs value). Governs sharded phase commit
//                  and the parallel BoolFn transforms; model costs are
//                  bit-identical at any value (docs/PERF.md).
//   --json [PATH]  machine-readable report (default BENCH_<name>.json):
//                  per-trial costs, aggregates, wall time and the
//                  speedup over a serial re-run of the same sweeps —
//                  the re-run doubles as a bit-identity cross-check
//                  (at --jobs 1 nothing is re-run).
//   --trace [PATH] Chrome trace-event export (default TRACE_<name>.json,
//                  chrome://tracing / Perfetto-loadable) of the runner's
//                  spans, plus a top-N span summary on stderr. --trace
//                  implies --json, and any json/trace run installs the
//                  process TelemetryObserver so the report carries a
//                  per-model "metrics" block (docs/OBSERVABILITY.md).
//   --via-service  route every sweep through an in-process SweepService
//                  backed by a content-addressed result cache
//                  (docs/SERVICE.md). Costs are identical to in-process
//                  runs (same kernels, same derived seeds); reports are
//                  written timing-free so a cold run, a warm-cache
//                  replay and an in-process --jobs 1 run serialize to
//                  identical bytes. --cache-dir / --cache-bytes tune
//                  the cache (default CACHE_<name>/, 64 MiB).
//   --workers N    execute every sweep across N worker PROCESSES — the
//                  bench binary re-exec'd by a FleetCoordinator
//                  (docs/SERVICE.md#fleet). The parent's runner and
//                  pool are pinned to 1 and the merged report —
//                  including the metrics block, reassembled from
//                  per-cell worker snapshots — is byte-identical to an
//                  in-process --jobs 1 run at any N, crashes and
//                  retries included. Mutually exclusive with
//                  --via-service. --cache-dir opts into a shared
//                  cell cache across the fleet.
//   --fleet-window K  per-worker credit window under --workers: each
//                  worker holds up to K cells in flight (default 8;
//                  1 = lock-step, one pipe round-trip per cell). Window
//                  depth cannot change a report byte — responses merge
//                  by placement index.
//   --help         print the harness flag block and google-benchmark's
//                  usage, then exit 0 before any sweep runs.
//
// All flags are stripped before benchmark::Initialize sees argv
// (src/runtime/harness_flags.*). Benches with a measured gate take it
// as `--min-...=X` / `--max-...=X`, parsed strictly by
// strip_gate_flags below. See docs/RUNTIME.md for the seeding
// discipline.
//
// The PARBOUNDS_SIMD environment variable (portable|avx2|avx512) pins
// the BoolFn kernel dispatch level for the whole run; unknown values or
// tiers the cpu cannot run are typed errors (exit 2), and the timed
// JSON report records the active level in its host block
// (docs/PERF.md, "SIMD kernel dispatch").
//
// The cost kernels the benches call (parity_circuit_cost, ...) live in
// src/algos/cost_kernels.hpp since the service PR and are pulled into
// this namespace below — the service's workload registry dispatches to
// literally the same functions, which is what makes a cached result
// interchangeable with a local one.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "algos/broadcast.hpp"
#include "algos/bsp_prefix.hpp"
#include "algos/cost_kernels.hpp"
#include "algos/lac.hpp"
#include "algos/or_func.hpp"
#include "algos/padded_sort.hpp"
#include "algos/parity.hpp"
#include "algos/prefix.hpp"
#include "algos/reduce.hpp"
#include "bounds/gsm_bounds.hpp"
#include "bounds/model_bounds.hpp"
#include "bounds/upper_bounds.hpp"
#include "core/mapping.hpp"
#include "core/rounds.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "runtime/bench_json.hpp"
#include "runtime/fleet/sweep_fleet.hpp"
#include "runtime/fleet/worker.hpp"
#include "runtime/harness_flags.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/simd_level.hpp"
#include "runtime/runner.hpp"
#include "runtime/sweep.hpp"
#include "runtime/sweep_service/client.hpp"
#include "runtime/sweep_service/service.hpp"
#include "util/mathx.hpp"
#include "util/table.hpp"
#include "workloads/generators.hpp"

namespace parbounds::bench {

inline constexpr std::uint64_t kSeed = 0xb0a710adULL;

/// Default repetitions for randomized cells. The parallel runner makes
/// wider averaging affordable; the serial harness used 3.
inline constexpr unsigned kReps = 5;

/// Average a cost function over `reps` derived seeds, serially. Meant
/// for use *inside* a runner trial (nested fan-out runs inline anyway);
/// top-level sweeps should declare SweepCells with trials = kReps.
inline double avg_cost(const std::function<double(std::uint64_t)>& run,
                       unsigned reps = kReps) {
  double total = 0.0;
  for (unsigned r = 0; r < reps; ++r)
    total += run(runtime::derive_seed(kSeed, r));
  return total / reps;
}

// ----- per-binary session (flag parsing, runner, JSON report) ---------------

class BenchSession {
 public:
  static BenchSession& get() {
    static BenchSession s;
    return s;
  }

  /// Parse and strip --jobs/--json/--trace from argv (call before
  /// benchmark::Initialize). --json without a path defaults to
  /// BENCH_<name>.json, --trace to TRACE_<name>.json; --trace alone
  /// also turns the JSON report on so the trace always ships with its
  /// metrics block.
  void init(int& argc, char** argv, std::string name) {
    // Fleet front door: when this binary was re-exec'd as a fleet
    // worker, serve requests and exit — before any flag parsing or
    // google-benchmark setup touches argv.
    fleet::maybe_run_worker(argc, argv);
    report_.bench = std::move(name);
    report_.seed = kSeed;
    const auto flags = runtime::parse_harness_flags(
        argc, argv, "BENCH_" + report_.bench + ".json",
        "TRACE_" + report_.bench + ".json");
    if (flags.help) {
      std::printf("usage: %s [harness flags] [google-benchmark flags]\n\n%s\n",
                  report_.bench.c_str(), runtime::harness_usage());
      benchmark::PrintDefaultHelp();
      std::exit(0);
    }
    if (flags.error) {
      std::fprintf(stderr, "bench: %s\n", flags.error_message.c_str());
      std::exit(2);
    }
    if (flags.workers > 0 && flags.via_service) {
      std::fprintf(stderr,
                   "bench: --workers and --via-service are mutually "
                   "exclusive (the fleet already owns a result cache)\n");
      std::exit(2);
    }
    // Resolve the SIMD dispatch level up front so a bad PARBOUNDS_SIMD
    // pin fails like any other flag error (typed message, exit 2)
    // instead of surfacing as an uncaught exception mid-sweep.
    try {
      (void)runtime::active_simd_level();
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "bench: %s\n", e.what());
      std::exit(2);
    }
    json_path_ = flags.json_path;
    trace_path_ = flags.trace_path;
    if (!trace_path_.empty() && json_path_.empty())
      json_path_ = "BENCH_" + report_.bench + ".json";
    // Fleet mode pins the parent to jobs=1/threads=1: the merged report
    // must serialize exactly like the in-process --jobs 1 report it is
    // reassembling, and the parallelism is the fleet's width anyway.
    runner_ = std::make_unique<runtime::ExperimentRunner>(
        runtime::RunnerConfig{.jobs = flags.workers > 0 ? 1u : flags.jobs});
    report_.jobs = runner_->jobs();
    // One pool governs all intra-trial parallelism (sharded commit,
    // BoolFn transforms); it follows --jobs unless --threads overrides.
    runtime::ParallelFor::pool().set_threads(
        flags.workers > 0 ? 1u : flags.resolved_threads(runner_->jobs()));
    report_.threads = runtime::ParallelFor::pool().threads();
    // Phase telemetry counts machine executions, and a warm-cache
    // via-service replay executes nothing — a metrics block would
    // differ between a cold run and its replay. Via-service reports
    // therefore omit it (cache counters go to stderr instead). Fleet
    // runs keep the block, but it is reassembled from per-cell worker
    // snapshots (run_sweep_fleet), never observed in this process.
    if (!json_path_.empty() && !flags.via_service && flags.workers == 0) {
      telemetry_ = std::make_unique<obs::TelemetryObserver>(registry_);
      obs::install_process_telemetry(telemetry_.get());
    }
    if (!trace_path_.empty()) {
      tracer_ = std::make_unique<obs::Tracer>();
      obs::install_process_tracer(tracer_.get());
    }
    if (flags.via_service) {
      // The service keeps its OWN MetricsRegistry: via-service reports
      // must carry exactly the metric families an in-process run does,
      // or the byte-identity contract breaks.
      service::ServiceConfig cfg;
      cfg.cache.dir = flags.cache_dir.empty() ? "CACHE_" + report_.bench
                                              : flags.cache_dir;
      if (flags.cache_bytes != 0) cfg.cache.max_bytes = flags.cache_bytes;
      cfg.jobs = runner_->jobs();
      service_ = std::make_unique<service::SweepService>(cfg);
    }
    if (flags.workers > 0) {
      fleet::FleetConfig cfg;
      cfg.workers = flags.workers;
      if (flags.fleet_window > 0) cfg.window = flags.fleet_window;
      // The shared cell cache is opt-in: only an explicit --cache-dir
      // makes the fleet memoize (warm replays must be asked for).
      cfg.cache_dir = flags.cache_dir;
      cfg.cache_bytes = flags.cache_bytes;
      try {
        fleet_ = std::make_unique<fleet::FleetCoordinator>(cfg);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "bench: --workers: %s\n", e.what());
        std::exit(2);
      }
    }
  }

  const runtime::ExperimentRunner& runner() const { return *runner_; }
  unsigned jobs() const { return runner_->jobs(); }
  bool json_enabled() const { return !json_path_.empty(); }
  bool via_service() const { return service_ != nullptr; }
  service::SweepService& service() { return *service_; }
  bool via_fleet() const { return fleet_ != nullptr; }
  fleet::FleetCoordinator& fleet() { return *fleet_; }

  /// Fold one sweep's reassembled worker telemetry into the report's
  /// metrics block (fleet mode only; merge order cannot change the
  /// bytes — every operator is commutative and associative).
  void merge_fleet_metrics(const obs::MetricsSnapshot& snap) {
    if (json_path_.empty()) return;
    if (!fleet_metrics_valid_) {
      fleet_metrics_ = snap;
      fleet_metrics_valid_ = true;
    } else {
      fleet_metrics_.merge_from(snap);
    }
    report_.metrics_json = fleet_metrics_.to_json();
  }

  /// Fresh base seed for the next sweep/fan-out, derived from the root
  /// seed and a per-binary ordinal (decouples sweeps from each other).
  std::uint64_t next_base_seed() {
    return runtime::derive_seed(kSeed, 0x5eedULL + sweep_ordinal_++);
  }

  const runtime::SweepResult& record(runtime::SweepResult s) {
    report_.sweeps.push_back(std::move(s));
    capture_metrics();
    return report_.sweeps.back();
  }

  /// Re-snapshot the registry into the report. Called after every
  /// sweep/fan-out rather than in finish(): google-benchmark's adaptive
  /// iteration counts also fire the phase hook, and folding those in
  /// would make the metrics block wall-clock-dependent.
  void capture_metrics() {
    if (telemetry_ != nullptr) report_.metrics_json = registry_.snapshot().to_json();
  }

  /// Write the JSON report and span trace if requested. Returns the
  /// process exit code.
  int finish() {
    obs::install_process_telemetry(nullptr);
    obs::install_process_tracer(nullptr);
    if (tracer_ != nullptr) {
      if (!obs::write_text_file(trace_path_, obs::chrome_trace_json(*tracer_))) {
        std::fprintf(stderr, "bench: cannot write %s\n", trace_path_.c_str());
        return 1;
      }
      std::fprintf(stderr, "bench: %s: span trace -> %s (load in Perfetto)\n%s",
                   report_.bench.c_str(), trace_path_.c_str(),
                   obs::top_n_summary(*tracer_, 10).c_str());
    }
    if (service_ != nullptr) {
      // Cache effectiveness on stderr (never in the report: the JSON
      // must stay byte-identical to an in-process run).
      const auto snap = service_->metrics().snapshot();
      const auto count = [&](const char* name) {
        const auto* m = snap.find(name);
        return m == nullptr ? std::uint64_t{0} : m->value;
      };
      std::fprintf(stderr,
                   "bench: %s: service cache hit=%llu miss=%llu evict=%llu "
                   "exec=%llu shed=%llu\n",
                   report_.bench.c_str(),
                   static_cast<unsigned long long>(count("cache.hit")),
                   static_cast<unsigned long long>(count("cache.miss")),
                   static_cast<unsigned long long>(count("cache.evict")),
                   static_cast<unsigned long long>(count("service.exec")),
                   static_cast<unsigned long long>(count("queue.shed")));
    }
    if (fleet_ != nullptr) {
      // Fleet health on stderr (never in the report, same rule as the
      // service cache line above).
      std::fprintf(
          stderr, "bench: %s: fleet spawn=%llu exit=%llu retry=%llu reassign=%llu\n",
          report_.bench.c_str(),
          static_cast<unsigned long long>(fleet_->counter("fleet.worker.spawn")),
          static_cast<unsigned long long>(fleet_->counter("fleet.worker.exit")),
          static_cast<unsigned long long>(fleet_->counter("fleet.worker.retry")),
          static_cast<unsigned long long>(
              fleet_->counter("fleet.worker.reassign")));
    }
    if (json_path_.empty()) return 0;
    std::ofstream f(json_path_);
    if (!f) {
      std::fprintf(stderr, "bench: cannot write %s\n", json_path_.c_str());
      return 1;
    }
    // Via-service and fleet runs serialize timing-free: with no wall
    // fields, a cold run, a warm replay, a crash-recovered fleet run
    // and an in-process --jobs 1 run of the same sweep produce
    // identical bytes (test_bench_json and test_fleet pin this).
    f << runtime::to_json(
        report_, /*include_timing=*/service_ == nullptr && fleet_ == nullptr);
    char speedup[32] = "n/a";  // jobs==1 runs ARE the serial baseline
    if (report_.jobs > 1)
      std::snprintf(speedup, sizeof speedup, "%.2f",
                    runtime::report_speedup(report_));
    std::fprintf(stderr,
                 "bench: %s: jobs=%u threads=%u sweeps=%zu "
                 "speedup_vs_serial=%s deterministic=%s -> %s\n",
                 report_.bench.c_str(), report_.jobs, report_.threads,
                 report_.sweeps.size(), speedup,
                 runtime::report_deterministic(report_) ? "yes" : "NO",
                 json_path_.c_str());
    return runtime::report_deterministic(report_) ? 0 : 1;
  }

 private:
  BenchSession() = default;
  std::string json_path_;
  std::string trace_path_;
  std::unique_ptr<runtime::ExperimentRunner> runner_ =
      std::make_unique<runtime::ExperimentRunner>();
  runtime::BenchReport report_;
  std::uint64_t sweep_ordinal_ = 0;
  obs::MetricsRegistry registry_;
  std::unique_ptr<obs::TelemetryObserver> telemetry_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<service::SweepService> service_;
  std::unique_ptr<fleet::FleetCoordinator> fleet_;
  obs::MetricsSnapshot fleet_metrics_;  ///< merged across sweeps
  bool fleet_metrics_valid_ = false;
};

/// Strip a bench's `--NAME=X` gate flags from argv (call before
/// session_init). A malformed value is a typed error: message on
/// stderr, exit 2.
inline void strip_gate_flags(int& argc, char** argv,
                             std::initializer_list<runtime::GateFlag> gates) {
  const std::string err = runtime::parse_gate_flags(argc, argv, gates);
  if (!err.empty()) {
    std::fprintf(stderr, "bench: %s\n", err.c_str());
    std::exit(2);
  }
}

/// Bench-main bootstrap: parse/strip harness flags.
inline BenchSession& session_init(int& argc, char** argv, std::string name) {
  auto& s = BenchSession::get();
  s.init(argc, argv, std::move(name));
  return s;
}

/// Run a sweep through the session runner; the serial baseline (wall
/// time + bit-identity cross-check) is measured when --json is active
/// and --jobs > 1 (at --jobs 1 the sweep is its own serial baseline;
/// run_sweep does not re-run it).
/// Under --via-service every cell is routed through the sweep service,
/// under --workers across the process fleet (same derived seeds, same
/// kernels, same aggregation); a cell without a ServiceSpec is a hard
/// error in both modes, not a silent fallback.
inline const runtime::SweepResult& sweep(
    std::string title, std::vector<runtime::SweepCell> cells) {
  auto& s = BenchSession::get();
  if (s.via_fleet()) {
    try {
      obs::MetricsSnapshot snap;
      const auto& res = s.record(fleet::run_sweep_fleet(
          s.fleet(), std::move(title), s.next_base_seed(), std::move(cells),
          s.json_enabled() ? &snap : nullptr));
      if (s.json_enabled()) s.merge_fleet_metrics(snap);
      return res;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench: --workers: %s\n", e.what());
      std::exit(2);
    }
  }
  if (s.via_service()) {
    try {
      return s.record(service::run_sweep_via_service(
          s.service(), std::move(title), s.next_base_seed(),
          std::move(cells)));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench: --via-service: %s\n", e.what());
      std::exit(2);
    }
  }
  return s.record(runtime::run_sweep(s.runner(), std::move(title),
                                     s.next_base_seed(), std::move(cells),
                                     s.json_enabled()));
}

/// Generic ordered fan-out for benches whose rows aren't plain cost
/// cells (audits, multi-metric replays). Trial t gets
/// derive_seed(base, t) for a per-call base seed.
template <class T>
std::vector<T> parallel_trials(
    std::uint64_t count,
    const std::function<T(std::uint64_t trial, std::uint64_t seed)>& fn) {
  auto& s = BenchSession::get();
  const std::uint64_t base = s.next_base_seed();
  auto out = s.runner().map<T>(count, [&](std::uint64_t t) {
    return fn(t, runtime::derive_seed(base, t));
  });
  s.capture_metrics();
  return out;
}

// ----- cost kernels (src/algos/cost_kernels.hpp) ----------------------------
// Unqualified call sites across the bench binaries keep compiling; the
// definitions are the shared library ones the service registry also uses.

using kernels::broadcast_cost;
using kernels::lac_bsp_cost;
using kernels::lac_dart_cost;
using kernels::lac_prefix_cost;
using kernels::or_bsp_cost;
using kernels::or_fanin_cost;
using kernels::or_rand_cr_cost;
using kernels::padded_sort_cost;
using kernels::parity_bsp_cost;
using kernels::parity_circuit_cost;
using kernels::parity_tree_cost;

// ----- formatting ----------------------------------------------------------------

/// Standard columns: sweep key, measured, lower bound, measured/LB ratio,
/// upper-bound formula, measured/UB ratio.
inline std::vector<std::string> row(const std::string& key, double measured,
                                    double lb, double ub) {
  return {key,
          TextTable::num(measured, 0),
          TextTable::num(lb, 1),
          TextTable::num(measured / std::max(lb, 1e-9), 2),
          TextTable::num(ub, 1),
          TextTable::num(measured / std::max(ub, 1e-9), 2)};
}

inline std::vector<std::string> std_header(const std::string& key) {
  return {key,       "measured", "lower-bd", "meas/LB",
          "UB-claim", "meas/UB"};
}

/// Run the cells through the session runner and print the standard
/// 6-column table (banner, key, measured mean, LB, ratio, UB, ratio).
inline void sweep_table(const std::string& title, const std::string& key_col,
                        std::vector<runtime::SweepCell> cells) {
  std::printf("%s", banner(title).c_str());
  const auto& res = sweep(title, std::move(cells));
  TextTable t(std_header(key_col));
  for (const auto& c : res.cells) t.add_row(row(c.key, c.mean, c.lb, c.ub));
  std::printf("%s\n", t.render().c_str());
}

}  // namespace parbounds::bench
