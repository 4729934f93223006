#pragma once
// The benchmark's workloads. Each one generates its inputs from the
// seed, runs the library's public entry points for a time budget in
// whole passes (one pass = one fixed unit of work, identical across the
// passes of a run), verifies every result, and reports either the
// end-to-end metrics (untraced run) or the per-layer metrics (traced
// run). perfbench/README.md documents the metric definitions.

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "metrics.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "runtime/sweep.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for on-disk state (the serve_replay cache).
  std::filesystem::path work_dir;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  MetricSet metrics;
};

/// Runs one workload; throws std::invalid_argument for an unknown name.
Outcome run_workload(const Options& opts);

// ----- shared by the workload implementations ------------------------------

/// What one measured phase (a run of whole passes) produced.
struct PhaseResult {
  std::size_t passes = 0;
  std::vector<double> wall_s;   ///< per pass: the timed region
  std::vector<double> setup_s;  ///< every set-up repetition
  std::vector<double> cpu_s;    ///< per pass: harness + reaped children
  std::vector<double> unit_ms;  ///< latency of every unit of work
  double peak_rss_mb = 0.0;
  std::uint64_t attempted = 0;  ///< results checked
  std::uint64_t verified = 0;   ///< results that passed their checks
  bool healthy = true;          ///< run-level checks (corrupt, retry)
  /// Per-layer values of a traced phase, normalised to one pass.
  std::map<std::string, double> layers;
};

/// Whether a phase records per-layer data, and how long it may run.
struct PhasePlan {
  bool traced = false;
  double budget_s = 10.0;
  /// Keep running passes until this many unit latencies were recorded,
  /// so the p90 has its ten samples beyond (untraced phases only).
  std::size_t min_units = 0;
};

/// Monotonic seconds since an arbitrary origin.
double now_s();

/// A service-routable trial description.
parbounds::runtime::ServiceSpec spec(
    std::string engine, std::string workload,
    std::vector<std::pair<std::string, std::uint64_t>> params);

/// service::run_spec, with a validation error turned into an exception
/// (every trial the workloads generate is valid).
double run_spec_or_throw(const parbounds::runtime::ServiceSpec& s,
                         std::uint64_t seed);

/// Pass loop: runs `pass` at least once, then again while one more pass
/// of the last pass's length fits the budget or too few units exist.
template <class Pass>
void run_passes(const PhasePlan& plan, PhaseResult& out, Pass&& pass) {
  const double start = now_s();
  for (;;) {
    const double t0 = now_s();
    pass();
    ++out.passes;
    const double last = now_s() - t0;
    const bool need_units = out.unit_ms.size() < plan.min_units;
    if (!need_units && now_s() - start + last > plan.budget_s) break;
  }
}

PhaseResult run_table1_qsm(std::uint64_t seed, const PhasePlan& plan);
PhaseResult run_proof_machinery(std::uint64_t seed, const PhasePlan& plan);
PhaseResult run_serve_replay(std::uint64_t seed, const PhasePlan& plan,
                             const std::filesystem::path& work_dir);

/// Telemetry + span tracer installed for a traced phase. Counts from the
/// engines' TelemetryObserver and span tallies read back after the run.
class TraceSession {
 public:
  TraceSession();
  ~TraceSession();
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// Detach / re-attach both hooks (verification runs outside the trace).
  void pause();
  void resume();

  /// Current value of one telemetry counter or gauge (0 when absent).
  std::uint64_t telemetry(const std::string& name) const;
  /// Number of recorded spans named `name`.
  std::uint64_t span_count(const char* name) const;

 private:
  parbounds::obs::MetricsRegistry registry_;
  parbounds::obs::TelemetryObserver telemetry_{registry_};
  parbounds::obs::Tracer tracer_;
};

/// Copies the engine-layer (core.*) telemetry counts into `layers`,
/// divided by `passes`.
void add_core_layers(const TraceSession& trace, double passes,
                     std::map<std::string, double>& layers);

}  // namespace perfbench
