#include "workloads.hpp"

#include <chrono>
#include <cstring>
#include <stdexcept>

#include "runtime/sweep_service/registry.hpp"

namespace perfbench {

namespace obs = parbounds::obs;

namespace {

/// Every per-layer metric, in report order, with its unit. A layer a
/// workload bypasses reports 0.
struct LayerDef {
  const char* name;
  const char* unit;
};
constexpr LayerDef kLayers[] = {
    {"algos.trial_s", "s"},
    {"algos.trials", "count"},
    {"algos.trial_s_max", "s"},
    {"algos.parity_crfree_s", "s"},
    {"core.qsm.phases", "count"},
    {"core.qsm.reads", "count"},
    {"core.qsm.writes", "count"},
    {"core.qsm.m_rw_max", "count"},
    {"core.qsm.commit_shards", "count"},
    {"core.qsm.commit_merge_s", "s"},
    {"core.gsm.phases", "count"},
    {"core.bsp.phases", "count"},
    {"runtime.sweep_s", "s"},
    {"runtime.steals", "count"},
    {"runtime.idle_s", "s"},
    {"boolfn.build_s", "s"},
    {"boolfn.degree_s", "s"},
    {"boolfn.degree_calls", "count"},
    {"boolfn.certificate_s", "s"},
    {"adversary.refine_s", "s"},
    {"adversary.refine_calls", "count"},
    {"adversary.analyze_s", "s"},
    {"adversary.goodness_s", "s"},
    {"adversary.inputs_fixed", "count"},
    {"service.open_s", "s"},
    {"service.sweep_s", "s"},
    {"service.self_s", "s"},
    {"service.hit", "count"},
    {"service.miss", "count"},
    {"service.evict", "count"},
    {"service.corrupt", "count"},
    {"service.hit_frac", "ratio"},
    {"fleet.spawn_s", "s"},
    {"fleet.run_s", "s"},
    {"fleet.requests", "count"},
    {"fleet.bytes_tx", "bytes"},
    {"fleet.bytes_rx", "bytes"},
    {"fleet.frames_tx", "count"},
    {"fleet.frames_rx", "count"},
    {"fleet.retry", "count"},
    {"fleet.window_depth", "count"},
    {"obs.trace_overhead_frac", "ratio"},
};

PhaseResult run_phase(const Options& opts, const PhasePlan& plan) {
  if (opts.workload == "table1_qsm") return run_table1_qsm(opts.seed, plan);
  if (opts.workload == "proof_machinery")
    return run_proof_machinery(opts.seed, plan);
  if (opts.workload == "serve_replay")
    return run_serve_replay(opts.seed, plan, opts.work_dir);
  throw std::invalid_argument("unknown workload '" + opts.workload + "'");
}

double required_percentile(const std::vector<double>& v, double q) {
  const auto p = percentile_with_tail(v, q);
  if (!p)
    throw std::runtime_error("too few unit samples (" +
                             std::to_string(v.size()) +
                             ") for a percentile with ten beyond it");
  return *p;
}

void tally(const PhaseResult& r, Outcome& out) {
  out.attempted += r.attempted;
  out.failed += r.attempted - r.verified;
  out.correct = out.correct && r.healthy && r.verified == r.attempted;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

parbounds::runtime::ServiceSpec spec(
    std::string engine, std::string workload,
    std::vector<std::pair<std::string, std::uint64_t>> params) {
  return {.engine = std::move(engine),
          .workload = std::move(workload),
          .params = std::move(params)};
}

double run_spec_or_throw(const parbounds::runtime::ServiceSpec& s,
                         std::uint64_t seed) {
  double cost = 0.0;
  std::string err;
  if (!parbounds::service::run_spec(s, seed, cost, err))
    throw std::runtime_error("run_spec " + s.workload + ": " + err);
  return cost;
}

Outcome run_workload(const Options& opts) {
  Outcome out;
  if (!opts.trace) {
    // Untraced: the end-to-end metrics.
    const PhaseResult r = run_phase(
        opts, {.traced = false, .budget_s = opts.seconds, .min_units = 100});
    tally(r, out);
    out.metrics.add("wall_s", median(r.wall_s), "s");
    out.metrics.add("setup_s", median(r.setup_s), "s");
    out.metrics.add("cpu_s", median(r.cpu_s), "s");
    out.metrics.add("peak_rss_mb", r.peak_rss_mb, "MB");
    out.metrics.add("ok_frac",
                    r.attempted == 0 ? 0.0
                                     : static_cast<double>(r.verified) /
                                           static_cast<double>(r.attempted),
                    "ratio");
    out.metrics.add("sweep_ms_p50", required_percentile(r.unit_ms, 0.5), "ms");
    out.metrics.add("sweep_ms_p90", required_percentile(r.unit_ms, 0.9), "ms");
    return out;
  }
  // Traced: half the budget untraced (the reference wall), half traced.
  const double half = opts.seconds / 2.0;
  const PhaseResult plain =
      run_phase(opts, {.traced = false, .budget_s = half});
  const PhaseResult traced =
      run_phase(opts, {.traced = true, .budget_s = half});
  tally(plain, out);
  tally(traced, out);
  std::map<std::string, double> layers = traced.layers;
  layers["obs.trace_overhead_frac"] =
      median(traced.wall_s) / median(plain.wall_s) - 1.0;
  for (const LayerDef& def : kLayers) {
    const auto it = layers.find(def.name);
    out.metrics.add(def.name, it == layers.end() ? 0.0 : it->second,
                    def.unit);
    if (it != layers.end()) layers.erase(it);
  }
  if (!layers.empty())
    throw std::logic_error("layer metric '" + layers.begin()->first +
                           "' is not in the report list");
  return out;
}

// ----- TraceSession ---------------------------------------------------------

TraceSession::TraceSession() { resume(); }

TraceSession::~TraceSession() { pause(); }

void TraceSession::pause() {
  obs::install_process_tracer(nullptr);
  obs::install_process_telemetry(nullptr);
}

void TraceSession::resume() {
  obs::install_process_telemetry(&telemetry_);
  obs::install_process_tracer(&tracer_);
}

std::uint64_t TraceSession::telemetry(const std::string& name) const {
  const obs::MetricsSnapshot snap = registry_.snapshot();
  const obs::MetricValue* v = snap.find(name);
  return v == nullptr ? 0 : v->value;
}

std::uint64_t TraceSession::span_count(const char* name) const {
  std::uint64_t n = 0;
  for (const auto& buf : tracer_.buffers())
    for (std::size_t i = 0; i < buf.count; ++i)
      if (buf.events[i].phase == 'B' &&
          std::strcmp(buf.events[i].name, name) == 0)
        ++n;
  return n;
}

void add_core_layers(const TraceSession& trace, double passes,
                     std::map<std::string, double>& layers) {
  const auto per_pass = [&](const char* name) {
    return static_cast<double>(trace.telemetry(name)) / passes;
  };
  layers["core.qsm.phases"] = per_pass("qsm.phases");
  layers["core.qsm.reads"] = per_pass("qsm.reads");
  layers["core.qsm.writes"] = per_pass("qsm.writes");
  // A high-water gauge: the same in every pass, so not divided.
  layers["core.qsm.m_rw_max"] =
      static_cast<double>(trace.telemetry("qsm.m_rw_max"));
  layers["core.qsm.commit_shards"] = per_pass("qsm.commit.shards");
  layers["core.qsm.commit_merge_s"] = per_pass("qsm.commit.merge_ns") * 1e-9;
  layers["core.gsm.phases"] = per_pass("gsm.phases");
  layers["core.bsp.phases"] = per_pass("bsp.phases");
}

}  // namespace perfbench
