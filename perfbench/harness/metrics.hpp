#pragma once
// Measurement helpers of the benchmark harness: sample statistics, the
// percentile reporting rule, metric-name validation, process resource
// accounting and the derived per-layer arithmetic. Everything here is
// pure or reads only this process's own counters, so it is unit-tested
// by perfbench/tests/test_helpers.cpp.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for an even count).
/// Throws std::invalid_argument on an empty sample.
double median(std::vector<double> v);

/// The percentile reporting rule: the nearest-rank q-quantile of `v`
/// (0 < q < 1), returned only when at least `min_beyond` samples lie
/// strictly above its rank. A p90 therefore needs at least 100 samples,
/// a p50 at least 20. Otherwise nullopt — the metric is not reported.
std::optional<double> percentile_with_tail(std::vector<double> v, double q,
                                           std::size_t min_beyond = 10);

/// Metric names: 1..64 characters from [A-Za-z0-9_.-], starting with a
/// letter or digit.
bool valid_metric_name(std::string_view name);

/// CPU seconds (user + sys) of this process and of its reaped children.
struct CpuTimes {
  double self_s = 0.0;
  double children_s = 0.0;
  double total() const { return self_s + children_s; }
};
CpuTimes cpu_now();
/// b - a, field by field.
CpuTimes cpu_delta(const CpuTimes& a, const CpuTimes& b);

/// Peak resident set size in MB (2^20 bytes) of this process, and the
/// largest peak among its reaped children (0 when none was reaped).
double peak_rss_mb_self();
double peak_rss_mb_children();

/// Straggler tail of a runner sweep: worker-seconds the runner held
/// (`jobs` x its wall) minus the seconds trials actually ran.
double runtime_idle_s(unsigned jobs, double sweep_s, double trial_s);

/// Time the sweep service spent on its own (dispatch, cache probes and
/// publishes) rather than waiting on the fleet.
double service_self_s(double sweep_s, double fleet_run_s);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered, name-checked metric list with the result-line encoding.
class MetricSet {
 public:
  /// Adds a metric; throws std::invalid_argument on an invalid or
  /// duplicate name, or a non-finite value.
  void add(std::string name, double value, std::string unit);
  const Metric* find(std::string_view name) const;
  /// {"name":{"value":v,"unit":"u"},...} with values at full precision.
  std::string to_json() const;

 private:
  std::vector<Metric> items_;
};

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const MetricSet& metrics);

/// Host provenance: nproc, active SIMD level, build type and compiler,
/// as one JSON object.
std::string host_json();

/// CMake build type the harness was compiled with.
std::string_view build_type();

}  // namespace perfbench
