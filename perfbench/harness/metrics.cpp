#include "metrics.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "runtime/bench_json.hpp"
#include "runtime/simd_level.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

std::optional<double> percentile_with_tail(std::vector<double> v, double q,
                                           std::size_t min_beyond) {
  if (v.empty() || !(q > 0.0 && q < 1.0)) return std::nullopt;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest 1-based rank r with r >= q * n.
  const auto n = static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  const std::size_t idx = std::max<std::size_t>(rank, 1) - 1;
  if (v.size() - 1 - idx < min_beyond) return std::nullopt;
  return v[idx];
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

namespace {

double seconds_of(const rusage& ru) {
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

rusage usage(int who) {
  rusage ru{};
  if (::getrusage(who, &ru) != 0)
    throw std::runtime_error("getrusage failed");
  return ru;
}

}  // namespace

CpuTimes cpu_now() {
  return {.self_s = seconds_of(usage(RUSAGE_SELF)),
          .children_s = seconds_of(usage(RUSAGE_CHILDREN))};
}

CpuTimes cpu_delta(const CpuTimes& a, const CpuTimes& b) {
  return {.self_s = b.self_s - a.self_s,
          .children_s = b.children_s - a.children_s};
}

// ru_maxrss is in KiB on Linux.
double peak_rss_mb_self() {
  return static_cast<double>(usage(RUSAGE_SELF).ru_maxrss) / 1024.0;
}

double peak_rss_mb_children() {
  return static_cast<double>(usage(RUSAGE_CHILDREN).ru_maxrss) / 1024.0;
}

double runtime_idle_s(unsigned jobs, double sweep_s, double trial_s) {
  return static_cast<double>(jobs) * sweep_s - trial_s;
}

double service_self_s(double sweep_s, double fleet_run_s) {
  return sweep_s - fleet_run_s;
}

void MetricSet::add(std::string name, double value, std::string unit) {
  if (!valid_metric_name(name))
    throw std::invalid_argument("invalid metric name '" + name + "'");
  if (find(name) != nullptr)
    throw std::invalid_argument("duplicate metric '" + name + "'");
  if (!std::isfinite(value))
    throw std::invalid_argument("metric '" + name + "' is not finite");
  items_.push_back({std::move(name), value, std::move(unit)});
}

const Metric* MetricSet::find(std::string_view name) const {
  for (const Metric& m : items_)
    if (m.name == name) return &m;
  return nullptr;
}

std::string MetricSet::to_json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    char num[40];
    std::snprintf(num, sizeof num, "%.17g", items_[i].value);
    if (i > 0) out += ", ";
    out += "\"" + items_[i].name + "\": {\"value\": " + num +
           ", \"unit\": \"" +
           parbounds::runtime::json_escape(items_[i].unit) + "\"}";
  }
  return out + "}";
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const MetricSet& metrics) {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"metrics\": " + metrics.to_json() + "}";
}

std::string host_json() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc =
      ::sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  namespace rt = parbounds::runtime;
  return "{\"nproc\": " + std::to_string(nproc) + ", \"simd\": \"" +
         rt::simd_level_name(rt::active_simd_level()) +
         "\", \"build_type\": \"" + std::string(build_type()) +
         "\", \"compiler\": \"" + rt::json_escape(compiler) + "\"}";
}

std::string_view build_type() { return PERFBENCH_BUILD_TYPE; }

}  // namespace perfbench
