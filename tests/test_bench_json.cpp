// Golden-schema test for the --json bench output (docs/RUNTIME.md).
//
// Consumers of BENCH_*.json (trend dashboards, diff scripts) key on the
// "parbounds-bench-v1" layout, so this test pins it: required keys at
// every level, %.17g cost round-tripping, and the contract that a serial
// and a parallel run of the same experiment serialize to identical bytes
// once wall-clock fields are excluded. A tiny recursive-descent JSON
// parser lives here on purpose — the repo has no JSON dependency, and
// the test must not share serialization code with what it checks.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algos/cost_kernels.hpp"
#include "obs/span.hpp"
#include "runtime/bench_json.hpp"
#include "runtime/harness_flags.hpp"
#include "runtime/runner.hpp"
#include "runtime/simd_level.hpp"
#include "runtime/sweep.hpp"
#include "runtime/sweep_service/client.hpp"
#include "runtime/sweep_service/service.hpp"
#include "util/rng.hpp"

namespace parbounds::runtime {
namespace {

// ---------------------------------------------------------------------
// Minimal JSON value + parser (objects, arrays, strings, numbers, bools).
struct JsonValue {
  enum Kind { Object, Array, String, Number, Bool, Null } kind = Null;
  std::map<std::string, std::shared_ptr<JsonValue>> object;
  std::vector<std::shared_ptr<JsonValue>> array;
  std::string string;
  double number = 0;
  bool boolean = false;

  bool has(const std::string& key) const { return object.count(key) > 0; }
  const JsonValue& at(const std::string& key) const {
    return *object.at(key);
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    const JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size()) throw std::runtime_error("trailing JSON input");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) throw std::runtime_error("unexpected end");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c)
      throw std::runtime_error(std::string("expected '") + c + "' at " +
                               std::to_string(pos_));
    ++pos_;
  }

  JsonValue value() {
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string_value();
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') return null();
    return number();
  }

  JsonValue object() {
    JsonValue v;
    v.kind = JsonValue::Object;
    expect('{');
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      const JsonValue key = string_value();
      expect(':');
      v.object[key.string] = std::make_shared<JsonValue>(value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    JsonValue v;
    v.kind = JsonValue::Array;
    expect('[');
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(std::make_shared<JsonValue>(value()));
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue string_value() {
    JsonValue v;
    v.kind = JsonValue::String;
    expect('"');
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) throw std::runtime_error("bad escape");
        switch (s_[pos_]) {
          case 'n': v.string += '\n'; break;
          case 't': v.string += '\t'; break;
          case 'u':
            // Only \u00XX control escapes are emitted by json_escape.
            v.string += static_cast<char>(
                std::stoi(s_.substr(pos_ + 1, 4), nullptr, 16));
            pos_ += 4;
            break;
          default: v.string += s_[pos_];
        }
      } else {
        v.string += s_[pos_];
      }
      ++pos_;
    }
    expect('"');
    return v;
  }

  JsonValue boolean() {
    JsonValue v;
    v.kind = JsonValue::Bool;
    if (s_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else if (s_.compare(pos_, 5, "false") == 0) {
      v.boolean = false;
      pos_ += 5;
    } else {
      throw std::runtime_error("bad literal");
    }
    return v;
  }

  JsonValue null() {
    if (s_.compare(pos_, 4, "null") != 0)
      throw std::runtime_error("bad literal");
    pos_ += 4;
    JsonValue v;
    v.kind = JsonValue::Null;
    return v;
  }

  JsonValue number() {
    JsonValue v;
    v.kind = JsonValue::Number;
    std::size_t used = 0;
    v.number = std::stod(s_.substr(pos_), &used);
    if (used == 0) throw std::runtime_error("bad number");
    pos_ += used;
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------

constexpr std::uint64_t kBase = 0x5eedULL;

std::vector<SweepCell> tiny_cells() {
  std::vector<SweepCell> cells;
  for (const std::uint64_t n : {32ull, 128ull})
    cells.push_back({.key = "n=" + std::to_string(n),
                     .trials = 3,
                     .lb = 1.0,
                     .ub = static_cast<double>(2 * n),
                     .run = [n](std::uint64_t seed) {
                       Rng rng(seed);
                       // A fractional cost so %.17g round-tripping is
                       // actually exercised.
                       return static_cast<double>(rng.next_below(n)) +
                              1.0 / 3.0;
                     }});
  return cells;
}

BenchReport tiny_report(unsigned jobs, bool baseline) {
  ExperimentRunner runner({.jobs = jobs});
  BenchReport report;
  report.bench = "bench_schema_probe";
  report.jobs = jobs;
  report.seed = kBase;
  report.sweeps.push_back(
      run_sweep(runner, "tiny sweep", kBase, tiny_cells(), baseline));
  return report;
}

TEST(BenchJson, SerialBaselineReRunsOnlyParallelSweeps) {
  // At jobs 1 the sweep is its own serial baseline: every trial runs
  // once. At jobs 2 the determinism cross-check re-runs each trial on
  // one thread, so it runs twice.
  for (const unsigned jobs : {1u, 2u}) {
    std::atomic<std::uint64_t> calls{0};
    std::vector<SweepCell> cells;
    for (const std::uint64_t n : {3ull, 5ull})
      cells.push_back({.key = "n=" + std::to_string(n),
                       .trials = 4,
                       .lb = 0.0,
                       .ub = 1.0,
                       .run = [&calls](std::uint64_t) {
                         calls.fetch_add(1, std::memory_order_relaxed);
                         return 1.0;
                       }});
    const SweepResult res =
        run_sweep(ExperimentRunner({.jobs = jobs}), "count", kBase,
                  std::move(cells), /*serial_baseline=*/true);
    EXPECT_EQ(calls.load(std::memory_order_relaxed), jobs == 1 ? 8u : 16u)
        << "jobs=" << jobs;
    EXPECT_TRUE(res.deterministic);
    if (jobs == 1) {
      EXPECT_EQ(res.serial_wall_ms, res.wall_ms);
    }
  }
}

TEST(BenchJson, RequiredKeysAndTypes) {
  const auto doc =
      JsonParser(to_json(tiny_report(2, /*baseline=*/true))).parse();
  ASSERT_EQ(doc.kind, JsonValue::Object);
  for (const char* key : {"schema", "bench", "jobs", "threads", "seed",
                          "deterministic", "host", "wall_ms",
                          "serial_wall_ms", "speedup_vs_serial", "sweeps"})
    EXPECT_TRUE(doc.has(key)) << "missing top-level key " << key;
  EXPECT_EQ(doc.at("schema").string, "parbounds-bench-v1");
  EXPECT_EQ(doc.at("bench").string, "bench_schema_probe");
  EXPECT_EQ(doc.at("jobs").number, 2.0);
  EXPECT_EQ(doc.at("deterministic").kind, JsonValue::Bool);

  ASSERT_EQ(doc.at("sweeps").array.size(), 1u);
  const JsonValue& sweep = *doc.at("sweeps").array[0];
  for (const char* key : {"title", "base_seed", "deterministic", "wall_ms",
                          "serial_wall_ms", "speedup_vs_serial", "cells"})
    EXPECT_TRUE(sweep.has(key)) << "missing sweep key " << key;
  EXPECT_EQ(sweep.at("title").string, "tiny sweep");

  ASSERT_EQ(sweep.at("cells").array.size(), 2u);
  for (const auto& cellp : sweep.at("cells").array) {
    const JsonValue& cell = *cellp;
    for (const char* key :
         {"key", "trials", "lb", "ub", "mean", "p50", "p99", "costs"})
      EXPECT_TRUE(cell.has(key)) << "missing cell key " << key;
    EXPECT_EQ(cell.at("trials").number, 3.0);
    EXPECT_EQ(cell.at("costs").array.size(), 3u);
  }
}

TEST(BenchJson, CostsRoundTripExactly) {
  const auto report = tiny_report(4, /*baseline=*/false);
  const auto doc = JsonParser(to_json(report)).parse();
  const JsonValue& sweep = *doc.at("sweeps").array[0];
  for (std::size_t ci = 0; ci < report.sweeps[0].cells.size(); ++ci) {
    const auto& want = report.sweeps[0].cells[ci];
    const JsonValue& got = *sweep.at("cells").array[ci];
    EXPECT_EQ(got.at("key").string, want.key);
    EXPECT_EQ(got.at("mean").number, want.mean);  // %.17g: exact
    EXPECT_EQ(got.at("p99").number, want.p99);
    for (std::size_t t = 0; t < want.costs.size(); ++t)
      EXPECT_EQ(got.at("costs").array[t]->number, want.costs[t])
          << "cost " << t << " did not round-trip";
  }
}

TEST(BenchJson, SerialAndParallelSerializeIdenticallyModuloTiming) {
  // The determinism contract, at the serialization level: everything
  // except wall-clock timing must be byte-identical between a 1-thread
  // and a 4-thread run of the same experiment.
  auto serial = tiny_report(1, /*baseline=*/false);
  auto parallel = tiny_report(4, /*baseline=*/false);
  // jobs is configuration, not measurement; align it so the comparison
  // targets the measured payload.
  serial.jobs = parallel.jobs = 0;
  EXPECT_EQ(to_json(serial, /*include_timing=*/false),
            to_json(parallel, /*include_timing=*/false));

  // And with timing included the documents genuinely differ in the wall
  // fields only; spot-check that the parser sees identical costs.
  const auto ds = JsonParser(to_json(tiny_report(1, false))).parse();
  const auto dp = JsonParser(to_json(tiny_report(4, false))).parse();
  const JsonValue& cs = *ds.at("sweeps").array[0]->at("cells").array[0];
  const JsonValue& cp = *dp.at("sweeps").array[0]->at("cells").array[0];
  for (std::size_t t = 0; t < 3; ++t)
    EXPECT_EQ(cs.at("costs").array[t]->number,
              cp.at("costs").array[t]->number);
}

TEST(BenchJson, EscapesStringsSafely) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  // A title with quotes must survive a full round trip.
  BenchReport report = tiny_report(1, false);
  report.sweeps[0].title = "weird \"title\" with \\ and \n";
  const auto doc = JsonParser(to_json(report)).parse();
  EXPECT_EQ(doc.at("sweeps").array[0]->at("title").string,
            report.sweeps[0].title);
}

TEST(BenchJson, ReportAggregatesFollowSweeps) {
  auto report = tiny_report(2, /*baseline=*/true);
  EXPECT_TRUE(report_deterministic(report));
  EXPECT_GT(report_speedup(report), 0.0);
  report.sweeps[0].deterministic = false;
  EXPECT_FALSE(report_deterministic(report));
  const auto doc = JsonParser(to_json(report)).parse();
  EXPECT_FALSE(doc.at("deterministic").boolean);
}

TEST(BenchJson, HostBlockCarriesProvenanceOnlyWhenTimed) {
  const auto doc = JsonParser(to_json(tiny_report(2, false))).parse();
  ASSERT_TRUE(doc.has("host"));
  const JsonValue& host = doc.at("host");
  for (const char* key : {"hardware_concurrency", "build_type", "compiler",
                          "dispatch", "cpu_features"})
    EXPECT_TRUE(host.has(key)) << "missing host key " << key;
  EXPECT_GE(host.at("hardware_concurrency").number, 1.0);
  EXPECT_FALSE(host.at("compiler").string.empty());
  // The dispatch level is one of the three tier names, and the feature
  // list is never empty ("none" when the probe finds nothing).
  const std::string& dispatch = host.at("dispatch").string;
  EXPECT_TRUE(dispatch == "portable" || dispatch == "avx2" ||
              dispatch == "avx512")
      << "unexpected dispatch level " << dispatch;
  EXPECT_FALSE(host.at("cpu_features").string.empty());
  // The host describes the machine that produced the WALL numbers; the
  // timing-free document (the cross-jobs byte-identity contract) must
  // not carry it.
  EXPECT_FALSE(JsonParser(to_json(tiny_report(2, false), false))
                   .parse()
                   .has("host"));
}

TEST(BenchJson, PinnedPortableDispatchReportedInHostBlock) {
  // What PARBOUNDS_SIMD=portable resolves to at startup: the host block
  // must report the PINNED level, not the probe's maximum — that's what
  // makes a recorded portable-baseline run distinguishable from a SIMD
  // run on the same machine.
  const SimdLevel entry = active_simd_level();
  set_simd_level(SimdLevel::kPortable);
  const auto doc = JsonParser(to_json(tiny_report(1, false))).parse();
  set_simd_level(entry);
  EXPECT_EQ(doc.at("host").at("dispatch").string, "portable");
}

TEST(SimdLevelPin, ValidNamesParse) {
  SimdLevel out = SimdLevel::kAvx512;
  std::string err;
  ASSERT_TRUE(parse_simd_level("portable", out, err));
  EXPECT_EQ(out, SimdLevel::kPortable);
  ASSERT_TRUE(parse_simd_level("avx2", out, err));
  EXPECT_EQ(out, SimdLevel::kAvx2);
  ASSERT_TRUE(parse_simd_level("avx512", out, err));
  EXPECT_EQ(out, SimdLevel::kAvx512);
}

TEST(SimdLevelPin, UnknownValueIsTypedErrorWithHint) {
  SimdLevel out = SimdLevel::kPortable;
  std::string err;
  ASSERT_FALSE(parse_simd_level("avx51", out, err));
  EXPECT_NE(err.find("PARBOUNDS_SIMD=avx51"), std::string::npos) << err;
  EXPECT_NE(err.find("did you mean 'avx512'"), std::string::npos) << err;
  EXPECT_NE(err.find("portable, avx2, avx512"), std::string::npos) << err;

  ASSERT_FALSE(parse_simd_level("portble", out, err));
  EXPECT_NE(err.find("did you mean 'portable'"), std::string::npos) << err;
}

TEST(SimdLevelPin, UnsupportedTierIsRejected) {
  // set_simd_level must refuse tiers above the probe's maximum; levels
  // up to the maximum (the oracle's sweep domain) must all take.
  const SimdLevel entry = active_simd_level();
  for (const SimdLevel level : supported_simd_levels())
    EXPECT_NO_THROW(set_simd_level(level));
  if (max_supported_simd_level() < SimdLevel::kAvx512) {
    EXPECT_THROW(set_simd_level(SimdLevel::kAvx512), std::invalid_argument);
  }
  set_simd_level(entry);
}

TEST(BenchJson, SpeedupOmittedWhenJobsIsOne) {
  // A 1-job run IS the serial baseline; the ratio would be noise.
  const auto serial = JsonParser(to_json(tiny_report(1, true))).parse();
  EXPECT_FALSE(serial.has("speedup_vs_serial"));
  EXPECT_TRUE(serial.has("wall_ms"));
  const auto parallel = JsonParser(to_json(tiny_report(2, true))).parse();
  EXPECT_TRUE(parallel.has("speedup_vs_serial"));
}

TEST(BenchJson, MetricsBlockSerializedOnlyWhenPopulated) {
  auto report = tiny_report(1, /*baseline=*/false);
  EXPECT_FALSE(JsonParser(to_json(report)).parse().has("metrics"));

  report.metrics_json =
      "{\"counters\":{\"qsm.phases\":3},\"gauges\":{},\"histograms\":{}}";
  const auto doc = JsonParser(to_json(report)).parse();
  ASSERT_TRUE(doc.has("metrics"));
  EXPECT_EQ(doc.at("metrics").at("counters").at("qsm.phases").number, 3.0);
  // The block must ride along regardless of timing mode.
  EXPECT_TRUE(JsonParser(to_json(report, /*include_timing=*/false))
                  .parse()
                  .has("metrics"));
}

// ---------------------------------------------------------------------
// --via-service byte identity (docs/SERVICE.md): the same small Table 1
// style sweep executed three ways — in-process --jobs 1, through a
// SweepService with a cold cache, and again on a warm cache — must
// serialize to IDENTICAL bytes in the timing-free document, and the
// warm replay must not execute a single trial.

std::vector<SweepCell> routable_cells() {
  std::vector<SweepCell> cells;
  for (const std::uint64_t n : {64ull, 128ull})
    cells.push_back(
        {.key = "n=" + std::to_string(n),
         .trials = 3,
         .lb = 1.0,
         .ub = static_cast<double>(n),
         .run =
             [n](std::uint64_t s) {
               return kernels::parity_circuit_cost(CostModel::Qsm, n, 2, s);
             },
         .spec = {.engine = "qsm",
                  .workload = "parity_circuit",
                  .params = {{"n", n}, {"g", 2}}}});
  return cells;
}

BenchReport wrap_sweep(SweepResult sweep) {
  BenchReport report;
  report.bench = "bench_via_service_probe";
  report.jobs = 1;
  report.seed = kBase;
  report.sweeps.push_back(std::move(sweep));
  return report;
}

std::filesystem::path fresh_cache_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("via_service_" + name);
  std::filesystem::remove_all(dir);
  return dir;
}

std::uint64_t service_metric(const service::SweepService& svc,
                             const std::string& name) {
  const auto snap = svc.metrics().snapshot();
  const auto* m = snap.find(name);
  return m == nullptr ? 0 : m->value;
}

TEST(ViaService, ColdWarmAndInProcessReportsAreByteIdentical) {
  ExperimentRunner runner({.jobs = 1});
  const std::string in_process = to_json(
      wrap_sweep(run_sweep(runner, "Table 1 probe", kBase, routable_cells())),
      /*include_timing=*/false);

  service::ServiceConfig cfg;
  cfg.cache.dir = fresh_cache_dir("identity");
  std::string cold;
  {
    service::SweepService svc(cfg);
    cold = to_json(wrap_sweep(service::run_sweep_via_service(
                       svc, "Table 1 probe", kBase, routable_cells())),
                   /*include_timing=*/false);
    EXPECT_EQ(service_metric(svc, "service.exec"), 6u);  // 2 cells * 3 trials
    EXPECT_EQ(service_metric(svc, "cache.miss"), 6u);
  }

  std::string warm;
  {
    service::SweepService svc(cfg);
    warm = to_json(wrap_sweep(service::run_sweep_via_service(
                       svc, "Table 1 probe", kBase, routable_cells())),
                   /*include_timing=*/false);
    EXPECT_EQ(service_metric(svc, "service.exec"), 0u);
    EXPECT_EQ(service_metric(svc, "cache.hit"), 6u);
  }

  EXPECT_EQ(cold, in_process);
  EXPECT_EQ(warm, in_process);
}

TEST(ViaService, WarmReplayExecutesZeroTrialsBySpanCount) {
  // The metrics say exec=0; the span stream independently confirms the
  // runner was never entered — no runner.trial and no service.run
  // spans, only admissions.
  service::ServiceConfig cfg;
  cfg.cache.dir = fresh_cache_dir("spans");
  {
    service::SweepService svc(cfg);  // cold fill, untraced
    (void)service::run_sweep_via_service(svc, "probe", kBase,
                                         routable_cells());
  }

  obs::Tracer tracer;
  obs::install_process_tracer(&tracer);
  {
    service::SweepService svc(cfg);
    (void)service::run_sweep_via_service(svc, "probe", kBase,
                                         routable_cells());
  }
  obs::install_process_tracer(nullptr);

  std::size_t admits = 0, runs = 0, trials = 0;
  for (const auto& view : tracer.buffers())
    for (std::size_t i = 0; i < view.count; ++i) {
      const obs::SpanEvent& ev = view.events[i];
      if (ev.phase != 'B') continue;
      if (std::strcmp(ev.name, "service.admit") == 0) ++admits;
      if (std::strcmp(ev.name, "service.run") == 0) ++runs;
      if (std::strcmp(ev.name, "runner.trial") == 0) ++trials;
    }
  EXPECT_EQ(admits, 6u);
  EXPECT_EQ(runs, 0u);
  EXPECT_EQ(trials, 0u);
}

// ---------------------------------------------------------------------
// parse_harness_flags (runtime/harness_flags.hpp): the --jobs/--json/
// --trace stripping every bench binary shares. The `--json -out.json`
// case is the regression this suite pins — the old in-harness parser
// silently treated a path beginning with '-' as "no path given".

struct Argv {
  explicit Argv(std::initializer_list<const char*> args) {
    for (const char* a : args) store.emplace_back(a);
    for (auto& s : store) ptrs.push_back(s.data());
    argc = static_cast<int>(ptrs.size());
  }
  HarnessFlags parse() {
    return parse_harness_flags(argc, ptrs.data(), "default.json",
                               "default_trace.json");
  }
  std::vector<std::string> remaining() const {
    return {ptrs.begin(), ptrs.begin() + argc};
  }
  std::vector<std::string> store;
  std::vector<char*> ptrs;
  int argc = 0;
};

TEST(HarnessFlags, JobsBothSpellings) {
  Argv split({"bench", "--jobs", "4"});
  const auto a = split.parse();
  EXPECT_FALSE(a.error);
  EXPECT_EQ(a.jobs, 4u);
  EXPECT_EQ(split.argc, 1);

  Argv equals({"bench", "--jobs=8"});
  EXPECT_EQ(equals.parse().jobs, 8u);
}

TEST(HarnessFlags, JobsWithoutValueIsAnError) {
  Argv bad({"bench", "--jobs"});
  const auto f = bad.parse();
  EXPECT_TRUE(f.error);
  EXPECT_NE(f.error_message.find("--jobs"), std::string::npos);
}

TEST(HarnessFlags, BareJsonTakesTheDefaultPath) {
  Argv bare({"bench", "--json"});
  const auto f = bare.parse();
  EXPECT_FALSE(f.error);
  EXPECT_EQ(f.json_path, "default.json");
}

TEST(HarnessFlags, JsonConsumesAPlainPath) {
  Argv argv({"bench", "--json", "out.json", "--trace", "spans.json"});
  const auto f = argv.parse();
  EXPECT_FALSE(f.error);
  EXPECT_EQ(f.json_path, "out.json");
  EXPECT_EQ(f.trace_path, "spans.json");
  EXPECT_EQ(argv.argc, 1);
}

TEST(HarnessFlags, BareJsonBeforeAnotherFlagKeepsTheDefault) {
  Argv argv({"bench", "--json", "--jobs", "2"});
  const auto f = argv.parse();
  EXPECT_FALSE(f.error);
  EXPECT_EQ(f.json_path, "default.json");
  EXPECT_EQ(f.jobs, 2u);
  EXPECT_EQ(argv.argc, 1);
}

TEST(HarnessFlags, SingleDashPathIsRejectedWithTheEqualsHint) {
  // Regression: this used to silently mean "no path".
  Argv argv({"bench", "--json", "-out.json"});
  const auto f = argv.parse();
  EXPECT_TRUE(f.error);
  EXPECT_NE(f.error_message.find("--json=-out.json"), std::string::npos)
      << f.error_message;
}

TEST(HarnessFlags, EqualsFormForcesADashPath) {
  Argv argv({"bench", "--json=-out.json", "--trace=-t.json"});
  const auto f = argv.parse();
  EXPECT_FALSE(f.error);
  EXPECT_EQ(f.json_path, "-out.json");
  EXPECT_EQ(f.trace_path, "-t.json");
}

TEST(HarnessFlags, ThreadsBothSpellingsAndDefault) {
  Argv split({"bench", "--threads", "4"});
  const auto a = split.parse();
  EXPECT_FALSE(a.error);
  EXPECT_TRUE(a.threads_set);
  EXPECT_EQ(a.threads, 4u);
  EXPECT_EQ(a.resolved_threads(/*resolved_jobs=*/2), 4u);  // explicit wins
  EXPECT_EQ(split.argc, 1);

  Argv equals({"bench", "--threads=8"});
  EXPECT_EQ(equals.parse().resolved_threads(2), 8u);

  Argv absent({"bench", "--jobs", "3"});
  const auto d = absent.parse();
  EXPECT_FALSE(d.threads_set);
  EXPECT_EQ(d.resolved_threads(/*resolved_jobs=*/3), 3u);  // follows jobs
}

TEST(HarnessFlags, ThreadsZeroIsRejectedWithAClearError) {
  // Unlike --jobs there is no "auto" spelling for the pool; a literal 0
  // must fail loudly, not silently remap.
  Argv split({"bench", "--threads", "0"});
  Argv equals({"bench", "--threads=0"});
  for (Argv* argv : {&split, &equals}) {
    const auto f = argv->parse();
    EXPECT_TRUE(f.error);
    EXPECT_NE(f.error_message.find("--threads"), std::string::npos);
    EXPECT_NE(f.error_message.find("positive"), std::string::npos)
        << f.error_message;
  }
}

TEST(HarnessFlags, ThreadsGarbageIsRejected) {
  Argv argv({"bench", "--threads", "two"});
  EXPECT_TRUE(argv.parse().error);
  Argv trailing({"bench", "--threads=4x"});
  EXPECT_TRUE(trailing.parse().error);
  Argv missing({"bench", "--threads"});
  const auto f = missing.parse();
  EXPECT_TRUE(f.error);
  EXPECT_NE(f.error_message.find("--threads"), std::string::npos);
}

TEST(HarnessFlags, UnrecognizedTokensSurviveInOrder) {
  Argv argv({"bench", "--benchmark_filter=OR", "--jobs", "2", "positional"});
  const auto f = argv.parse();
  EXPECT_FALSE(f.error);
  EXPECT_EQ(f.jobs, 2u);
  const std::vector<std::string> want = {"bench", "--benchmark_filter=OR",
                                         "positional"};
  EXPECT_EQ(argv.remaining(), want);
}

TEST(HarnessFlags, ViaServiceAndCacheFlagsBothSpellings) {
  Argv split({"bench", "--via-service", "--cache-dir", "cachedir",
              "--cache-bytes", "1024"});
  const auto f = split.parse();
  EXPECT_FALSE(f.error) << f.error_message;
  EXPECT_TRUE(f.via_service);
  EXPECT_EQ(f.cache_dir, "cachedir");
  EXPECT_EQ(f.cache_bytes, 1024u);
  EXPECT_EQ(split.argc, 1);  // all stripped before google-benchmark

  Argv equals({"bench", "--cache-dir=d2", "--cache-bytes=2048"});
  const auto e = equals.parse();
  EXPECT_FALSE(e.error);
  EXPECT_EQ(e.cache_dir, "d2");
  EXPECT_EQ(e.cache_bytes, 2048u);

  Argv absent({"bench"});
  const auto d = absent.parse();
  EXPECT_FALSE(d.via_service);
  EXPECT_TRUE(d.cache_dir.empty());
  EXPECT_EQ(d.cache_bytes, 0u);  // 0 = library default
}

TEST(HarnessFlags, CacheBytesRejectsZeroAndGarbage) {
  // 0 is spelled by omitting the flag; a literal 0 is always a mistake.
  for (const char* v : {"0", "lots", "12x"}) {
    Argv argv({"bench", "--cache-bytes", v});
    const auto f = argv.parse();
    EXPECT_TRUE(f.error) << v;
    EXPECT_NE(f.error_message.find("--cache-bytes"), std::string::npos)
        << f.error_message;
  }
  Argv missing_bytes({"bench", "--cache-bytes"});
  EXPECT_TRUE(missing_bytes.parse().error);
  Argv missing_dir({"bench", "--cache-dir"});
  EXPECT_TRUE(missing_dir.parse().error);
}

TEST(HarnessFlags, WorkersBothSpellingsAndDefault) {
  Argv split({"bench", "--workers", "4"});
  const auto a = split.parse();
  EXPECT_FALSE(a.error) << a.error_message;
  EXPECT_EQ(a.workers, 4u);
  EXPECT_EQ(split.argc, 1);  // stripped before google-benchmark

  Argv equals({"bench", "--workers=2"});
  const auto b = equals.parse();
  EXPECT_FALSE(b.error);
  EXPECT_EQ(b.workers, 2u);

  Argv absent({"bench"});
  EXPECT_EQ(absent.parse().workers, 0u);  // 0 = in-process execution
}

TEST(HarnessFlags, WorkersRejectsZeroAndGarbage) {
  // --workers 0 would mean "a fleet of no workers"; in-process execution
  // is spelled by omitting the flag, so 0 is always a mistake — as is
  // anything that is not a positive integer.
  for (const char* v : {"0", "two", "4x"}) {
    Argv argv({"bench", "--workers", v});
    const auto f = argv.parse();
    EXPECT_TRUE(f.error) << v;
    EXPECT_NE(f.error_message.find("--workers"), std::string::npos)
        << f.error_message;
    EXPECT_NE(f.error_message.find("positive integer"), std::string::npos)
        << f.error_message;
  }
  Argv missing({"bench", "--workers"});
  EXPECT_TRUE(missing.parse().error);
  Argv equals_zero({"bench", "--workers=0"});
  EXPECT_TRUE(equals_zero.parse().error);
}

TEST(HarnessFlags, WorkersTyposGetADidYouMeanHint) {
  // --worker and --wokers are within edit distance 2 of --workers; they
  // must be named errors, not silently ignored google-benchmark args.
  for (const char* typo : {"--worker", "--wokers", "--worker=4"}) {
    Argv argv({"bench", typo});
    const auto f = argv.parse();
    EXPECT_TRUE(f.error) << typo;
    EXPECT_NE(f.error_message.find("did you mean '--workers'"),
              std::string::npos)
        << f.error_message;
  }
  // ...but an unrelated unknown flag still falls through untouched.
  Argv unrelated({"bench", "--benchmark_filter=NONE"});
  const auto f = unrelated.parse();
  EXPECT_FALSE(f.error) << f.error_message;
  EXPECT_EQ(unrelated.argc, 2);
}

TEST(HarnessFlags, FleetWindowBothSpellingsRequireWorkers) {
  Argv split({"bench", "--workers", "2", "--fleet-window", "4"});
  const auto a = split.parse();
  EXPECT_FALSE(a.error) << a.error_message;
  EXPECT_EQ(a.fleet_window, 4u);
  EXPECT_EQ(split.argc, 1);  // stripped before google-benchmark

  Argv equals({"bench", "--workers=2", "--fleet-window=1"});
  const auto b = equals.parse();
  EXPECT_FALSE(b.error);
  EXPECT_EQ(b.fleet_window, 1u);

  Argv absent({"bench", "--workers", "2"});
  EXPECT_EQ(absent.parse().fleet_window, 0u);  // 0 = library default (8)

  // The window only means something for fleet worker processes: without
  // --workers it would silently do nothing, so it is a typed error.
  Argv alone({"bench", "--fleet-window", "4"});
  const auto f = alone.parse();
  EXPECT_TRUE(f.error);
  EXPECT_NE(f.error_message.find("--fleet-window without --workers"),
            std::string::npos)
      << f.error_message;
  EXPECT_NE(f.error_message.find("add --workers"), std::string::npos)
      << f.error_message;
}

TEST(HarnessFlags, FleetWindowRejectsZeroAndGarbage) {
  // A window of 0 could never make progress; the default is spelled by
  // omitting the flag, so 0 is always a mistake — as is anything that
  // is not a positive integer.
  for (const char* v : {"0", "eight", "8x"}) {
    Argv argv({"bench", "--workers", "2", "--fleet-window", v});
    const auto f = argv.parse();
    EXPECT_TRUE(f.error) << v;
    EXPECT_NE(f.error_message.find("--fleet-window"), std::string::npos)
        << f.error_message;
    EXPECT_NE(f.error_message.find("positive integer"), std::string::npos)
        << f.error_message;
  }
  Argv missing({"bench", "--workers", "2", "--fleet-window"});
  EXPECT_TRUE(missing.parse().error);
  Argv equals_zero({"bench", "--workers=2", "--fleet-window=0"});
  EXPECT_TRUE(equals_zero.parse().error);
}

TEST(HarnessFlags, FleetWindowTyposGetADidYouMeanHint) {
  // --fleet-windw is a near-miss; --window is the tempting short
  // spelling (edit distance 7, caught by name). Both must be named
  // errors — silently dropped, the sweep would run lock-step and look
  // like the requested pipelined run.
  for (const char* typo :
       {"--fleet-windw", "--fleet-wndow=4", "--window", "--window=8"}) {
    Argv argv({"bench", typo});
    const auto f = argv.parse();
    EXPECT_TRUE(f.error) << typo;
    EXPECT_NE(f.error_message.find("did you mean '--fleet-window'"),
              std::string::npos)
        << f.error_message;
  }
}

TEST(HarnessFlags, ServiceNamespaceTyposGetADidYouMeanHint) {
  // The --via-/--cache- namespaces belong to the harness: a typo there
  // must not fall through to google-benchmark and be silently ignored.
  struct Case {
    const char* arg;
    const char* hint;
  };
  for (const Case& c : {Case{"--via-servce", "--via-service"},
                        Case{"--cache-dirs", "--cache-dir"},
                        Case{"--cache-byte", "--cache-bytes"},
                        Case{"--via-service=yes", "--via-service"}}) {
    Argv argv({"bench", c.arg});
    const auto f = argv.parse();
    EXPECT_TRUE(f.error) << c.arg;
    EXPECT_NE(f.error_message.find("did you mean"), std::string::npos)
        << f.error_message;
    EXPECT_NE(f.error_message.find(c.hint), std::string::npos)
        << f.error_message;
  }
}

TEST(HarnessFlags, HelpWinsOverEveryOtherFlag) {
  // --help must stop a bench before any sweep runs, even next to flags
  // that would otherwise be errors (here --workers 0).
  Argv argv({"bench", "--jobs", "2", "--workers", "0", "--help"});
  const auto f = argv.parse();
  EXPECT_TRUE(f.help);
  EXPECT_FALSE(f.error) << f.error_message;
  const std::string usage = harness_usage();
  for (const char* flag : {"--jobs", "--threads", "--json", "--trace",
                           "--via-service", "--cache-dir", "--cache-bytes",
                           "--workers", "--fleet-window", "--help"})
    EXPECT_NE(usage.find(flag), std::string::npos) << flag;
  Argv plain({"bench", "--jobs", "2"});
  EXPECT_FALSE(plain.parse().help);
}

TEST(HarnessFlags, GateValuesParseStrictlyAndStrip) {
  double floor = 1.0;
  double ceiling = 1.05;
  Argv argv({"bench", "--min-x-speedup=1.5", "--benchmark_filter=Y",
             "--max-overhead=0", "--jobs", "2"});
  const std::string err = parse_gate_flags(
      argv.argc, argv.ptrs.data(),
      {{"--min-x-speedup", &floor}, {"--max-overhead", &ceiling}});
  EXPECT_EQ(err, "");
  EXPECT_EQ(floor, 1.5);
  EXPECT_EQ(ceiling, 0.0);
  EXPECT_EQ(argv.remaining(),
            (std::vector<std::string>{"bench", "--benchmark_filter=Y",
                                      "--jobs", "2"}));
  // An absent gate keeps its default.
  double untouched = 2.5;
  Argv none({"bench", "--jobs", "2"});
  EXPECT_EQ(parse_gate_flags(none.argc, none.ptrs.data(),
                             {{"--min-x-speedup", &untouched}}),
            "");
  EXPECT_EQ(untouched, 2.5);
}

TEST(HarnessFlags, MalformedGateValuesAreTypedErrors) {
  // Garbage, trailing characters, NaN, infinities, negatives, an empty
  // value and a bare flag are all named errors, never an abort and
  // never a silently truncated number.
  for (const char* arg :
       {"--min-x-speedup=abc", "--min-x-speedup=1.5x", "--min-x-speedup=nan",
        "--min-x-speedup=inf", "--min-x-speedup=-1", "--min-x-speedup=",
        "--min-x-speedup= 1.5", "--min-x-speedup"}) {
    double floor = 1.0;
    Argv argv({"bench", arg});
    const std::string err = parse_gate_flags(
        argv.argc, argv.ptrs.data(), {{"--min-x-speedup", &floor}});
    EXPECT_NE(err.find("--min-x-speedup"), std::string::npos)
        << arg << " -> '" << err << "'";
    EXPECT_EQ(floor, 1.0) << arg;
  }
}

}  // namespace
}  // namespace parbounds::runtime
