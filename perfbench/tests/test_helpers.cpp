// Self-tests of the benchmark harness's helpers (perfbench/harness/metrics.*).
// Build and run:  cmake -S perfbench -B .bench_build/perfbench
//                 cmake --build .bench_build/perfbench --target perfbench_selftest
//                 ctest --test-dir .bench_build/perfbench
//
// The binary has its own main: the fleet test re-execs it as a worker.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "runtime/fleet/coordinator.hpp"
#include "runtime/fleet/worker.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NeedsTenSamplesBeyondTheRank) {
  // 100 samples: the p90 is rank 90, with exactly 10 samples above it.
  EXPECT_EQ(percentile_with_tail(one_to(100), 0.9), 90.0);
  // 99 samples: rank 90 again, but only 9 above it.
  EXPECT_FALSE(percentile_with_tail(one_to(99), 0.9).has_value());
  // p50: 20 samples are enough (rank 10, 10 above), 19 are not.
  EXPECT_EQ(percentile_with_tail(one_to(20), 0.5), 10.0);
  EXPECT_FALSE(percentile_with_tail(one_to(19), 0.5).has_value());
}

TEST(Percentile, OrderOfSamplesDoesNotMatter) {
  std::vector<double> v = one_to(200);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(percentile_with_tail(v, 0.9), 180.0);
  EXPECT_EQ(percentile_with_tail(v, 0.5), 100.0);
}

TEST(Percentile, RejectsDegenerateInput) {
  EXPECT_FALSE(percentile_with_tail({}, 0.5).has_value());
  EXPECT_FALSE(percentile_with_tail(one_to(500), 0.0).has_value());
  EXPECT_FALSE(percentile_with_tail(one_to(500), 1.0).has_value());
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(MetricName, AcceptsTheReportedNames) {
  for (const char* name : {"wall_s", "setup_s", "sweep_ms_p90",
                           "core.qsm.m_rw_max", "fleet.bytes_tx", "a-b.c_1",
                           "9lives"})
    EXPECT_TRUE(valid_metric_name(name)) << name;
}

TEST(MetricName, RejectsEverythingElse) {
  for (const char* name : {"", "_lead", ".lead", "-lead", "has space",
                           "a/b", "a:b", "quote\"", "caf\xc3\xa9"})
    EXPECT_FALSE(valid_metric_name(name)) << name;
  EXPECT_TRUE(valid_metric_name(std::string(64, 'x')));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'x')));
}

TEST(MetricSet, ValidatesAndEncodes) {
  MetricSet m;
  m.add("wall_s", 1.25, "s");
  m.add("ok_frac", 1.0, "ratio");
  EXPECT_THROW(m.add("wall_s", 2.0, "s"), std::invalid_argument);
  EXPECT_THROW(m.add("bad name", 2.0, "s"), std::invalid_argument);
  EXPECT_THROW(m.add("nan", std::nan(""), "s"), std::invalid_argument);
  EXPECT_EQ(m.to_json(),
            "{\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, "
            "\"ok_frac\": {\"value\": 1, \"unit\": \"ratio\"}}");
  EXPECT_EQ(result_json(true, 3, 0, m).rfind("{\"correct\": true, "
                                             "\"attempted\": 3, "
                                             "\"failed\": 0, \"metrics\": {",
                                             0),
            0u);
}

TEST(LayerArithmetic, IdleAndSelfTime) {
  // Two workers held for 10 s while trials ran 15 s: 5 s idle.
  EXPECT_DOUBLE_EQ(runtime_idle_s(2, 10.0, 15.0), 5.0);
  EXPECT_DOUBLE_EQ(runtime_idle_s(1, 4.0, 4.0), 0.0);
  // 4.5 s in the service, 3 s of it waiting on the fleet.
  EXPECT_DOUBLE_EQ(service_self_s(4.5, 3.0), 1.5);
}

void burn_cpu(double seconds) {
  const CpuTimes start = cpu_now();
  volatile double x = 0;
  while (cpu_now().self_s - start.self_s < seconds)
    for (int i = 0; i < 100000; ++i) x = x + 1.0;
}

TEST(Rusage, ChildrenCountOnlyOnceReaped) {
  const CpuTimes before = cpu_now();
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    burn_cpu(0.2);
    ::_exit(0);
  }
  // Give the child time to finish; it is a zombie, not yet reaped.
  ::usleep(400000);
  EXPECT_EQ(cpu_delta(before, cpu_now()).children_s, 0.0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  const CpuTimes d = cpu_delta(before, cpu_now());
  EXPECT_GE(d.children_s, 0.15);
  EXPECT_GT(peak_rss_mb_children(), 0.0);
}

TEST(Rusage, FleetWorkersAreChargedAfterShutdown) {
  namespace svc = parbounds::service;
  const CpuTimes before = cpu_now();
  {
    parbounds::fleet::FleetConfig cfg;
    cfg.workers = 2;
    parbounds::fleet::FleetCoordinator fleet(cfg);
    std::vector<svc::Request> reqs;
    for (std::uint64_t i = 0; i < 40; ++i) {
      svc::Request r;
      r.id = i;
      r.op = svc::Op::Run;
      r.spec = {.engine = "qsm",
                .workload = "parity_circuit",
                .params = {{"n", 4096}, {"g", 8}}};
      r.seed = i;
      reqs.push_back(r);
    }
    const auto resps = fleet.run_requests(reqs);
    ASSERT_EQ(resps.size(), reqs.size());
    for (const auto& r : resps) EXPECT_TRUE(r.has_cost);
    // The workers did the work but are still alive: nothing charged yet.
    EXPECT_EQ(cpu_delta(before, cpu_now()).children_s, 0.0);
  }  // ~FleetCoordinator shuts the workers down and reaps them
  const CpuTimes d = cpu_delta(before, cpu_now());
  EXPECT_GT(d.children_s, 0.05);
  // The coordinator only waits on pipes; the kernels ran in the workers.
  EXPECT_GT(d.children_s, d.self_s);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  parbounds::fleet::maybe_run_worker(argc, argv);
  testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
