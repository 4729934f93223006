// table1_qsm: the Table 1 (QSM subtable) artifact — the six sweeps of
// bench_table1_qsm_time, 53 cells and 121 trials — run through
// runtime::run_sweep at jobs 2 / threads 2 with no serial re-run.
//
// Set-up (timed, repeated, median reported): the runner, the process
// pool and the cell grid with its lower/upper-bound evaluation.
// Timed region: the six run_sweep calls.
// Checks: measured mean >= the paper's lower bound in every cell, and
// every cell under 1 s (all but four, see over_one_second) recomputed
// serially, bit for bit.
// Unit latency: one serial replay of a deterministic (single-trial)
// cell, each replayed in ten rounds. Trials inside the timed region share
// the host two at a time, so their times depend on which trial ran
// beside them; randomized cells' times follow the seed's draws. Both
// made the percentiles move between runs.

#include <algorithm>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bounds/model_bounds.hpp"
#include "bounds/upper_bounds.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/runner.hpp"
#include "runtime/sweep.hpp"
#include "util/mathx.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace rt = parbounds::runtime;
namespace bb = parbounds::bounds;

namespace {

constexpr unsigned kJobs = 2;
constexpr unsigned kReps = 5;  // randomized cells, as in the bench
constexpr int kSetupReps = 51;  // before the first pass; more per pass
/// Verification rounds: every deterministic cell is replayed once per
/// round and each replay is one unit latency sample (32 cells x 10 =
/// 320 samples, enough for a p90). The p90 rank falls inside one cell's
/// samples, not on their maximum; at five rounds it sat next to it and
/// moved 19% between runs (first to third quartile over the median).
constexpr int kReplays = 10;
/// Wall time of every trial; filled from runner threads.
struct TrialLog {
  struct Rec {
    double seconds = 0.0;
    bool crfree_parity = false;
  };
  std::mutex mu;
  std::vector<Rec> recs;
};

struct Sweep {
  std::string title;
  std::vector<rt::SweepCell> cells;
};

std::uint64_t param(const rt::ServiceSpec& s, const char* name) {
  for (const auto& [k, v] : s.params)
    if (k == name) return v;
  return 0;
}

bool crfree_parity(const rt::ServiceSpec& s) {
  return s.engine == "qsm-crfree" && s.workload == "parity_circuit";
}

/// The cells over 1 s: QsmCrFree parity at n >= 4096, g >= 16 (2-11 s
/// each; the next slowest cell takes 0.9 s). Chosen by predicate, not
/// by measured time, so the serially replayed set — and with it the
/// unit-latency sample — never depends on how fast the host was.
bool over_one_second(const rt::ServiceSpec& s) {
  return crfree_parity(s) && param(s, "n") >= 4096 && param(s, "g") >= 16;
}

/// The benchmark's trial closure: run_spec, timed into the log.
rt::SweepCell make_cell(std::string key, unsigned trials, double lb, double ub,
                        rt::ServiceSpec s, TrialLog* log) {
  rt::SweepCell c;
  c.key = std::move(key);
  c.trials = trials;
  c.lb = lb;
  c.ub = ub;
  c.run = [s, log, crfree = crfree_parity(s)](std::uint64_t seed) {
    const double t0 = now_s();
    const double cost = run_spec_or_throw(s, seed);
    const double dt = now_s() - t0;
    const std::lock_guard<std::mutex> lock(log->mu);
    log->recs.push_back({dt, crfree});
    return cost;
  };
  c.spec = std::move(s);
  return c;
}

std::string key_ng(std::uint64_t n, std::uint64_t g) {
  return "n=" + std::to_string(n) + ",g=" + std::to_string(g);
}

/// The six sweeps of bench_table1_qsm_time, cell for cell.
std::vector<Sweep> table1_grid(TrialLog* log) {
  std::vector<Sweep> sw(6);
  const auto add = [&](std::size_t i, std::string key, unsigned trials,
                       double lb, double ub, rt::ServiceSpec s) {
    sw[i].cells.push_back(
        make_cell(std::move(key), trials, lb, ub, std::move(s), log));
  };
  constexpr std::uint64_t kGs[] = {4, 16, 64};

  sw[0].title = "QSM / Parity, deterministic";
  sw[1].title = "QSM / Parity with unit-time concurrent reads";
  for (const std::uint64_t n : {1u << 10, 1u << 12, 1u << 14})
    for (const std::uint64_t g : kGs) {
      const double dn = static_cast<double>(n), dg = static_cast<double>(g);
      add(0, key_ng(n, g), 1, bb::qsm_parity_det_time(dn, dg),
          bb::ub_parity_qsm(dn, dg),
          spec("qsm", "parity_circuit", {{"n", n}, {"g", g}}));
      add(1, key_ng(n, g), 1, bb::qsm_parity_det_time(dn, dg),
          bb::ub_parity_qsm_cr(dn, dg),
          spec("qsm-crfree", "parity_circuit", {{"n", n}, {"g", g}}));
    }

  sw[2].title = "QSM / OR, deterministic";
  for (const std::uint64_t n : {1u << 10, 1u << 14, 1u << 18})
    for (const std::uint64_t g : kGs) {
      const double dn = static_cast<double>(n), dg = static_cast<double>(g);
      add(2, key_ng(n, g), 1, bb::qsm_or_det_time(dn, dg),
          bb::ub_or_qsm(dn, dg),
          spec("qsm", "or_fanin", {{"n", n}, {"g", g}, {"ones", 1}}));
    }

  sw[3].title = "QSM / OR, randomized";
  for (const std::uint64_t n : {1u << 12, 1u << 16})
    for (const std::uint64_t g : {4ull, 16ull})
      for (const std::uint64_t ones : {std::uint64_t{0}, n / 2}) {
        const double dn = static_cast<double>(n), dg = static_cast<double>(g);
        add(3, key_ng(n, g) + (ones == 0 ? ",zeros" : ",dense"), kReps,
            bb::qsm_or_rand_time(dn, dg), bb::ub_or_cr_rand(dn, dg),
            spec("qsm-crfree", "or_rand_cr",
                 {{"n", n}, {"g", g}, {"ones", ones}}));
      }

  sw[4].title = "QSM / LAC, deterministic";
  sw[5].title = "QSM / LAC, randomized";
  for (const std::uint64_t n : {1u << 10, 1u << 14, 1u << 16})
    for (const std::uint64_t g : kGs) {
      const double dn = static_cast<double>(n), dg = static_cast<double>(g);
      add(4, key_ng(n, g), 1, bb::qsm_lac_det_time(dn, dg),
          dg * parbounds::safe_log2(dn),
          spec("qsm", "lac_prefix", {{"n", n}, {"g", g}, {"h", n / 8}}));
      add(5, key_ng(n, g), kReps, bb::qsm_lac_rand_time(dn, dg),
          bb::ub_lac_qsm(dn, dg),
          spec("qsm", "lac_dart", {{"n", n}, {"g", g}, {"h", n / 8}}));
    }
  return sw;
}

}  // namespace

PhaseResult run_table1_qsm(std::uint64_t seed, const PhasePlan& plan) {
  PhaseResult out;
  TrialLog log;

  // Set-up, repeated: it is idempotent (the process pool only grows on
  // the first call) and too short to time once. Host contention moves
  // a 30 us step by 1.6x from one second to the next, so repetitions
  // run before the first pass and between the verification of cells,
  // and the median spans the run.
  const auto setup_rep = [&] {
    const double t0 = now_s();
    const rt::ExperimentRunner r({.jobs = kJobs});
    rt::ParallelFor::pool().set_threads(kJobs);
    const std::vector<Sweep> g = table1_grid(&log);
    out.setup_s.push_back(now_s() - t0);
  };
  for (int r = 0; r < kSetupReps; ++r) setup_rep();
  const std::vector<Sweep> grid = table1_grid(&log);
  const rt::ExperimentRunner runner({.jobs = kJobs});

  std::optional<TraceSession> trace;
  if (plan.traced) trace.emplace();
  // Summed over passes.
  double sweep_s = 0.0, trial_s = 0.0, crfree_s = 0.0, trial_max = 0.0;
  std::size_t trials = 0;

  run_passes(plan, out, [&] {
    log.recs.clear();
    const CpuTimes c0 = cpu_now();
    const double t0 = now_s();
    std::vector<rt::SweepResult> results;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const double s0 = now_s();
      results.push_back(rt::run_sweep(runner, grid[i].title,
                                      rt::derive_seed(seed, i),
                                      grid[i].cells));
      sweep_s += now_s() - s0;
    }
    out.wall_s.push_back(now_s() - t0);
    out.cpu_s.push_back(cpu_delta(c0, cpu_now()).total());

    // Verification, outside the timed region and the trace.
    if (trace) trace->pause();
    for (const TrialLog::Rec& rec : log.recs) {
      trial_s += rec.seconds;
      trial_max = std::max(trial_max, rec.seconds);
      if (rec.crfree_parity) crfree_s += rec.seconds;
    }
    trials += log.recs.size();
    // Round 0 checks every cell; later rounds replay the deterministic
    // cells again, so each one's latency samples (and the set-up
    // repetitions between cells) spread over seconds, not milliseconds.
    std::vector<std::vector<char>> ok(grid.size());
    for (int round = 0; round < kReplays; ++round)
      for (std::size_t i = 0; i < grid.size(); ++i) {
        const std::uint64_t base = rt::derive_seed(seed, i);
        ok[i].resize(grid[i].cells.size(), 1);
        std::uint64_t trial = 0;
        for (std::size_t c = 0; c < grid[i].cells.size(); ++c) {
          const rt::SweepCell& cell = grid[i].cells[c];
          const rt::CellResult& res = results[i].cells[c];
          if (round == 0)
            ok[i][c] = res.costs.size() == cell.trials && res.mean >= cell.lb;
          // Randomized cells (trials > 1) are replayed once: their trial
          // times follow the seed's draws, so they stay out of the sample.
          const bool replay = ok[i][c] && !over_one_second(cell.spec) &&
                              (round == 0 || cell.trials == 1);
          for (unsigned r = 0; replay && r < cell.trials; ++r) {
            const double u0 = now_s();
            const double cost =
                run_spec_or_throw(cell.spec, rt::derive_seed(base, trial + r));
            if (cell.trials == 1) out.unit_ms.push_back((now_s() - u0) * 1e3);
            ok[i][c] = ok[i][c] && cost == res.costs[r];
          }
          trial += cell.trials;
          setup_rep();
        }
      }
    for (const auto& sweep_ok : ok)
      for (const char cell_ok : sweep_ok) {
        ++out.attempted;
        if (cell_ok) ++out.verified;
      }
    if (trace) trace->resume();
  });
  out.peak_rss_mb = peak_rss_mb_self();

  if (trace) {
    trace->pause();
    const double passes = static_cast<double>(out.passes);
    auto& L = out.layers;
    L["algos.trial_s"] = trial_s / passes;
    L["algos.trials"] = static_cast<double>(trials) / passes;
    L["algos.trial_s_max"] = trial_max;
    L["algos.parity_crfree_s"] = crfree_s / passes;
    add_core_layers(*trace, passes, L);
    L["runtime.sweep_s"] = sweep_s / passes;
    L["runtime.steals"] =
        static_cast<double>(trace->span_count("runner.steal")) / passes;
    L["runtime.idle_s"] =
        runtime_idle_s(kJobs, sweep_s / passes, trial_s / passes);
  }
  return out;
}

}  // namespace perfbench
