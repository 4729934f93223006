// The Random Adversary machinery, measured (DESIGN.md exp ADV).
//
// (a) Section 5 adversary against real GSM algorithms on exact (small)
//     instances: inputs fixed per REFINE step, forced big-steps, and the
//     t-goodness invariants — all checked exactly, never violated.
// (b) Section 7 OR distribution: the d_i ladder, the success-probability
//     vs phase-budget trade-off of Theorem 7.1, and the log* horizon.
// (c) Envelope growth: the paper's d_t/k_t sequences evaluated so their
//     shapes (geometric vs tower) are visible.
//
// The exact adversary runs and the Theorem 7.1 success-probability
// trials fan out through the ExperimentRunner (see harness.hpp for
// --jobs / --json); the ladder and envelope prints are closed-form and
// stay serial.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "adversary/adversary.hpp"
#include "adversary/goodness.hpp"
#include "adversary/or_adversary.hpp"
#include "harness.hpp"

namespace pb = parbounds;
using parbounds::TextTable;
using namespace parbounds::bench;
using parbounds::runtime::SweepCell;

namespace {

pb::GsmAlgorithm or_tree_algo(unsigned fanin) {
  return [fanin](pb::GsmMachine& m, std::span<const pb::Word> input) {
    pb::gsm_or_tree(m, input, fanin);
  };
}

void adversary_vs_or_tree() {
  struct Combo {
    unsigned n, fanin;
  };
  constexpr Combo combos[] = {{6, 2}, {6, 3}, {8, 2},
                              {8, 3}, {10, 2}, {10, 3}};
  struct Row {
    unsigned steps = 0;
    double forced = 0, fixed = 0;
    bool good = true;
  };
  // The adversary is deterministic given its seed (kSeed + n as before),
  // so each (n, fanin) cell is an independent trial.
  const auto rows = parallel_trials<Row>(
      std::size(combos), [&](std::uint64_t ci, std::uint64_t) {
        const auto [n, fanin] = combos[ci];
        pb::RandomAdversary adv(or_tree_algo(fanin), pb::GsmConfig{}, n,
                                pb::BitDistribution::uniform(n), kSeed + n);
        pb::PartialInputMap f = pb::PartialInputMap::all_unset(n);
        Row r;
        std::uint64_t forced = 0, fixed = 0;
        for (unsigned phase = 1; phase <= 6; ++phase) {
          const auto step = adv.refine(phase, f);
          if (step.forced_rw == 0 && step.forced_contention == 0) break;
          f = step.f;
          forced += step.x;
          fixed += step.inputs_fixed;
          ++r.steps;
          const auto ta = adv.analyze(f);
          const auto rep = pb::check_t_good_s5(
              ta, std::min(phase, ta.phases()), 1.0, 1.0, n, fixed);
          r.good = r.good && rep.ok;
        }
        r.forced = static_cast<double>(forced);
        r.fixed = static_cast<double>(fixed);
        return r;
      });

  std::printf("%s", pb::banner("Section 5 adversary vs GSM OR trees: "
                               "forced work per phase, inputs fixed, "
                               "goodness verdict (exact, n <= 10)")
                        .c_str());
  TextTable t({"n", "fanin", "steps", "big-steps forced", "inputs fixed",
               "t-good all steps?"});
  for (std::size_t i = 0; i < std::size(combos); ++i)
    t.add_row({std::to_string(combos[i].n), std::to_string(combos[i].fanin),
               std::to_string(rows[i].steps), TextTable::num(rows[i].forced, 0),
               TextTable::num(rows[i].fixed, 0),
               rows[i].good ? "yes" : "NO"});
  std::printf("%s\n", t.render().c_str());
}

void or_distribution_ladder() {
  std::printf("%s", pb::banner("Section 7: the d_i ladder and log* "
                               "horizon of the OR distribution D")
                        .c_str());
  TextTable t({"n", "stages T=(1/4)log*", "d_0", "d_1", "d_2 (capped 1e18)"});
  for (const double n : {1e4, 1e8, 1e18}) {
    const auto d = pb::s7_d_sequence(n, 1, 1);
    t.add_row({TextTable::num(n, 0),
               std::to_string(pb::s7_T(n, 1, 1)),
               TextTable::num(d[0], 2), TextTable::num(d[1], 1),
               TextTable::num(d.size() > 2 ? d[2] : 0.0, 0)});
  }
  std::printf("%s\n", t.render().c_str());
}

void or_tradeoff() {
  std::printf("%s",
              pb::banner("Theorem 7.1 empirically: success probability of "
                         "a truncated OR tree against D (n = 256)")
                  .c_str());
  // One cell per budget, 1000 single-draw trials each: every trial draws
  // one input from D under its own derived seed and returns 0/1, so the
  // cell mean IS the success probability and the estimate is identical
  // for any --jobs (each draw's seed depends only on the trial id).
  const auto dist = std::make_shared<pb::OrDistribution>(256, 1, 1);
  constexpr unsigned budgets[] = {1u, 2u, 4u, 8u, 12u, 16u, 0u};
  std::vector<SweepCell> cells;
  for (const unsigned budget : budgets)
    cells.push_back({.key = budget == 0 ? "unbounded" : std::to_string(budget),
                     .trials = 1000,
                     .run = [dist, budget](std::uint64_t s) {
                       pb::Rng rng(s);
                       return pb::or_success_experiment(*dist, 2, budget, 1,
                                                        rng, {});
                     }});
  const auto& res = sweep("Theorem 7.1 OR success vs phase budget",
                          std::move(cells));
  TextTable t({"phase budget", "success probability (1000 trials)"});
  for (const auto& c : res.cells)
    t.add_row({c.key, TextTable::num(c.mean, 3)});
  std::printf("%s\n", t.render().c_str());
}

void envelope_shapes() {
  std::printf("%s", pb::banner("Envelope growth: Section 5 d_t (geometric "
                               "in t) vs k_t (double exponential), nu = 2, "
                               "mu = 2")
                        .c_str());
  TextTable t({"t", "d_t", "k_t (capped 1e18)", "r_t (n = 2^20)"});
  for (unsigned tt = 0; tt <= 5; ++tt)
    t.add_row({std::to_string(tt), TextTable::num(pb::s5_d(tt, 2, 2), 0),
               TextTable::num(pb::s5_k(tt, 2, 2), 0),
               TextTable::num(pb::s5_r(tt, 1 << 20), 0)});
  std::printf("%s\n", t.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  auto& session = session_init(argc, argv, "bench_adversary");
  std::printf("%s", pb::banner("RANDOM ADVERSARY MACHINERY — Sections 4, "
                               "5 and 7 executed and measured")
                        .c_str());
  adversary_vs_or_tree();
  or_distribution_ladder();
  or_tradeoff();
  envelope_shapes();

  benchmark::RegisterBenchmark("adversary/refine_n8", [](benchmark::State&
                                                             st) {
    for (auto _ : st) {
      pb::RandomAdversary adv(or_tree_algo(2), pb::GsmConfig{}, 8,
                              pb::BitDistribution::uniform(8), kSeed);
      benchmark::DoNotOptimize(
          adv.refine(1, pb::PartialInputMap::all_unset(8)));
    }
  });
  // A whole REFINE chain: one analysis run on all 2^12 refinements, every
  // later one derived from its predecessor.
  benchmark::RegisterBenchmark("adversary/refine_chain_n12",
                               [](benchmark::State& st) {
    constexpr unsigned n = 12;
    for (auto _ : st) {
      pb::RandomAdversary adv(or_tree_algo(2), pb::GsmConfig{}, n,
                              pb::BitDistribution::uniform(n), kSeed);
      pb::PartialInputMap f = pb::PartialInputMap::all_unset(n);
      for (unsigned phase = 1; phase <= 6; ++phase) {
        const auto step = adv.refine(phase, f);
        if (step.forced_rw == 0 && step.forced_contention == 0) break;
        f = step.f;
        benchmark::DoNotOptimize(adv.analyze(f).phases());
      }
    }
  });
  benchmark::RegisterBenchmark("adversary/trace_analysis_n10",
                               [](benchmark::State& st) {
                                 for (auto _ : st) {
                                   pb::TraceAnalysis ta(
                                       or_tree_algo(2), pb::GsmConfig{}, 10,
                                       pb::PartialInputMap::all_unset(10));
                                   benchmark::DoNotOptimize(ta.phases());
                                 }
                               });
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return session.finish();
}
