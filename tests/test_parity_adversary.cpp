// The Theorem 3.2 adversary against a real GSM parity algorithm.

#include "adversary/parity_adversary.hpp"

#include <gtest/gtest.h>

#include <string>

#include "algos/gsm_algos.hpp"

namespace parbounds {
namespace {

struct Probe {
  GsmAlgorithm algo;
  Addr output;
};

Probe parity_probe(unsigned n, unsigned fanin) {
  GsmAlgorithm algo = [fanin](GsmMachine& m, std::span<const Word> input) {
    gsm_parity_tree(m, input, fanin);
  };
  GsmMachine probe{GsmConfig{}};
  std::vector<Word> zeros(n, 0);
  const Addr out = gsm_parity_tree(probe, zeros, fanin);
  return {algo, out};
}

TEST(ParityAdversary, InvariantsHoldAgainstTree) {
  const unsigned n = 10;
  auto [algo, out] = parity_probe(n, 2);
  ParityAdversary adv(algo, GsmConfig{}, n, out, /*seed=*/31);
  const auto run = adv.run(12);

  ASSERT_FALSE(run.steps.empty());
  EXPECT_TRUE(run.all_invariants_ok);

  std::size_t prev = n;
  for (const auto& step : run.steps) {
    // V only shrinks, and the greedy independent set meets the
    // |V| / (deg + 1) guarantee the proof uses.
    EXPECT_LE(step.V.size(), prev);
    EXPECT_GE(step.independent,
              prev / (step.graph_degree + 1) > 0
                  ? prev / (step.graph_degree + 1)
                  : 1);
    prev = step.V.size();
    if (step.V.size() > 1) {
      EXPECT_TRUE(step.output_undetermined);
    }
  }
}

TEST(ParityAdversary, SurvivesSeveralPhasesBeforeVCollapses) {
  // The quantitative heart of Theorem 3.2: |V| cannot crash to 1 in one
  // phase because each entity's knowledge is bounded — the tree needs
  // multiple phases before the adversary runs out of variables.
  const unsigned n = 12;
  auto [algo, out] = parity_probe(n, 2);
  ParityAdversary adv(algo, GsmConfig{}, n, out, /*seed=*/32);
  const auto run = adv.run(12);
  ASSERT_GE(run.steps.size(), 2u);
  EXPECT_GT(run.steps.front().V.size(), 1u);
}

TEST(ParityAdversary, MaxKnowersGrowsGeometrically) {
  // Invariant (2): k_t <= nu^t style growth — with a fan-in 2 tree the
  // number of entities knowing one surviving variable roughly doubles
  // per level, never explodes.
  const unsigned n = 8;
  auto [algo, out] = parity_probe(n, 2);
  ParityAdversary adv(algo, GsmConfig{}, n, out, /*seed=*/33);
  const auto run = adv.run(10);
  for (std::size_t i = 0; i < run.steps.size(); ++i)
    EXPECT_LE(run.steps[i].max_knowers, std::uint64_t{2} << (i + 1))
        << "step " << i;
}

TEST(ParityAdversary, HigherFaninCollapsesFaster) {
  const unsigned n = 12;
  auto p2 = parity_probe(n, 2);
  auto p4 = parity_probe(n, 4);
  ParityAdversary a2(p2.algo, GsmConfig{}, n, p2.output, 34);
  ParityAdversary a4(p4.algo, GsmConfig{}, n, p4.output, 34);
  const auto r2 = a2.run(12);
  const auto r4 = a4.run(12);
  // Fan-in 4 funnels knowledge faster: it reaches |V| <= 1 in at most as
  // many steps as fan-in 2 — but then it also pays more per phase on a
  // GSM with bounded alpha/beta, which is exactly the trade-off the
  // lower bound formalises.
  EXPECT_LE(r4.steps.size(), r2.steps.size());
}

TEST(ParityAdversary, StepsPinned) {
  // The runs of the tests above, every step pinned. The values were
  // recorded when each phase still re-ran the algorithm on all
  // refinements; derived analyses must reproduce them exactly.
  struct Step {
    std::vector<unsigned> V;
    std::uint64_t max_knowers, graph_degree, independent;
  };
  struct Case {
    unsigned n, fanin, max_phases;
    std::uint64_t seed;
    const char* final_map;  ///< one of 0 / 1 / * per input
    std::vector<Step> steps;
  };
  const std::vector<Case> cases = {
      {10, 2, 12, 31, "*000010100",
       {{{0, 2, 4, 6, 8}, 2, 1, 5},
        {{0, 2, 4, 6, 8}, 3, 0, 5},
        {{0, 4}, 4, 3, 2},
        {{0, 4}, 5, 0, 2},
        {{0}, 6, 1, 1}}},
      {12, 2, 12, 32, "*01111010111",
       {{{0, 2, 4, 6, 8, 10}, 2, 1, 6},
        {{0, 2, 4, 6, 8, 10}, 3, 0, 6},
        {{0, 4}, 4, 4, 2},
        {{0, 4}, 5, 0, 2},
        {{0}, 6, 1, 1}}},
      {8, 2, 10, 33, "*1100100",
       {{{0, 2, 4, 6}, 2, 1, 4},
        {{0, 2, 4, 6}, 3, 0, 4},
        {{0, 4}, 4, 3, 2},
        {{0, 4}, 5, 0, 2},
        {{0}, 6, 1, 1}}},
      {12, 2, 12, 34, "*01111001011",
       {{{0, 2, 4, 6, 8, 10}, 2, 1, 6},
        {{0, 2, 4, 6, 8, 10}, 3, 0, 6},
        {{0, 4}, 4, 4, 2},
        {{0, 4}, 5, 0, 2},
        {{0}, 6, 1, 1}}},
      {12, 4, 12, 34, "*01110011101",
       {{{0, 4, 8}, 2, 3, 3}, {{0, 4, 8}, 3, 0, 3}, {{0}, 4, 2, 1}}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("n=" + std::to_string(c.n) +
                 " fanin=" + std::to_string(c.fanin) +
                 " seed=" + std::to_string(c.seed));
    auto [algo, out] = parity_probe(c.n, c.fanin);
    ParityAdversary adv(algo, GsmConfig{}, c.n, out, c.seed);
    const auto run = adv.run(c.max_phases);
    EXPECT_TRUE(run.all_invariants_ok);
    std::string final_map;
    for (unsigned i = 0; i < c.n; ++i)
      final_map += run.final_map.is_set(i)
                       ? static_cast<char>('0' + run.final_map.value(i))
                       : '*';
    EXPECT_EQ(final_map, c.final_map);
    ASSERT_EQ(run.steps.size(), c.steps.size());
    for (std::size_t i = 0; i < c.steps.size(); ++i) {
      const ParityAdversaryStep& got = run.steps[i];
      EXPECT_EQ(got.phase, i + 1);
      EXPECT_EQ(got.V, c.steps[i].V) << "step " << i;
      EXPECT_EQ(got.max_knowers, c.steps[i].max_knowers) << "step " << i;
      EXPECT_EQ(got.graph_degree, c.steps[i].graph_degree) << "step " << i;
      EXPECT_EQ(got.independent, c.steps[i].independent) << "step " << i;
      EXPECT_TRUE(got.invariant_ok) << "step " << i;
      EXPECT_TRUE(got.output_undetermined) << "step " << i;
    }
  }
}

}  // namespace
}  // namespace parbounds
