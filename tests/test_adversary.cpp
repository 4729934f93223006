#include "adversary/adversary.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "adversary/goodness.hpp"
#include "adversary/or_adversary.hpp"
#include "util/mathx.hpp"
#include "util/stats.hpp"

namespace parbounds {
namespace {

GsmAlgorithm or_tree_algo(unsigned fanin) {
  return [fanin](GsmMachine& m, std::span<const Word> input) {
    gsm_or_tree(m, input, fanin);
  };
}

TEST(Envelopes, Section5Values) {
  EXPECT_DOUBLE_EQ(s5_d(0, 2.0, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(s5_d(1, 2.0, 1.0), 8.0);   // nu * (mu+1)^2
  EXPECT_DOUBLE_EQ(s5_d(2, 1.0, 2.0), 81.0);  // 3^4
  EXPECT_DOUBLE_EQ(s5_k(0, 1.0, 1.0), 65536.0);  // 2^(2^4)
  EXPECT_DOUBLE_EQ(s5_r(3, 1e6), 3.0 * 1e4);
  // Envelopes are monotone in t.
  for (unsigned t = 0; t < 5; ++t) {
    EXPECT_LT(s5_d(t, 2, 2), s5_d(t + 1, 2, 2));
    EXPECT_LE(s5_k(t, 2, 2), s5_k(t + 1, 2, 2));
  }
}

TEST(Envelopes, Section7Sequence) {
  const auto d = s7_d_sequence(1e6, 1, 1);
  ASSERT_GE(d.size(), 2u);
  EXPECT_GE(d[0], 2.0);
  for (std::size_t i = 0; i + 1 < d.size(); ++i) EXPECT_LE(d[i], d[i + 1]);
  // Horizon: tiny (log* shrinks everything).
  EXPECT_LE(s7_T(1e6, 1, 1), 2u);
  EXPECT_GE(s7_T(1e18, 1, 1), 1u);
}

TEST(Goodness, InitialMapIsGoodForOrTree) {
  TraceAnalysis ta(or_tree_algo(2), GsmConfig{}, 6,
                   PartialInputMap::all_unset(6));
  // f_* is 0-good, and stays good at every phase for this small run
  // (Assertion 4.1's conclusion, checked exactly).
  for (unsigned t = 0; t <= ta.phases(); ++t) {
    const auto rep = check_t_good_s5(ta, t, /*nu=*/1.0, /*mu=*/1.0,
                                     /*n=*/6.0, /*inputs_fixed=*/0);
    EXPECT_TRUE(rep.ok) << "phase " << t << ": "
                        << (rep.violations.empty() ? ""
                                                   : rep.violations[0]);
  }
}

TEST(Goodness, DetectsViolationsWithTinyEnvelope) {
  TraceAnalysis ta(or_tree_algo(2), GsmConfig{}, 6,
                   PartialInputMap::all_unset(6));
  // Force a failure by lying about the envelope (d_t = 0): the checker
  // must notice, proving it is not vacuous.
  const auto rep = check_t_good_s7(ta, ta.phases(), 0.0);
  EXPECT_FALSE(rep.ok);
  EXPECT_FALSE(rep.violations.empty());
}

TEST(Adversary, RefineForcesWorkAndRefines) {
  RandomAdversary adv(or_tree_algo(2), GsmConfig{}, 6,
                      BitDistribution::uniform(6), /*seed=*/5);
  const auto f0 = PartialInputMap::all_unset(6);
  const auto step = adv.refine(1, f0);
  EXPECT_TRUE(step.success);
  EXPECT_GE(step.x, 1u);
  EXPECT_TRUE(step.f.refines(f0));
  // The OR tree's first phase always performs reads; the adversary must
  // have certified some processor's maximal behaviour.
  EXPECT_GE(step.forced_rw, 1u);
}

TEST(Adversary, GenerateCompletesTheMap) {
  RandomAdversary adv(or_tree_algo(2), GsmConfig{}, 6,
                      BitDistribution::uniform(6), /*seed=*/6);
  const auto res = adv.generate(/*T=*/3);
  EXPECT_TRUE(res.final_map.complete());
  EXPECT_GE(res.total_big_steps, 3u);
  EXPECT_FALSE(res.steps.empty());
}

// An input-ADAPTIVE algorithm: processor 0 reads input 0, then follows it
// to input 1 or input 2 — forcing the adversary to actually fix inputs
// through RANDOMSET (the oblivious tree never makes it fix anything).
void adaptive_algo(GsmMachine& m, std::span<const Word> input) {
  const Addr in = m.alloc(input.size());
  for (std::size_t i = 0; i < input.size(); ++i)
    m.preload(in + i, std::vector<Word>{input[i]});
  const Addr out = m.alloc(1);
  m.begin_phase();
  m.read(0, in + 0);
  m.commit_phase();
  const Word first = m.inbox(0)[0].empty() ? 0 : m.inbox(0)[0][0];
  m.begin_phase();
  m.read(0, first != 0 ? in + 1 : in + 2);
  m.commit_phase();
  const Word second = m.inbox(0)[0].empty() ? 0 : m.inbox(0)[0][0];
  m.begin_phase();
  m.write(0, out, second);
  m.commit_phase();
}

TEST(Adversary, AdaptiveAlgorithmMakesTheAdversaryFixInputs) {
  RandomAdversary adv(adaptive_algo, GsmConfig{}, 4,
                      BitDistribution::uniform(4), /*seed=*/21);
  const auto step = adv.refine(2, PartialInputMap::all_unset(4));
  EXPECT_TRUE(step.success);
  // Certifying phase 2's behaviour requires pinning input 0.
  EXPECT_GE(step.inputs_fixed, 1u);
  EXPECT_TRUE(step.f.is_set(0));
}

TEST(Adversary, Lemma41GeneratedMapsFollowD) {
  // The input map returned by GENERATE is distributed per D even though
  // the adversary fixes inputs early (Lemma 4.1): chi-square over all
  // 2^4 complete maps of the adaptive algorithm's input.
  const unsigned n = 4;
  std::map<std::uint32_t, double> counts;
  const int trials = 400;
  for (int i = 0; i < trials; ++i) {
    RandomAdversary adv(adaptive_algo, GsmConfig{}, n,
                        BitDistribution::uniform(n),
                        /*seed=*/1000 + i);
    const auto res = adv.generate(2);
    counts[res.final_map.as_mask()] += 1.0;
  }
  std::vector<double> observed, expected;
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    observed.push_back(counts[mask]);
    expected.push_back(trials / 16.0);
  }
  // df = 15; 45 is far beyond the 99.9th percentile (37.7).
  EXPECT_LT(chi_square(observed, expected), 45.0);
}

// A contention-heavy GSM program: every holder of a 1 funnels into one
// common cell — the shape REFINE's cell loop (lines 12-21) exists for.
void funnel_algo(GsmMachine& m, std::span<const Word> input) {
  const Addr in = m.alloc(input.size());
  for (std::size_t i = 0; i < input.size(); ++i)
    m.preload(in + i, std::vector<Word>{input[i]});
  const Addr sink = m.alloc(1);
  m.begin_phase();
  for (std::size_t i = 0; i < input.size(); ++i) m.read(i, in + i);
  m.commit_phase();
  m.begin_phase();
  for (std::size_t i = 0; i < input.size(); ++i) {
    const auto& cell = m.inbox(i)[0];
    if (!cell.empty() && cell[0] != 0)
      m.write(i, sink, static_cast<Word>(i + 1));
  }
  m.commit_phase();
}

TEST(Adversary, CellLoopForcesContentionOnFunnels) {
  // With a funnel, the adversary's cell loop must pin inputs so the
  // contended write really happens: forced_contention grows with the
  // number of 1s it fixes, and x = ceil(contention / beta).
  const unsigned n = 6;
  RandomAdversary adv(funnel_algo, GsmConfig{.alpha = 1, .beta = 2,
                                             .gamma = 1},
                      n, BitDistribution::uniform(n), /*seed=*/55);
  const auto step = adv.refine(2, PartialInputMap::all_unset(n));
  EXPECT_TRUE(step.success);
  EXPECT_GE(step.inputs_fixed, 1u);  // contention is input-dependent here
  EXPECT_GE(step.forced_contention, 1u);
  EXPECT_GE(step.x, ceil_div(step.forced_contention, 2));
}

TEST(Adversary, GoodnessMaintainedThroughRefinement) {
  // Assertion 4.1, executed: after each REFINE step the refined map is
  // still t-good for the exact analysis.
  RandomAdversary adv(or_tree_algo(2), GsmConfig{}, 6,
                      BitDistribution::uniform(6), /*seed=*/9);
  PartialInputMap f = PartialInputMap::all_unset(6);
  std::uint64_t fixed = 0;
  for (unsigned t = 1; t <= 3; ++t) {
    const auto step = adv.refine(t, f);
    ASSERT_TRUE(step.success);
    f = step.f;
    fixed += step.inputs_fixed;
    const auto ta = adv.analyze(f);
    const auto rep = check_t_good_s5(ta, std::min(t, ta.phases()), 1.0, 1.0,
                                     6.0, fixed);
    EXPECT_TRUE(rep.ok) << "after refine(" << t << ")";
  }
}

// ----- pinned REFINE chains --------------------------------------------------
//
// GENERATE on OR trees, every RefineOutcome pinned. The values were
// recorded when every step still re-ran the algorithm on all refinements;
// analyses derived along the chain must reproduce them exactly.

struct PinnedStep {
  std::uint64_t x, forced_rw, forced_contention, inputs_fixed,
      randomset_calls;
  bool success;
  const char* f;  ///< the refined map, one of 0 / 1 / * per input
};

struct PinnedChain {
  unsigned n, fanin;  ///< seed 100 + n + fanin, horizon T = 8
  std::uint64_t inputs_fixed_early;
  const char* final_map;
  std::vector<PinnedStep> steps;
};

const std::vector<PinnedChain>& pinned_chains() {
  static const std::vector<PinnedChain> chains = {
      {10, 2, 4, "0000101000",
       {{2, 2, 1, 0, 2, true, "**********"},
        {1, 1, 1, 2, 2, true, "00********"},
        {2, 2, 1, 0, 2, true, "00********"},
        {1, 1, 1, 2, 2, true, "0000******"},
        {2, 2, 1, 0, 2, true, "0000******"}}},
      {10, 3, 9, "1010010111",
       {{3, 3, 1, 0, 2, true, "**********"},
        {1, 1, 1, 3, 3, true, "101*******"},
        {3, 3, 1, 0, 2, true, "101*******"},
        {1, 1, 1, 6, 3, true, "101001011*"}}},
      {12, 2, 4, "010000101010",
       {{2, 2, 1, 0, 2, true, "************"},
        {1, 1, 1, 2, 3, true, "01**********"},
        {2, 2, 1, 0, 2, true, "01**********"},
        {1, 1, 1, 2, 2, true, "0100********"},
        {2, 2, 1, 0, 2, true, "0100********"}}},
      {12, 3, 9, "111010001000",
       {{3, 3, 1, 0, 2, true, "************"},
        {1, 1, 1, 3, 3, true, "111*********"},
        {3, 3, 1, 0, 2, true, "111*********"},
        {1, 1, 1, 6, 3, true, "111010001***"}}},
  };
  return chains;
}

std::string map_string(const PartialInputMap& f) {
  std::string s;
  for (unsigned i = 0; i < f.size(); ++i)
    s += f.is_set(i) ? static_cast<char>('0' + f.value(i)) : '*';
  return s;
}

void expect_pinned(const RefineOutcome& got, const PinnedStep& want) {
  EXPECT_EQ(got.x, want.x);
  EXPECT_EQ(got.forced_rw, want.forced_rw);
  EXPECT_EQ(got.forced_contention, want.forced_contention);
  EXPECT_EQ(got.inputs_fixed, want.inputs_fixed);
  EXPECT_EQ(got.randomset_calls, want.randomset_calls);
  EXPECT_EQ(got.success, want.success);
  EXPECT_EQ(map_string(got.f), want.f);
}

TEST(Adversary, GenerateOutcomesPinned) {
  for (const PinnedChain& c : pinned_chains()) {
    SCOPED_TRACE("n=" + std::to_string(c.n) +
                 " fanin=" + std::to_string(c.fanin));
    RandomAdversary adv(or_tree_algo(c.fanin), GsmConfig{}, c.n,
                        BitDistribution::uniform(c.n), 100 + c.n + c.fanin);
    const GenerateResult res = adv.generate(/*T=*/8);
    ASSERT_EQ(res.steps.size(), c.steps.size());
    for (std::size_t i = 0; i < c.steps.size(); ++i) {
      SCOPED_TRACE("step " + std::to_string(i));
      expect_pinned(res.steps[i], c.steps[i]);
    }
    EXPECT_EQ(res.total_big_steps, 8u);
    EXPECT_EQ(res.total_inputs_fixed_early, c.inputs_fixed_early);
    EXPECT_EQ(map_string(res.final_map), c.final_map);
  }
}

TEST(Adversary, OutOfOrderAnalyzeRunsAfresh) {
  // analyze(f_*) after a refined step asks for a map the cached analysis
  // does not refine: the answer must be a fresh analysis of f_*, and the
  // chain that continues from the refined map must not notice.
  const PinnedChain& c = pinned_chains()[0];
  const PartialInputMap all = PartialInputMap::all_unset(c.n);
  const TraceAnalysis fresh(or_tree_algo(c.fanin), GsmConfig{}, c.n, all);
  RandomAdversary adv(or_tree_algo(c.fanin), GsmConfig{}, c.n,
                      BitDistribution::uniform(c.n), 100 + c.n + c.fanin);
  PartialInputMap f = all;
  for (std::size_t i = 0; i < c.steps.size(); ++i) {
    SCOPED_TRACE("step " + std::to_string(i));
    const RefineOutcome step = adv.refine(static_cast<unsigned>(i + 1), f);
    expect_pinned(step, c.steps[i]);
    f = step.f;
    EXPECT_EQ(adv.analyze(f).base(), f);

    const TraceAnalysis back = adv.analyze(all);
    ASSERT_EQ(back.base(), all);
    ASSERT_EQ(back.phases(), fresh.phases());
    ASSERT_EQ(back.entities(), fresh.entities());
    for (std::size_t v = 0; v < fresh.entities().size(); ++v)
      for (unsigned t = 0; t <= fresh.phases(); ++t)
        for (std::uint32_t r = 0; r < fresh.refinements(); ++r)
          ASSERT_EQ(back.trace_id(v, t, r), fresh.trace_id(v, t, r));
  }
}

}  // namespace
}  // namespace parbounds
