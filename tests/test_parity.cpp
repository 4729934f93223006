#include "algos/parity.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "algos/cost_kernels.hpp"
#include "core/rounds.hpp"
#include "util/mathx.hpp"
#include "workloads/generators.hpp"

namespace parbounds {
namespace {

Word ref_parity(const std::vector<Word>& v) {
  Word x = 0;
  for (const Word b : v) x ^= (b != 0) ? 1 : 0;
  return x;
}

struct ParityCase {
  std::uint64_t n;
  std::uint64_t g;
  std::uint64_t seed;
};

class ParityAlgos : public ::testing::TestWithParam<ParityCase> {};

TEST_P(ParityAlgos, TreeIsCorrect) {
  const auto [n, g, seed] = GetParam();
  QsmMachine m({.g = g, .model = CostModel::SQsm});
  Rng rng(seed);
  const auto input = bernoulli_array(n, 0.4, rng);
  const Addr in = m.alloc(n);
  m.preload(in, input);
  EXPECT_EQ(parity_tree(m, in, n), ref_parity(input));
}

TEST_P(ParityAlgos, CircuitEmulationIsCorrect) {
  const auto [n, g, seed] = GetParam();
  QsmMachine m({.g = g});
  Rng rng(seed + 1);
  const auto input = bernoulli_array(n, 0.5, rng);
  const Addr in = m.alloc(n);
  m.preload(in, input);
  EXPECT_EQ(parity_circuit(m, in, n), ref_parity(input));
}

TEST_P(ParityAlgos, CircuitEmulationCrFreeIsCorrect) {
  const auto [n, g, seed] = GetParam();
  QsmMachine m({.g = g, .model = CostModel::QsmCrFree});
  Rng rng(seed + 2);
  const auto input = bernoulli_array(n, 0.5, rng);
  const Addr in = m.alloc(n);
  m.preload(in, input);
  EXPECT_EQ(parity_circuit(m, in, n), ref_parity(input));
}

TEST_P(ParityAlgos, BspIsCorrect) {
  const auto [n, g, seed] = GetParam();
  BspMachine m({.p = 16, .g = g, .L = 4 * g});
  Rng rng(seed + 3);
  const auto input = bernoulli_array(n, 0.5, rng);
  EXPECT_EQ(parity_bsp(m, input), ref_parity(input));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParityAlgos,
    ::testing::Values(ParityCase{16, 1, 1}, ParityCase{17, 1, 2},
                      ParityCase{64, 4, 3}, ParityCase{100, 8, 4},
                      ParityCase{255, 16, 5}, ParityCase{1024, 2, 6},
                      ParityCase{333, 32, 7}));

TEST(ParityCircuit, ExplicitBlockSizes) {
  for (const unsigned block : {2u, 3u, 5u, 8u}) {
    QsmMachine m({.g = 4});
    Rng rng(block);
    const auto input = bernoulli_array(200, 0.5, rng);
    const Addr in = m.alloc(200);
    m.preload(in, input);
    EXPECT_EQ(parity_circuit(m, in, 200, block), ref_parity(input))
        << "block " << block;
  }
}

// Processors are named by odd assignment only: slot a mod 2^(k-1) per
// block, k+1 ids per slot. Every id any level uses stays below the
// first level's blocks * 2^(k-1) * (k+1) (later levels have fewer
// blocks and k no larger).
TEST(ParityCircuit, ProcessorIdsCoverOddAssignmentsOnly) {
  for (const unsigned block : {2u, 3u, 6u, 10u}) {
    for (const std::uint64_t n : {7ull, 64ull, 300ull}) {
      QsmMachine m({.g = 4, .record_detail = true});
      Rng rng(n + block);
      const auto input = bernoulli_array(n, 0.5, rng);
      const Addr in = m.alloc(n);
      m.preload(in, input);
      ASSERT_EQ(parity_circuit(m, in, n, block), ref_parity(input));
      const std::uint64_t k = std::min<std::uint64_t>(block, n);
      const std::uint64_t bound =
          ceil_div(n, k) * (std::uint64_t{1} << (k - 1)) * (k + 1);
      std::uint64_t max_id = 0, events = 0;
      for (const auto& ph : m.trace().phases)
        for (const MemEvent& e : ph.events) {
          max_id = std::max<std::uint64_t>(max_id, e.proc);
          ++events;
        }
      EXPECT_GT(events, 0u);
      EXPECT_LT(max_id, bound) << "n=" << n << " block=" << block;
    }
  }
}

TEST(ParityCircuit, EqualsXorForEverySizeAndBlock) {
  for (unsigned block = 2; block <= 10; ++block) {
    for (std::uint64_t n = 1; n <= 300; ++n) {
      QsmMachine m({.g = 4});
      Rng rng(n * 16 + block);
      const auto input = bernoulli_array(n, 0.5, rng);
      const Addr in = m.alloc(n);
      m.preload(in, input);
      ASSERT_EQ(parity_circuit(m, in, n, block), ref_parity(input))
          << "n=" << n << " block=" << block;
    }
  }
}

// The relabelling is injective, so no per-processor count — and no
// cost — may move. Literals recorded before the relabelling (seed 7).
TEST(ParityCircuit, CostsPinnedAcrossTheRelabelling) {
  struct Pin {
    CostModel model;
    std::uint64_t n, g;
    double cost;
  };
  const Pin pins[] = {
      {CostModel::Qsm, 1024, 4, 112},        {CostModel::Qsm, 1024, 16, 320},
      {CostModel::Qsm, 1024, 64, 1024},      {CostModel::Qsm, 4096, 4, 128},
      {CostModel::Qsm, 4096, 16, 384},       {CostModel::Qsm, 4096, 64, 1280},
      {CostModel::QsmCrFree, 1024, 4, 80},   {CostModel::QsmCrFree, 1024, 16, 256},
      {CostModel::QsmCrFree, 1024, 64, 1024}, {CostModel::QsmCrFree, 4096, 4, 96},
      {CostModel::QsmCrFree, 4096, 16, 256}, {CostModel::QsmCrFree, 4096, 64, 1024},
  };
  for (const Pin& p : pins)
    EXPECT_EQ(kernels::parity_circuit_cost(p.model, p.n, p.g, 7), p.cost)
        << (p.model == CostModel::Qsm ? "Qsm" : "QsmCrFree") << " n=" << p.n
        << " g=" << p.g;
}

TEST(ParityCircuit, BlockAutoSelection) {
  QsmMachine queued({.g = 64});
  EXPECT_EQ(parity_circuit_block(queued), 7u);  // log2(64)+1
  QsmMachine cr({.g = 64, .model = CostModel::QsmCrFree});
  EXPECT_EQ(parity_circuit_block(cr), 10u);  // min(g, cap)
  QsmMachine small({.g = 1});
  EXPECT_GE(parity_circuit_block(small), 2u);
}

TEST(ParityCircuit, PhaseCostStaysNearG) {
  // The whole point of the emulation: with k = log g + 1, every phase on
  // the QSM costs at most max(g, 2^(k-1)) = g (plus the O(1)-op local
  // work), so deeper levels never exceed O(g).
  const std::uint64_t g = 16;
  QsmMachine m({.g = g});
  Rng rng(99);
  const auto input = bernoulli_array(512, 0.5, rng);
  const Addr in = m.alloc(512);
  m.preload(in, input);
  parity_circuit(m, in, 512);
  for (const auto& ph : m.trace().phases)
    EXPECT_LE(ph.cost, 2 * g) << "a phase exceeded O(g)";
}

TEST(ParityCircuit, BeatsTreeForLargeG) {
  // Theta comparison behind Table 1's QSM parity entries: circuit
  // emulation O(g log n / loglog g) vs binary tree O(g log n).
  const std::uint64_t g = 64, n = 4096;
  Rng rng(5);
  const auto input = bernoulli_array(n, 0.5, rng);

  QsmMachine tree_m({.g = g});
  const Addr a = tree_m.alloc(n);
  tree_m.preload(a, input);
  parity_tree(tree_m, a, n);

  QsmMachine circ_m({.g = g});
  const Addr b = circ_m.alloc(n);
  circ_m.preload(b, input);
  parity_circuit(circ_m, b, n);

  EXPECT_LT(circ_m.time(), tree_m.time());
}

TEST(ParityRounds, CorrectAndRoundStructured) {
  const std::uint64_t n = 2048, p = 32;
  QsmMachine m({.g = 2});
  Rng rng(11);
  const auto input = bernoulli_array(n, 0.5, rng);
  const Addr in = m.alloc(n);
  m.preload(in, input);
  EXPECT_EQ(parity_rounds(m, in, n, p), ref_parity(input));
  const auto audit = audit_rounds_qsm(m.trace(), n, p, 4);
  EXPECT_TRUE(audit.all_rounds()) << audit.worst_ratio;
  // Theta(log n / log(n/p)) rounds: log 2048 / log 64 = 1.8 -> few phases.
  EXPECT_LE(audit.rounds, 8u);
}

TEST(ParityBsp, SuperstepsCostLEach) {
  BspMachine m({.p = 64, .g = 2, .L = 16});
  Rng rng(12);
  const auto input = bernoulli_array(8192, 0.5, rng);
  parity_bsp(m, input);
  // After the local-scan superstep every tree superstep costs exactly
  // max(g*h, L) = L (h = fanin = L/g).
  const auto& phases = m.trace().phases;
  for (std::size_t i = 1; i < phases.size(); ++i)
    EXPECT_LE(phases[i].cost, m.L());
}

TEST(Parity, EmptyAndSingleton) {
  QsmMachine m({.g = 1});
  const Addr in = m.alloc(1);
  m.preload(in, Word{1});
  EXPECT_EQ(parity_tree(m, in, 0), 0);
  EXPECT_EQ(parity_tree(m, in, 1), 1);
}

}  // namespace
}  // namespace parbounds
