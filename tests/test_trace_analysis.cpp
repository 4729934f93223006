#include "adversary/trace_analysis.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <stdexcept>
#include <string>

#include "adversary/or_adversary.hpp"
#include "algos/gsm_algos.hpp"
#include "util/rng.hpp"

namespace parbounds {
namespace {

// A two-phase toy: processor 0 reads input cell 0 and copies it to an
// output cell; processor 1 reads input cell 1 and does nothing with it.
void copy_algo(GsmMachine& m, std::span<const Word> input) {
  const Addr in = m.alloc(input.size());
  for (std::size_t i = 0; i < input.size(); ++i)
    m.preload(in + i, std::vector<Word>{input[i]});
  const Addr out = m.alloc(1);
  m.begin_phase();
  m.read(0, in + 0);
  m.read(1, in + 1);
  m.commit_phase();
  m.begin_phase();
  const Word v = m.inbox(0)[0].empty() ? 0 : m.inbox(0)[0][0];
  m.write(0, out, v);
  m.commit_phase();
}

TEST(TraceAnalysis, KnowSetsAreMinimal) {
  TraceAnalysis ta([](GsmMachine& m, std::span<const Word> in) {
    copy_algo(m, in);
  },
                   GsmConfig{}, 3, PartialInputMap::all_unset(3));
  EXPECT_EQ(ta.free_count(), 3u);
  EXPECT_EQ(ta.phases(), 2u);

  // Processor 0 knows input 0 only; processor 1 knows input 1 only;
  // nobody ever learns input 2.
  const auto p0 = ta.entity_index({false, 0});
  const auto p1 = ta.entity_index({false, 1});
  EXPECT_EQ(ta.know(p0, 1), (std::vector<unsigned>{0}));
  EXPECT_EQ(ta.know(p1, 1), (std::vector<unsigned>{1}));
  EXPECT_EQ(ta.know(p0, 0), (std::vector<unsigned>{}));  // before any read

  EXPECT_EQ(ta.aff_proc_count(0, 1), 1u);
  EXPECT_EQ(ta.aff_proc_count(2, 2), 0u);
}

TEST(TraceAnalysis, StatesAndDegrees) {
  TraceAnalysis ta([](GsmMachine& m, std::span<const Word> in) {
    copy_algo(m, in);
  },
                   GsmConfig{}, 2, PartialInputMap::all_unset(2));
  const auto p0 = ta.entity_index({false, 0});
  EXPECT_EQ(ta.states_count(p0, 0), 1u);
  EXPECT_EQ(ta.states_count(p0, 1), 2u);  // saw 0 or saw 1
  EXPECT_EQ(ta.deg_states(p0, 1), 1u);    // chi is a single variable
}

TEST(TraceAnalysis, OutputCellOfOrTreeDependsOnEverything) {
  const unsigned n = 4;
  TraceAnalysis ta(
      [](GsmMachine& m, std::span<const Word> in) {
        gsm_or_tree(m, in, 2);
      },
      GsmConfig{}, n, PartialInputMap::all_unset(n));
  const unsigned T = ta.phases();

  // Find the cell whose Know set is all n inputs at the end — the output.
  bool found = false;
  for (std::size_t v = 0; v < ta.entities().size(); ++v) {
    if (!ta.entities()[v].is_cell) continue;
    if (ta.know(v, T).size() == n) {
      found = true;
      // OR's 0-certificate is everything, a 1-certificate is one bit.
      EXPECT_EQ(ta.cert_at(v, T, 0), n);
      EXPECT_EQ(ta.cert_at(v, T, 0b0001), 1u);
      EXPECT_EQ(ta.deg_states(v, T), n);  // deg(OR_n) = n
    }
  }
  EXPECT_TRUE(found);
}

TEST(TraceAnalysis, RwAndContentionCounts) {
  TraceAnalysis ta([](GsmMachine& m, std::span<const Word> in) {
    copy_algo(m, in);
  },
                   GsmConfig{}, 2, PartialInputMap::all_unset(2));
  const auto p0 = ta.entity_index({false, 0});
  EXPECT_EQ(ta.rw_count(p0, 1, 0), 1u);
  EXPECT_EQ(ta.max_rw(p0, 1), 1u);
  EXPECT_EQ(ta.max_rw(p0, 2), 1u);  // the write
  EXPECT_EQ(ta.big_steps(1, 0), 1u);
}

TEST(TraceAnalysis, PartialBaseRestrictsRefinements) {
  PartialInputMap base(3);
  base.set(0, 1);
  TraceAnalysis ta([](GsmMachine& m, std::span<const Word> in) {
    copy_algo(m, in);
  },
                   GsmConfig{}, 3, base);
  EXPECT_EQ(ta.free_count(), 2u);
  EXPECT_EQ(ta.refinements(), 4u);
  // Processor 0 reads the FIXED input: a single state, Know empty.
  const auto p0 = ta.entity_index({false, 0});
  EXPECT_EQ(ta.states_count(p0, 1), 1u);
  EXPECT_TRUE(ta.know(p0, 1).empty());
}

// ----- derived analyses ------------------------------------------------------

// Every accessor of `got` equals that of `want`, trace ids included.
// Certificates are compared at two refinements per row (the search is
// exponential in the free count).
void expect_same_analysis(const TraceAnalysis& got,
                          const TraceAnalysis& want) {
  ASSERT_EQ(got.base(), want.base());
  ASSERT_EQ(got.free_vars(), want.free_vars());
  ASSERT_EQ(got.phases(), want.phases());
  ASSERT_EQ(got.entities(), want.entities());
  ASSERT_EQ(got.proc_count(), want.proc_count());
  const std::uint32_t R = want.refinements();
  for (unsigned t = 0; t <= want.phases(); ++t)
    for (std::uint32_t r = 0; r < R; ++r)
      ASSERT_EQ(got.big_steps(t, r), want.big_steps(t, r)) << t << " " << r;
  for (std::size_t v = 0; v < want.entities().size(); ++v) {
    const auto& e = want.entities()[v];
    ASSERT_EQ(got.entity_index(e), v);
    for (unsigned t = 0; t <= want.phases(); ++t) {
      for (std::uint32_t r = 0; r < R; ++r) {
        ASSERT_EQ(got.trace_id(v, t, r), want.trace_id(v, t, r))
            << "v=" << v << " t=" << t << " r=" << r;
        ASSERT_EQ(got.rw_count(v, t, r), want.rw_count(v, t, r));
        ASSERT_EQ(got.contention(v, t, r), want.contention(v, t, r));
      }
      EXPECT_EQ(got.max_rw(v, t), want.max_rw(v, t));
      EXPECT_EQ(got.max_contention(v, t), want.max_contention(v, t));
      EXPECT_EQ(got.states_count(v, t), want.states_count(v, t));
      EXPECT_EQ(got.know(v, t), want.know(v, t));
      EXPECT_EQ(got.deg_states(v, t), want.deg_states(v, t));
      EXPECT_EQ(got.cert_at(v, t, 0), want.cert_at(v, t, 0));
      EXPECT_EQ(got.cert_at(v, t, R - 1), want.cert_at(v, t, R - 1));
    }
    if (e.is_cell) {
      for (std::uint32_t r = 0; r < R; ++r)
        ASSERT_EQ(got.final_cell(e.id, r), want.final_cell(e.id, r));
    }
  }
  for (unsigned t = 0; t <= want.phases(); ++t)
    for (unsigned j = 0; j < want.free_count(); ++j) {
      EXPECT_EQ(got.aff_proc_count(j, t), want.aff_proc_count(j, t));
      EXPECT_EQ(got.aff_cell_count(j, t), want.aff_cell_count(j, t));
    }
}

// An input-ADAPTIVE program (the one the Lemma 4.1 adversary test uses):
// processor 0 reads input 0, then follows it to input 1 or input 2.
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

// Input-dependent shape: every processor reads its input; only when
// input 0 is 1 does a second phase run, in which the processors that
// read a 1 write into a sink nothing else touches. Fixing input 0 to 0
// removes both that phase and the sink.
void shrinking_algo(GsmMachine& m, std::span<const Word> input) {
  const Addr in = m.alloc(input.size());
  for (std::size_t i = 0; i < input.size(); ++i)
    m.preload(in + i, std::vector<Word>{input[i]});
  const Addr sink = m.alloc(1);
  m.begin_phase();
  for (std::size_t i = 0; i < input.size(); ++i) m.read(i, in + i);
  m.commit_phase();
  if (m.inbox(0)[0][0] == 0) return;
  m.begin_phase();
  for (std::size_t i = 0; i < input.size(); ++i)
    if (m.inbox(i)[0][0] != 0) m.write(i, sink, static_cast<Word>(i + 1));
  m.commit_phase();
}

struct ChainShrinkage {
  bool entities = false, phases = false;
};

// A refinement chain from f_*: fix nothing, then random batches of one to
// three inputs, then everything left. Each link is derived from the one
// before and compared with a fresh analysis of the same map.
ChainShrinkage check_chain(const GsmAlgorithm& algo, unsigned n,
                           std::uint64_t seed) {
  ChainShrinkage shrank;
  Rng rng(seed);
  PartialInputMap f = PartialInputMap::all_unset(n);
  TraceAnalysis derived(algo, GsmConfig{}, n, f);
  for (unsigned link = 0;; ++link) {
    std::vector<unsigned> unset = f.unset_indices();
    std::size_t fix = link == 0 ? 0 : 1 + rng.next_below(3);
    if (fix >= unset.size()) fix = unset.size();
    for (std::size_t k = 0; k < fix; ++k) {
      const auto pick = rng.next_below(unset.size());
      f.set(unset[pick], rng.next_bool() ? 1 : 0);
      unset.erase(unset.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    TraceAnalysis next(derived, f);
    shrank.entities |= next.entities().size() < derived.entities().size();
    shrank.phases |= next.phases() < derived.phases();
    const TraceAnalysis fresh(algo, GsmConfig{}, n, f);
    SCOPED_TRACE("n=" + std::to_string(n) + " seed=" + std::to_string(seed) +
                 " link=" + std::to_string(link));
    expect_same_analysis(next, fresh);
    derived = std::move(next);
    if (f.complete()) break;
  }
  return shrank;
}

TEST(TraceAnalysis, DerivedEqualsFresh) {
  const auto tree = [](unsigned fanin, bool parity) -> GsmAlgorithm {
    return [fanin, parity](GsmMachine& m, std::span<const Word> in) {
      if (parity)
        gsm_parity_tree(m, in, fanin);
      else
        gsm_or_tree(m, in, fanin);
    };
  };
  for (const std::uint64_t seed : {1u, 2u}) {
    check_chain(tree(2, false), 10, seed);
    check_chain(tree(3, false), 9, seed);
    check_chain(tree(2, true), 8, seed);
    check_chain(adaptive_algo, 6, seed);
  }
  ChainShrinkage shrank;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const ChainShrinkage s = check_chain(shrinking_algo, 6, seed);
    shrank.entities |= s.entities;
    shrank.phases |= s.phases;
  }
  EXPECT_TRUE(shrank.entities);
  EXPECT_TRUE(shrank.phases);
}

TEST(TraceAnalysis, DerivingFromANonRefiningMapThrows) {
  const GsmAlgorithm algo = [](GsmMachine& m, std::span<const Word> in) {
    copy_algo(m, in);
  };
  PartialInputMap one(3);
  one.set(0, 1);
  const TraceAnalysis ta(algo, GsmConfig{}, 3, one);
  PartialInputMap zero(3);
  zero.set(0, 0);
  EXPECT_THROW(TraceAnalysis(ta, zero).phases(), std::invalid_argument);
  EXPECT_THROW(TraceAnalysis(ta, PartialInputMap::all_unset(3)).phases(),
               std::invalid_argument);  // unsets a fixed input
  EXPECT_THROW(TraceAnalysis(ta, PartialInputMap(4)).phases(),
               std::invalid_argument);
  PartialInputMap more = one;
  more.set(2, 0);
  EXPECT_EQ(TraceAnalysis(ta, more).free_count(), 1u);
}

// ----- subcube certificates --------------------------------------------------

TEST(SubcubeCertificate, KnownColourings) {
  // Parity colouring: every point needs all coordinates fixed.
  const auto parity = [](std::uint32_t x) {
    return static_cast<std::uint32_t>(std::popcount(x) & 1);
  };
  for (std::uint32_t r = 0; r < 16; ++r)
    EXPECT_EQ(subcube_certificate(4, parity, r), 4u);

  // First-bit colouring: one coordinate suffices.
  const auto bit0 = [](std::uint32_t x) { return x & 1u; };
  EXPECT_EQ(subcube_certificate(4, bit0, 0), 1u);
  EXPECT_EQ(subcube_certificate_set(4, bit0, 0), 1u);  // set = {0}

  // Constant colouring: empty certificate.
  const auto c = [](std::uint32_t) { return 7u; };
  EXPECT_EQ(subcube_certificate(4, c, 9), 0u);
  EXPECT_EQ(subcube_certificate_set(4, c, 9), 0u);
}

}  // namespace
}  // namespace parbounds
