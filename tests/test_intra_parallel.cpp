// Intra-trial parallelism suite: the ParallelFor determinism contract
// and the bit-identity of everything built on it — big-phase commit
// in all four engines (costs, Random-write winners, delivered
// reads, violation messages), the parallel BoolFn transforms, and the
// adversary's per-entity fan-outs. Every test runs the same workload at
// pool sizes 1, 2 and 8 (and against the sharding-disabled serial
// path) and requires exact equality; `ctest -L intra` is rebuilt under
// TSan by tools/run_checks.sh, so these loops are also the data-race
// proof for the sharded path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <span>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "adversary/goodness.hpp"
#include "adversary/or_adversary.hpp"
#include "adversary/trace_analysis.hpp"
#include "boolfn/boolfn.hpp"
#include "core/bsp.hpp"
#include "core/crcw.hpp"
#include "core/gsm.hpp"
#include "core/phase_scan.hpp"
#include "core/qsm.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/simd_level.hpp"
#include "util/rng.hpp"

namespace parbounds {
namespace {

using runtime::ParallelFor;

// RAII: pin the pool to `t` threads for one scope.
struct PoolGuard {
  explicit PoolGuard(unsigned t) : saved(ParallelFor::pool().threads()) {
    ParallelFor::pool().set_threads(t);
  }
  ~PoolGuard() { ParallelFor::pool().set_threads(saved); }
  unsigned saved;
};

// RAII: lower (or raise) the sharded-commit threshold for one scope so
// small test phases exercise the sharded path.
struct KnobGuard {
  explicit KnobGuard(std::uint64_t v)
      : saved(detail::commit_shard_min_requests()) {
    detail::commit_shard_min_requests() = v;
  }
  ~KnobGuard() { detail::commit_shard_min_requests() = saved; }
  std::uint64_t saved;
};

constexpr std::uint64_t kForceSerial = ~std::uint64_t{0};
const unsigned kPoolSizes[] = {1, 2, 8};

// ----- ParallelFor ----------------------------------------------------------

TEST(ParallelFor, StaticPartitionIsThreadCountIndependent) {
  const std::uint64_t ns[] = {0, 1, 7, 64, 1000, 12345};
  for (const std::uint64_t n : ns) {
    for (const unsigned shards : {1u, 3u, 8u}) {
      std::vector<std::pair<std::uint64_t, std::uint64_t>> want;
      for (unsigned s = 0; s < shards; ++s)
        want.push_back({n * s / shards, n * (s + 1) / shards});
      for (const unsigned t : kPoolSizes) {
        PoolGuard pg(t);
        std::vector<std::pair<std::uint64_t, std::uint64_t>> got(shards);
        ParallelFor::pool().for_shards(
            n, shards, [&](unsigned s, std::uint64_t lo, std::uint64_t hi) {
              got[s] = {lo, hi};
            });
        EXPECT_EQ(got, want) << "n=" << n << " shards=" << shards
                             << " threads=" << t;
      }
    }
  }
}

TEST(ParallelFor, EveryIndexVisitedExactlyOnce) {
  PoolGuard pg(8);
  const std::uint64_t n = 100001;
  std::vector<std::uint8_t> hit(n, 0);
  ParallelFor::pool().for_shards(
      n, 8, [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
        for (std::uint64_t i = lo; i < hi; ++i) ++hit[i];
      });
  EXPECT_TRUE(std::all_of(hit.begin(), hit.end(),
                          [](std::uint8_t h) { return h == 1; }));
}

TEST(ParallelFor, ShardCountIsAPureFunctionOfN) {
  EXPECT_EQ(ParallelFor::shard_count(0, 16, 8), 1u);
  EXPECT_EQ(ParallelFor::shard_count(15, 16, 8), 1u);
  EXPECT_EQ(ParallelFor::shard_count(32, 16, 8), 2u);
  EXPECT_EQ(ParallelFor::shard_count(1 << 20, 16, 8), 8u);
  // No dependence on the pool: the signature has no thread parameter;
  // spot-check stability across resizes anyway.
  PoolGuard pg(4);
  EXPECT_EQ(ParallelFor::shard_count(32, 16, 8), 2u);
}

TEST(ParallelFor, NestedCallsRunInlineInShardOrder) {
  PoolGuard pg(4);
  std::mutex mu;
  std::vector<std::vector<unsigned>> inner_orders;
  ParallelFor::pool().for_shards(
      4, 4, [&](unsigned, std::uint64_t, std::uint64_t) {
        std::vector<unsigned> order;
        ParallelFor::pool().for_shards(
            6, 3, [&](unsigned s, std::uint64_t, std::uint64_t) {
              order.push_back(s);  // inline: no synchronization needed
            });
        const std::lock_guard<std::mutex> lock(mu);
        inner_orders.push_back(std::move(order));
      });
  ASSERT_EQ(inner_orders.size(), 4u);
  for (const auto& order : inner_orders)
    EXPECT_EQ(order, (std::vector<unsigned>{0, 1, 2}));
}

TEST(ParallelFor, FirstShardExceptionIsRethrownAndPoolSurvives) {
  PoolGuard pg(4);
  try {
    ParallelFor::pool().for_shards(
        8, 8, [&](unsigned s, std::uint64_t, std::uint64_t) {
          if (s >= 2) throw std::runtime_error("shard " + std::to_string(s));
        });
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "shard 2");  // lowest shard wins
  }
  // The pool must be fully quiesced and reusable.
  std::uint64_t sum = 0;
  std::mutex mu;
  ParallelFor::pool().for_shards(
      100, 4, [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
        const std::lock_guard<std::mutex> lock(mu);
        sum += hi - lo;
      });
  EXPECT_EQ(sum, 100u);
}

TEST(ParallelFor, ParallelSortMatchesStdSortOnDistinctKeys) {
  Rng rng(99);
  std::vector<std::pair<std::uint64_t, std::uint32_t>> v;
  for (std::uint32_t i = 0; i < (1u << 17); ++i)
    v.push_back({rng.next_below(1 << 20), i});  // issue index breaks ties
  auto want = v;
  std::sort(want.begin(), want.end());
  for (const unsigned t : kPoolSizes) {
    PoolGuard pg(t);
    auto got = v;
    runtime::parallel_sort(got, ParallelFor::pool(), /*grain=*/1024);
    EXPECT_EQ(got, want) << "threads=" << t;
  }
}

// ----- sharded phase commit: engines ----------------------------------------

constexpr std::uint64_t kProcs = 512;
constexpr std::uint64_t kCells = 2048;  // reads below kCells/2, writes above
constexpr unsigned kPhases = 3;
constexpr std::uint64_t kKnob = 64;  // every test phase takes the sharded path

struct EngineResult {
  std::vector<std::uint64_t> phase_costs;
  std::vector<std::uint64_t> commit_shards;  // per phase, from the trace
  std::uint64_t time = 0;
  std::uint64_t inbox_hash = 0;
  std::uint64_t mem_hash = 0;
};

template <class T>
void fold(std::uint64_t& h, T v) {
  h = h * 1000003 + static_cast<std::uint64_t>(v);
}

EngineResult run_qsm(std::uint64_t seed, WriteResolution wr) {
  EngineResult out;
  QsmMachine m({.g = 2, .writes = wr, .seed = seed});
  (void)m.alloc(kCells);
  const std::uint64_t half = kCells / 2;
  for (unsigned ph = 0; ph < kPhases; ++ph) {
    Rng ops(seed + ph);
    m.begin_phase();
    for (ProcId p = 0; p < kProcs; ++p) {
      m.read(p, ops.next_below(half));
      m.read(p, ops.next_below(half));
      m.write(p, half + ops.next_below(half),
              static_cast<Word>(1 + ops.next_below(1000)));
      m.write(p, half + ops.next_below(half),
              static_cast<Word>(1 + ops.next_below(1000)));
    }
    const PhaseTrace& t = m.commit_phase();
    out.phase_costs.push_back(t.cost);
    out.commit_shards.push_back(t.commit_shards);
    for (ProcId p = 0; p < kProcs; ++p)
      for (const Word w : m.inbox(p)) fold(out.inbox_hash, w);
  }
  for (Addr a = 0; a < kCells; ++a) fold(out.mem_hash, m.peek(a));
  out.time = m.time();
  return out;
}

void expect_equal(const EngineResult& a, const EngineResult& b,
                  const char* what) {
  EXPECT_EQ(a.phase_costs, b.phase_costs) << what;
  EXPECT_EQ(a.time, b.time) << what;
  EXPECT_EQ(a.inbox_hash, b.inbox_hash) << what;
  EXPECT_EQ(a.mem_hash, b.mem_hash) << what;
}

TEST(ShardedCommit, QsmBitIdenticalAcrossPathAndPoolSizes) {
  for (const WriteResolution wr :
       {WriteResolution::LastQueued, WriteResolution::Random}) {
    EngineResult serial;
    {
      KnobGuard kg(kForceSerial);
      PoolGuard pg(1);
      serial = run_qsm(7, wr);
    }
    EXPECT_TRUE(std::all_of(serial.commit_shards.begin(),
                            serial.commit_shards.end(),
                            [](std::uint64_t s) { return s == 0; }));
    for (const unsigned t : kPoolSizes) {
      KnobGuard kg(kKnob);
      PoolGuard pg(t);
      const EngineResult sharded = run_qsm(7, wr);
      expect_equal(serial, sharded, "qsm");
      // The trace records that the sharded path actually ran.
      EXPECT_TRUE(std::all_of(
          sharded.commit_shards.begin(), sharded.commit_shards.end(),
          [](std::uint64_t s) { return s == detail::kCommitShards; }));
    }
  }
}

EngineResult run_gsm(std::uint64_t seed) {
  EngineResult out;
  GsmMachine m({.alpha = 2, .beta = 3});
  (void)m.alloc(kCells);
  const std::uint64_t half = kCells / 2;
  for (unsigned ph = 0; ph < kPhases; ++ph) {
    Rng ops(seed + ph);
    m.begin_phase();
    for (ProcId p = 0; p < kProcs; ++p) {
      m.read(p, ops.next_below(half));
      m.write(p, half + ops.next_below(half),
              static_cast<Word>(1 + ops.next_below(1000)));
    }
    out.phase_costs.push_back(m.commit_phase().cost);
    for (ProcId p = 0; p < kProcs; ++p)
      for (const auto& cell : m.inbox(p))
        for (const Word w : cell) fold(out.inbox_hash, w);
  }
  // Strong queuing appends; canonicalize the cell walk by address.
  std::vector<std::pair<Addr, std::uint64_t>> cells;
  m.for_each_cell([&](Addr a, const std::vector<Word>& c) {
    std::uint64_t h = 0;
    for (const Word w : c) fold(h, w);
    cells.push_back({a, h});
  });
  std::sort(cells.begin(), cells.end());
  for (const auto& [a, h] : cells) {
    fold(out.mem_hash, a);
    fold(out.mem_hash, h);
  }
  out.time = m.time();
  return out;
}

TEST(ShardedCommit, GsmBitIdenticalAcrossPathAndPoolSizes) {
  EngineResult serial;
  {
    KnobGuard kg(kForceSerial);
    PoolGuard pg(1);
    serial = run_gsm(11);
  }
  for (const unsigned t : kPoolSizes) {
    KnobGuard kg(kKnob);
    PoolGuard pg(t);
    expect_equal(serial, run_gsm(11), "gsm");
  }
}

EngineResult run_bsp(std::uint64_t seed) {
  EngineResult out;
  BspMachine m({.p = kProcs, .g = 2, .L = 8});
  for (unsigned ph = 0; ph < kPhases; ++ph) {
    Rng ops(seed + ph);
    m.begin_superstep();
    for (ProcId p = 0; p < kProcs; ++p)
      for (int s = 0; s < 3; ++s)
        m.send(p, ops.next_below(kProcs),
               static_cast<Word>(ops.next_below(1000)),
               static_cast<Word>(p));
    out.phase_costs.push_back(m.commit_superstep().cost);
    for (ProcId p = 0; p < kProcs; ++p)
      for (const Message& msg : m.inbox(p)) {
        fold(out.inbox_hash, msg.source);
        fold(out.inbox_hash, msg.value);
        fold(out.inbox_hash, msg.tag);
      }
  }
  out.time = m.time();
  return out;
}

TEST(ShardedCommit, BspBitIdenticalAcrossPathAndPoolSizes) {
  EngineResult serial;
  {
    KnobGuard kg(kForceSerial);
    PoolGuard pg(1);
    serial = run_bsp(13);
  }
  for (const unsigned t : kPoolSizes) {
    KnobGuard kg(kKnob);
    PoolGuard pg(t);
    expect_equal(serial, run_bsp(13), "bsp");
  }
}

EngineResult run_crcw(std::uint64_t seed, CrcwWriteRule rule) {
  EngineResult out;
  CrcwMachine m({.rule = rule});
  (void)m.alloc(kCells);
  for (unsigned ph = 0; ph < kPhases; ++ph) {
    Rng ops(seed + ph);
    m.begin_step();
    for (ProcId p = 0; p < kProcs; ++p) {
      m.read(p, ops.next_below(kCells));
      // Writes may collide under Arbitrary/Priority; give each address
      // one value (derived from the address) so Common also passes.
      const Addr a = ops.next_below(kCells);
      m.write(p, a, static_cast<Word>(a * 3 + 1));
    }
    const PhaseTrace& t = m.commit_step();
    fold(out.inbox_hash, t.stats.kappa());
    out.phase_costs.push_back(t.cost);
    for (ProcId p = 0; p < kProcs; ++p)
      for (const Word w : m.inbox(p)) fold(out.inbox_hash, w);
  }
  for (Addr a = 0; a < kCells; ++a) fold(out.mem_hash, m.peek(a));
  out.time = m.time();
  return out;
}

TEST(ShardedCommit, CrcwBitIdenticalAcrossPathAndPoolSizes) {
  for (const CrcwWriteRule rule :
       {CrcwWriteRule::Common, CrcwWriteRule::Arbitrary,
        CrcwWriteRule::Priority}) {
    EngineResult serial;
    {
      KnobGuard kg(kForceSerial);
      PoolGuard pg(1);
      serial = run_crcw(17, rule);
    }
    for (const unsigned t : kPoolSizes) {
      KnobGuard kg(kKnob);
      PoolGuard pg(t);
      expect_equal(serial, run_crcw(17, rule), "crcw");
    }
  }
}

// ----- sharded phase commit: violation reporting -----------------------------

// A QSM phase reading and writing cells 120 and 37 must name the
// smallest conflicting address — on the serial path and on every
// sharded configuration.
std::string qsm_clash_message() {
  QsmMachine m({.g = 1});
  (void)m.alloc(kCells);
  m.begin_phase();
  for (ProcId p = 0; p < kProcs; ++p) {
    m.read(p, 120);
    m.read(p, 37);
    m.write(p, 120, 1);
    m.write(p, 37, 2);
  }
  try {
    m.commit_phase();
  } catch (const ModelViolation& e) {
    return e.what();
  }
  return "(no violation)";
}

TEST(ShardedCommit, QsmClashNamesSmallestAddressAtEveryPoolSize) {
  std::string serial;
  {
    KnobGuard kg(kForceSerial);
    PoolGuard pg(1);
    serial = qsm_clash_message();
  }
  EXPECT_EQ(serial, "cell 37 both read and written in one phase");
  for (const unsigned t : kPoolSizes) {
    KnobGuard kg(kKnob);
    PoolGuard pg(t);
    EXPECT_EQ(qsm_clash_message(), serial) << "threads=" << t;
  }
}

std::string gsm_clash_message() {
  GsmMachine m(GsmConfig{});
  (void)m.alloc(kCells);
  m.begin_phase();
  for (ProcId p = 0; p < kProcs; ++p) {
    m.read(p, 99);
    m.write(p, 99, 1);
  }
  try {
    m.commit_phase();
  } catch (const ModelViolation& e) {
    return e.what();
  }
  return "(no violation)";
}

TEST(ShardedCommit, GsmClashMessageStableAtEveryPoolSize) {
  std::string serial;
  {
    KnobGuard kg(kForceSerial);
    PoolGuard pg(1);
    serial = gsm_clash_message();
  }
  EXPECT_EQ(serial, "GSM cell both read and written in one phase");
  for (const unsigned t : kPoolSizes) {
    KnobGuard kg(kKnob);
    PoolGuard pg(t);
    EXPECT_EQ(gsm_clash_message(), serial) << "threads=" << t;
  }
}

// CRCW-Common: disagreeing writes to cells 300 and 41; the violation
// must name the smallest address AND leave exactly the groups below it
// applied (the detect-then-apply-prefix contract).
struct CommonOutcome {
  std::string message;
  std::uint64_t mem_hash = 0;
  bool operator==(const CommonOutcome&) const = default;
};

CommonOutcome crcw_common_outcome() {
  CrcwMachine m({.rule = CrcwWriteRule::Common});
  (void)m.alloc(kCells);
  m.begin_step();
  for (ProcId p = 0; p < kProcs; ++p) {
    // Agreeing writes everywhere below the conflicts keep the prefix
    // non-trivial.
    m.write(p, p % 40, 7);
    m.write(p, 300, static_cast<Word>(p % 2));  // disagree
    m.write(p, 41, static_cast<Word>(p % 3));   // disagree, smaller
  }
  CommonOutcome out;
  try {
    m.commit_step();
    out.message = "(no violation)";
  } catch (const ModelViolation& e) {
    out.message = e.what();
  }
  for (Addr a = 0; a < kCells; ++a) fold(out.mem_hash, m.peek(a));
  return out;
}

TEST(ShardedCommit, CrcwCommonConflictAndPrefixStateStable) {
  CommonOutcome serial;
  {
    KnobGuard kg(kForceSerial);
    PoolGuard pg(1);
    serial = crcw_common_outcome();
  }
  EXPECT_EQ(serial.message, "CRCW-Common: conflicting writes to cell 41");
  for (const unsigned t : kPoolSizes) {
    KnobGuard kg(kKnob);
    PoolGuard pg(t);
    EXPECT_EQ(crcw_common_outcome(), serial) << "threads=" << t;
  }
}

// ----- flat big-phase commit: scans, locals and delivery ---------------------

// Engines with processor ids on both sides of the processor dense
// limit and weighted locals (weights 0..5): with every phase big, the
// dense local-op counter, the flat delivery and the parallel apply
// reproduce the small-phase path's costs, stats and inboxes at every
// pool size.
struct FlatRun {
  std::vector<std::uint64_t> costs, m_op, ops, m_rw;
  std::uint64_t inbox_hash = 0;
  bool operator==(const FlatRun&) const = default;
};

template <class Machine>
FlatRun run_flat(std::uint64_t seed) {
  const std::vector<ProcId> procs = {0, 3, 77, kProcs - 1,
                                     detail::kProcHistogramLimit,
                                     detail::kProcHistogramLimit + 9,
                                     ProcId{1} << 40};
  constexpr bool kQsm = std::is_same_v<Machine, QsmMachine>;
  Machine m;
  (void)m.alloc(kCells);
  const std::uint64_t half = kCells / 2;
  FlatRun out;
  for (unsigned ph = 0; ph < 4; ++ph) {
    Rng ops(seed + ph);
    if constexpr (kQsm) {
      m.begin_phase();
    } else {
      m.begin_step();
    }
    for (unsigned i = 0; i < 2 * kProcs; ++i) {
      const ProcId p = i < kProcs ? i : procs[ops.next_below(procs.size())];
      m.read(p, ops.next_below(half));
      m.write(p, half + ops.next_below(half),
              static_cast<Word>(1 + ops.next_below(1000)));
      m.local(p, ops.next_below(6));
    }
    const PhaseTrace* t = nullptr;
    if constexpr (kQsm) {
      t = &m.commit_phase();
    } else {
      t = &m.commit_step();
    }
    out.costs.push_back(t->cost);
    out.m_op.push_back(t->stats.m_op);
    out.ops.push_back(t->stats.ops);
    out.m_rw.push_back(t->stats.m_rw);
    for (ProcId p = 0; p < kProcs; ++p)
      for (const Word w : m.inbox(p)) fold(out.inbox_hash, w);
    for (const ProcId p : procs)
      for (const Word w : m.inbox(p)) fold(out.inbox_hash, w);
  }
  return out;
}

TEST(ShardedCommit, FlatCommitAgreesWithSerialPathAtEveryPoolSize) {
  FlatRun qsm_serial, crcw_serial;
  {
    KnobGuard kg(kForceSerial);
    PoolGuard pg(1);
    qsm_serial = run_flat<QsmMachine>(41);
    crcw_serial = run_flat<CrcwMachine>(41);
  }
  for (const unsigned t : kPoolSizes) {
    KnobGuard kg(kKnob);
    PoolGuard pg(t);
    EXPECT_EQ(run_flat<QsmMachine>(41), qsm_serial) << "qsm threads=" << t;
    EXPECT_EQ(run_flat<CrcwMachine>(41), crcw_serial) << "crcw threads=" << t;
  }
}

// ----- parallel BoolFn transforms -------------------------------------------

TEST(ParallelBoolFn, TransformsBitIdenticalAcrossPoolSizes) {
  Rng rng(5);
  const BoolFn f = BoolFn::random(20, rng);
  const BoolFn g = BoolFn::random(20, rng);

  struct Probe {
    BoolFn combined;
    std::uint64_t ones;
    BoolFn fixed_lo, fixed_hi;
    unsigned deg, gf2;
    explicit Probe(const BoolFn& f, const BoolFn& g)
        : combined((f & g) ^ (~f | g)),
          ones(combined.count_ones()),
          fixed_lo(f.fix(2, true)),
          fixed_hi(f.fix(17, false)),
          deg(degree(f)),
          gf2(gf2_degree(f)) {}
  };

  PoolGuard base(1);
  const Probe serial(f, g);
  for (const unsigned t : kPoolSizes) {
    PoolGuard pg(t);
    const Probe par(f, g);
    EXPECT_EQ(par.combined, serial.combined) << "threads=" << t;
    EXPECT_EQ(par.ones, serial.ones);
    EXPECT_EQ(par.fixed_lo, serial.fixed_lo);
    EXPECT_EQ(par.fixed_hi, serial.fixed_hi);
    EXPECT_EQ(par.deg, serial.deg);
    EXPECT_EQ(par.gf2, serial.gf2);
  }
}

TEST(ParallelBoolFn, ChunkedDegreeTierStableAcrossPoolSizes) {
  // AND of the first 21 of 23 inputs: top coefficient and level n-1 are
  // zero and the dense tier caps at n = 22, so this lands in the
  // chunked Moebius tier — the tier the pool parallelizes. Since the
  // SIMD dispatch PR the prune bound is a per-shard maximum (a pure
  // function of the shard range), so the scan does identical work at
  // every pool size.
  const BoolFn f = BoolFn::from(23, [](std::uint32_t x) {
    return (x & 0x1FFFFFu) == 0x1FFFFFu;
  });
  for (const unsigned t : kPoolSizes) {
    PoolGuard pg(t);
    EXPECT_EQ(degree(f), 21u) << "threads=" << t;
  }
}

// RAII: pin the kernel dispatch level for one scope.
struct DispatchGuard {
  explicit DispatchGuard(runtime::SimdLevel l)
      : saved(runtime::active_simd_level()) {
    runtime::set_simd_level(l);
  }
  ~DispatchGuard() { runtime::set_simd_level(saved); }
  runtime::SimdLevel saved;
};

TEST(ParallelBoolFn, TransformsBitIdenticalAcrossDispatchAndPoolSizes) {
  // The full kernel matrix: every dispatch level the host supports,
  // crossed with every pool size, must reproduce the portable/1-thread
  // result bit for bit — connectives, fix, counting, both degree tiers,
  // the GF(2) transform and the Moebius coefficients.
  Rng rng(23);
  const BoolFn f = BoolFn::random(18, rng);
  const BoolFn g = BoolFn::random(18, rng);

  struct Probe {
    BoolFn combined;
    std::uint64_t ones;
    BoolFn fixed;
    unsigned deg, gf2, dense, chunked;
    std::vector<std::int64_t> coeffs;
    explicit Probe(const BoolFn& f, const BoolFn& g)
        : combined((f & g) ^ (~f | g)),
          ones(combined.count_ones()),
          fixed(combined.fix(4, true)),
          deg(degree(f)),
          gf2(gf2_degree(f)),
          dense(detail::degree_via_dense(f)),
          chunked(detail::degree_via_chunked(f)),
          coeffs(multilinear_coeffs(f)) {}
  };

  DispatchGuard base_level(runtime::SimdLevel::kPortable);
  PoolGuard base_pool(1);
  const Probe want(f, g);
  EXPECT_EQ(want.dense, want.deg);
  EXPECT_EQ(want.chunked, want.deg);

  for (const runtime::SimdLevel level : runtime::supported_simd_levels()) {
    DispatchGuard dg(level);
    for (const unsigned t : kPoolSizes) {
      PoolGuard pg(t);
      const Probe got(f, g);
      const char* name = runtime::simd_level_name(level);
      EXPECT_EQ(got.combined, want.combined) << name << " threads=" << t;
      EXPECT_EQ(got.ones, want.ones) << name << " threads=" << t;
      EXPECT_EQ(got.fixed, want.fixed) << name << " threads=" << t;
      EXPECT_EQ(got.deg, want.deg) << name << " threads=" << t;
      EXPECT_EQ(got.gf2, want.gf2) << name << " threads=" << t;
      EXPECT_EQ(got.dense, want.dense) << name << " threads=" << t;
      EXPECT_EQ(got.chunked, want.chunked) << name << " threads=" << t;
      EXPECT_EQ(got.coeffs, want.coeffs) << name << " threads=" << t;
    }
  }
}

// ----- adversary fan-outs ---------------------------------------------------

TEST(ParallelAdversary, AffCountsAndGoodnessStableAcrossPoolSizes) {
  const unsigned n = 4;
  const auto make_ta = [n] {
    return TraceAnalysis(
        [](GsmMachine& m, std::span<const Word> in) {
          gsm_or_tree(m, in, 2);
        },
        GsmConfig{}, n, PartialInputMap::all_unset(n));
  };

  PoolGuard base(1);
  const TraceAnalysis serial = make_ta();
  std::vector<unsigned> want_aff;
  for (unsigned t = 0; t <= serial.phases(); ++t)
    for (unsigned j = 0; j < serial.free_count(); ++j) {
      want_aff.push_back(serial.aff_proc_count(j, t));
      want_aff.push_back(serial.aff_cell_count(j, t));
    }
  const GoodnessReport want_s5 =
      check_t_good_s5(serial, 1, 1.0, 2.0, 16.0, 0);
  const GoodnessReport want_s7 = check_t_good_s7(serial, 1, 2.0);

  for (const unsigned threads : kPoolSizes) {
    PoolGuard pg(threads);
    const TraceAnalysis ta = make_ta();
    std::vector<unsigned> aff;
    for (unsigned t = 0; t <= ta.phases(); ++t)
      for (unsigned j = 0; j < ta.free_count(); ++j) {
        aff.push_back(ta.aff_proc_count(j, t));
        aff.push_back(ta.aff_cell_count(j, t));
      }
    EXPECT_EQ(aff, want_aff) << "threads=" << threads;

    const GoodnessReport s5 = check_t_good_s5(ta, 1, 1.0, 2.0, 16.0, 0);
    EXPECT_EQ(s5.ok, want_s5.ok);
    EXPECT_EQ(s5.violations, want_s5.violations);  // fold order preserved
    EXPECT_EQ(s5.max_deg_states, want_s5.max_deg_states);
    EXPECT_EQ(s5.max_states, want_s5.max_states);
    EXPECT_EQ(s5.max_know, want_s5.max_know);
    EXPECT_EQ(s5.max_aff, want_s5.max_aff);
    const GoodnessReport s7 = check_t_good_s7(ta, 1, 2.0);
    EXPECT_EQ(s7.ok, want_s7.ok);
    EXPECT_EQ(s7.violations, want_s7.violations);
    EXPECT_EQ(s7.max_know, want_s7.max_know);
  }
}

}  // namespace
}  // namespace parbounds
