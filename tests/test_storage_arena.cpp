// Equivalence tests for the flat-arena shared-memory fast path
// (CellStore / ReadDelivery / InboxTable, core/storage.hpp) and the
// flat big-phase commit built on it. Engine configs expose
// `mem_dense_limit`: addresses below it take a direct vector index,
// addresses at or above it fall back to the sparse map, and a limit of
// 0 disables the arena entirely — the map-only reference configuration.
// Every observable (phase costs, stats, delivered inboxes, memory
// contents) must be bit-identical across those configurations; these
// tests drive mixed sparse/dense workloads that deliberately straddle a
// small limit and compare against the reference.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/crcw.hpp"
#include "core/gsm.hpp"
#include "core/phase_scan.hpp"
#include "core/qsm.hpp"
#include "core/storage.hpp"
#include "util/rng.hpp"

namespace parbounds {
namespace {

// Small enough that ordinary tests cross it, and squarely inside the
// address ranges the workloads below touch.
constexpr std::uint64_t kSmallLimit = 32;

// Probe set straddling kSmallLimit AND the default arena span: dense
// cells, both sides of the small boundary, and far-sparse cells.
const std::vector<Addr> kProbeAddrs = {
    0,  1,  7,  kSmallLimit - 1,
    kSmallLimit,
    kSmallLimit + 1,
    1000,
    CellStore<Word>::kDefaultDenseLimit - 1,
    CellStore<Word>::kDefaultDenseLimit,
    CellStore<Word>::kDefaultDenseLimit + 17,
    Addr{1} << 40,
};

TEST(CellStore, PresentAbsentAcrossTheBoundary) {
  CellStore<Word> store(kSmallLimit);
  for (const Addr a : kProbeAddrs) EXPECT_EQ(store.find(a), nullptr);

  store.slot(kSmallLimit - 1) = 10;  // last dense cell
  store.slot(kSmallLimit) = 20;     // first sparse cell
  store.slot(Addr{1} << 40) = 30;   // deep sparse cell

  EXPECT_TRUE(store.contains(kSmallLimit - 1));
  EXPECT_TRUE(store.contains(kSmallLimit));
  EXPECT_TRUE(store.contains(Addr{1} << 40));
  EXPECT_EQ(*store.find(kSmallLimit - 1), 10);
  EXPECT_EQ(*store.find(kSmallLimit), 20);
  EXPECT_EQ(*store.find(Addr{1} << 40), 30);

  // Neighbours of stored cells stay absent: growing the arena to reach
  // address 31 must not make 0..30 spuriously present.
  EXPECT_FALSE(store.contains(0));
  EXPECT_FALSE(store.contains(kSmallLimit - 2));
  EXPECT_FALSE(store.contains(kSmallLimit + 1));
}

TEST(CellStore, MapOnlyReferenceIgnoresTheArena) {
  CellStore<Word> store(0);
  store.slot(0) = 5;
  store.slot(3) = 7;
  EXPECT_EQ(*store.find(0), 5);
  EXPECT_EQ(*store.find(3), 7);
  EXPECT_FALSE(store.contains(1));
}

TEST(CellStore, ForEachVisitsExactlyMaterialisedCells) {
  CellStore<Word> store(kSmallLimit);
  store.slot(4) = 40;
  store.slot(2) = 20;
  store.slot(kSmallLimit + 9) = 90;

  std::vector<std::pair<Addr, Word>> seen;
  store.for_each([&](Addr a, Word v) { seen.push_back({a, v}); });
  ASSERT_EQ(seen.size(), 3u);
  // Dense cells first in ascending address order, then the sparse cell.
  EXPECT_EQ(seen[0], (std::pair<Addr, Word>{2, 20}));
  EXPECT_EQ(seen[1], (std::pair<Addr, Word>{4, 40}));
  EXPECT_EQ(seen[2], (std::pair<Addr, Word>{kSmallLimit + 9, 90}));
}

TEST(InboxTable, EpochClearsBoxesLazily) {
  InboxTable<std::vector<Word>> inboxes;
  inboxes.begin_phase();
  inboxes.box(3).push_back(7);
  ASSERT_NE(inboxes.find(3), nullptr);
  EXPECT_EQ(inboxes.find(3)->size(), 1u);

  // New phase: the old box is invisible until touched, and the first
  // touch hands back an empty box (the stale 7 must not leak through).
  inboxes.begin_phase();
  EXPECT_EQ(inboxes.find(3), nullptr);
  inboxes.box(3).push_back(9);
  ASSERT_NE(inboxes.find(3), nullptr);
  ASSERT_EQ(inboxes.find(3)->size(), 1u);
  EXPECT_EQ((*inboxes.find(3))[0], 9);
}

// ----- ReadDelivery: flat read delivery vs a map reference -----------------

using Inboxes = std::map<ProcId, std::vector<Word>>;

void expect_inbox(std::span<const Word> got, const Inboxes& want, ProcId p,
                  const char* what) {
  const auto it = want.find(p);
  const std::vector<Word> expect =
      it == want.end() ? std::vector<Word>{} : it->second;
  EXPECT_EQ(std::vector<Word>(got.begin(), got.end()), expect)
      << what << " proc " << p;
}

TEST(ReadDelivery, NothingDeliveredBeforeTheFirstPhase) {
  const ReadDelivery d;
  EXPECT_TRUE(d.find(0).empty());
  EXPECT_TRUE(d.find(ProcId{1} << 40).empty());
}

// Random phases over ids on both sides of a small dense limit: repeated
// readers, processors that read nothing, and zero-read phases. Every
// processor's segment must equal the map reference in issue order, and
// value() must run exactly once per read, in issue order.
TEST(ReadDelivery, RandomPhasesMatchAMapReference) {
  constexpr ProcId kLimit = 16;
  const std::vector<ProcId> procs = {0,          1,          7,
                                     kLimit - 1, kLimit,     kLimit + 3,
                                     1000,       ProcId{1} << 40};
  ReadDelivery d(kLimit);
  Rng rng(11);
  for (int phase = 0; phase < 300; ++phase) {
    const std::uint64_t n = phase % 7 == 0 ? 0 : rng.next_below(48);
    std::vector<std::pair<ProcId, Word>> reads;
    Inboxes want;
    for (std::uint64_t i = 0; i < n; ++i) {
      const ProcId p = procs[rng.next_below(procs.size())];
      const auto v = static_cast<Word>(1 + rng.next_below(1000));
      reads.push_back({p, v});
      want[p].push_back(v);
    }
    std::size_t calls = 0;
    d.deliver(
        reads.size(), [&](std::size_t i) { return reads[i].first; },
        [&](std::size_t i) {
          EXPECT_EQ(i, calls++);
          return reads[i].second;
        });
    EXPECT_EQ(calls, reads.size());
    for (const ProcId p : procs) expect_inbox(d.find(p), want, p, "delivery");
  }
}

// ----- flat commit: QSM / CRCW inboxes and local ops vs references ---------

// One generated phase: reads, writes and weighted locals over processor
// ids on both sides of ReadDelivery::kDenseLimit (and of the processor
// histogram limit, which equals it). Writes and reads use disjoint
// cells, so the stream is legal under the QSM queue rule.
struct StreamPhase {
  std::vector<std::pair<ProcId, Addr>> reads;
  std::vector<std::tuple<ProcId, Addr, Word>> writes;
  std::vector<std::pair<ProcId, std::uint64_t>> locals;
};

std::vector<StreamPhase> make_stream(std::uint64_t seed) {
  constexpr ProcId kHigh = ReadDelivery::kDenseLimit;
  const std::vector<ProcId> procs = {0, 1, 2, 5, 9, 1000,
                                     kHigh, kHigh + 5, ProcId{1} << 40};
  constexpr Addr kCells = 48;
  Rng rng(seed);
  std::vector<StreamPhase> out(60);
  for (std::size_t ph = 0; ph < out.size(); ++ph) {
    StreamPhase& s = out[ph];
    std::vector<bool> written(kCells);
    for (Addr a = 0; a < kCells; ++a) written[a] = rng.next_below(4) == 0;
    const std::uint64_t nr = ph % 5 == 0 ? 0 : rng.next_below(40);
    for (std::uint64_t i = 0; i < nr; ++i) {
      const Addr a = rng.next_below(kCells);
      if (!written[a]) s.reads.push_back({procs[rng.next_below(procs.size())], a});
    }
    const std::uint64_t nw = rng.next_below(20);
    for (std::uint64_t i = 0; i < nw; ++i) {
      const Addr a = rng.next_below(kCells);
      if (written[a])
        s.writes.push_back({procs[rng.next_below(procs.size())], a,
                            static_cast<Word>(1 + rng.next_below(500))});
    }
    const std::uint64_t nl = rng.next_below(25);
    for (std::uint64_t i = 0; i < nl; ++i)
      s.locals.push_back(
          {procs[rng.next_below(procs.size())], rng.next_below(6)});
  }
  return out;
}

// Drives QsmMachine or CrcwMachine (Arbitrary = last queued) through the
// stream and checks every phase against a std::map memory and inbox
// reference and the sort-based local-op reference. Re-querying every
// processor after each commit also proves that no earlier phase's
// segment survives a later commit.
template <class Machine>
void check_stream(Machine& m, bool record, const char* what) {
  std::map<Addr, Word> mem;
  const auto stream = make_stream(record ? 5 : 3);
  for (const StreamPhase& s : stream) {
    Inboxes want;
    std::vector<MemEvent> want_events;
    for (const auto& [p, a] : s.reads) {
      const Word v = mem.count(a) != 0 ? mem[a] : 0;
      want[p].push_back(v);
      want_events.push_back({p, a, v, false});
    }
    std::vector<std::pair<std::uint64_t, std::uint64_t>> kv(s.locals.begin(),
                                                            s.locals.end());
    const detail::RunSum locals = detail::sort_max_run_sum(kv);

    const PhaseTrace* ph = nullptr;
    if constexpr (std::is_same_v<Machine, QsmMachine>) {
      m.begin_phase();
    } else {
      m.begin_step();
    }
    for (const auto& [p, a] : s.reads) m.read(p, a);
    for (const auto& [p, a, v] : s.writes) m.write(p, a, v);
    for (const auto& [p, w] : s.locals) m.local(p, w);
    if constexpr (std::is_same_v<Machine, QsmMachine>) {
      ph = &m.commit_phase();
    } else {
      ph = &m.commit_step();
    }

    EXPECT_EQ(ph->stats.m_op, locals.max_run) << what;
    EXPECT_EQ(ph->stats.ops, locals.total) << what;
    for (const ProcId p : {ProcId{0}, ProcId{1}, ProcId{2}, ProcId{3},
                           ProcId{5}, ProcId{9}, ProcId{1000},
                           ReadDelivery::kDenseLimit,
                           ReadDelivery::kDenseLimit + 5, ProcId{1} << 40})
      expect_inbox(m.inbox(p), want, p, what);
    if (record) {
      ASSERT_GE(ph->events.size(), want_events.size()) << what;
      for (std::size_t i = 0; i < want_events.size(); ++i) {
        EXPECT_EQ(ph->events[i].proc, want_events[i].proc) << what;
        EXPECT_EQ(ph->events[i].addr, want_events[i].addr) << what;
        EXPECT_EQ(ph->events[i].value, want_events[i].value) << what;
        EXPECT_FALSE(ph->events[i].is_write) << what;
      }
    }
    for (const auto& [p, a, v] : s.writes) mem[a] = v;
  }
  for (const auto& [a, v] : mem) EXPECT_EQ(m.peek(a), v) << what;
}

// RAII: set the big-phase threshold for one scope.
struct ShardKnob {
  explicit ShardKnob(std::uint64_t v)
      : saved(detail::commit_shard_min_requests()) {
    detail::commit_shard_min_requests() = v;
  }
  ~ShardKnob() { detail::commit_shard_min_requests() = saved; }
  std::uint64_t saved;
};

TEST(FlatCommit, QsmStreamsMatchMapReferences) {
  // Small phases only, then every phase big (parallel apply eligible).
  for (const std::uint64_t knob : {~std::uint64_t{0}, std::uint64_t{1}}) {
    ShardKnob k(knob);
    for (const bool record : {false, true}) {
      QsmMachine m({.g = 2, .record_detail = record});
      check_stream(m, record, record ? "qsm detail" : "qsm");
    }
  }
}

TEST(FlatCommit, CrcwStreamsMatchMapReferences) {
  for (const std::uint64_t knob : {~std::uint64_t{0}, std::uint64_t{1}}) {
    ShardKnob k(knob);
    CrcwMachine m({.rule = CrcwWriteRule::Arbitrary});
    check_stream(m, false, "crcw");
  }
}

// The dense local-op counter against the sort-based definition, with
// weights > 1, zero weights, repeated keys and keys above a small limit.
TEST(FlatCommit, WeightedHistogramMatchesSortReference) {
  detail::WeightedHistogram h(32);
  Rng rng(9);
  for (int round = 0; round < 200; ++round) {
    h.reset();
    std::vector<std::pair<std::uint64_t, std::uint64_t>> kv;
    const std::uint64_t n = rng.next_below(60);
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t key =
          rng.next_bool() ? rng.next_below(40) : (std::uint64_t{1} << 40) + rng.next_below(3);
      const std::uint64_t w = rng.next_below(7);
      kv.push_back({key, w});
      h.add(key, w);
    }
    const detail::RunSum want = detail::sort_max_run_sum(kv);
    const detail::RunSum got = h.result();
    EXPECT_EQ(got.max_run, want.max_run) << "round " << round;
    EXPECT_EQ(got.total, want.total) << "round " << round;
  }
}

// ----- QSM arena-vs-map equivalence ---------------------------------------

struct QsmObservation {
  std::vector<std::uint64_t> costs;
  std::vector<PhaseStats> stats;
  std::vector<std::vector<Word>> inboxes;
  std::vector<Word> memory;
};

bool operator==(const PhaseStats& a, const PhaseStats& b) {
  return a.m_op == b.m_op && a.m_rw == b.m_rw && a.kappa_r == b.kappa_r &&
         a.kappa_w == b.kappa_w && a.reads == b.reads &&
         a.writes == b.writes && a.ops == b.ops;
}

// Scripted mixed workload: contended writes and reads spread over the
// probe set, several phases, recording every observable.
QsmObservation run_qsm(std::uint64_t dense_limit) {
  QsmMachine m({.g = 3, .mem_dense_limit = dense_limit});
  QsmObservation obs;
  const auto commit = [&] {
    const auto& ph = m.commit_phase();
    obs.costs.push_back(ph.cost);
    obs.stats.push_back(ph.stats);
    for (ProcId p = 0; p < 4; ++p) {
      const auto box = m.inbox(p);
      obs.inboxes.emplace_back(box.begin(), box.end());
    }
  };

  // Phase 1: one write per probe address, plus contention on cell 0.
  m.begin_phase();
  for (std::size_t i = 0; i < kProbeAddrs.size(); ++i)
    m.write(i % 4, kProbeAddrs[i], static_cast<Word>(100 + i));
  m.write(3, kProbeAddrs[0], 999);
  commit();

  // Phase 2: read everything back, write fresh cells near the boundary.
  m.begin_phase();
  for (std::size_t i = 0; i < kProbeAddrs.size(); ++i)
    m.read(i % 4, kProbeAddrs[i]);
  m.write(0, kSmallLimit + 2, 7);
  m.write(1, kSmallLimit - 2, 8);
  commit();

  // Phase 3: re-read an untouched cell (absent => default 0) and
  // overwrite across the boundary.
  m.begin_phase();
  m.read(2, kSmallLimit + 3);
  m.write(2, kSmallLimit - 1, -5);
  m.write(3, kSmallLimit, -6);
  commit();

  for (const Addr a : kProbeAddrs) obs.memory.push_back(m.peek(a));
  obs.memory.push_back(m.peek(kSmallLimit + 2));
  obs.memory.push_back(m.peek(kSmallLimit - 2));
  return obs;
}

void expect_same(const QsmObservation& got, const QsmObservation& want) {
  EXPECT_EQ(got.costs, want.costs);
  EXPECT_EQ(got.inboxes, want.inboxes);
  EXPECT_EQ(got.memory, want.memory);
  ASSERT_EQ(got.stats.size(), want.stats.size());
  for (std::size_t i = 0; i < got.stats.size(); ++i)
    EXPECT_TRUE(got.stats[i] == want.stats[i]) << "phase " << i;
}

TEST(StorageArena, QsmMatchesMapOnlyReference) {
  const auto reference = run_qsm(0);  // map-only
  expect_same(run_qsm(kSmallLimit), reference);
  expect_same(run_qsm(CellStore<Word>::kDefaultDenseLimit), reference);
}

// Randomized crossing of the arena/map boundary: every phase mixes
// addresses on both sides of kSmallLimit; memory is compared against
// the reference machine after every commit, not just at the end.
TEST(StorageArena, QsmFuzzAcrossTheBoundary) {
  Rng rng(42);
  QsmMachine arena({.g = 2, .mem_dense_limit = kSmallLimit});
  QsmMachine reference({.g = 2, .mem_dense_limit = 0});
  for (int phase = 0; phase < 40; ++phase) {
    arena.begin_phase();
    reference.begin_phase();
    const std::uint64_t count = 1 + rng.next_below(12);
    for (std::uint64_t i = 0; i < count; ++i) {
      const ProcId p = rng.next_below(6);
      // Writes straddle the limit: [16, 80). Reads stay below 16 so the
      // queue rule can't trip.
      if (rng.next_bool()) {
        const Addr a = 16 + rng.next_below(64);
        const Word v = static_cast<Word>(rng.next_below(1000));
        arena.write(p, a, v);
        reference.write(p, a, v);
      } else {
        const Addr a = rng.next_below(16);
        arena.read(p, a);
        reference.read(p, a);
      }
    }
    const auto& pa = arena.commit_phase();
    const auto& pr = reference.commit_phase();
    ASSERT_EQ(pa.cost, pr.cost) << "phase " << phase;
    for (Addr a = 0; a < 80; ++a)
      ASSERT_EQ(arena.peek(a), reference.peek(a))
          << "cell " << a << " after phase " << phase;
  }
  EXPECT_EQ(arena.time(), reference.time());
}

// ----- GSM arena-vs-map equivalence ---------------------------------------

TEST(StorageArena, GsmMatchesMapOnlyReference) {
  const auto run = [](std::uint64_t dense_limit) {
    GsmMachine m({.alpha = 2, .beta = 3, .mem_dense_limit = dense_limit});
    std::vector<std::uint64_t> costs;

    m.begin_phase();
    m.write(0, kSmallLimit - 1, 1);
    m.write(1, kSmallLimit - 1, 2);  // strong queuing: both words kept
    m.write(2, kSmallLimit, 3);
    m.write(3, Addr{1} << 40, 4);
    costs.push_back(m.commit_phase().cost);

    m.begin_phase();
    m.read(0, kSmallLimit - 1);
    m.read(1, kSmallLimit);
    m.read(2, Addr{1} << 40);
    m.read(3, 5);  // never written: empty cell
    costs.push_back(m.commit_phase().cost);

    std::vector<std::vector<Word>> inboxes;
    for (ProcId p = 0; p < 4; ++p)
      for (const auto& cell : m.inbox(p))
        inboxes.push_back(cell);
    const auto below = m.peek(kSmallLimit - 1);
    const auto at = m.peek(kSmallLimit);
    std::vector<Word> peeks(below.begin(), below.end());
    peeks.insert(peeks.end(), at.begin(), at.end());
    return std::tuple(costs, inboxes, peeks, m.big_steps(), m.time());
  };

  const auto reference = run(0);
  EXPECT_EQ(run(kSmallLimit), reference);
  EXPECT_EQ(run(CellStore<std::vector<Word>>::kDefaultDenseLimit), reference);
}

// ----- CRCW arena-vs-map equivalence --------------------------------------

TEST(StorageArena, CrcwMatchesMapOnlyReference) {
  const auto run = [](std::uint64_t dense_limit) {
    CrcwMachine m({.rule = CrcwWriteRule::Priority,
                   .mem_dense_limit = dense_limit});
    m.begin_step();
    m.write(2, kSmallLimit - 1, 22);
    m.write(1, kSmallLimit - 1, 11);  // Priority: proc 1 wins
    m.write(3, kSmallLimit + 4, 33);
    // CRCW allows reading a cell written in the same step: the read
    // sees the pre-step value, absent => 0.
    m.read(0, kSmallLimit - 1);
    m.commit_step();

    m.begin_step();
    m.read(0, kSmallLimit - 1);
    m.read(1, kSmallLimit + 4);
    m.commit_step();

    std::vector<Word> seen;
    for (ProcId p = 0; p < 4; ++p)
      for (const Word v : m.inbox(p)) seen.push_back(v);
    return std::tuple(seen, m.peek(kSmallLimit - 1), m.peek(kSmallLimit + 4),
                      m.time());
  };

  const auto reference = run(0);
  EXPECT_EQ(run(kSmallLimit), reference);
  EXPECT_EQ(std::get<1>(reference), 11);
  EXPECT_EQ(std::get<2>(reference), 33);
}

}  // namespace
}  // namespace parbounds
