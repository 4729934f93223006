#include "adversary/trace_analysis.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

#include "boolfn/boolfn.hpp"
#include "runtime/parallel_for.hpp"

namespace parbounds {

namespace {

// Key tags: the four kinds of trace value never share an id, whatever
// numbers their keys hold.
enum : std::int64_t { kProcStart, kCellStart, kProcStep, kCellStep };

// Structural interning: equal keys get equal ids, handed out densely in
// order of first interning. Keys sit back to back in one pool; an
// open-addressing table of id + 1 (0 = empty) finds them by hash.
class KeyInterner {
 public:
  std::uint32_t size() const {
    return static_cast<std::uint32_t>(hashes_.size());
  }

  std::uint32_t intern(std::span<const std::int64_t> key) {
    if (2 * (hashes_.size() + 1) > slots_.size()) grow();
    const std::uint64_t h = hash(key);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
      const std::uint32_t s = slots_[i];
      if (s == 0) {
        pool_.insert(pool_.end(), key.begin(), key.end());
        ends_.push_back(pool_.size());
        hashes_.push_back(h);
        slots_[i] = size();
        return size() - 1;
      }
      if (hashes_[s - 1] == h && std::ranges::equal(stored(s - 1), key))
        return s - 1;
    }
  }

 private:
  static std::uint64_t hash(std::span<const std::int64_t> key) {
    std::uint64_t h = key.size();
    for (const std::int64_t w : key) {
      h = (h ^ static_cast<std::uint64_t>(w)) * 0x9e3779b97f4a7c15ULL;
      h ^= h >> 29;
    }
    return h;
  }
  std::span<const std::int64_t> stored(std::uint32_t id) const {
    return {pool_.data() + ends_[id], pool_.data() + ends_[id + 1]};
  }
  void grow() {
    slots_.assign(std::max<std::size_t>(64, 2 * slots_.size()), 0);
    const std::size_t mask = slots_.size() - 1;
    for (std::uint32_t id = 0; id < size(); ++id) {
      std::size_t i = hashes_[id] & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = id + 1;
    }
  }

  std::vector<std::int64_t> pool_;
  std::vector<std::size_t> ends_{0};
  std::vector<std::uint64_t> hashes_;
  std::vector<std::uint32_t> slots_;
};

struct RunCapture {
  std::vector<PhaseTrace> phases;
  std::unordered_map<Addr, std::vector<Word>> initial;
};

}  // namespace

TraceAnalysis::TraceAnalysis(GsmAlgorithm algo, GsmConfig cfg,
                             unsigned n_inputs, const PartialInputMap& base)
    : base_(base), free_vars_(base.unset_indices()) {
  if (free_count() > 14)
    throw std::invalid_argument("TraceAnalysis limited to 14 free inputs");
  cfg.record_detail = true;
  const std::uint32_t R = refinements();

  // ----- run every refinement ------------------------------------------------
  std::vector<RunCapture> runs(R);
  std::vector<Memory> final_mem(R);
  std::vector<Word> input(n_inputs, 0);
  for (unsigned i = 0; i < n_inputs; ++i)
    if (base_.is_set(i)) input[i] = base_.value(i);
  for (std::uint32_t r = 0; r < R; ++r) {
    for (unsigned j = 0; j < free_count(); ++j)
      input[free_vars_[j]] = (r >> j) & 1u;
    GsmMachine m(cfg);
    algo(m, input);
    runs[r].phases = m.take_trace().phases;
    runs[r].initial = m.take_initial_memory();
    m.for_each_cell([&mem = final_mem[r]](Addr a,
                                          const std::vector<Word>& words) {
      mem.emplace(a, words);
    });
    phases_ =
        std::max(phases_, static_cast<unsigned>(runs[r].phases.size()));
  }
  final_mem_ =
      std::make_shared<const std::vector<Memory>>(std::move(final_mem));
  final_run_.resize(R);
  std::iota(final_run_.begin(), final_run_.end(), 0u);

  // ----- entity discovery ------------------------------------------------------
  std::unordered_map<std::uint64_t, std::uint32_t> proc_at, cell_at;
  for (const RunCapture& run : runs) {
    // DETLINT(det.unordered-iter): membership collect; sorted below
    for (const auto& [addr, words] : run.initial) cell_at.emplace(addr, 0);
    for (const PhaseTrace& ph : run.phases)
      for (const MemEvent& ev : ph.events) {
        proc_at.emplace(ev.proc, 0);
        cell_at.emplace(ev.addr, 0);
      }
  }
  // DETLINT(det.unordered-iter): membership collect; sorted below
  for (const auto& [p, v] : proc_at) entities_.push_back({false, p});
  // DETLINT(det.unordered-iter): membership collect; sorted below
  for (const auto& [a, v] : cell_at) entities_.push_back({true, a});
  std::sort(entities_.begin(), entities_.end());
  proc_count_ = proc_at.size();
  for (std::size_t v = 0; v < entities_.size(); ++v)
    (entities_[v].is_cell ? cell_at : proc_at)[entities_[v].id] =
        static_cast<std::uint32_t>(v);

  const std::size_t V = entities_.size();
  const std::size_t P = proc_count_;
  trace_.assign(V * (phases_ + 1) * R, 0);
  acc_.assign(trace_.size(), 0);
  big_steps_.assign((phases_ + std::size_t{1}) * R, 0);
  run_phases_.resize(R);
  occurs_.assign(V * R, 0);

  // ----- replay every run to intern trace ids ----------------------------------
  // Ids are interned run by run, phase by phase, entity by entity: the
  // order of first appearance the derived constructor renumbers to.
  const std::uint64_t mu = std::max<std::uint64_t>(
      1, std::max(cfg.alpha, cfg.beta));
  KeyInterner ids;
  std::vector<std::int64_t> key;
  std::vector<std::uint32_t> cur(V);  // entity -> trace id so far
  // Per-phase scratch, indexed by entity. count: a processor's reads and
  // writes, a cell's readers. keyed: the accesses that extend the trace —
  // a processor's reads, as (addr, cell id) pairs, and a cell's written
  // values — grouped per entity in grouped[start[v], start[v + 1]).
  std::vector<std::uint32_t> count(V), keyed(V);
  std::vector<std::size_t> start(V + 1), next_slot(V);
  std::vector<std::int64_t> grouped;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ev_at;  // (proc, cell)
  for (std::uint32_t r = 0; r < R; ++r) {
    const RunCapture& run = runs[r];
    run_phases_[r] = static_cast<std::uint32_t>(run.phases.size());

    for (std::size_t v = 0; v < V; ++v) {
      const Entity& e = entities_[v];
      key.assign({e.is_cell ? kCellStart : kProcStart,
                  static_cast<std::int64_t>(e.id)});
      if (e.is_cell) {
        const auto it = run.initial.find(e.id);
        if (it != run.initial.end()) {
          key.insert(key.end(), it->second.begin(), it->second.end());
          occurs_[v * R + r] = 1;
        }
      }
      cur[v] = ids.intern(key);
      trace_[at(v, 0, r)] = cur[v];
    }

    for (unsigned t = 1; t <= phases_; ++t) {
      if (t > run.phases.size()) {
        for (std::size_t v = 0; v < V; ++v) trace_[at(v, t, r)] = cur[v];
        continue;
      }
      const PhaseTrace& ph = run.phases[t - 1];
      big_steps_[t * std::size_t{R} + r] = ph.cost / mu;

      std::fill(count.begin(), count.end(), 0u);
      std::fill(keyed.begin(), keyed.end(), 0u);
      ev_at.clear();
      for (const MemEvent& ev : ph.events) {
        const std::uint32_t p = proc_at.at(ev.proc), c = cell_at.at(ev.addr);
        ev_at.emplace_back(p, c);
        occurs_[p * R + r] = occurs_[c * R + r] = 1;
        ++count[p];
        ++(ev.is_write ? keyed[c] : count[c]);
        if (!ev.is_write) ++keyed[p];
      }
      for (std::size_t v = 0; v < V; ++v)
        start[v + 1] = start[v] + keyed[v] * (v < P ? 2 : 1);
      grouped.resize(start[V]);
      std::copy(start.begin(), start.end() - 1, next_slot.begin());
      for (std::size_t e = 0; e < ph.events.size(); ++e) {
        const MemEvent& ev = ph.events[e];
        const auto [p, c] = ev_at[e];
        if (ev.is_write) {
          grouped[next_slot[c]++] = ev.value;
        } else {  // the cell's id at the start of the phase
          grouped[next_slot[p]++] = static_cast<std::int64_t>(ev.addr);
          grouped[next_slot[p]++] = cur[c];
        }
      }

      for (std::size_t v = 0; v < V; ++v) {
        if (keyed[v] == 0) continue;
        const auto first = grouped.begin() + start[v];
        const auto last = grouped.begin() + start[v + 1];
        // Strong queuing merges everything written; order within a phase
        // is immaterial, so the values are sorted.
        if (v >= P) std::sort(first, last);
        key.assign({v < P ? kProcStep : kCellStep, cur[v]});
        key.insert(key.end(), first, last);
        cur[v] = ids.intern(key);
      }
      for (std::size_t v = 0; v < V; ++v) {
        trace_[at(v, t, r)] = cur[v];
        acc_[at(v, t, r)] = v < P ? count[v] : std::max(count[v], keyed[v]);
      }
    }
  }
  id_count_ = ids.size();
}

TraceAnalysis::TraceAnalysis(const TraceAnalysis& parent,
                             const PartialInputMap& refined)
    : base_(refined),
      free_vars_(refined.unset_indices()),
      final_mem_(parent.final_mem_) {
  if (!refined.refines(parent.base_))
    throw std::invalid_argument(
        "TraceAnalysis: the map does not refine the parent's base");

  // The parent column of run r: the parent's free variables that
  // `refined` fixes take their values, the others take r's bits in order.
  const std::uint32_t R = refinements();
  const std::uint32_t PR = parent.refinements();
  std::uint32_t fixed = 0;
  std::vector<unsigned> bit_of;  // parent mask bit of free variable k
  for (unsigned j = 0; j < parent.free_count(); ++j) {
    const unsigned i = parent.free_vars_[j];
    if (!refined.is_set(i))
      bit_of.push_back(j);
    else if (refined.value(i) == 1)
      fixed |= std::uint32_t{1} << j;
  }
  std::vector<std::uint32_t> col(R, fixed);
  for (std::uint32_t r = 0; r < R; ++r)
    for (unsigned k = 0; k < free_count(); ++k)
      col[r] |= ((r >> k) & 1u) << bit_of[k];

  run_phases_.resize(R);
  final_run_.resize(R);
  for (std::uint32_t r = 0; r < R; ++r) {
    run_phases_[r] = parent.run_phases_[col[r]];
    final_run_[r] = parent.final_run_[col[r]];
    phases_ = std::max(phases_, run_phases_[r]);
  }

  // Keep the entities that occur in a selected run, in the parent's order.
  std::vector<std::size_t> from;
  for (std::size_t v = 0; v < parent.entities_.size(); ++v) {
    const std::uint8_t* occurs = parent.occurs_.data() + v * PR;
    if (std::none_of(col.begin(), col.end(),
                     [&](std::uint32_t c) { return occurs[c] != 0; }))
      continue;
    from.push_back(v);
    entities_.push_back(parent.entities_[v]);
    if (!entities_.back().is_cell) ++proc_count_;
  }

  const std::size_t V = entities_.size();
  trace_.resize(V * (phases_ + 1) * R);
  acc_.resize(trace_.size());
  occurs_.resize(V * R);
  big_steps_.resize((phases_ + std::size_t{1}) * R);
  for (std::size_t w = 0; w < V; ++w) {
    for (std::uint32_t r = 0; r < R; ++r)
      occurs_[w * R + r] = parent.occurs_[from[w] * PR + col[r]];
    for (unsigned t = 0; t <= phases_; ++t) {
      const std::size_t src = parent.at(from[w], t, 0);
      const std::size_t dst = at(w, t, 0);
      for (std::uint32_t r = 0; r < R; ++r) {
        trace_[dst + r] = parent.trace_[src + col[r]];
        acc_[dst + r] = parent.acc_[src + col[r]];
      }
    }
  }
  for (unsigned t = 0; t <= phases_; ++t)
    for (std::uint32_t r = 0; r < R; ++r)
      big_steps_[t * std::size_t{R} + r] =
          parent.big_steps_[t * std::size_t{PR} + col[r]];
  renumber(parent.id_count_);
}

void TraceAnalysis::renumber(std::uint32_t id_bound) {
  constexpr std::uint32_t kUnseen = ~std::uint32_t{0};
  std::vector<std::uint32_t> to(id_bound, kUnseen);
  std::uint32_t next = 0;
  for (std::uint32_t r = 0; r < refinements(); ++r)
    for (unsigned t = 0; t <= phases_; ++t)
      for (std::size_t v = 0; v < entities_.size(); ++v) {
        std::uint32_t& id = trace_[at(v, t, r)];
        if (to[id] == kUnseen) to[id] = next++;
        id = to[id];
      }
  id_count_ = next;
}

std::size_t TraceAnalysis::entity_index(const Entity& e) const {
  const auto it = std::lower_bound(entities_.begin(), entities_.end(), e);
  if (it == entities_.end() || !(*it == e))
    throw std::out_of_range("unknown entity");
  return static_cast<std::size_t>(it - entities_.begin());
}

std::uint32_t TraceAnalysis::trace_id(std::size_t v, unsigned t,
                                      std::uint32_t r) const {
  return trace_[at(v, t, r)];
}

std::uint32_t TraceAnalysis::states_count(std::size_t v, unsigned t) const {
  std::vector<std::uint32_t> ids(row(v, t), row(v, t) + refinements());
  std::sort(ids.begin(), ids.end());
  return static_cast<std::uint32_t>(
      std::unique(ids.begin(), ids.end()) - ids.begin());
}

bool TraceAnalysis::knows(const std::uint32_t* row, unsigned j) const {
  const std::uint32_t bit = std::uint32_t{1} << j;
  for (std::uint32_t r = 0; r < refinements(); ++r)
    if ((r & bit) == 0 && row[r] != row[r | bit]) return true;
  return false;
}

std::vector<unsigned> TraceAnalysis::know(std::size_t v, unsigned t) const {
  std::vector<unsigned> out;
  for (unsigned j = 0; j < free_count(); ++j)
    if (knows(row(v, t), j)) out.push_back(j);
  return out;
}

unsigned TraceAnalysis::deg_states(std::size_t v, unsigned t) const {
  // Build every characteristic function chi_id in ONE pass over the
  // refinement row (the old per-id BoolFn::from rescans made this
  // quadratic in the number of distinct trace ids). The degree() calls
  // below are the hot part; they run on the runtime-dispatched SIMD
  // word kernels (see src/boolfn/simd_kernels.hpp), bit-identical at
  // every dispatch level.
  const std::uint32_t* ids = row(v, t);
  const unsigned u = free_count();
  std::map<std::uint32_t, BoolFn> chi;
  for (std::uint32_t r = 0; r < refinements(); ++r)
    chi.try_emplace(ids[r], BoolFn(u)).first->second.set(r, true);
  unsigned best = 0;
  for (const auto& [id, fn] : chi) best = std::max(best, degree(fn));
  return best;
}

unsigned TraceAnalysis::cert_at(std::size_t v, unsigned t,
                                std::uint32_t r) const {
  const std::uint32_t* ids = row(v, t);
  return subcube_certificate(
      free_count(), [ids](std::uint32_t x) { return ids[x]; }, r);
}

unsigned TraceAnalysis::cert_max(std::size_t v, unsigned t) const {
  unsigned best = 0;
  for (std::uint32_t r = 0; r < refinements(); ++r)
    best = std::max(best, cert_at(v, t, r));
  return best;
}

// The per-entity membership tests are independent, so both Aff counts
// fan the entity range out over the pool; per-shard tallies are summed
// (commutative), so the counts are identical at any thread count.
unsigned TraceAnalysis::aff_count(unsigned j, unsigned t,
                                  bool cells) const {
  constexpr unsigned kMaxShards = 8;
  std::array<unsigned, kMaxShards> part{};
  const unsigned shards =
      runtime::ParallelFor::shard_count(entities_.size(), 16, kMaxShards);
  runtime::ParallelFor::pool().for_shards(
      entities_.size(), shards,
      [&](unsigned s, std::uint64_t lo, std::uint64_t hi) {
        unsigned c = 0;
        for (std::size_t v = lo; v < hi; ++v)
          if (entities_[v].is_cell == cells && knows(row(v, t), j)) ++c;
        part[s] = c;
      });
  unsigned c = 0;
  for (const unsigned p : part) c += p;
  return c;
}

unsigned TraceAnalysis::aff_proc_count(unsigned j, unsigned t) const {
  return aff_count(j, t, /*cells=*/false);
}

unsigned TraceAnalysis::aff_cell_count(unsigned j, unsigned t) const {
  return aff_count(j, t, /*cells=*/true);
}

// acc_ holds a processor's rw count and a cell's contention; each
// accessor reads 0 for the other kind of entity.
std::uint64_t TraceAnalysis::acc_at(std::size_t v, unsigned t,
                                    std::uint32_t r, bool cell) const {
  return entities_[v].is_cell == cell ? acc_[at(v, t, r)] : 0;
}

std::uint64_t TraceAnalysis::acc_max(std::size_t v, unsigned t,
                                     bool cell) const {
  if (entities_[v].is_cell != cell) return 0;
  const auto first = acc_.begin() + static_cast<std::ptrdiff_t>(at(v, t, 0));
  return *std::max_element(first, first + refinements());
}

std::uint64_t TraceAnalysis::rw_count(std::size_t v, unsigned t,
                                      std::uint32_t r) const {
  return acc_at(v, t, r, /*cell=*/false);
}

std::uint64_t TraceAnalysis::max_rw(std::size_t v, unsigned t) const {
  return acc_max(v, t, /*cell=*/false);
}

std::uint64_t TraceAnalysis::contention(std::size_t v, unsigned t,
                                        std::uint32_t r) const {
  return acc_at(v, t, r, /*cell=*/true);
}

std::uint64_t TraceAnalysis::max_contention(std::size_t v, unsigned t) const {
  return acc_max(v, t, /*cell=*/true);
}

std::uint64_t TraceAnalysis::big_steps(unsigned t, std::uint32_t r) const {
  return big_steps_[t * std::size_t{refinements()} + r];
}

std::vector<Word> TraceAnalysis::final_cell(Addr addr,
                                            std::uint32_t r) const {
  const Memory& mem = (*final_mem_)[final_run_[r]];
  const auto it = mem.find(addr);
  return it == mem.end() ? std::vector<Word>{} : it->second;
}

std::uint32_t subcube_certificate_set(
    unsigned u, const std::function<std::uint32_t(std::uint32_t)>& colour,
    std::uint32_t r) {
  if (u > 13) throw std::invalid_argument("subcube_certificate: u <= 13");
  const std::uint32_t full = (u == 0) ? 0 : ((std::uint32_t{1} << u) - 1);
  const std::uint32_t target = colour(r);
  // Try fixing sets S in increasing size; the subcube is {x : x&S == r&S}.
  for (unsigned k = 0; k <= u; ++k) {
    for (std::uint32_t S = 0; S <= full; ++S) {
      if (static_cast<unsigned>(std::popcount(S)) != k) continue;
      bool constant = true;
      for (std::uint32_t x = 0; x <= full && constant; ++x)
        if ((x & S) == (r & S) && colour(x) != target) constant = false;
      if (constant) return S;
      if (S == full) break;  // guard the S <= full wrap at u == 32
    }
  }
  return full;
}

unsigned subcube_certificate(
    unsigned u,
    const std::function<std::uint32_t(std::uint32_t)>& colour,
    std::uint32_t r) {
  return static_cast<unsigned>(
      std::popcount(subcube_certificate_set(u, colour, r)));
}

}  // namespace parbounds
