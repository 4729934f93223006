#pragma once
// Exact trace analysis of a deterministic GSM algorithm over all
// refinements of a partial input map (Section 5.1 made executable).
//
// For small input counts (u = number of unset inputs <= ~14) the analyzer
// runs the algorithm once per refinement, interns canonical trace ids for
// every processor and cell after every phase, and computes exactly the
// quantities the lower-bound proofs reason about:
//
//   States(v, t, e)   — number of distinct traces (states_count)
//   deg(States(...))  — max degree of a trace class's characteristic
//                       function over the unset inputs (deg_states)
//   Know(v, t, e)     — the minimal determining input set (know)
//   AffProc / AffCell — how many processors/cells an input affects
//   Cert(v, t, f)     — certificate size of a trace at a full refinement
//
// Trace definitions follow the paper: a processor's trace is its id plus,
// per phase, the (cell, contents) pairs it read; a cell's trace is its
// contents (initial contents plus everything merged in by strong-queuing
// writes). Canonicalisation is structural, so two refinements get equal
// ids iff their traces are equal. Ids are numbered in order of first
// appearance — runs ascending, then phases, then entities — so the
// numbering, too, is a function of the traces alone.
//
// Derivation. A map f' that refines f fixes more inputs, so the runs
// under f' are a subset of the runs under f. The derived constructor
// selects those columns of an existing analysis, drops the entities that
// occur in none of them, and renumbers the ids; every accessor then
// equals that of a fresh analysis of f'. REFINE chains (adversary.hpp,
// parity_adversary.hpp) run the algorithm only for the chain's root.
//
// Restriction: analyzed algorithms must use single-word GSM writes (the
// event log records one Word per write), which all in-repo algorithms do.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "adversary/input_map.hpp"
#include "core/gsm.hpp"

namespace parbounds {

/// A deterministic algorithm under analysis: stages its input into the
/// machine (preload/load_inputs) and runs to completion.
using GsmAlgorithm =
    std::function<void(GsmMachine&, std::span<const Word> input)>;

class TraceAnalysis {
 public:
  struct Entity {
    bool is_cell = false;
    std::uint64_t id = 0;  ///< processor id or cell address
    bool operator<(const Entity& o) const {
      return std::tie(is_cell, id) < std::tie(o.is_cell, o.id);
    }
    bool operator==(const Entity& o) const = default;
  };

  /// Runs `algo` under every refinement of `base`.
  TraceAnalysis(GsmAlgorithm algo, GsmConfig cfg, unsigned n_inputs,
                const PartialInputMap& base);

  /// The analysis of `refined`, derived from `parent` without running the
  /// algorithm. Throws std::invalid_argument unless `refined` refines
  /// parent.base().
  TraceAnalysis(const TraceAnalysis& parent, const PartialInputMap& refined);

  const PartialInputMap& base() const { return base_; }
  unsigned free_count() const {
    return static_cast<unsigned>(free_vars_.size());
  }
  /// Original input indices of the free (unset) variables, in the order
  /// refinement-mask bits refer to them.
  const std::vector<unsigned>& free_vars() const { return free_vars_; }
  std::uint32_t refinements() const { return std::uint32_t{1} << free_count(); }

  unsigned phases() const { return phases_; }
  const std::vector<Entity>& entities() const { return entities_; }
  std::size_t entity_index(const Entity& e) const;
  std::size_t proc_count() const { return proc_count_; }

  /// Trace class id of entity `v` after phase t (t = 0 is the initial
  /// state) under refinement mask r.
  std::uint32_t trace_id(std::size_t v, unsigned t, std::uint32_t r) const;

  std::uint32_t states_count(std::size_t v, unsigned t) const;
  std::vector<unsigned> know(std::size_t v, unsigned t) const;
  unsigned deg_states(std::size_t v, unsigned t) const;
  unsigned cert_at(std::size_t v, unsigned t, std::uint32_t r) const;
  unsigned cert_max(std::size_t v, unsigned t) const;

  /// How many processor (resp. cell) entities have free var j in their
  /// Know set after phase t.
  unsigned aff_proc_count(unsigned j, unsigned t) const;
  unsigned aff_cell_count(unsigned j, unsigned t) const;

  /// Reads+writes issued by processor entity v in phase t (1-based) under
  /// refinement r; 0 for cells.
  std::uint64_t rw_count(std::size_t v, unsigned t, std::uint32_t r) const;
  std::uint64_t max_rw(std::size_t v, unsigned t) const;
  /// Contention (max of readers, writers) at cell entity v in phase t.
  std::uint64_t contention(std::size_t v, unsigned t, std::uint32_t r) const;
  std::uint64_t max_contention(std::size_t v, unsigned t) const;

  /// Big-steps consumed by phase t under refinement r (0 if that run had
  /// fewer phases).
  std::uint64_t big_steps(unsigned t, std::uint32_t r) const;

  /// Output-cell contents at the end of run r (peek of `addr`).
  std::vector<Word> final_cell(Addr addr, std::uint32_t r) const;

 private:
  using Memory = std::map<Addr, std::vector<Word>>;

  /// Flat index of (entity v, phase t, refinement r) in trace_ and acc_.
  std::size_t at(std::size_t v, unsigned t, std::uint32_t r) const {
    return (v * (phases_ + std::size_t{1}) + t) * refinements() + r;
  }
  /// The refinement row of entity v after phase t.
  const std::uint32_t* row(std::size_t v, unsigned t) const {
    return trace_.data() + at(v, t, 0);
  }
  bool knows(const std::uint32_t* row, unsigned j) const;
  std::uint64_t acc_at(std::size_t v, unsigned t, std::uint32_t r,
                       bool cell) const;
  std::uint64_t acc_max(std::size_t v, unsigned t, bool cell) const;
  unsigned aff_count(unsigned j, unsigned t, bool cells) const;
  /// Number the ids in order of first appearance (runs, phases, entities).
  void renumber(std::uint32_t id_bound);

  PartialInputMap base_;
  std::vector<unsigned> free_vars_;
  unsigned phases_ = 0;
  std::size_t proc_count_ = 0;
  std::vector<Entity> entities_;  // sorted: processors, then cells
  std::uint32_t id_count_ = 0;    // ids are 0 .. id_count_ - 1

  // [v][t][r] — interned trace ids, and the per-phase access count:
  // reads+writes for a processor, contention for a cell.
  std::vector<std::uint32_t> trace_;
  std::vector<std::uint32_t> acc_;
  std::vector<std::uint64_t> big_steps_;  // [t][r]
  std::vector<std::uint32_t> run_phases_;  // [r] phases run r committed
  std::vector<std::uint8_t> occurs_;       // [v][r] entity v occurs in run r

  // Final memory of every run of the chain's root analysis, shared along
  // the chain; final_run_[r] is run r's root index.
  std::shared_ptr<const std::vector<Memory>> final_mem_;
  std::vector<std::uint32_t> final_run_;
};

/// Generalised certificate machinery: minimal number of coordinates that
/// must be fixed (to their values in r) so that `colour` is constant on
/// the subcube. colour : {0,1}^u -> uint32. Exact; u <= 13.
unsigned subcube_certificate(unsigned u,
                             const std::function<std::uint32_t(std::uint32_t)>&
                                 colour,
                             std::uint32_t r);

/// Same search, but returns the (first smallest, lexicographically least)
/// certificate SET as a bitmask over the u coordinates — what the
/// Section 5 REFINE procedure calls Cert(v, t, h).
std::uint32_t subcube_certificate_set(
    unsigned u, const std::function<std::uint32_t(std::uint32_t)>& colour,
    std::uint32_t r);

}  // namespace parbounds
