#pragma once
// Hot-path storage for the phase-commit engines (QSM / GSM / CRCW).
//
// Three containers replace the per-phase `unordered_map` churn that used
// to dominate commit_phase profiles:
//
//  * CellStore<Cell> — shared memory with a flat-arena fast path. The
//    engines allocate addresses from 0 upward (`alloc`), so in practice
//    every hot cell lives in a dense low range: those cells are a direct
//    vector index (one load, no hashing). Addresses at or above
//    `dense_limit` fall back to a hash map, so the sparse unbounded
//    address space of the model is still honoured. A `dense_limit` of 0
//    turns the arena off entirely — the map-only reference configuration
//    the equivalence tests compare against.
//
//  * ReadDelivery — the read results of one phase of the word-valued
//    engines (QSM, CRCW) in a single flat buffer, CSR style: a count
//    pass and a fill pass over the phase's reads, every processor's
//    values contiguous and in issue order. Per-processor slots are
//    epoch-stamped (dense ids) or kept in a per-phase sorted vector
//    (ids above the dense limit), so a commit costs O(reads) and no
//    processor owns a heap allocation.
//
//  * InboxTable<Box> — per-processor delivery boxes indexed by dense
//    ProcId with an epoch counter instead of a per-phase `clear()`. A
//    box is lazily reset the first time it is touched in a phase, so
//    its heap capacity survives across phases and nothing is rehashed.
//    Processor ids beyond the dense range spill into a map whose boxes
//    are epoch-reset the same way (erased never, cleared lazily). Only
//    the GSM uses it: a GSM read delivers a whole cell (a vector of
//    words), which does not flatten into one word buffer.
//
// All three preserve the observable "present vs absent" semantics of
// the maps they replace: a cell that was never stored reports absent
// (reads deliver the model's default contents), a processor that read
// nothing has an empty inbox, and `for_each` visits exactly the cells
// that were ever materialised — the GSM time-0 snapshot and the trace
// analysis depend on that.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/trace.hpp"

namespace parbounds {

template <class Cell>
class CellStore {
 public:
  /// Default span of the dense arena: 4M cells. Growth below the limit
  /// is lazy and geometric, so a machine only pays for the address range
  /// it actually touches.
  static constexpr std::uint64_t kDefaultDenseLimit = std::uint64_t{1} << 22;

  explicit CellStore(std::uint64_t dense_limit = kDefaultDenseLimit)
      : dense_limit_(dense_limit) {}

  /// Read-only lookup; nullptr when the cell was never stored.
  const Cell* find(Addr a) const {
    if (a < dense_limit_) {
      const auto i = static_cast<std::size_t>(a);
      return (i < dense_.size() && present_[i] != 0) ? &dense_[i] : nullptr;
    }
    const auto it = sparse_.find(a);
    return it == sparse_.end() ? nullptr : &it->second;
  }

  bool contains(Addr a) const { return find(a) != nullptr; }

  /// Mutable slot, creating (and marking present) the cell.
  Cell& slot(Addr a) {
    if (a < dense_limit_) {
      const auto i = static_cast<std::size_t>(a);
      if (i >= dense_.size()) grow(i + 1);
      present_[i] = 1;
      return dense_[i];
    }
    return sparse_[a];
  }

  /// Visit every stored cell as f(addr, cell). Dense cells first in
  /// ascending address order, then sparse cells in unspecified order —
  /// callers that need a canonical order sort, exactly as they did with
  /// the map this store replaced.
  template <class F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < dense_.size(); ++i)
      if (present_[i] != 0) f(static_cast<Addr>(i), dense_[i]);
    // DETLINT(det.unordered-iter): order documented unspecified; callers sort
    for (const auto& [a, c] : sparse_) f(a, c);
  }

  std::uint64_t dense_limit() const { return dense_limit_; }

  /// Pre-grow the arena so every dense address below `hi` has a slot.
  /// After this, concurrent slot() calls on *disjoint dense* addresses
  /// below `hi` are race-free (vector storage is fixed; present_ flags
  /// are distinct bytes). Returns true when the whole range is dense —
  /// the precondition for a range-partitioned parallel write pass;
  /// callers fall back to serial application when it is false.
  bool reserve_dense(Addr hi) {
    if (hi > dense_limit_) return false;
    const auto need = static_cast<std::size_t>(hi);
    if (need > dense_.size()) grow(need);
    return true;
  }

 private:
  void grow(std::size_t need) {
    std::size_t next = std::max<std::size_t>(need, dense_.size() * 2);
    next = std::min<std::size_t>(next,
                                 static_cast<std::size_t>(dense_limit_));
    dense_.resize(next);
    present_.resize(next, 0);
  }

  std::uint64_t dense_limit_;
  std::vector<Cell> dense_;
  std::vector<std::uint8_t> present_;
  std::unordered_map<Addr, Cell> sparse_;
};

/// One phase's read results for the word-valued engines, in CSR form.
/// deliver() rebuilds it from the phase's reads in two passes — count
/// the reads of every processor, then place each processor's segment at
/// its first read and fill it in issue order — into one flat buffer
/// whose capacity persists across phases. find(p) is the processor's
/// segment: its values in issue order, empty when it read nothing.
/// A segment stays valid until the next deliver().
class ReadDelivery {
 public:
  /// Dense range for processor ids (matches detail::kProcHistogramLimit);
  /// ids beyond it use a per-phase sorted vector.
  static constexpr ProcId kDenseLimit = ProcId{1} << 24;

  explicit ReadDelivery(ProcId dense_limit = kDenseLimit)
      : dense_limit_(dense_limit) {}

  /// Replace the delivered state with one phase of n reads: proc(i) is
  /// the reader of read i, value(i) its value. value is called exactly
  /// once per read, in issue order (engines record trace events there).
  template <class ProcFn, class ValueFn>
  void deliver(std::size_t n, ProcFn&& proc, ValueFn&& value) {
    if (n >= kUnplaced)
      throw std::length_error("ReadDelivery: too many reads in one phase");
    if (++epoch_ == 0) {  // wrapped: no stale slot may match the new epoch
      for (Slot& s : dense_) s.epoch = 0;
      epoch_ = 1;
    }
    high_.clear();
    high_ids_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const ProcId p = proc(i);
      if (p >= dense_limit_) {
        high_ids_.push_back(p);
        continue;
      }
      const auto j = static_cast<std::size_t>(p);
      if (j >= dense_.size())
        dense_.resize(std::min<std::size_t>(
            std::max(j + 1, dense_.size() * 2),
            static_cast<std::size_t>(dense_limit_)));
      Slot& s = dense_[j];
      if (s.epoch != epoch_) s = {epoch_, kUnplaced, 0};
      ++s.len;
    }
    if (!high_ids_.empty()) {
      std::sort(high_ids_.begin(), high_ids_.end());
      for (const ProcId p : high_ids_) {
        if (high_.empty() || high_.back().first != p)
          high_.push_back({p, {epoch_, kUnplaced, 0}});
        ++high_.back().second.len;
      }
    }
    values_.resize(n);
    std::uint32_t cursor = 0;
    for (std::size_t i = 0; i < n; ++i) {
      Slot& s = slot(proc(i));
      // `end` is the next free position of the segment; once the fill
      // pass is over it is the segment's end.
      if (s.end == kUnplaced) {
        s.end = cursor;
        cursor += s.len;
      }
      values_[s.end++] = value(i);
    }
  }

  /// Values delivered to p by the last deliver(), in issue order.
  std::span<const Word> find(ProcId p) const {
    const Slot* s = nullptr;
    if (p < dense_limit_) {
      const auto j = static_cast<std::size_t>(p);
      if (j < dense_.size() && dense_[j].epoch == epoch_) s = &dense_[j];
    } else {
      const auto it = lower(p);
      if (it != high_.end() && it->first == p) s = &it->second;
    }
    if (s == nullptr) return {};
    return {values_.data() + (s->end - s->len), s->len};
  }

 private:
  static constexpr std::uint32_t kUnplaced =
      std::numeric_limits<std::uint32_t>::max();
  struct Slot {
    std::uint32_t epoch;  ///< deliver() round that wrote the slot
    std::uint32_t end;    ///< segment end (kUnplaced before the fill)
    std::uint32_t len;    ///< reads by this processor
  };
  using HighSlots = std::vector<std::pair<ProcId, Slot>>;

  HighSlots::const_iterator lower(ProcId p) const {
    return std::lower_bound(
        high_.begin(), high_.end(), p,
        [](const auto& e, ProcId q) { return e.first < q; });
  }

  Slot& slot(ProcId p) {
    if (p < dense_limit_) return dense_[static_cast<std::size_t>(p)];
    return high_[static_cast<std::size_t>(lower(p) - high_.begin())]
        .second;
  }

  ProcId dense_limit_;
  std::uint32_t epoch_ = 0;  // 0 marks "never written" in dense_
  std::vector<Slot> dense_;
  HighSlots high_;  // this phase only, ascending by id
  std::vector<ProcId> high_ids_;
  std::vector<Word> values_;
};

template <class Box>
class InboxTable {
 public:
  /// Dense range for processor ids; ids beyond it use the spill map.
  static constexpr ProcId kDenseLimit = ProcId{1} << 20;

  /// Invalidate every box (lazily): boxes keep their heap capacity and
  /// are cleared on first touch in the new phase.
  void begin_phase() { ++epoch_; }

  /// Mutable box for processor p in the current phase.
  Box& box(ProcId p) {
    if (p < kDenseLimit) {
      const auto i = static_cast<std::size_t>(p);
      if (i >= dense_.size()) grow(i + 1);
      if (epochs_[i] != epoch_) {
        dense_[i].clear();
        epochs_[i] = epoch_;
      }
      return dense_[i];
    }
    auto& e = sparse_[p];
    if (e.first != epoch_) {
      e.second.clear();
      e.first = epoch_;
    }
    return e.second;
  }

  /// Box delivered to p in the current phase; nullptr when nothing was.
  const Box* find(ProcId p) const {
    if (p < kDenseLimit) {
      const auto i = static_cast<std::size_t>(p);
      return (i < dense_.size() && epochs_[i] == epoch_) ? &dense_[i]
                                                         : nullptr;
    }
    const auto it = sparse_.find(p);
    return (it != sparse_.end() && it->second.first == epoch_)
               ? &it->second.second
               : nullptr;
  }

 private:
  void grow(std::size_t need) {
    const std::size_t next = std::max<std::size_t>(need, dense_.size() * 2);
    dense_.resize(next);
    epochs_.resize(next, 0);
  }

  std::uint64_t epoch_ = 1;  // 0 marks "never touched" in epochs_
  std::vector<Box> dense_;
  std::vector<std::uint64_t> epochs_;
  std::unordered_map<ProcId, std::pair<std::uint64_t, Box>> sparse_;
};

}  // namespace parbounds
