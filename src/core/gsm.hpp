#pragma once
// The Generalized Shared Memory model (GSM), Section 2.2 — the paper's
// lower-bound model, strictly stronger than QSM, s-QSM and BSP.
//
// Differences from the QSM engine:
//  * Cells hold an arbitrarily large amount of information. We model a
//    cell's contents as a sequence of Words; reads deliver the whole cell.
//  * Strong queuing: with multiple writers to a cell, ALL written
//    information is transferred and appended to what the cell already
//    holds (nothing is lost, unlike the QSM's arbitrary-winner rule).
//  * Three parameters alpha, beta, gamma with mu = max(alpha, beta),
//    lambda = min(alpha, beta). A phase with maximum per-processor
//    read/write count m_rw and maximum contention kappa takes
//        b = max(ceil(m_rw / alpha), ceil(kappa / beta))
//    big-steps and costs mu * b time. One big-step "handles" alpha reads
//    and writes per processor and beta contention per cell.
//  * At time 0 every cell may contain information about up to gamma inputs
//    (disjoint across cells) — see load_inputs.

#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/observer.hpp"
#include "core/qsm.hpp"  // ModelViolation
#include "core/storage.hpp"
#include "core/trace.hpp"

namespace parbounds {

struct GsmConfig {
  std::uint64_t alpha = 1;
  std::uint64_t beta = 1;
  std::uint64_t gamma = 1;
  bool record_detail = false;
  /// Flat-arena span of shared memory; 0 = map-only reference path.
  std::uint64_t mem_dense_limit =
      CellStore<std::vector<Word>>::kDefaultDenseLimit;
};

class GsmMachine {
 public:
  explicit GsmMachine(GsmConfig cfg = {});

  std::uint64_t alpha() const { return cfg_.alpha; }
  std::uint64_t beta() const { return cfg_.beta; }
  std::uint64_t gamma() const { return cfg_.gamma; }
  std::uint64_t mu() const { return std::max(cfg_.alpha, cfg_.beta); }
  std::uint64_t lambda() const { return std::min(cfg_.alpha, cfg_.beta); }

  // ----- memory layout ----------------------------------------------------
  Addr alloc(std::uint64_t n);

  /// Initial input placement: distributes `inputs` over ceil(n/gamma)
  /// consecutive cells starting at `base`, gamma inputs per cell (the
  /// Section 2.2 assumption). Returns the number of cells used.
  std::uint64_t load_inputs(Addr base, std::span<const Word> inputs);

  /// Direct preload of one cell's contents (time-0 state, not charged).
  void preload(Addr a, std::span<const Word> contents);

  // ----- phase protocol -----------------------------------------------------
  void begin_phase();
  void read(ProcId p, Addr a);
  void write(ProcId p, Addr a, Word v);
  /// Write several words to a cell as ONE write request (the GSM lets a
  /// cell absorb arbitrary information; the request still counts once
  /// toward m_rw and contention).
  void write_block(ProcId p, Addr a, std::span<const Word> vs);
  const PhaseTrace& commit_phase();

  /// Cell contents delivered to processor p by its reads last phase;
  /// one entry per read, in issue order.
  std::span<const std::vector<Word>> inbox(ProcId p) const;

  // ----- accounting -----------------------------------------------------
  std::uint64_t time() const { return time_; }
  std::uint64_t big_steps() const { return big_steps_; }
  std::uint64_t phases() const { return trace_.phases.size(); }
  const ExecutionTrace& trace() const { return trace_; }

  std::span<const Word> peek(Addr a) const;

  /// Optional analysis hook, invoked after every commit_phase.
  void set_observer(AnalysisObserver* obs) { observer_ = obs; }

  /// Snapshot of shared memory taken at the first begin_phase — the
  /// "time 0" state the lower-bound trace analysis needs for initial cell
  /// traces (Section 5.1's Trace(c, 0, f)).
  const std::unordered_map<Addr, std::vector<Word>>& initial_memory() const {
    return initial_mem_;
  }

  /// Hand the recorded trace and the time-0 snapshot to the caller,
  /// leaving this machine's empty: trace analysis keeps thousands of
  /// finished runs and need not copy their event logs.
  ExecutionTrace take_trace() { return std::exchange(trace_, {}); }
  std::unordered_map<Addr, std::vector<Word>> take_initial_memory() {
    return std::exchange(initial_mem_, {});
  }

  /// Visit every materialised cell as f(addr, contents) — trace analysis
  /// and test inspection only. Dense-arena cells come first in ascending
  /// address order, then sparse cells in unspecified order; callers that
  /// need a canonical order sort (as they had to with the old map).
  template <class F>
  void for_each_cell(F&& f) const {
    mem_.for_each(std::forward<F>(f));
  }

 private:
  struct ReadReq {
    ProcId proc;
    Addr addr;
  };
  struct WriteReq {
    ProcId proc;
    Addr addr;
    std::vector<Word> values;
  };

  GsmConfig cfg_;
  CellStore<std::vector<Word>> mem_;
  std::unordered_map<Addr, std::vector<Word>> initial_mem_;
  bool started_ = false;
  Addr next_base_ = 0;
  bool in_phase_ = false;
  std::uint64_t time_ = 0;
  std::uint64_t big_steps_ = 0;
  ExecutionTrace trace_;
  AnalysisObserver* observer_ = nullptr;

  std::vector<ReadReq> reads_;
  std::vector<WriteReq> writes_;
  InboxTable<std::vector<std::vector<Word>>> inboxes_;

  // Reusable accounting scratch for commit_phase.
  detail::KeyHistogram proc_hist_{detail::kProcHistogramLimit};
  detail::KeyHistogram raddr_hist_{detail::kAddrHistogramLimit};
  detail::KeyHistogram waddr_hist_{detail::kAddrHistogramLimit};

  static const std::vector<std::vector<Word>> kEmpty;
  static const std::vector<Word> kEmptyCell;
};

}  // namespace parbounds
