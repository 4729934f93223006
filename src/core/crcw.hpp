#pragma once
// A CRCW PRAM — the traditional model the paper positions itself
// against ("There are a large number of lower bound results known for
// computation on the traditional PRAM models", Section 1; the QRQW rule
// is "intermediate between the EREW and CRCW rules").
//
// Differences from the QSM engine:
//  * unit-cost synchronous steps: any number of processors may read or
//    write one cell in a step, and a step costs max(1, m_op);
//  * reads and writes may even target the same cell in one step — reads
//    see the pre-step value (standard CRCW semantics);
//  * concurrent writes resolve by a selectable rule:
//      Common   — all writers must agree, else ModelViolation (the
//                 strictest classic rule);
//      Arbitrary— any writer succeeds (we keep the last queued);
//      Priority — the lowest processor id wins.
//
// This machine powers the PRAM-vs-queuing comparison bench: the same
// problem costs Theta(1) (OR) or Theta(log n / loglog n) (parity,
// Beame-Hastad-tight) here, versus the Table 1 bounds once contention
// and bandwidth are charged.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/observer.hpp"
#include "core/qsm.hpp"  // ModelViolation
#include "core/storage.hpp"
#include "core/trace.hpp"

namespace parbounds {

enum class CrcwWriteRule : std::uint8_t { Common, Arbitrary, Priority };

struct CrcwConfig {
  CrcwWriteRule rule = CrcwWriteRule::Arbitrary;
  /// Flat-arena span of shared memory; 0 = map-only reference path.
  std::uint64_t mem_dense_limit = CellStore<Word>::kDefaultDenseLimit;
};

class CrcwMachine {
 public:
  explicit CrcwMachine(CrcwConfig cfg = {});

  Addr alloc(std::uint64_t n);
  void preload(Addr base, std::span<const Word> values);
  void preload(Addr addr, Word value);

  void begin_step();
  void read(ProcId p, Addr a);
  void write(ProcId p, Addr a, Word v);
  void local(ProcId p, std::uint64_t ops = 1);
  const PhaseTrace& commit_step();

  /// Values p read in the last committed step, in issue order; valid
  /// until the next commit_step.
  std::span<const Word> inbox(ProcId p) const;

  std::uint64_t time() const { return time_; }
  std::uint64_t steps() const { return trace_.phases.size(); }
  const ExecutionTrace& trace() const { return trace_; }
  Word peek(Addr a) const;

  /// Optional analysis hook, invoked after every commit_step.
  void set_observer(AnalysisObserver* obs) { observer_ = obs; }

 private:
  struct ReadReq {
    ProcId proc;
    Addr addr;
  };
  struct WriteReq {
    ProcId proc;
    Addr addr;
    Word value;
  };

  CrcwConfig cfg_;
  CellStore<Word> mem_;
  Addr next_base_ = 0;
  bool in_step_ = false;
  std::uint64_t time_ = 0;
  ExecutionTrace trace_;
  AnalysisObserver* observer_ = nullptr;

  std::vector<ReadReq> reads_;
  std::vector<WriteReq> writes_;
  std::vector<std::pair<ProcId, std::uint64_t>> locals_;
  ReadDelivery delivery_;

  // Reusable accounting scratch for commit_step.
  detail::KeyHistogram proc_hist_{detail::kProcHistogramLimit};
  detail::KeyHistogram addr_hist_{detail::kAddrHistogramLimit};
  detail::WeightedHistogram local_hist_{detail::kProcHistogramLimit};
  std::vector<std::pair<Addr, std::uint32_t>> wgroup_scratch_;
};

}  // namespace parbounds
