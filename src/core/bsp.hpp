#pragma once
// The Bulk-Synchronous Parallel machine, Section 2.1 (3) [Valiant 1990].
//
// p processor/memory components communicate by point-to-point messages.
// A computation is a sequence of supersteps; within a superstep each
// processor does local work and sends/receives messages; all messages sent
// in a superstep arrive before the next superstep starts. With
//   w = max_i w_i   (local work),
//   h = max_i max(s_i, r_i)  (the h-relation routed),
// the superstep costs max(w, g*h, L). The paper assumes L >= g throughout;
// the constructor enforces that.
//
// Driver protocol mirrors QsmMachine:
//
//   BspMachine m({.p = 64, .g = 2, .L = 16});
//   m.begin_superstep();
//   m.send(src, dst, value);
//   m.local(src, ops);
//   m.commit_superstep();
//   ... m.inbox(dst) ...   // Messages delivered, visible from now on.
//
// The input of size n is partitioned uniformly: component i holds either
// ceil(n/p) or floor(n/p) inputs (block distribution, helper below).

#include <cstdint>
#include <span>
#include <vector>

#include "core/cost.hpp"
#include "core/observer.hpp"
#include "core/phase_scan.hpp"
#include "core/qsm.hpp"  // for ModelViolation
#include "core/trace.hpp"

namespace parbounds {

struct BspConfig {
  std::uint64_t p = 1;   ///< number of components
  std::uint64_t g = 1;   ///< bandwidth parameter
  std::uint64_t L = 1;   ///< latency / synchronization parameter (L >= g)
  bool record_detail = false;
};

struct Message {
  ProcId source = 0;
  Word value = 0;
  Word tag = 0;  ///< optional small header chosen by the sender
};

class BspMachine {
 public:
  explicit BspMachine(BspConfig cfg);

  std::uint64_t p() const { return cfg_.p; }
  std::uint64_t g() const { return cfg_.g; }
  std::uint64_t L() const { return cfg_.L; }

  // ----- superstep protocol ---------------------------------------------
  void begin_superstep();
  void send(ProcId src, ProcId dst, Word value, Word tag = 0);
  void local(ProcId proc, std::uint64_t ops = 1);
  const PhaseTrace& commit_superstep();

  /// Messages received by `proc` in the last committed superstep.
  std::span<const Message> inbox(ProcId proc) const;

  // ----- accounting -----------------------------------------------------
  std::uint64_t time() const { return time_; }
  std::uint64_t supersteps() const { return trace_.phases.size(); }
  const ExecutionTrace& trace() const { return trace_; }

  /// Optional analysis hook, invoked after every commit_superstep.
  void set_observer(AnalysisObserver* obs) { observer_ = obs; }

  // ----- input partitioning (Section 2.1 (3)) -----------------------------
  /// Block distribution: inputs [lo, hi) assigned to component i when an
  /// n-element input is split over p components, |piece| in
  /// {floor(n/p), ceil(n/p)}.
  static std::pair<std::uint64_t, std::uint64_t> block_range(
      std::uint64_t n, std::uint64_t p, std::uint64_t i);

 private:
  struct SendReq {
    ProcId src;
    ProcId dst;
    Message msg;
  };

  BspConfig cfg_;
  bool in_step_ = false;
  std::uint64_t time_ = 0;
  ExecutionTrace trace_;
  AnalysisObserver* observer_ = nullptr;

  std::vector<SendReq> sends_;
  std::vector<std::pair<ProcId, std::uint64_t>> locals_;
  std::vector<std::vector<Message>> inboxes_;

  // Dense per-processor counters (p is fixed at construction). They are
  // zero between supersteps: commit_superstep re-zeroes exactly the
  // entries it touched, so accounting is O(#requests), not O(p).
  std::vector<std::uint64_t> send_cnt_;
  std::vector<std::uint64_t> recv_cnt_;
  std::vector<std::uint64_t> work_cnt_;
};

}  // namespace parbounds
