#pragma once
// Execution traces.
//
// Every machine in parbounds appends one PhaseTrace per committed phase /
// superstep. Traces serve three consumers:
//
//  * the Claim 2.1 mapping executors (core/mapping.*), which replay a
//    recorded shared-memory or BSP execution on a GSM and compare costs;
//  * the round auditor (core/rounds.*), which checks the Section 2.3
//    definitions of a "round" phase by phase;
//  * the Random Adversary trace analysis (adversary/trace_analysis.*),
//    which needs full per-event detail and therefore turns on
//    `detail` recording for its (small) runs.

#include <cstdint>
#include <vector>

#include "core/cost.hpp"

namespace parbounds {

using ProcId = std::uint64_t;
using Addr = std::uint64_t;
using Word = std::int64_t;

/// One recorded memory event (detail mode only).
struct MemEvent {
  ProcId proc = 0;
  Addr addr = 0;
  Word value = 0;  ///< written value, or value delivered by the read
  bool is_write = false;
};

/// Summary of one committed phase or superstep.
struct PhaseTrace {
  PhaseStats stats;            ///< raw quantities (m_op, m_rw, kappa, ...)
  std::uint64_t cost = 0;      ///< charged cost under the machine's policy
  std::uint64_t h = 0;         ///< BSP only: the routed h-relation
  /// Shards of a big phase's apply passes (0 = small phase). Implementation
  /// telemetry, not a model quantity: stats and cost are bit-identical
  /// either way, so trace_io deliberately leaves these out of the CSV.
  std::uint32_t commit_shards = 0;
  /// Wall-clock of a big phase's accounting (scans, maxima, clash probe).
  std::uint64_t commit_merge_ns = 0;
  std::vector<MemEvent> events;  ///< populated only in detail mode
};

/// A full execution: machine-kind tag plus the per-phase sequence.
struct ExecutionTrace {
  enum class Kind : std::uint8_t { Qsm, SQsm, Bsp, Gsm, QsmGd } kind =
      Kind::Qsm;
  std::uint64_t g = 1;
  std::uint64_t d = 1;  ///< QSM(g,d) only
  std::uint64_t L = 0;  ///< BSP only
  std::vector<PhaseTrace> phases;

  std::uint64_t total_cost() const {
    std::uint64_t t = 0;
    for (const auto& ph : phases) t += ph.cost;
    return t;
  }
  std::uint64_t total_work(std::uint64_t p) const { return total_cost() * p; }
};

}  // namespace parbounds
