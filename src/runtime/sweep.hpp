#pragma once
// Sweep execution: a named grid of cells, each repeated over derived
// seeds, fanned across the ExperimentRunner and aggregated in trial
// order. This is the layer the bench harness, the fuzz tests and any
// future seed-sweep experiment share; the per-cell aggregates
// (mean/p50/p99) come from util/stats so every consumer summarizes the
// same way.
//
// Seeding discipline: the trial list is the concatenation of every
// cell's repetitions, in declaration order, and trial t runs with
// derive_seed(base_seed, t). Adding a cell changes the seeds of the
// cells after it (the grid is part of the experiment's identity) but
// never makes the result depend on thread count or scheduling.

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "runtime/runner.hpp"

namespace parbounds::runtime {

/// Service-routable description of a cell's trial body: a named cost
/// kernel (src/algos/cost_kernels.hpp via the service workload registry)
/// on a named engine with integer parameters. A cell that carries one
/// can be executed by the sweep service (docs/SERVICE.md) instead of its
/// `run` closure; the two must compute the identical cost — the
/// via-service byte-identity test in test_bench_json holds benches to
/// that. An empty `workload` means "closure only, not routable".
struct ServiceSpec {
  std::string engine;    ///< "qsm" | "sqsm" | "qsm-crfree" | "bsp" | ...
  std::string workload;  ///< registry name, e.g. "parity_circuit"
  std::vector<std::pair<std::string, std::uint64_t>> params;

  bool routable() const { return !workload.empty(); }
};

/// One grid point: `trials` repetitions of `run` over derived seeds.
/// lb/ub are the paper's bound values for the cell, carried through to
/// the JSON report (0 when not applicable).
struct SweepCell {
  std::string key;
  unsigned trials = 1;
  double lb = 0.0;
  double ub = 0.0;
  std::function<double(std::uint64_t seed)> run;
  ServiceSpec spec{};  ///< optional service routing (see ServiceSpec)
};

/// Aggregated results for one cell, in cell declaration order.
struct CellResult {
  std::string key;
  double lb = 0.0;
  double ub = 0.0;
  std::vector<double> costs;  ///< per-trial model costs, trial order
  double mean = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
};

/// One executed sweep. serial_wall_ms is 0 unless a serial baseline was
/// measured; `deterministic` then records whether the baseline
/// reproduced the parallel costs bit for bit (it must — a `false` here
/// means a trial body broke the seeding discipline).
struct SweepResult {
  std::string title;
  std::uint64_t base_seed = 0;
  std::vector<CellResult> cells;
  double wall_ms = 0.0;
  double serial_wall_ms = 0.0;
  bool deterministic = true;
};

/// Wall-clock speedup of the parallel run over the serial baseline
/// (1.0 when no baseline was measured).
double speedup_vs_serial(const SweepResult& s);

/// Slice per-trial costs (in cell-concatenation trial order, i.e. the
/// order run_sweep executes) back into per-cell aggregates. Shared by
/// run_sweep and the service-backed executor so both summarize the
/// same way — a precondition for their reports being byte-identical.
std::vector<CellResult> aggregate_cells(const std::vector<SweepCell>& cells,
                                        const std::vector<double>& costs);

/// Execute every (cell, repetition) trial through `runner`. When
/// `serial_baseline` is set and the runner is parallel (jobs > 1), the
/// whole sweep is re-run on one thread to time the serial path and
/// cross-check bit-identical results; at jobs 1 the run itself is the
/// serial baseline, so nothing runs twice and serial_wall_ms = wall_ms.
SweepResult run_sweep(const ExperimentRunner& runner, std::string title,
                      std::uint64_t base_seed, std::vector<SweepCell> cells,
                      bool serial_baseline = false);

}  // namespace parbounds::runtime
