#include "runtime/sweep.hpp"

#include <chrono>
#include <cstring>
#include <utility>

#include "util/stats.hpp"

namespace parbounds::runtime {

namespace {

// DETLINT(det.wall-clock): wall_ms telemetry only; never enters results
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

std::vector<double> run_all(const ExperimentRunner& runner,
                            const std::vector<SweepCell>& cells,
                            const std::vector<std::uint32_t>& cell_of,
                            std::uint64_t base_seed) {
  return runner.run(cell_of.size(), base_seed,
                    [&](std::uint64_t trial, std::uint64_t seed) {
                      return cells[cell_of[trial]].run(seed);
                    });
}

}  // namespace

double speedup_vs_serial(const SweepResult& s) {
  if (s.serial_wall_ms <= 0.0 || s.wall_ms <= 0.0) return 1.0;
  return s.serial_wall_ms / s.wall_ms;
}

SweepResult run_sweep(const ExperimentRunner& runner, std::string title,
                      std::uint64_t base_seed, std::vector<SweepCell> cells,
                      bool serial_baseline) {
  SweepResult out;
  out.title = std::move(title);
  out.base_seed = base_seed;

  std::vector<std::uint32_t> cell_of;
  for (std::uint32_t c = 0; c < cells.size(); ++c)
    for (unsigned r = 0; r < cells[c].trials; ++r) cell_of.push_back(c);

  const auto t0 = Clock::now();
  const auto costs = run_all(runner, cells, cell_of, base_seed);
  out.wall_ms = ms_since(t0);

  if (serial_baseline && runner.jobs() == 1) {
    // The run above already was the serial run: re-running it would
    // double the wall for a cross-check that cannot fail.
    out.serial_wall_ms = out.wall_ms;
  } else if (serial_baseline) {
    const ExperimentRunner serial({.jobs = 1});
    const auto t1 = Clock::now();
    const auto again = run_all(serial, cells, cell_of, base_seed);
    out.serial_wall_ms = ms_since(t1);
    // Bitwise, not operator== — the guarantee is bit-identity.
    out.deterministic =
        costs.size() == again.size() &&
        (costs.empty() ||
         std::memcmp(costs.data(), again.data(),
                     costs.size() * sizeof(double)) == 0);
  }

  out.cells = aggregate_cells(cells, costs);
  return out;
}

std::vector<CellResult> aggregate_cells(const std::vector<SweepCell>& cells,
                                        const std::vector<double>& costs) {
  std::vector<CellResult> out;
  out.reserve(cells.size());
  std::size_t next = 0;
  for (const auto& cell : cells) {
    CellResult cr;
    cr.key = cell.key;
    cr.lb = cell.lb;
    cr.ub = cell.ub;
    cr.costs.assign(costs.begin() + static_cast<std::ptrdiff_t>(next),
                    costs.begin() +
                        static_cast<std::ptrdiff_t>(next + cell.trials));
    next += cell.trials;
    cr.mean = mean(cr.costs);
    cr.p50 = percentile(cr.costs, 50.0);
    cr.p99 = percentile(cr.costs, 99.0);
    out.push_back(std::move(cr));
  }
  return out;
}

}  // namespace parbounds::runtime
