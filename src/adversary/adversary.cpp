#include "adversary/adversary.hpp"

#include <algorithm>
#include <cmath>

#include "util/mathx.hpp"

namespace parbounds {

RandomAdversary::RandomAdversary(GsmAlgorithm algo, GsmConfig cfg,
                                 unsigned n_inputs, BitDistribution D,
                                 std::uint64_t seed)
    : algo_(std::move(algo)),
      cfg_(cfg),
      n_inputs_(n_inputs),
      D_(std::move(D)),
      rng_(seed) {}

const TraceAnalysis& RandomAdversary::analysis(const PartialInputMap& f) {
  if (last_ && last_->base() == f) return *last_;
  if (last_ && f.refines(last_->base()))
    last_ = TraceAnalysis(*last_, f);
  else
    last_.emplace(algo_, cfg_, n_inputs_, f);
  return *last_;
}

TraceAnalysis RandomAdversary::analyze(const PartialInputMap& f) {
  return analysis(f);
}

RefineOutcome RandomAdversary::refine(unsigned t, const PartialInputMap& f) {
  RefineOutcome out;
  out.f = f;
  const auto budget = static_cast<std::uint64_t>(
      std::pow(static_cast<double>(std::max<unsigned>(n_inputs_, 2)),
               2.0 / 3.0)) +
                      2;
  const double mu =
      static_cast<double>(std::max(cfg_.alpha, cfg_.beta));
  const auto w_cap = static_cast<std::size_t>(std::max(
      1.0, mu * safe_loglog2(static_cast<double>(
                    std::max<unsigned>(n_inputs_, 4)))));

  // ----- lines (4)-(10): force the busiest processor ------------------------
  bool done = false;
  while (!done && out.inputs_fixed <= budget) {
    const TraceAnalysis& ta = analysis(out.f);
    if (t > ta.phases()) break;  // algorithm already finished

    // MaxProc: processor with the largest possible rw count this phase.
    std::size_t best_v = 0;
    std::uint64_t best_rw = 0;
    for (std::size_t v = 0; v < ta.entities().size(); ++v) {
      if (ta.entities()[v].is_cell) continue;
      const std::uint64_t mrw = ta.max_rw(v, t);
      if (mrw > best_rw) {
        best_rw = mrw;
        best_v = v;
      }
    }
    if (best_rw == 0) {
      done = true;  // nobody reads or writes this phase
      break;
    }
    // MaxCertRWP: lexicographically least refinement achieving best_rw.
    std::uint32_t h = 0;
    for (std::uint32_t r = 0; r < ta.refinements(); ++r)
      if (ta.rw_count(best_v, t, r) == best_rw) {
        h = r;
        break;
      }
    // Cert of the processor's state entering the phase, under h.
    const std::uint32_t cert = subcube_certificate_set(
        ta.free_count(),
        [&](std::uint32_t x) { return ta.trace_id(best_v, t - 1, x); }, h);

    // RANDOMSET those inputs; if the draw matches h we are done.
    ++out.randomset_calls;
    bool match = true;
    for (unsigned j = 0; j < ta.free_count(); ++j) {
      if ((cert & (std::uint32_t{1} << j)) == 0) continue;
      const unsigned input = ta.free_vars()[j];
      const int want = (h >> j) & 1u;
      const int got = rng_.next_bool(D_.prob_one(input)) ? 1 : 0;
      out.f.set(input, got);
      ++out.inputs_fixed;
      if (got != want) match = false;
    }
    if (match) {
      // Re-evaluate the now-forced rw count under the refined map.
      const TraceAnalysis& ta2 = analysis(out.f);  // replaces ta
      std::uint64_t forced = 0;
      if (t <= ta2.phases())
        for (std::size_t v = 0; v < ta2.entities().size(); ++v)
          if (!ta2.entities()[v].is_cell)
            forced = std::max(forced, ta2.max_rw(v, t));
      out.forced_rw = forced;
      done = true;
    }
  }

  // ----- lines (12)-(21): force the most contended cell ----------------------
  done = false;
  while (!done && out.inputs_fixed <= budget) {
    const TraceAnalysis& ta = analysis(out.f);
    if (t > ta.phases()) break;

    std::size_t best_v = 0;
    std::uint64_t best_k = 0;
    for (std::size_t v = 0; v < ta.entities().size(); ++v) {
      if (!ta.entities()[v].is_cell) continue;
      const std::uint64_t k = ta.max_contention(v, t);
      if (k > best_k) {
        best_k = k;
        best_v = v;
      }
    }
    if (best_k == 0) {
      done = true;
      break;
    }
    std::uint32_t h = 0;
    for (std::uint32_t r = 0; r < ta.refinements(); ++r)
      if (ta.contention(best_v, t, r) == best_k) {
        h = r;
        break;
      }

    // ACCESS(c, t, h): processors touching the cell under h — their certs
    // (capped at mu*loglog n many processors) are the inputs to fix.
    std::uint32_t V_mask = 0;
    std::size_t taken = 0;
    for (std::size_t v = 0;
         v < ta.entities().size() && taken < w_cap; ++v) {
      if (ta.entities()[v].is_cell) continue;
      if (ta.rw_count(v, t, h) == 0) continue;
      V_mask |= subcube_certificate_set(
          ta.free_count(),
          [&](std::uint32_t x) { return ta.trace_id(v, t - 1, x); }, h);
      ++taken;
    }

    ++out.randomset_calls;
    bool match = true;
    for (unsigned j = 0; j < ta.free_count(); ++j) {
      if ((V_mask & (std::uint32_t{1} << j)) == 0) continue;
      const unsigned input = ta.free_vars()[j];
      const int want = (h >> j) & 1u;
      const int got = rng_.next_bool(D_.prob_one(input)) ? 1 : 0;
      out.f.set(input, got);
      ++out.inputs_fixed;
      if (got != want) match = false;
    }
    if (match) {
      const TraceAnalysis& ta2 = analysis(out.f);  // replaces ta
      std::uint64_t forced = 0;
      if (t <= ta2.phases())
        for (std::size_t v = 0; v < ta2.entities().size(); ++v)
          if (ta2.entities()[v].is_cell)
            forced = std::max(forced, ta2.max_contention(v, t));
      out.forced_contention = std::min<std::uint64_t>(
          forced, static_cast<std::uint64_t>(w_cap));
      done = true;
    }
  }

  out.success = out.inputs_fixed <= budget;
  out.x = std::max<std::uint64_t>(
      {1, ceil_div(out.forced_rw, cfg_.alpha),
       ceil_div(out.forced_contention, cfg_.beta)});
  return out;
}

GenerateResult RandomAdversary::generate(std::uint64_t T) {
  GenerateResult res;
  PartialInputMap f = PartialInputMap::all_unset(n_inputs_);
  unsigned phase = 1;
  while (res.total_big_steps < T) {
    RefineOutcome step = refine(phase, f);
    f = step.f;
    res.total_big_steps += step.x;
    res.total_inputs_fixed_early += step.inputs_fixed;
    const bool exhausted = step.forced_rw == 0 && step.forced_contention == 0;
    res.steps.push_back(std::move(step));
    ++phase;
    if (exhausted) break;  // algorithm has no further phases
    if (phase > 256) break;  // safety net
  }
  res.final_map = random_complete(f, D_, rng_);
  return res;
}

}  // namespace parbounds
