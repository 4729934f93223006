#include "adversary/parity_adversary.hpp"

#include <algorithm>
#include <map>

namespace parbounds {

ParityAdversary::ParityAdversary(GsmAlgorithm algo, GsmConfig cfg,
                                 unsigned n_inputs, Addr output,
                                 std::uint64_t seed)
    : algo_(std::move(algo)),
      cfg_(cfg),
      n_(n_inputs),
      output_(output),
      rng_(seed) {}

ParityAdversaryRun ParityAdversary::run(unsigned max_phases) {
  ParityAdversaryRun out;
  PartialInputMap f = PartialInputMap::all_unset(n_);
  const BitDistribution D = BitDistribution::uniform(n_);

  // Each phase's refined map refines the last, so after the first phase
  // every analysis is derived from the previous one (trace_analysis.hpp).
  TraceAnalysis ta(algo_, cfg_, n_, f);
  for (unsigned phase = 1; phase <= max_phases; ++phase) {
    if (phase > ta.phases()) break;

    // Current V: the still-free variables, addressed two ways — by their
    // position j in the analysis's free list and by original index.
    const auto& free_vars = ta.free_vars();
    const unsigned u = ta.free_count();
    if (u <= 1) break;

    ParityAdversaryStep step;
    step.phase = phase;

    // Knowledge after this phase: per free variable, which entities know
    // it; per entity, how many free variables it knows.
    std::vector<std::vector<std::size_t>> knowers(u);
    std::vector<std::vector<unsigned>> entity_vars(ta.entities().size());
    for (std::size_t v = 0; v < ta.entities().size(); ++v) {
      const auto k = ta.know(v, phase);
      entity_vars[v] = k;
      for (const unsigned j : k) knowers[j].push_back(v);
    }
    for (unsigned j = 0; j < u; ++j)
      step.max_knowers =
          std::max<std::uint64_t>(step.max_knowers, knowers[j].size());

    // Collision graph on V: an edge between two free variables whenever
    // one entity knows both (the funnel the proof must break up).
    std::vector<std::vector<std::uint8_t>> adj(
        u, std::vector<std::uint8_t>(u, 0));
    for (const auto& vars : entity_vars)
      for (std::size_t a = 0; a < vars.size(); ++a)
        for (std::size_t b = a + 1; b < vars.size(); ++b)
          adj[vars[a]][vars[b]] = adj[vars[b]][vars[a]] = 1;
    std::vector<std::uint64_t> deg(u, 0);
    for (unsigned j = 0; j < u; ++j)
      for (unsigned k = 0; k < u; ++k) deg[j] += adj[j][k];
    step.graph_degree = *std::max_element(deg.begin(), deg.end());

    // Greedy independent set (>= u / (deg + 1), the bound the proof uses).
    std::vector<std::uint8_t> blocked(u, 0);
    std::vector<unsigned> I;
    for (unsigned j = 0; j < u; ++j) {
      if (blocked[j]) continue;
      I.push_back(j);
      for (unsigned k = 0; k < u; ++k)
        if (adj[j][k]) blocked[k] = 1;
    }
    step.independent = I.size();

    // RANDOMSET the discarded variables (V_t \ I) — uniform values, as
    // the Yao-side distribution dictates.
    std::vector<std::uint8_t> keep(u, 0);
    for (const unsigned j : I) keep[j] = 1;
    std::vector<unsigned> to_fix;
    for (unsigned j = 0; j < u; ++j)
      if (!keep[j]) to_fix.push_back(free_vars[j]);
    f = random_set(f, to_fix, D, rng_);

    // Re-analyze under the refined map and check the paper's invariants.
    TraceAnalysis ta2(ta, f);
    const unsigned t2 = std::min(phase, ta2.phases());
    step.invariant_ok = true;
    for (std::size_t v = 0; v < ta2.entities().size(); ++v)
      if (ta2.know(v, t2).size() > 1) step.invariant_ok = false;
    for (unsigned j = 0; j < ta2.free_count(); ++j)
      step.V.push_back(ta2.free_vars()[j]);

    // Output indeterminacy: with > 1 trace class at the output cell, the
    // algorithm cannot yet answer parity for all surviving settings.
    if (ta2.free_count() >= 1) {
      const auto it = std::find_if(
          ta2.entities().begin(), ta2.entities().end(),
          [&](const TraceAnalysis::Entity& e) {
            return e.is_cell && e.id == output_;
          });
      if (it != ta2.entities().end()) {
        const auto idx = ta2.entity_index(*it);
        step.output_undetermined =
            ta2.states_count(idx, ta2.phases()) > 1 ||
            ta2.free_count() > 1;
      } else {
        step.output_undetermined = true;  // output never touched yet
      }
    }

    out.all_invariants_ok = out.all_invariants_ok && step.invariant_ok;
    out.steps.push_back(std::move(step));
    if (out.steps.back().V.size() <= 1) break;
    ta = std::move(ta2);
  }
  out.final_map = f;
  return out;
}

}  // namespace parbounds
