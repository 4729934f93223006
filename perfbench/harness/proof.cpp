// proof_machinery: the executable proof layer at sizes where it does
// real work — integer degree on chunked-tier truth tables, certificate
// complexity, and Random Adversary REFINE chains against GSM OR trees.
//
// Set-up (timed once per pass, median reported): building every truth
// table of the pass (0.25-0.4 s, dominated by the 2^26-entry ones).
// Timed region: the degree queries on the AND, PARITY and composed
// tables, the certificate queries, and the adversary chains. Unit
// latency: one task (a degree query, a certificate query, or one
// REFINE step with its analysis and goodness check). The degree and
// gf2_degree calls that only feed the checks run after the timed
// region, outside the trace.
// Checks, none of them a stored cost: deg(AND_k) = k, deg(PARITY_n) = n,
// deg(a AND b) = deg(a) + deg(b) and deg(a OR b) likewise for
// functions on disjoint variables, gf2_degree <= degree, C(f) <=
// deg(f)^4 (Fact 2.3), and a t-good verdict after every REFINE step.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "adversary/adversary.hpp"
#include "adversary/goodness.hpp"
#include "algos/gsm_algos.hpp"
#include "boolfn/boolfn.hpp"
#include "boolfn/certificate.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/runner.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace pb = parbounds;

namespace {

constexpr unsigned kThreads = 2;

/// Generated once per run from the seed; the truth tables themselves
/// are rebuilt in every pass's set-up.
struct ProofInputs {
  struct AndSpec {
    unsigned n = 0;
    std::uint32_t mask = 0;  // the n-2 variables of the AND
  };
  struct Composed {
    unsigned k = 0;      // block width; the function has 2k variables
    bool use_or = false;
    std::uint64_t seed_a = 0, seed_b = 0;
  };
  struct Chain {
    unsigned n = 0, fanin = 0;
    std::uint64_t seed = 0;
  };
  std::vector<AndSpec> ands;
  std::vector<unsigned> parities;
  std::vector<Composed> composed;
  std::vector<std::pair<unsigned, std::uint64_t>> certs;  // (n, seed)
  std::vector<Chain> chains;
};

ProofInputs make_inputs(std::uint64_t seed) {
  pb::Rng rng(pb::runtime::derive_seed(seed, 0x9f00f));
  ProofInputs in;
  for (unsigned n = 20; n <= 26; ++n) {
    const auto i = static_cast<unsigned>(rng.next_below(n));
    auto j = static_cast<unsigned>(rng.next_below(n - 1));
    if (j >= i) ++j;
    const std::uint32_t all = (std::uint32_t{1} << n) - 1;
    in.ands.push_back({n, all & ~(1u << i) & ~(1u << j)});
  }
  for (unsigned n = 20; n <= 24; ++n) in.parities.push_back(n);
  for (const unsigned k : {8u, 9u, 10u, 11u})
    for (const bool use_or : {false, true})
      in.composed.push_back({k, use_or, rng.next(), rng.next()});
  for (const unsigned n : {11u, 11u, 11u, 11u, 12u, 12u, 13u})
    in.certs.emplace_back(n, rng.next());
  for (const unsigned n : {8u, 10u, 12u})
    for (const unsigned fanin : {2u, 3u})
      in.chains.push_back({n, fanin, rng.next()});
  return in;
}

/// A random function on k variables with an even number of ones, so its
/// GF(2) top coefficient vanishes and degree() cannot stop at the GF(2)
/// fast path.
pb::BoolFn even_random(unsigned k, std::uint64_t seed) {
  pb::Rng rng(seed);
  pb::BoolFn f = pb::BoolFn::random(k, rng);
  if (f.count_ones() % 2 == 1) f.set(0, !f(0));
  return f;
}

struct Tables {
  struct Deg {
    pb::BoolFn f{0};
    std::optional<unsigned> expect;  // exact degree, when known up front
    pb::BoolFn a{0}, b{0};           // composed: the two block functions
    bool use_or = false;
    bool composed = false;
  };
  std::vector<Deg> degs;
  std::vector<pb::BoolFn> certs;
};

Tables build_tables(const ProofInputs& in) {
  Tables t;
  for (const auto& s : in.ands) {
    const std::uint32_t mask = s.mask;
    t.degs.push_back({.f = pb::BoolFn::from(
                          s.n, [mask](std::uint32_t x) {
                            return (x & mask) == mask;
                          }),
                      .expect = s.n - 2});
  }
  for (const unsigned n : in.parities)
    t.degs.push_back({.f = pb::BoolFn::parity(n), .expect = n});
  for (const auto& c : in.composed) {
    Tables::Deg d;
    d.a = even_random(c.k, c.seed_a);
    d.b = even_random(c.k, c.seed_b);
    const std::uint32_t low = (std::uint32_t{1} << c.k) - 1;
    const unsigned k = c.k;
    const bool use_or = c.use_or;
    d.f = pb::BoolFn::from(2 * k, [&, low, k, use_or](std::uint32_t x) {
      const bool va = d.a(x & low), vb = d.b(x >> k);
      return use_or ? (va || vb) : (va && vb);
    });
    d.use_or = use_or;
    d.composed = true;
    t.degs.push_back(std::move(d));
  }
  for (const auto& [n, seed] : in.certs) {
    pb::Rng rng(seed);
    t.certs.push_back(pb::BoolFn::random(n, rng));
  }
  return t;
}

/// deg of a AND b / a OR b on disjoint variables, from deg a and deg b.
unsigned composed_degree(const pb::BoolFn& a, unsigned da, const pb::BoolFn& b,
                         unsigned db, bool use_or) {
  const auto zero = [](const pb::BoolFn& f) { return f.count_ones() == 0; };
  const auto one = [](const pb::BoolFn& f) {
    return f.count_ones() == f.table_size();
  };
  if (!use_or) return zero(a) || zero(b) ? 0 : da + db;
  if (one(a) || one(b)) return 0;
  if (zero(a)) return db;
  if (zero(b)) return da;
  return da + db;
}

pb::GsmAlgorithm or_tree(unsigned fanin) {
  return [fanin](pb::GsmMachine& m, std::span<const pb::Word> input) {
    pb::gsm_or_tree(m, input, fanin);
  };
}

constexpr unsigned kMaxRefinePhases = 6;

}  // namespace

PhaseResult run_proof_machinery(std::uint64_t seed, const PhasePlan& plan) {
  PhaseResult out;
  pb::runtime::ParallelFor::pool().set_threads(kThreads);
  const ProofInputs in = make_inputs(seed);

  std::optional<TraceSession> trace;
  if (plan.traced) trace.emplace();
  double build_s = 0, degree_s = 0, cert_s = 0, refine_s = 0, analyze_s = 0,
         goodness_s = 0;
  std::uint64_t degree_calls = 0, refine_calls = 0, inputs_fixed = 0;

  const auto check = [&](bool ok) {
    ++out.attempted;
    if (ok) ++out.verified;
  };

  run_passes(plan, out, [&] {
    const CpuTimes c0 = cpu_now();
    double t0 = now_s();
    const Tables tables = build_tables(in);
    const double setup = now_s() - t0;
    out.setup_s.push_back(setup);
    build_s += setup;

    // Timed region: only the queries the workload exists to make.
    std::vector<unsigned> degs, certs;
    std::vector<char> chain_ok;
    t0 = now_s();
    for (const Tables::Deg& d : tables.degs) {
      const double u0 = now_s();
      degs.push_back(pb::degree(d.f));
      const double u = now_s() - u0;
      degree_s += u;
      ++degree_calls;
      out.unit_ms.push_back(u * 1e3);
    }
    for (const pb::BoolFn& f : tables.certs) {
      const double u0 = now_s();
      certs.push_back(pb::certificate_complexity(f));
      const double u = now_s() - u0;
      cert_s += u;
      out.unit_ms.push_back(u * 1e3);
    }
    for (const ProofInputs::Chain& ch : in.chains) {
      pb::RandomAdversary adv(or_tree(ch.fanin), pb::GsmConfig{}, ch.n,
                              pb::BitDistribution::uniform(ch.n), ch.seed);
      pb::PartialInputMap f = pb::PartialInputMap::all_unset(ch.n);
      std::uint64_t fixed = 0;
      for (unsigned phase = 1; phase <= kMaxRefinePhases; ++phase) {
        const double u0 = now_s();
        const pb::RefineOutcome step = adv.refine(phase, f);
        const double u1 = now_s();
        refine_s += u1 - u0;
        ++refine_calls;
        if (step.forced_rw == 0 && step.forced_contention == 0) {
          out.unit_ms.push_back((u1 - u0) * 1e3);
          break;
        }
        f = step.f;
        fixed += step.inputs_fixed;
        const pb::TraceAnalysis ta = adv.analyze(f);
        const double u2 = now_s();
        analyze_s += u2 - u1;
        const pb::GoodnessReport rep = pb::check_t_good_s5(
            ta, std::min(phase, ta.phases()), 1.0, 1.0, ch.n, fixed);
        const double u3 = now_s();
        goodness_s += u3 - u2;
        out.unit_ms.push_back((u3 - u0) * 1e3);
        chain_ok.push_back(step.success && rep.ok);
      }
      inputs_fixed += fixed;
    }
    out.wall_s.push_back(now_s() - t0);
    out.cpu_s.push_back(cpu_delta(c0, cpu_now()).total());

    // Verification, outside the timed region and the trace.
    if (trace) trace->pause();
    for (std::size_t i = 0; i < tables.degs.size(); ++i) {
      const Tables::Deg& d = tables.degs[i];
      const unsigned expect =
          d.composed ? composed_degree(d.a, pb::degree(d.a), d.b,
                                       pb::degree(d.b), d.use_or)
                     : d.expect.value_or(0);
      check(degs[i] == expect && pb::gf2_degree(d.f) <= degs[i]);
    }
    for (std::size_t i = 0; i < tables.certs.size(); ++i) {
      const std::uint64_t deg = pb::degree(tables.certs[i]);
      check(certs[i] <= deg * deg * deg * deg);
    }
    for (const char ok : chain_ok) check(ok != 0);
    if (trace) trace->resume();
  });
  out.peak_rss_mb = peak_rss_mb_self();

  if (trace) {
    trace->pause();
    const double passes = static_cast<double>(out.passes);
    auto& L = out.layers;
    add_core_layers(*trace, passes, L);
    L["boolfn.build_s"] = build_s / passes;
    L["boolfn.degree_s"] = degree_s / passes;
    L["boolfn.degree_calls"] = static_cast<double>(degree_calls) / passes;
    L["boolfn.certificate_s"] = cert_s / passes;
    L["adversary.refine_s"] = refine_s / passes;
    L["adversary.refine_calls"] = static_cast<double>(refine_calls) / passes;
    L["adversary.analyze_s"] = analyze_s / passes;
    L["adversary.goodness_s"] = goodness_s / passes;
    L["adversary.inputs_fixed"] = static_cast<double>(inputs_fixed) / passes;
  }
  return out;
}

}  // namespace perfbench
