// serve_replay: a daemon restart in the `parbounds_serve --workers 2`
// configuration. A SweepService runs over an on-disk result cache that
// a previous lifetime left behind (pre-populated outside the timed
// region), with max_bytes below the working set so LRU evictions run,
// and hands its misses to a 2-worker FleetCoordinator. One closed-loop
// client submits 100 sweeps of 50 small trials back to back through
// run_sweep_via_service; about half the trials repeat earlier ones.
//
// One pass = one daemon lifetime: fresh copy of the left-behind cache,
// set-up, the 100 sweeps, teardown (which reaps the workers).
// Set-up (timed five times at the start of each pass and five times at
// its end, median reported): service construction (the cache index
// scan) plus fleet spawn and handshake.
// Timed region: the 100 sweeps. Unit latency: one sweep, submit to
// last answer.
// Checks: every answer equals an in-process run_spec of the same
// request (all computed before the first pass), and no cache entry is
// corrupt and no fleet request retried.
//
// The cache budget is sized so that only left-behind entries are ever
// evicted. Entries of this lifetime then never leave the cache, so hit,
// miss and eviction counts are a function of the seed alone — whatever
// batches the dispatcher happens to form.

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <malloc.h>

#include "runtime/fleet/coordinator.hpp"
#include "runtime/runner.hpp"
#include "runtime/sweep.hpp"
#include "runtime/sweep_service/client.hpp"
#include "runtime/sweep_service/service.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace pb = parbounds;
namespace rt = parbounds::runtime;
namespace svc = parbounds::service;

namespace {

constexpr unsigned kWorkers = 2;
constexpr std::size_t kSweeps = 100;
constexpr std::size_t kTrialsPerSweep = 50;
constexpr std::size_t kBases = 4;  // sweeps share base seeds, so trials repeat
/// Set-up repetitions at each end of a pass.
constexpr int kSetupReps = 5;
/// Upper bound on one cache file: the header line (magic, 64-hex key,
/// 64-hex payload digest, payload size) plus a %.17g cost payload.
constexpr std::uint64_t kEntryBound = 192;

struct SweepIn {
  std::uint64_t base = 0;
  std::vector<rt::ServiceSpec> trials;
};

/// Draws small trials (n <= 4096) of the served workload mix. Kernel,
/// n and g come from a shuffled deck of all 125 combinations, so every
/// 125 draws hold each combination once: a trial at n = 4096 costs
/// about 10x one at n = 256, and independent draws made the work of a
/// lifetime differ by seed. QsmCrFree parity is left out: at n = 4096 one trial
/// alone takes ~0.4 s.
class TrialDeck {
 public:
  rt::ServiceSpec draw(pb::Rng& rng) {
    if (next_ == deck_.size()) {
      deck_.clear();
      for (unsigned c = 0; c < 125; ++c) deck_.push_back(c);
      for (std::size_t i = deck_.size() - 1; i > 0; --i)
        std::swap(deck_[i], deck_[rng.next_below(i + 1)]);
      next_ = 0;
    }
    const unsigned c = deck_[next_++];
    const std::uint64_t n = std::uint64_t{256} << (c % 5);
    const std::uint64_t g = std::uint64_t{2} << (c / 5 % 5);
    switch (c / 25) {
      case 0:
        return spec("qsm", "parity_circuit", {{"n", n}, {"g", g}});
      case 1:
        return spec("qsm", "or_fanin",
                    {{"n", n}, {"g", g}, {"ones", 1 + rng.next_below(n)}});
      case 2:
        return spec("qsm", "lac_prefix", {{"n", n}, {"g", g}, {"h", n / 8}});
      case 3:
        return spec("qsm", "lac_dart", {{"n", n}, {"g", g}, {"h", n / 8}});
      default:
        return spec("bsp", "parity_bsp",
                    {{"n", n},
                     {"p", std::uint64_t{8} << rng.next_below(3)},
                     {"g", g},
                     {"L", g << rng.next_below(3)}});  // the model needs L >= g
    }
  }

 private:
  std::vector<unsigned> deck_;
  std::size_t next_ = 0;
};

/// A left-behind entry: tiny and never requested by this lifetime (odd
/// g, which TrialDeck never produces).
rt::ServiceSpec draw_stale(pb::Rng& rng) {
  const std::uint64_t n = std::uint64_t{64} << rng.next_below(2);
  const std::uint64_t g = 3 + 2 * rng.next_below(8);
  return spec("qsm", "or_fanin", {{"n", n}, {"g", g}, {"ones", 1}});
}

svc::Request request_of(const rt::ServiceSpec& s, std::uint64_t base,
                        std::uint64_t trial) {
  svc::Request req;
  req.op = svc::Op::Run;
  req.spec = s;
  req.seed = rt::derive_seed(base, trial);
  return req;
}

std::vector<rt::SweepCell> cells_of(const SweepIn& in) {
  std::vector<rt::SweepCell> cells;
  for (const rt::ServiceSpec& s : in.trials) {
    rt::SweepCell c;
    c.key = s.workload;
    c.spec = s;
    cells.push_back(std::move(c));
  }
  return cells;
}

struct ServeInputs {
  std::vector<SweepIn> sweeps;  // the timed client stream
  std::vector<SweepIn> stale;   // what the previous lifetime cached
  std::size_t distinct = 0;     // distinct requests in the stream
};

ServeInputs make_inputs(std::uint64_t seed) {
  pb::Rng rng(rt::derive_seed(seed, 0x5e77e));
  ServeInputs in;
  TrialDeck deck;
  std::vector<std::uint64_t> bases;
  std::vector<std::vector<rt::ServiceSpec>> layouts;
  for (std::size_t b = 0; b < kBases; ++b) {
    bases.push_back(rng.next());
    std::vector<rt::ServiceSpec> layout;
    for (std::size_t t = 0; t < kTrialsPerSweep; ++t)
      layout.push_back(deck.draw(rng));
    layouts.push_back(std::move(layout));
  }
  std::set<std::string> keys;
  for (std::size_t i = 0; i < kSweeps; ++i) {
    const std::size_t b = rng.next_below(kBases);
    SweepIn sw{.base = bases[b], .trials = {}};
    for (std::size_t t = 0; t < kTrialsPerSweep; ++t) {
      sw.trials.push_back(rng.next_bool() ? layouts[b][t] : deck.draw(rng));
      keys.insert(svc::cache_key(request_of(sw.trials.back(), sw.base, t)));
    }
    in.sweeps.push_back(std::move(sw));
  }
  in.distinct = keys.size();
  // As many left-behind entries as this lifetime will publish.
  for (std::size_t done = 0; done < in.distinct; done += kTrialsPerSweep) {
    SweepIn sw{.base = rng.next(), .trials = {}};
    for (std::size_t t = 0; t < kTrialsPerSweep; ++t)
      sw.trials.push_back(draw_stale(rng));
    in.stale.push_back(std::move(sw));
  }
  return in;
}

std::uint64_t dir_bytes(const fs::path& dir) {
  std::uint64_t bytes = 0;
  for (const auto& e : fs::directory_iterator(dir))
    if (e.is_regular_file()) bytes += e.file_size();
  return bytes;
}

/// Returns the harness's freed heap to the system before a set-up. The
/// fleet forks its workers, and a fork costs in proportion to the
/// parent's resident pages. The heap that the in-process run_spec calls
/// leave resident differs by seed (23 or 56 MB in two runs; 9 MB after
/// the trim), and the spawns took 4-5 ms or 10-20 ms accordingly. A
/// restarted daemon spawns its fleet from a small process too.
void trim_heap() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

/// The daemon of one pass: fleet first, then the service over it. The
/// miss executor is timed from outside the fleet.
struct Daemon {
  std::unique_ptr<pb::fleet::FleetCoordinator> fleet;
  std::unique_ptr<svc::SweepService> service;
  double spawn_s = 0.0, open_s = 0.0;
  double fleet_run_s = 0.0;  // written by the dispatcher thread only
  std::uint64_t fleet_requests = 0;

  Daemon(const fs::path& cache_dir, std::uint64_t max_bytes) {
    const double t0 = now_s();
    pb::fleet::FleetConfig fleet_cfg;
    fleet_cfg.workers = kWorkers;
    fleet = std::make_unique<pb::fleet::FleetCoordinator>(fleet_cfg);
    const double t1 = now_s();
    svc::ServiceConfig cfg;
    cfg.cache = {.dir = cache_dir, .max_bytes = max_bytes};
    cfg.miss_executor = [this](const std::vector<svc::Request>& r) {
      const double e0 = now_s();
      auto out = fleet->run_requests(r);
      fleet_run_s += now_s() - e0;
      fleet_requests += r.size();
      return out;
    };
    service = std::make_unique<svc::SweepService>(std::move(cfg));
    spawn_s = t1 - t0;
    open_s = now_s() - t1;
  }
  ~Daemon() {
    service.reset();  // drains the dispatcher before the fleet goes away
    fleet.reset();    // shuts down and reaps the workers
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
};

}  // namespace

PhaseResult run_serve_replay(std::uint64_t seed, const PhasePlan& plan,
                             const fs::path& work_dir) {
  PhaseResult out;
  const ServeInputs in = make_inputs(seed);
  const fs::path root = work_dir / "serve_replay";
  const fs::path snapshot = root / "left_behind";
  const fs::path live = root / "live";
  fs::remove_all(root);
  fs::create_directories(root);

  // The previous lifetime: an in-process service that cached the stale
  // sweeps. Not timed.
  {
    svc::ServiceConfig cfg;
    cfg.cache = {.dir = snapshot, .max_bytes = std::uint64_t{1} << 40};
    cfg.jobs = kWorkers;
    svc::SweepService prev(std::move(cfg));
    for (const SweepIn& sw : in.stale)
      svc::run_sweep_via_service(prev, "left behind", sw.base, cells_of(sw));
  }
  // Room for everything this lifetime publishes plus a quarter of what
  // was left behind: the rest of the left-behind entries get evicted.
  const std::uint64_t max_bytes =
      in.distinct * kEntryBound + dir_bytes(snapshot) / 4;

  std::optional<TraceSession> trace;
  if (plan.traced) trace.emplace();
  // The expected answers: an in-process run_spec of every distinct
  // request, computed once before the first pass.
  std::map<std::string, double> expected;  // cache key -> in-process cost
  for (const SweepIn& sw : in.sweeps)
    for (std::size_t t = 0; t < sw.trials.size(); ++t) {
      const svc::Request req = request_of(sw.trials[t], sw.base, t);
      const std::string key = svc::cache_key(req);
      if (!expected.contains(key))
        expected.emplace(key, run_spec_or_throw(req.spec, req.seed));
    }
  double spawn_s = 0, open_s = 0, sweep_s = 0, fleet_run_s = 0;
  std::map<std::string, double> counts;  // summed over passes

  run_passes(plan, out, [&] {
    fs::remove_all(live);
    fs::copy(snapshot, live);

    const auto open_daemon = [&](const fs::path& dir) {
      trim_heap();
      const double t0 = now_s();
      auto daemon = std::make_unique<Daemon>(dir, max_bytes);
      out.setup_s.push_back(now_s() - t0);
      return daemon;
    };
    const CpuTimes c0 = cpu_now();
    std::unique_ptr<Daemon> d;
    for (int r = 0; r < kSetupReps; ++r) {
      d.reset();
      d = open_daemon(live);
    }
    spawn_s += d->spawn_s;
    open_s += d->open_s;

    std::vector<rt::SweepResult> results;
    const double t0 = now_s();
    for (const SweepIn& sw : in.sweeps) {
      const double s0 = now_s();
      results.push_back(svc::run_sweep_via_service(*d->service, "replay",
                                                   sw.base, cells_of(sw)));
      out.unit_ms.push_back((now_s() - s0) * 1e3);
    }
    const double wall = now_s() - t0;
    out.wall_s.push_back(wall);
    sweep_s += wall;

    const auto snap = d->service->metrics().snapshot();
    const auto svc_count = [&](const char* name) {
      const auto* v = snap.find(name);
      return v == nullptr ? 0.0 : static_cast<double>(v->value);
    };
    const double corrupt = svc_count("cache.corrupt");
    const double retry =
        static_cast<double>(d->fleet->counter("fleet.worker.retry"));
    counts["service.hit"] += svc_count("cache.hit");
    counts["service.miss"] += svc_count("cache.miss");
    counts["service.evict"] += svc_count("cache.evict");
    counts["service.corrupt"] += corrupt;
    counts["fleet.retry"] += retry;
    for (const char* name : {"fleet.bytes_tx", "fleet.bytes_rx",
                             "fleet.frames_tx", "fleet.frames_rx"})
      counts[name] += static_cast<double>(d->fleet->counter(name));
    counts["fleet.window_depth"] =
        std::max(counts["fleet.window_depth"],
                 static_cast<double>(d->fleet->counter("fleet.window.depth")));
    // The client has every answer, so the dispatcher is idle: reading
    // the executor's tallies cannot race it.
    counts["fleet.requests"] += static_cast<double>(d->fleet_requests);
    fleet_run_s += d->fleet_run_s;
    d.reset();
    out.cpu_s.push_back(cpu_delta(c0, cpu_now()).total());
    out.healthy = out.healthy && corrupt == 0 && retry == 0;

    // Verification: every answer against an in-process run_spec.
    for (std::size_t i = 0; i < in.sweeps.size(); ++i) {
      const SweepIn& sw = in.sweeps[i];
      for (std::size_t t = 0; t < sw.trials.size(); ++t) {
        const double want = expected.at(
            svc::cache_key(request_of(sw.trials[t], sw.base, t)));
        const auto& costs = results[i].cells[t].costs;
        ++out.attempted;
        if (costs.size() == 1 && costs[0] == want) ++out.verified;
      }
    }
    // The other end of the pass: the median then spans the whole run.
    // The startup scan only reads the directory, so the left-behind
    // cache serves as it is.
    for (int r = 0; r < kSetupReps; ++r) open_daemon(snapshot);
  });
  out.peak_rss_mb = std::max(peak_rss_mb_self(), peak_rss_mb_children());
  fs::remove_all(root);

  if (trace) {
    trace->pause();
    const double passes = static_cast<double>(out.passes);
    auto& L = out.layers;
    // The kernels run in the workers; the engine counts come from the
    // in-process verification, which runs each distinct request once.
    add_core_layers(*trace, 1.0, L);
    L["service.open_s"] = open_s / passes;
    L["fleet.spawn_s"] = spawn_s / passes;
    L["service.sweep_s"] = sweep_s / passes;
    L["fleet.run_s"] = fleet_run_s / passes;
    L["service.self_s"] = service_self_s(sweep_s / passes, fleet_run_s / passes);
    for (const auto& [name, v] : counts)
      L[name] = name == "fleet.window_depth" ? v : v / passes;
    const double probes =
        counts["service.hit"] + counts["service.miss"] + counts["service.corrupt"];
    L["service.hit_frac"] = probes > 0 ? counts["service.hit"] / probes : 0.0;
  }
  return out;
}

}  // namespace perfbench
