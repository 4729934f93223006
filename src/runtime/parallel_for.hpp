#pragma once
// ParallelFor — the process-wide intra-trial worker pool.
//
// The ExperimentRunner (runner.hpp) fans out *across* trials; this pool
// fans out *inside* one trial: the sharded phase commit
// (core/phase_scan.hpp), the BoolFn Möbius/GF(2) transforms, and the
// adversary's per-entity refinement loops all run their inner loops
// through for_shards(). One pool serves the whole process; benches size
// it once from --threads (default: --jobs; see bench/harness.hpp), so
// one knob governs the intra-trial thread budget.
//
// Determinism contract (the reason this is not a generic task pool):
//
//  1. Static partition. for_shards(n, shards, body) always cuts [0, n)
//     at i*n/shards — the chunk boundaries depend on n and the shard
//     count only, NEVER on the thread count or on scheduling. Callers
//     pick the shard count as a pure function of the problem size
//     (shard_count()), so the partition an algorithm sees is identical
//     whether the pool has 1 or 64 threads.
//  2. Inline nesting. A for_shards issued from inside a pool worker or
//     an ExperimentRunner worker runs inline on the caller, in shard
//     order. Trial-level and intra-trial parallelism therefore compose
//     without oversubscription, and --jobs keeps its meaning as the
//     outer fan-out width.
//  3. Callers combine shard results with commutative, exact operations
//     (integer sums, maxima, minima), so the combined value is
//     bit-identical at every thread count. The pool guarantees (1) and
//     (2); the algorithms built on it (sharded commit, parallel Möbius)
//     are each documented with their own merge argument in docs/PERF.md.
//
// Threads park on a condition variable between jobs, so an idle pool
// costs nothing and a --threads 1 (or single-shard) call never touches
// a mutex: it runs the shard bodies inline.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace parbounds::runtime {

class ParallelFor {
 public:
  /// body(shard, lo, hi) processes indices [lo, hi) of shard `shard`.
  using Body = std::function<void(unsigned, std::uint64_t, std::uint64_t)>;

  /// The process-wide pool (default size 1: everything inline until a
  /// harness or test calls set_threads).
  static ParallelFor& pool();

  ParallelFor(const ParallelFor&) = delete;
  ParallelFor& operator=(const ParallelFor&) = delete;
  ~ParallelFor();

  /// Resize the pool to a concurrency of `t` (the caller participates,
  /// so t means "up to t shard bodies at once"); 0 means
  /// std::thread::hardware_concurrency(). Must not be called while a
  /// for_shards is in flight. Results of pool-based algorithms never
  /// depend on this value — only wall-clock does.
  void set_threads(unsigned t);
  unsigned threads() const { return threads_; }

  /// Run body over the static partition of [0, n): shard s covers
  /// [s*n/shards, (s+1)*n/shards). Returns after every shard completed.
  /// Runs inline (shard order 0..shards-1) when the pool has one
  /// thread, when shards <= 1, or when called from inside any pool /
  /// ExperimentRunner worker. The first exception a body throws is
  /// rethrown on the caller after all shards finish.
  void for_shards(std::uint64_t n, unsigned shards, const Body& body);

  /// Shard count for a problem of size n with at least `grain` items
  /// per shard, capped at `max_shards`: a pure function of n, so the
  /// partition is thread-count-independent by construction.
  static unsigned shard_count(std::uint64_t n, std::uint64_t grain,
                              unsigned max_shards) {
    if (n == 0) return 1;
    const std::uint64_t by_grain = n / std::max<std::uint64_t>(1, grain);
    return static_cast<unsigned>(std::clamp<std::uint64_t>(
        by_grain, 1, std::max<unsigned>(1, max_shards)));
  }

  /// True while the calling thread is a pool worker (nested calls run
  /// inline; algorithms can consult this to skip parallel-only setup).
  static bool in_pool_worker() noexcept;

  /// True when a for_shards call with `shards` shards, issued from the
  /// calling thread now, would run its bodies inline (one thread, one
  /// shard, or a nested call from a pool / ExperimentRunner worker).
  /// Lets callers pick a serial strategy; results must not depend on it.
  bool runs_inline(unsigned shards) const noexcept;

 private:
  ParallelFor();
  struct Impl;
  std::unique_ptr<Impl> impl_;
  unsigned threads_ = 1;
};

/// Deterministic parallel sort for distinct elements: fixed shard
/// boundaries are sorted independently and merged pairwise, so with
/// all-distinct elements the result is the unique sorted order —
/// byte-identical to std::sort at any thread count. The engines sort
/// (address, issue-index) pairs, which are distinct by construction.
/// Falls back to std::sort below `grain` elements or on a 1-thread pool.
template <class T>
void parallel_sort(std::vector<T>& v, ParallelFor& pool,
                   std::size_t grain = std::size_t{1} << 16) {
  constexpr unsigned kShards = 8;  // power of two for the merge tree
  if (v.size() < grain || v.size() < kShards || pool.runs_inline(kShards)) {
    std::sort(v.begin(), v.end());
    return;
  }
  const std::uint64_t n = v.size();
  auto bound = [n](unsigned s) {
    return static_cast<std::ptrdiff_t>(n * s / kShards);
  };
  pool.for_shards(n, kShards,
                  [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
                    std::sort(v.begin() + static_cast<std::ptrdiff_t>(lo),
                              v.begin() + static_cast<std::ptrdiff_t>(hi));
                  });
  for (unsigned width = 1; width < kShards; width *= 2) {
    const unsigned pairs = kShards / (2 * width);
    pool.for_shards(pairs, pairs,
                    [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
                      for (std::uint64_t p = lo; p < hi; ++p) {
                        const unsigned s = static_cast<unsigned>(p) * 2 * width;
                        std::inplace_merge(v.begin() + bound(s),
                                           v.begin() + bound(s + width),
                                           v.begin() + bound(s + 2 * width));
                      }
                    });
  }
}

}  // namespace parbounds::runtime
