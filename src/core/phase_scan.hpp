#pragma once
// Phase accounting over flat scratch buffers, shared by the four engines.
//
// A committing phase needs four aggregates over its request buffers:
// per-processor maxima (m_op, m_rw), per-cell maxima (kappa_r, kappa_w),
// and the queue-rule check that no cell is both read and written. The
// engines used to build four `unordered_map`s per phase for this. The
// replacements live here, and every one of them costs O(requests) per
// phase — never O(key space), never a sort of the whole stream:
//
//  * KeyHistogram — a dense counter array for small keys (processor ids,
//    arena addresses) with an O(touched) reset and a sorted-spill
//    fallback for keys above the dense limit. Multiplicity maxima and
//    membership probes are O(1) per request, and the counters persist
//    across phases, so a steady-state commit allocates nothing.
//  * WeightedHistogram — the same dense-counter idea with per-request
//    weights, for local-op accounting (m_op and the ops total). Only ids
//    above the dense limit are sorted.
//  * sort_max_run / sort_max_run_sum / first_common — sorted-run
//    scanning over reusable key buffers, used for the spill paths and
//    for the ascending-address write groups of the QSM Random and CRCW
//    resolution rules.
//
// Counting is one serial pass at every phase size. A big phase (at least
// commit_shard_min_requests() requests) differs only in its apply
// passes, which split by address or processor range over kCommitShards
// shards; neither per-shard histograms merged over the key extent nor a
// partitioned count into one shared array beat the single pass on a
// 4-vCPU host (docs/PERF.md, "Big-phase commit").

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace parbounds::detail {

/// Sort `keys` ascending in place and return the length of the longest
/// run of equal keys (0 when empty). One sorted pass replaces a
/// count-map: the multiplicity of a key is the length of its run.
inline std::uint64_t sort_max_run(std::vector<std::uint64_t>& keys) {
  if (keys.empty()) return 0;
  std::sort(keys.begin(), keys.end());
  std::uint64_t best = 0, run = 0;
  std::uint64_t prev = keys.front();
  for (const std::uint64_t k : keys) {
    if (k == prev) {
      ++run;
    } else {
      best = std::max(best, run);
      prev = k;
      run = 1;
    }
  }
  return std::max(best, run);
}

struct RunSum {
  std::uint64_t max_run = 0;  ///< largest per-key weight sum
  std::uint64_t total = 0;    ///< sum of all weights
};

/// Sort (key, weight) pairs by key and return the largest per-key weight
/// sum together with the grand total. The reference definition of
/// local-op accounting; WeightedHistogram computes the same pair without
/// the sort and uses this only for its spilled keys.
inline RunSum sort_max_run_sum(
    std::vector<std::pair<std::uint64_t, std::uint64_t>>& kv) {
  RunSum out;
  if (kv.empty()) return out;
  std::sort(kv.begin(), kv.end());
  std::uint64_t prev = kv.front().first;
  std::uint64_t run = 0;
  for (const auto& [k, w] : kv) {
    if (k != prev) {
      out.max_run = std::max(out.max_run, run);
      prev = k;
      run = 0;
    }
    run += w;
    out.total += w;
  }
  out.max_run = std::max(out.max_run, run);
  return out;
}

/// First value present in both ascending-sorted vectors, or nullopt.
/// Replaces the map-membership probe in the read-xor-write queue rule;
/// "first" means smallest, which makes the violation deterministic.
inline std::optional<std::uint64_t> first_common(
    const std::vector<std::uint64_t>& a, const std::vector<std::uint64_t>& b) {
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j])
      ++i;
    else if (b[j] < a[i])
      ++j;
    else
      return a[i];
  }
  return std::nullopt;
}

/// Reusable multiplicity counter over integer keys. Keys below the dense
/// limit are counted in a flat array that grows geometrically to the
/// largest key seen (never beyond the limit); keys at or above it spill
/// into a vector that is sorted on demand. reset() zeroes only the slots
/// the previous round touched.
///
/// Counts are 32-bit: a phase holding 2^32 requests for one key would
/// exceed memory in the request buffers long before the counter wraps.
class KeyHistogram {
 public:
  explicit KeyHistogram(std::uint64_t dense_limit)
      : dense_limit_(dense_limit) {}

  /// Count one occurrence of `key`.
  void add(std::uint64_t key) {
    if (key >= dense_limit_) {
      spill_.push_back(key);
      return;
    }
    if (key >= cnt_.size())
      cnt_.resize(std::min(std::max(key + 1, cnt_.size() * 2), dense_limit_));
    const std::uint32_t c = ++cnt_[key];
    if (c == 1) touched_.push_back(key);
    dense_max_ = std::max<std::uint64_t>(dense_max_, c);
  }

  /// Multiplicity of a dense key so far this round (always 0 for spilled
  /// keys — probe the sorted spill() for those).
  std::uint64_t count(std::uint64_t key) const {
    return (key < cnt_.size()) ? cnt_[key] : 0;
  }

  /// Distinct dense keys counted this round, in first-seen order.
  const std::vector<std::uint64_t>& touched() const { return touched_; }

  /// Extent of the dense counter array (every dense key counted this
  /// round is below it).
  std::uint64_t dense_size() const { return cnt_.size(); }

  /// Max multiplicity over all keys. Sorts the spill, so call it after
  /// the round's add() calls.
  std::uint64_t max_run() {
    return std::max(dense_max_, sort_max_run(spill_));
  }

  /// Spilled (>= dense_limit) keys; ascending once max_run() has run.
  const std::vector<std::uint64_t>& spill() const { return spill_; }

  /// Forget this round: zero the touched dense slots, drop the spill.
  /// Cost is O(distinct keys added), independent of the key space.
  void reset() {
    for (const std::uint64_t k : touched_) cnt_[k] = 0;
    touched_.clear();
    spill_.clear();
    dense_max_ = 0;
  }

 private:
  std::uint64_t dense_limit_;
  std::vector<std::uint32_t> cnt_;
  std::vector<std::uint64_t> touched_;
  std::vector<std::uint64_t> spill_;
  std::uint64_t dense_max_ = 0;
};

/// Weighted multiplicity counter for local-op accounting: add(key, w)
/// adds w to key's sum. result() is exactly sort_max_run_sum over the
/// same (key, weight) pairs — the largest per-key sum and the grand
/// total — but dense keys are summed in a flat 64-bit array with an
/// O(touched) reset, so only keys at or above the dense limit are
/// sorted.
class WeightedHistogram {
 public:
  explicit WeightedHistogram(std::uint64_t dense_limit)
      : dense_limit_(dense_limit) {}

  void add(std::uint64_t key, std::uint64_t w) {
    total_ += w;
    // A zero weight changes no sum, and skipping it keeps "sum was 0"
    // equivalent to "first touch" for the touched list.
    if (w == 0) return;
    if (key >= dense_limit_) {
      spill_.push_back({key, w});
      return;
    }
    if (key >= sum_.size())
      sum_.resize(std::min(std::max(key + 1, sum_.size() * 2), dense_limit_));
    std::uint64_t& s = sum_[key];
    if (s == 0) touched_.push_back(key);
    s += w;
    dense_max_ = std::max(dense_max_, s);
  }

  /// Largest per-key sum and the total weight of this round.
  RunSum result() {
    return {std::max(dense_max_, sort_max_run_sum(spill_).max_run), total_};
  }

  /// Forget this round in O(distinct dense keys added).
  void reset() {
    for (const std::uint64_t k : touched_) sum_[k] = 0;
    touched_.clear();
    spill_.clear();
    dense_max_ = 0;
    total_ = 0;
  }

 private:
  std::uint64_t dense_limit_;
  std::vector<std::uint64_t> sum_;
  std::vector<std::uint64_t> touched_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> spill_;
  std::uint64_t dense_max_ = 0;
  std::uint64_t total_ = 0;
};

/// Dense-key bound for processor ids (matches ReadDelivery::kDenseLimit).
/// Large enough that the biggest Table 1 circuit emulation (about 9.2M
/// processors) is counted densely instead of sorted.
inline constexpr std::uint64_t kProcHistogramLimit = std::uint64_t{1} << 24;
/// Dense-key bound for cell addresses (matches the CellStore default).
inline constexpr std::uint64_t kAddrHistogramLimit = std::uint64_t{1} << 22;

/// Shard count of a big phase's parallel apply passes (and the
/// `commit_shards` a big phase records). A fixed constant, not a
/// thread-count function, so the partition boundaries are identical in
/// every pool configuration.
inline constexpr unsigned kCommitShards = 8;

/// Request-count floor of a big phase. A big phase is counted exactly
/// like a small one; it records kCommitShards and the wall-clock of its
/// accounting, and its apply passes may split over address or processor
/// ranges (at any thread count — with one thread the shards run inline
/// over the same boundaries, so both paths are exercised by size, not by
/// pool size). Mutable so tests and the bench_hotpath oracle can force
/// either path; written only between runs, never during a commit.
inline std::uint64_t& commit_shard_min_requests() {
  static std::uint64_t v = std::uint64_t{1} << 16;
  return v;
}

/// Wall-clock of a big phase's accounting — the counting scans, the
/// maxima and the queue-rule probe — reported as the `commit.merge_ns`
/// telemetry (the one documented wall-clock exception, docs/PERF.md; the
/// name predates the single-pass scan). Reads the clock only when armed,
/// so phases below commit_shard_min_requests() pay nothing.
class AccountingTimer {
 public:
  explicit AccountingTimer(bool armed) : armed_(armed) {
    // DETLINT(det.wall-clock): merge_ns telemetry exception (docs/PERF.md)
    if (armed_) t0_ = std::chrono::steady_clock::now();
  }

  /// Nanoseconds since construction; 0 when not armed.
  std::uint64_t elapsed_ns() const {
    if (!armed_) return 0;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            // DETLINT(det.wall-clock): merge_ns telemetry exception (docs/PERF.md)
            std::chrono::steady_clock::now() - t0_)
            .count());
  }

 private:
  bool armed_;
  // DETLINT(det.wall-clock): merge_ns telemetry exception (docs/PERF.md)
  std::chrono::steady_clock::time_point t0_{};
};

}  // namespace parbounds::detail
