#include "core/bsp.hpp"

#include <algorithm>

#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "runtime/parallel_for.hpp"

namespace parbounds {

BspMachine::BspMachine(BspConfig cfg) : cfg_(cfg) {
  if (cfg_.p == 0) throw std::invalid_argument("BSP needs p >= 1");
  if (cfg_.g == 0) throw std::invalid_argument("BSP needs g >= 1");
  if (cfg_.L < cfg_.g)
    throw std::invalid_argument("paper assumes L >= g throughout");
  trace_.kind = ExecutionTrace::Kind::Bsp;
  trace_.g = cfg_.g;
  trace_.L = cfg_.L;
  inboxes_.resize(cfg_.p);
  send_cnt_.assign(cfg_.p, 0);
  recv_cnt_.assign(cfg_.p, 0);
  work_cnt_.assign(cfg_.p, 0);
}

void BspMachine::begin_superstep() {
  if (in_step_) throw ModelViolation("begin_superstep inside open superstep");
  in_step_ = true;
  sends_.clear();
  locals_.clear();
}

void BspMachine::send(ProcId src, ProcId dst, Word value, Word tag) {
  if (!in_step_) throw ModelViolation("send outside a superstep");
  if (src >= cfg_.p || dst >= cfg_.p)
    throw ModelViolation("send endpoint out of range");
  sends_.push_back({src, dst, Message{src, value, tag}});
}

void BspMachine::local(ProcId proc, std::uint64_t ops) {
  if (!in_step_) throw ModelViolation("local outside a superstep");
  if (proc >= cfg_.p) throw ModelViolation("processor id out of range");
  locals_.push_back({proc, ops});
}

const PhaseTrace& BspMachine::commit_superstep() {
  if (!in_step_) throw ModelViolation("commit without begin_superstep");
  in_step_ = false;

  PhaseTrace ph;
  PhaseStats& st = ph.stats;

  // Dense per-processor tallies (endpoints are range-checked at issue
  // time). Maxima are tracked as the counters rise, and the counters are
  // re-zeroed by a second pass over the same requests, so a superstep's
  // accounting costs O(#requests) with no hashing and no O(p) sweep. A
  // big superstep (picked by size alone; see phase_scan.hpp) is counted
  // the same way and may deliver in parallel.
  const bool big = sends_.size() >= detail::commit_shard_min_requests();
  if (big) ph.commit_shards = detail::kCommitShards;
  const detail::AccountingTimer timer(big);
  std::uint64_t h = 0;
  std::uint64_t fan_in = 0;
  for (const auto& s : sends_) {
    h = std::max(h, ++send_cnt_[s.src]);
    fan_in = std::max(fan_in, ++recv_cnt_[s.dst]);
  }
  h = std::max(h, fan_in);
  for (const auto& s : sends_) {
    send_cnt_[s.src] = 0;
    recv_cnt_[s.dst] = 0;
  }
  ph.commit_merge_ns = timer.elapsed_ns();
  for (const auto& [proc, ops] : locals_) {
    work_cnt_[proc] += ops;
    st.m_op = std::max(st.m_op, work_cnt_[proc]);
    st.ops += ops;
  }
  for (const auto& [proc, ops] : locals_) work_cnt_[proc] = 0;
  ph.h = h;

  // Record the h-relation in the shared PhaseStats fields so the Claim 2.1
  // replayer can treat a superstep like a phase: sends look like writes,
  // receives like reads, and per-destination fan-in is the contention.
  st.m_rw = std::max<std::uint64_t>(1, h);
  st.reads = sends_.size();
  st.writes = sends_.size();
  st.kappa_r = std::max<std::uint64_t>(1, fan_in);
  st.kappa_w = st.kappa_r;

  ph.cost = std::max({st.m_op, cfg_.g * h, cfg_.L});
  time_ += ph.cost;

  // Deliver: each destination's box receives its messages in issue
  // order. The parallel path partitions destinations into ranges, so a
  // box is cleared and appended to by exactly one shard — the delivered
  // state is identical to the serial loop.
  auto& pool = runtime::ParallelFor::pool();
  if (big && !cfg_.record_detail &&
      !pool.runs_inline(detail::kCommitShards)) {
    pool.for_shards(cfg_.p, detail::kCommitShards,
                    [&](unsigned s, std::uint64_t plo, std::uint64_t phi) {
                      obs::Span span(obs::process_tracer(), "commit.shard", s);
                      for (std::uint64_t d = plo; d < phi; ++d)
                        inboxes_[d].clear();
                      for (const auto& sr : sends_)
                        if (sr.dst >= plo && sr.dst < phi)
                          inboxes_[sr.dst].push_back(sr.msg);
                    });
  } else {
    for (auto& box : inboxes_) box.clear();
    for (const auto& s : sends_) {
      inboxes_[s.dst].push_back(s.msg);
      if (cfg_.record_detail)
        ph.events.push_back({s.src, s.dst, s.msg.value, true});
    }
  }

  trace_.phases.push_back(std::move(ph));
  if (observer_ != nullptr)
    observer_->on_phase_committed(trace_, trace_.phases.size() - 1);
  obs::phase_hook(trace_, trace_.phases.size() - 1);
  return trace_.phases.back();
}

std::span<const Message> BspMachine::inbox(ProcId proc) const {
  return inboxes_.at(proc);
}

std::pair<std::uint64_t, std::uint64_t> BspMachine::block_range(
    std::uint64_t n, std::uint64_t p, std::uint64_t i) {
  // First (n mod p) components receive ceil(n/p), the rest floor(n/p).
  const std::uint64_t q = n / p;
  const std::uint64_t r = n % p;
  const std::uint64_t lo = i * q + std::min(i, r);
  const std::uint64_t hi = lo + q + (i < r ? 1 : 0);
  return {lo, hi};
}

}  // namespace parbounds
