#include "core/crcw.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <string>

#include "core/phase_scan.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "runtime/parallel_for.hpp"

namespace parbounds {

CrcwMachine::CrcwMachine(CrcwConfig cfg)
    : cfg_(cfg), mem_(cfg.mem_dense_limit) {
  trace_.kind = ExecutionTrace::Kind::Qsm;  // unit-gap shared memory
  trace_.g = 1;
}

Addr CrcwMachine::alloc(std::uint64_t n) {
  const Addr base = next_base_;
  next_base_ += n;
  return base;
}

void CrcwMachine::preload(Addr base, std::span<const Word> values) {
  for (std::size_t i = 0; i < values.size(); ++i)
    if (values[i] != 0) mem_.slot(base + i) = values[i];
}

void CrcwMachine::preload(Addr addr, Word value) { mem_.slot(addr) = value; }

void CrcwMachine::begin_step() {
  if (in_step_) throw ModelViolation("begin_step inside an open step");
  in_step_ = true;
  reads_.clear();
  writes_.clear();
  locals_.clear();
}

void CrcwMachine::read(ProcId p, Addr a) {
  if (!in_step_) throw ModelViolation("read outside a step");
  reads_.push_back({p, a});
}

void CrcwMachine::write(ProcId p, Addr a, Word v) {
  if (!in_step_) throw ModelViolation("write outside a step");
  writes_.push_back({p, a, v});
}

void CrcwMachine::local(ProcId p, std::uint64_t ops) {
  if (!in_step_) throw ModelViolation("local outside a step");
  locals_.push_back({p, ops});
}

const PhaseTrace& CrcwMachine::commit_step() {
  if (!in_step_) throw ModelViolation("commit_step without begin_step");
  in_step_ = false;

  PhaseTrace ph;
  PhaseStats& st = ph.stats;
  st.reads = reads_.size();
  st.writes = writes_.size();

  // The PRAM charges reads and writes jointly per processor. A big step
  // (picked by size alone; see phase_scan.hpp) is counted like a small
  // one and may resolve its writes in parallel.
  const bool big =
      reads_.size() + writes_.size() >= detail::commit_shard_min_requests();
  if (big) ph.commit_shards = detail::kCommitShards;
  const detail::AccountingTimer timer(big);
  proc_hist_.reset();
  for (const auto& r : reads_) proc_hist_.add(r.proc);
  for (const auto& w : writes_) proc_hist_.add(w.proc);
  st.m_rw = std::max(st.m_rw, proc_hist_.max_run());

  // Contention is recorded (for comparisons) but NOT charged. One
  // histogram serves both directions, reset in between; writes go last,
  // so its spill and extent bound the parallel write resolution below.
  addr_hist_.reset();
  for (const auto& r : reads_) addr_hist_.add(r.addr);
  st.kappa_r = std::max(st.kappa_r, addr_hist_.max_run());
  addr_hist_.reset();
  for (const auto& w : writes_) addr_hist_.add(w.addr);
  st.kappa_w = std::max(st.kappa_w, addr_hist_.max_run());
  ph.commit_merge_ns = timer.elapsed_ns();

  local_hist_.reset();
  for (const auto& [p, ops] : locals_) local_hist_.add(p, ops);
  const auto local_agg = local_hist_.result();
  st.m_op = std::max(st.m_op, local_agg.max_run);
  st.ops += local_agg.total;

  // A PRAM step: every processor does O(1) work; charging max(1, m_op)
  // keeps heavy local computation visible.
  ph.cost = std::max<std::uint64_t>(1, st.m_op);
  time_ += ph.cost;

  // Reads see the pre-step memory, delivered in issue order per processor.
  delivery_.deliver(
      reads_.size(), [this](std::size_t i) { return reads_[i].proc; },
      [this](std::size_t i) {
        const Word* cell = mem_.find(reads_[i].addr);
        return cell == nullptr ? Word{0} : *cell;
      });

  // Parallel write resolution is a strategy only: it runs on a big step
  // when the pool would really spread the ranges.
  auto& pool = runtime::ParallelFor::pool();
  const bool par_apply = big && !pool.runs_inline(detail::kCommitShards);

  // Resolve writes per rule over addr-sorted groups; within a group the
  // index component keeps issue order, so "last queued" and
  // "first-queued tie-break" mean exactly what they did before. The
  // (addr, issue index) pairs are distinct, so parallel_sort yields
  // byte-identical order to std::sort.
  wgroup_scratch_.clear();
  for (std::uint32_t i = 0; i < writes_.size(); ++i)
    wgroup_scratch_.push_back({writes_[i].addr, i});
  runtime::parallel_sort(wgroup_scratch_, pool);

  // A group's winner (and any Common conflict) is a pure function of the
  // group, and a group lies wholly inside one address range — so the
  // ranges resolve independently. To reproduce the serial loop exactly
  // when Common conflicts, the parallel path detects first, then applies
  // only the groups strictly below the smallest conflicting address
  // (= the groups the serial loop applied before throwing).
  const auto resolve_range = [&](std::uint64_t alo, std::uint64_t ahi,
                                 bool apply) -> std::optional<Addr> {
    auto it = std::lower_bound(
        wgroup_scratch_.begin(), wgroup_scratch_.end(),
        std::pair<Addr, std::uint32_t>{alo, 0});
    std::size_t lo = static_cast<std::size_t>(it - wgroup_scratch_.begin());
    while (lo < wgroup_scratch_.size() && wgroup_scratch_[lo].first < ahi) {
      std::size_t hi = lo;
      while (hi < wgroup_scratch_.size() &&
             wgroup_scratch_[hi].first == wgroup_scratch_[lo].first)
        ++hi;
      const WriteReq* win = &writes_[wgroup_scratch_[lo].second];
      for (std::size_t j = lo + 1; j < hi; ++j) {
        const WriteReq& w = writes_[wgroup_scratch_[j].second];
        switch (cfg_.rule) {
          case CrcwWriteRule::Common:
            if (win->value != w.value) return w.addr;  // smallest in range
            break;
          case CrcwWriteRule::Arbitrary:
            win = &w;  // last queued
            break;
          case CrcwWriteRule::Priority:
            if (w.proc < win->proc) win = &w;
            break;
        }
      }
      if (apply) mem_.slot(win->addr) = win->value;
      lo = hi;
    }
    return std::nullopt;
  };

  bool resolved = false;
  if (par_apply && addr_hist_.spill().empty() &&
      mem_.reserve_dense(addr_hist_.dense_size())) {
    const std::uint64_t extent = addr_hist_.dense_size();
    std::array<std::optional<Addr>, detail::kCommitShards> conflict{};
    pool.for_shards(extent, detail::kCommitShards,
                    [&](unsigned s, std::uint64_t alo, std::uint64_t ahi) {
                      obs::Span span(obs::process_tracer(), "commit.shard", s);
                      conflict[s] = resolve_range(
                          alo, ahi, cfg_.rule != CrcwWriteRule::Common);
                    });
    std::optional<Addr> worst;
    for (const auto& c : conflict)
      if (c && (!worst || *c < *worst)) worst = c;
    if (cfg_.rule == CrcwWriteRule::Common) {
      // Apply the conflict-free prefix, exactly like the serial walk.
      pool.for_shards(worst ? *worst : extent, detail::kCommitShards,
                      [&](unsigned, std::uint64_t alo, std::uint64_t ahi) {
                        resolve_range(alo, ahi, true);
                      });
      if (worst)
        throw ModelViolation("CRCW-Common: conflicting writes to cell " +
                             std::to_string(*worst));
    }
    resolved = true;
  }
  if (!resolved) {
    // Serial walk: apply as we go; on a Common conflict the groups
    // before the clashing address are already applied, matching the
    // historical loop exactly.
    if (const auto c = resolve_range(0, std::uint64_t(-1), true))
      throw ModelViolation("CRCW-Common: conflicting writes to cell " +
                           std::to_string(*c));
  }

  trace_.phases.push_back(std::move(ph));
  if (observer_ != nullptr)
    observer_->on_phase_committed(trace_, trace_.phases.size() - 1);
  obs::phase_hook(trace_, trace_.phases.size() - 1);
  return trace_.phases.back();
}

std::span<const Word> CrcwMachine::inbox(ProcId p) const {
  return delivery_.find(p);
}

Word CrcwMachine::peek(Addr a) const {
  const Word* cell = mem_.find(a);
  return cell == nullptr ? 0 : *cell;
}

}  // namespace parbounds
