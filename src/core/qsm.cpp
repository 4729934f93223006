#include "core/qsm.hpp"

#include <algorithm>
#include <optional>

#include "core/phase_scan.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "runtime/parallel_for.hpp"

namespace parbounds {

QsmMachine::QsmMachine(QsmConfig cfg)
    : cfg_(cfg), rng_(cfg.seed), mem_(cfg.mem_dense_limit) {
  if (cfg_.g == 0) throw std::invalid_argument("QSM gap g must be >= 1");
  if (cfg_.d == 0) throw std::invalid_argument("QSM memory gap d must be >= 1");
  switch (cfg_.model) {
    case CostModel::SQsm:
      trace_.kind = ExecutionTrace::Kind::SQsm;
      break;
    case CostModel::QsmGd:
      trace_.kind = ExecutionTrace::Kind::QsmGd;
      break;
    default:
      trace_.kind = ExecutionTrace::Kind::Qsm;
  }
  trace_.g = cfg_.g;
  trace_.d = cfg_.d;
}

Addr QsmMachine::alloc(std::uint64_t n) {
  const Addr base = next_base_;
  next_base_ += n;
  return base;
}

void QsmMachine::preload(Addr base, std::span<const Word> values) {
  for (std::size_t i = 0; i < values.size(); ++i)
    if (values[i] != 0) mem_.slot(base + i) = values[i];
}

void QsmMachine::preload(Addr addr, Word value) { mem_.slot(addr) = value; }

void QsmMachine::begin_phase() {
  if (in_phase_) throw ModelViolation("begin_phase inside an open phase");
  in_phase_ = true;
  reads_.clear();
  writes_.clear();
  locals_.clear();
}

void QsmMachine::read(ProcId p, Addr a) {
  if (!in_phase_) throw ModelViolation("read outside a phase");
  reads_.push_back({p, a});
}

void QsmMachine::write(ProcId p, Addr a, Word v) {
  if (!in_phase_) throw ModelViolation("write outside a phase");
  writes_.push_back({p, a, v});
}

void QsmMachine::local(ProcId p, std::uint64_t ops) {
  if (!in_phase_) throw ModelViolation("local outside a phase");
  locals_.push_back({p, ops});
}

const PhaseTrace& QsmMachine::commit_phase() {
  if (!in_phase_) throw ModelViolation("commit_phase without begin_phase");
  in_phase_ = false;

  PhaseTrace ph;
  PhaseStats& st = ph.stats;
  st.reads = reads_.size();
  st.writes = writes_.size();

  // A big phase (a pure function of the phase size, never of the thread
  // count) is counted exactly like a small one; it records its shard
  // count and accounting time, and may apply its writes in parallel.
  const bool big =
      reads_.size() + writes_.size() >= detail::commit_shard_min_requests();
  if (big) ph.commit_shards = detail::kCommitShards;
  const detail::AccountingTimer timer(big);

  // Per-processor r_i / w_i via one proc-keyed histogram used twice
  // (a processor's reads and writes overlap in the pipeline, so they are
  // separate maxima, not a sum). reset() leads each use so a phase
  // aborted by a violation cannot leak counts into the next one.
  proc_hist_.reset();
  for (const auto& r : reads_) proc_hist_.add(r.proc);
  st.m_rw = std::max(st.m_rw, proc_hist_.max_run());
  proc_hist_.reset();
  for (const auto& w : writes_) proc_hist_.add(w.proc);
  st.m_rw = std::max(st.m_rw, proc_hist_.max_run());

  // Per-cell contention and the queue rule (reads XOR writes per cell).
  // Dense addresses are counted in flat histograms; a write at a dense
  // address probes the read counter directly, and the (rare) spilled
  // addresses are cross-checked by a sorted two-pointer pass. The
  // reported clash is the smallest conflicting address either way, so
  // the violation stays deterministic.
  std::optional<Addr> clash;
  raddr_hist_.reset();
  for (const auto& r : reads_) raddr_hist_.add(r.addr);
  st.kappa_r = std::max(st.kappa_r, raddr_hist_.max_run());
  waddr_hist_.reset();
  for (const auto& w : writes_) {
    if (raddr_hist_.count(w.addr) > 0 && (!clash || w.addr < *clash))
      clash = w.addr;
    waddr_hist_.add(w.addr);
  }
  st.kappa_w = std::max(st.kappa_w, waddr_hist_.max_run());
  if (const auto spill_clash =
          detail::first_common(raddr_hist_.spill(), waddr_hist_.spill()))
    if (!clash || *spill_clash < *clash) clash = *spill_clash;
  ph.commit_merge_ns = timer.elapsed_ns();

  // Per-processor c_i (weighted by ops per request).
  local_hist_.reset();
  for (const auto& l : locals_) local_hist_.add(l.proc, l.ops);
  const auto locals = local_hist_.result();
  st.m_op = std::max(st.m_op, locals.max_run);
  st.ops += locals.total;

  if (clash)
    throw ModelViolation("cell " + std::to_string(*clash) +
                         " both read and written in one phase");

  if (cfg_.model == CostModel::Erew && st.kappa() > 1)
    throw ModelViolation("EREW: concurrent access (contention " +
                         std::to_string(st.kappa()) + ")");

  ph.cost = phase_cost(cfg_.model, cfg_.g, st, cfg_.d);
  time_ += ph.cost;

  // Deliver reads: values are the cell contents at the start of the phase
  // (writes below have not been applied yet), in issue order per processor.
  delivery_.deliver(
      reads_.size(), [this](std::size_t i) { return reads_[i].proc; },
      [&](std::size_t i) {
        const ReadReq& r = reads_[i];
        const Word* cell = mem_.find(r.addr);
        const Word v = (cell == nullptr) ? 0 : *cell;
        if (cfg_.record_detail) ph.events.push_back({r.proc, r.addr, v, false});
        return v;
      });

  // The parallel apply below is a strategy only (results never depend on
  // it): it runs on a big phase when the pool would really spread the
  // address ranges over threads.
  auto& pool = runtime::ParallelFor::pool();
  const bool par_apply = big && !cfg_.record_detail &&
                         !pool.runs_inline(detail::kCommitShards);

  // Apply writes. With multiple writers to one cell, an arbitrary write
  // succeeds: LastQueued keeps the final request's value; Random picks a
  // uniform winner per cell, drawing in ascending cell order so the
  // winner sequence is a pure function of the seed (an unordered_map
  // walk here would feed rng_ in library-specific order).
  if (cfg_.writes == WriteResolution::LastQueued) {
    // Parallel path: address ranges. A cell's writes are all applied by
    // the one shard owning its range, in issue order — the surviving
    // value is the last queued write, exactly as in the serial loop.
    bool applied = false;
    if (par_apply && waddr_hist_.spill().empty() &&
        mem_.reserve_dense(waddr_hist_.dense_size())) {
      pool.for_shards(waddr_hist_.dense_size(), detail::kCommitShards,
                      [&](unsigned s, std::uint64_t alo, std::uint64_t ahi) {
                        obs::Span span(obs::process_tracer(), "commit.shard",
                                       s);
                        for (const auto& w : writes_)
                          if (w.addr >= alo && w.addr < ahi)
                            mem_.slot(w.addr) = w.value;
                      });
      applied = true;
    }
    if (!applied) {
      for (const auto& w : writes_) {
        mem_.slot(w.addr) = w.value;
        if (cfg_.record_detail)
          ph.events.push_back({w.proc, w.addr, w.value, true});
      }
    }
  } else {
    // Random resolution draws rng_ in ascending cell order — the draw
    // sequence is inherently serial, but the dominant cost (sorting the
    // write groups) shards cleanly: (addr, issue index) pairs are
    // distinct, so parallel_sort is byte-identical to std::sort.
    wgroup_scratch_.clear();
    for (std::uint32_t i = 0; i < writes_.size(); ++i)
      wgroup_scratch_.push_back({writes_[i].addr, i});
    runtime::parallel_sort(wgroup_scratch_, pool);
    for (std::size_t lo = 0; lo < wgroup_scratch_.size();) {
      std::size_t hi = lo;
      while (hi < wgroup_scratch_.size() &&
             wgroup_scratch_[hi].first == wgroup_scratch_[lo].first)
        ++hi;
      const auto k =
          lo + static_cast<std::size_t>(rng_.next_below(hi - lo));
      const WriteReq& winner = writes_[wgroup_scratch_[k].second];
      mem_.slot(winner.addr) = winner.value;
      if (cfg_.record_detail)
        for (std::size_t j = lo; j < hi; ++j) {
          const WriteReq& w = writes_[wgroup_scratch_[j].second];
          ph.events.push_back({w.proc, w.addr, w.value, true});
        }
      lo = hi;
    }
  }

  trace_.phases.push_back(std::move(ph));
  if (observer_ != nullptr)
    observer_->on_phase_committed(trace_, trace_.phases.size() - 1);
  obs::phase_hook(trace_, trace_.phases.size() - 1);
  return trace_.phases.back();
}

std::span<const Word> QsmMachine::inbox(ProcId p) const {
  return delivery_.find(p);
}

Word QsmMachine::peek(Addr a) const {
  const Word* cell = mem_.find(a);
  return (cell == nullptr) ? 0 : *cell;
}

}  // namespace parbounds
