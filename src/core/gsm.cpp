#include "core/gsm.hpp"

#include <algorithm>

#include "core/phase_scan.hpp"
#include "obs/telemetry.hpp"
#include "util/mathx.hpp"

namespace parbounds {

const std::vector<std::vector<Word>> GsmMachine::kEmpty = {};
const std::vector<Word> GsmMachine::kEmptyCell = {};

GsmMachine::GsmMachine(GsmConfig cfg)
    : cfg_(cfg), mem_(cfg.mem_dense_limit) {
  if (cfg_.alpha == 0 || cfg_.beta == 0 || cfg_.gamma == 0)
    throw std::invalid_argument("GSM parameters must be >= 1");
  trace_.kind = ExecutionTrace::Kind::Gsm;
}

Addr GsmMachine::alloc(std::uint64_t n) {
  const Addr base = next_base_;
  next_base_ += n;
  return base;
}

std::uint64_t GsmMachine::load_inputs(Addr base, std::span<const Word> inputs) {
  std::uint64_t cells = 0;
  for (std::size_t i = 0; i < inputs.size(); i += cfg_.gamma) {
    auto& cell = mem_.slot(base + cells);
    const std::size_t hi = std::min(inputs.size(), i + cfg_.gamma);
    cell.assign(inputs.begin() + static_cast<std::ptrdiff_t>(i),
                inputs.begin() + static_cast<std::ptrdiff_t>(hi));
    ++cells;
  }
  return cells;
}

void GsmMachine::preload(Addr a, std::span<const Word> contents) {
  mem_.slot(a).assign(contents.begin(), contents.end());
}

void GsmMachine::begin_phase() {
  if (in_phase_) throw ModelViolation("begin_phase inside an open phase");
  if (!started_) {
    initial_mem_.clear();
    mem_.for_each([this](Addr a, const std::vector<Word>& cell) {
      initial_mem_.emplace(a, cell);
    });
    started_ = true;
  }
  in_phase_ = true;
  reads_.clear();
  writes_.clear();
}

void GsmMachine::read(ProcId p, Addr a) {
  if (!in_phase_) throw ModelViolation("read outside a phase");
  reads_.push_back({p, a});
}

void GsmMachine::write(ProcId p, Addr a, Word v) {
  if (!in_phase_) throw ModelViolation("write outside a phase");
  writes_.push_back({p, a, {v}});
}

void GsmMachine::write_block(ProcId p, Addr a, std::span<const Word> vs) {
  if (!in_phase_) throw ModelViolation("write outside a phase");
  writes_.push_back({p, a, std::vector<Word>(vs.begin(), vs.end())});
}

const PhaseTrace& GsmMachine::commit_phase() {
  if (!in_phase_) throw ModelViolation("commit_phase without begin_phase");
  in_phase_ = false;

  PhaseTrace ph;
  PhaseStats& st = ph.stats;
  st.reads = reads_.size();
  st.writes = writes_.size();

  // The GSM charges reads and writes jointly per processor. Every phase
  // is counted serially; the GSM has no parallel apply pass, so phase
  // size changes nothing here.
  proc_hist_.reset();
  for (const auto& r : reads_) proc_hist_.add(r.proc);
  for (const auto& w : writes_) proc_hist_.add(w.proc);
  st.m_rw = std::max(st.m_rw, proc_hist_.max_run());

  // Per-cell contention and the read-xor-write queue rule: dense
  // addresses through flat histograms (a write probes the read counter
  // directly), spilled addresses through a sorted two-pointer pass.
  bool clash = false;
  raddr_hist_.reset();
  for (const auto& r : reads_) raddr_hist_.add(r.addr);
  st.kappa_r = std::max(st.kappa_r, raddr_hist_.max_run());
  waddr_hist_.reset();
  for (const auto& w : writes_) {
    clash = clash || raddr_hist_.count(w.addr) > 0;
    waddr_hist_.add(w.addr);
  }
  st.kappa_w = std::max(st.kappa_w, waddr_hist_.max_run());
  clash = clash ||
          detail::first_common(raddr_hist_.spill(), waddr_hist_.spill())
              .has_value();
  if (clash)
    throw ModelViolation("GSM cell both read and written in one phase");

  // Big-step accounting (Section 2.2): a phase with b big-steps costs
  // mu * b; b = max(ceil(m_rw/alpha), ceil(kappa/beta)), at least 1.
  const std::uint64_t b =
      std::max<std::uint64_t>({1, ceil_div(st.m_rw, cfg_.alpha),
                               ceil_div(st.kappa(), cfg_.beta)});
  ph.cost = mu() * b;
  big_steps_ += b;
  time_ += ph.cost;

  inboxes_.begin_phase();
  for (const auto& r : reads_) {
    const std::vector<Word>* cell = mem_.find(r.addr);
    inboxes_.box(r.proc).push_back(cell == nullptr ? kEmptyCell : *cell);
    if (cfg_.record_detail) ph.events.push_back({r.proc, r.addr, 0, false});
  }

  // Strong queuing: every write appends its information to the cell.
  for (const auto& w : writes_) {
    auto& cell = mem_.slot(w.addr);
    cell.insert(cell.end(), w.values.begin(), w.values.end());
    if (cfg_.record_detail)
      ph.events.push_back(
          {w.proc, w.addr, w.values.empty() ? 0 : w.values.front(), true});
  }

  trace_.phases.push_back(std::move(ph));
  if (observer_ != nullptr)
    observer_->on_phase_committed(trace_, trace_.phases.size() - 1);
  obs::phase_hook(trace_, trace_.phases.size() - 1);
  return trace_.phases.back();
}

std::span<const std::vector<Word>> GsmMachine::inbox(ProcId p) const {
  const auto* box = inboxes_.find(p);
  if (box == nullptr) return kEmpty;
  return *box;
}

std::span<const Word> GsmMachine::peek(Addr a) const {
  const std::vector<Word>* cell = mem_.find(a);
  return (cell == nullptr) ? kEmptyCell : std::span<const Word>(*cell);
}

}  // namespace parbounds
