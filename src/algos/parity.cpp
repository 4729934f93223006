#include "algos/parity.hpp"

#include <algorithm>
#include <bit>

#include "algos/reduce.hpp"
#include "util/mathx.hpp"

namespace parbounds {

Word parity_tree(QsmMachine& m, Addr in, std::uint64_t n, unsigned fanin) {
  return reduce_tree(m, in, n, fanin, Combine::Xor);
}

unsigned parity_circuit_block(const QsmMachine& m, unsigned cap) {
  const std::uint64_t g = m.config().g;
  std::uint64_t k;
  if (m.config().model == CostModel::QsmCrFree) {
    // Reads are contention-free: the only queue left is the <= k writers
    // to a mismatch cell, which costs max(g, k); k = g is free.
    k = g;
  } else {
    // Queued reads: 2^(k-1) assignment-processors read each input bit, so
    // keep 2^(k-1) <= g.
    k = static_cast<std::uint64_t>(ilog2(std::max<std::uint64_t>(g, 2))) + 1;
  }
  return static_cast<unsigned>(std::clamp<std::uint64_t>(k, 2, cap));
}

Word parity_circuit(QsmMachine& m, Addr in, std::uint64_t n, unsigned block) {
  if (block == 0) block = parity_circuit_block(m);
  if (block < 2 || block > 16)
    throw std::invalid_argument("parity_circuit: block in [2,16]");
  if (n == 0) return 0;

  Addr cur = in;
  std::uint64_t len = n;
  while (len > 1) {
    const std::uint64_t k = std::min<std::uint64_t>(block, len);
    const std::uint64_t blocks = ceil_div(len, k);
    // Processor and mismatch-cell naming: pid(b, a, j) for block b, odd
    // assignment a, position j, and mism + slot(b, a). Only odd
    // assignments run, and an odd assignment is determined by its low k-1
    // bits (the top bit restores odd parity; a short last block has
    // a < 2^(k-1) anyway), so both index slot a mod 2^(k-1) — an
    // injective relabelling that leaves no id or cell to the even
    // assignments and every per-processor and per-cell count unchanged.
    const std::uint64_t half = std::uint64_t{1} << (k - 1);
    auto slot = [&](std::uint64_t b, std::uint64_t a) {
      return b * half + (a & (half - 1));
    };
    const Addr mism = m.alloc(blocks * half);
    const Addr out = m.alloc(blocks);
    auto pid = [&](std::uint64_t b, std::uint64_t a, std::uint64_t j) {
      return slot(b, a) * (k + 1) + j + 1;  // +1 leaves the leader's id
    };
    auto leader = [&](std::uint64_t b, std::uint64_t a) {
      return slot(b, a) * (k + 1);
    };
    auto block_size = [&](std::uint64_t b) {
      const std::uint64_t lo = b * k;
      return std::min<std::uint64_t>(len, lo + k) - lo;
    };
    auto odd = [](std::uint64_t a) { return (std::popcount(a) & 1) != 0; };

    // Phase 1: every (odd assignment, position) processor reads its bit.
    // Read contention at each input cell is the number of odd assignments
    // of its block, 2^(kb-1).
    m.begin_phase();
    for (std::uint64_t b = 0; b < blocks; ++b) {
      const std::uint64_t kb = block_size(b);
      for (std::uint64_t a = 0; a < (std::uint64_t{1} << kb); ++a) {
        if (!odd(a)) continue;
        for (std::uint64_t j = 0; j < kb; ++j)
          m.read(pid(b, a, j), cur + b * k + j);
      }
    }
    m.commit_phase();

    // Phase 2: position processors AND their bit against the assignment by
    // raising a mismatch flag; <= kb writers per mismatch cell.
    m.begin_phase();
    for (std::uint64_t b = 0; b < blocks; ++b) {
      const std::uint64_t kb = block_size(b);
      for (std::uint64_t a = 0; a < (std::uint64_t{1} << kb); ++a) {
        if (!odd(a)) continue;
        for (std::uint64_t j = 0; j < kb; ++j) {
          const Word bit = m.inbox(pid(b, a, j))[0];
          m.local(pid(b, a, j), 1);
          if ((bit != 0) != (((a >> j) & 1) != 0))
            m.write(pid(b, a, j), mism + slot(b, a), 1);
        }
      }
    }
    m.commit_phase();

    // Phase 3: one leader per (block, odd assignment) checks its flag.
    m.begin_phase();
    for (std::uint64_t b = 0; b < blocks; ++b) {
      const std::uint64_t kb = block_size(b);
      for (std::uint64_t a = 0; a < (std::uint64_t{1} << kb); ++a)
        if (odd(a)) m.read(leader(b, a), mism + slot(b, a));
    }
    m.commit_phase();

    // Phase 4: the (at most one) fully-matching odd assignment claims the
    // block output; blocks with even parity keep the fresh cell's 0.
    m.begin_phase();
    for (std::uint64_t b = 0; b < blocks; ++b) {
      const std::uint64_t kb = block_size(b);
      for (std::uint64_t a = 0; a < (std::uint64_t{1} << kb); ++a) {
        if (!odd(a)) continue;
        m.local(leader(b, a), 1);
        if (m.inbox(leader(b, a))[0] == 0) m.write(leader(b, a), out + b, 1);
      }
    }
    m.commit_phase();

    cur = out;
    len = blocks;
  }
  return m.peek(cur);
}

Word parity_rounds(QsmMachine& m, Addr in, std::uint64_t n, std::uint64_t p) {
  return reduce_rounds(m, in, n, p, Combine::Xor);
}

Word parity_bsp(BspMachine& m, std::span<const Word> input) {
  return bsp_reduce(m, input, Combine::Xor);
}

Word bsp_reduce(BspMachine& m, std::span<const Word> input, Combine op,
                std::uint64_t fanin) {
  const std::uint64_t p = m.p();
  if (fanin == 0)
    fanin = std::clamp<std::uint64_t>(m.L() / m.g(), 2, 1u << 20);

  // Superstep 1: local scan of the block-distributed input.
  std::vector<Word> partial(p, combine_identity(op));
  m.begin_superstep();
  for (std::uint64_t i = 0; i < p; ++i) {
    const auto [lo, hi] = BspMachine::block_range(input.size(), p, i);
    Word acc = combine_identity(op);
    for (std::uint64_t j = lo; j < hi; ++j)
      acc = apply_combine(op, acc, input[j]);
    partial[i] = acc;
    m.local(i, std::max<std::uint64_t>(1, hi - lo));
  }
  m.commit_superstep();

  // Tree: active components at a level are 0..cnt-1. Component i ships its
  // partial to group leader i/fanin (except i = 0, its own leader); the
  // leader folds what arrived as local work of the *next* superstep, since
  // BSP messages sent in one superstep are usable only after it ends.
  std::uint64_t cnt = p;
  std::vector<std::uint64_t> pending_fold(p, 0);
  while (cnt > 1) {
    const std::uint64_t groups = ceil_div(cnt, fanin);
    m.begin_superstep();
    for (std::uint64_t j = 0; j < p; ++j)
      if (pending_fold[j] > 0) {
        m.local(j, pending_fold[j]);
        pending_fold[j] = 0;
      }
    for (std::uint64_t i = 0; i < cnt; ++i)
      if (i / fanin != i) m.send(i, i / fanin, partial[i]);
    m.commit_superstep();

    // Harvest: leader j's new partial is the fold of its group; component
    // 0's own value stays in place, every other leader shipped its old
    // value away, so it restarts from the identity.
    for (std::uint64_t j = 0; j < groups; ++j) {
      Word acc = (j == 0) ? partial[0] : combine_identity(op);
      const auto box = m.inbox(j);
      for (const Message& msg : box) acc = apply_combine(op, acc, msg.value);
      partial[j] = acc;
      pending_fold[j] = std::max<std::uint64_t>(1, box.size());
    }
    cnt = groups;
  }

  // Trailing superstep charging the final fold's local work.
  m.begin_superstep();
  if (pending_fold[0] > 0) m.local(0, pending_fold[0]);
  m.commit_superstep();
  return partial[0];
}

}  // namespace parbounds
