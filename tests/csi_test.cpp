#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "msc/csi/csi.hpp"
#include "msc/support/rng.hpp"

using namespace msc;
using namespace msc::csi;
using ir::Instr;
using ir::Opcode;

namespace {

ir::CostModel kCost;

std::vector<Instr> body(std::initializer_list<Instr> instrs) { return instrs; }

CsiResult run(const std::vector<std::vector<Instr>>& bodies,
              Algorithm alg = Algorithm::Progressive) {
  std::vector<Thread> threads;
  for (std::size_t i = 0; i < bodies.size(); ++i)
    threads.push_back({i, &bodies[i]});
  CsiOptions opts;
  opts.algorithm = alg;
  opts.guard_bits = bodies.size();
  CsiResult res = induce(threads, kCost, opts);
  EXPECT_TRUE(schedule_valid(res.schedule, threads));
  EXPECT_GE(res.induced_cost, res.lower_bound);
  EXPECT_LE(res.induced_cost, res.serialized_cost);
  return res;
}

}  // namespace

TEST(Csi, IdenticalThreadsCollapseToOneCopy) {
  auto b = body({Instr::push_i(1), Instr::push_i(0), Instr::of(Opcode::StL)});
  auto res = run({b, b, b});
  EXPECT_EQ(res.schedule.size(), 3u);
  EXPECT_EQ(res.induced_cost, res.lower_bound);
  EXPECT_EQ(res.shared_ops, 3u);
  for (const GuardedOp& op : res.schedule) EXPECT_EQ(op.guard.count(), 3u);
}

TEST(Csi, DisjointThreadsSerialize) {
  auto a = body({Instr::push_i(1), Instr::of(Opcode::Add)});
  auto b = body({Instr::push_i(2), Instr::of(Opcode::Mul)});
  auto res = run({a, b});
  EXPECT_EQ(res.induced_cost, res.serialized_cost);
  EXPECT_EQ(res.shared_ops, 0u);
}

TEST(Csi, PartialOverlapFactorsSharedPrefix) {
  // Common prefix Push(0) LdL; divergent tails.
  auto a = body({Instr::push_i(0), Instr::of(Opcode::LdL), Instr::push_i(1),
                 Instr::of(Opcode::Add)});
  auto b = body({Instr::push_i(0), Instr::of(Opcode::LdL), Instr::push_i(2),
                 Instr::of(Opcode::Mul)});
  auto res = run({a, b});
  // Shared: Push(0), LdL → 2 ops saved relative to serialization.
  EXPECT_EQ(res.shared_ops, 2u);
  EXPECT_EQ(res.induced_cost,
            res.serialized_cost - (kCost.push + kCost.ld_local));
}

TEST(Csi, InterleavedSharingRespectsThreadOrder) {
  // a = [X, Y], b = [Y, X]: only one op can be shared; SCS length 3.
  auto a = body({Instr::of(Opcode::Add), Instr::of(Opcode::Mul)});
  auto b = body({Instr::of(Opcode::Mul), Instr::of(Opcode::Add)});
  auto res = run({a, b});
  EXPECT_EQ(res.schedule.size(), 3u);
}

TEST(Csi, EmptyThreadsAreFine) {
  std::vector<Instr> empty;
  auto a = body({Instr::push_i(1)});
  std::vector<Thread> threads{{0, &empty}, {1, &a}};
  CsiOptions opts;
  opts.guard_bits = 2;
  auto res = induce(threads, kCost, opts);
  EXPECT_EQ(res.schedule.size(), 1u);
  EXPECT_TRUE(schedule_valid(res.schedule, threads));
}

TEST(Csi, NoThreadsAtAll) {
  auto res = induce({}, kCost, {});
  EXPECT_TRUE(res.schedule.empty());
  EXPECT_EQ(res.serialized_cost, 0);
}

TEST(Csi, SerializeAlgorithmNeverShares) {
  auto b = body({Instr::push_i(1), Instr::push_i(2)});
  auto res = run({b, b}, Algorithm::Serialize);
  EXPECT_EQ(res.shared_ops, 0u);
  EXPECT_EQ(res.induced_cost, res.serialized_cost);
}

TEST(Csi, ImmediatesDistinguishInstructions) {
  // Push(1) and Push(2) are different ops and must not merge.
  auto a = body({Instr::push_i(1)});
  auto b = body({Instr::push_i(2)});
  auto res = run({a, b});
  EXPECT_EQ(res.schedule.size(), 2u);
  // But float 1.0 vs int 1 must also be distinct.
  auto fa = body({Instr::push_f(1.0)});
  auto ia = body({Instr::push_i(1)});
  auto res2 = run({fa, ia});
  EXPECT_EQ(res2.schedule.size(), 2u);
}

TEST(Csi, SignedZerosAreDistinctInstructions) {
  // 0.0 == -0.0 as numbers, but a shared push would hand one thread the
  // other's literal: each keeps its own op.
  auto res = run({body({Instr::push_f(0.0)}), body({Instr::push_f(-0.0)})});
  ASSERT_EQ(res.schedule.size(), 2u);
  EXPECT_EQ(res.shared_ops, 0u);
  for (const GuardedOp& op : res.schedule) EXPECT_EQ(op.guard.count(), 1u);
  EXPECT_NE(res.schedule[0].instr.imm.bits(), res.schedule[1].instr.imm.bits());
}

TEST(Csi, NanLiteralSharesWithItself) {
  // A NaN literal is bit-identical to itself, so two threads pushing it
  // share one op and the schedule still projects onto each thread.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto b = body({Instr::push_f(nan), Instr::of(Opcode::Add)});
  auto res = run({b, b});  // run() checks schedule_valid
  EXPECT_EQ(res.schedule.size(), 2u);
  EXPECT_EQ(res.shared_ops, 2u);
}

TEST(Csi, LowerBoundCountsRepeatsPerThread) {
  // Thread a needs Add twice; b needs it once → at least 2 Adds.
  auto a = body({Instr::of(Opcode::Add), Instr::of(Opcode::Add)});
  auto b = body({Instr::of(Opcode::Add)});
  auto res = run({a, b});
  EXPECT_EQ(res.lower_bound, 2 * kCost.alu);
  EXPECT_EQ(res.induced_cost, 2 * kCost.alu);
}

TEST(Csi, CostWeightedChoicePrefersExpensiveSharing) {
  // The shared expensive Div is emitted once, ahead of the unshareable
  // cheap Pushes.
  auto a = body({Instr::of(Opcode::Div), Instr::push_i(1)});
  auto b = body({Instr::of(Opcode::Div), Instr::push_i(2)});
  auto res = run({a, b});
  ASSERT_FALSE(res.schedule.empty());
  EXPECT_EQ(res.schedule[0].instr.op, Opcode::Div);
  EXPECT_EQ(res.schedule[0].guard.count(), 2u);
}

TEST(Csi, RandomizedSchedulesAlwaysValidAndBounded) {
  Rng rng(7);
  // The last trial has 130 threads, so guard rows span three words.
  for (int trial = 0; trial < 41; ++trial) {
    std::vector<std::vector<Instr>> bodies;
    std::size_t nthreads = trial < 40 ? 2 + rng.next_below(4) : 130;
    for (std::size_t t = 0; t < nthreads; ++t) {
      std::vector<Instr> b;
      std::size_t len = rng.next_below(12);
      for (std::size_t i = 0; i < len; ++i) {
        switch (rng.next_below(5)) {
          case 0: b.push_back(Instr::push_i(rng.next_range(0, 3))); break;
          case 1: b.push_back(Instr::of(Opcode::Add)); break;
          case 2: b.push_back(Instr::of(Opcode::LdL)); break;
          case 3: b.push_back(Instr::of(Opcode::Mul)); break;
          default: b.push_back(Instr::of(Opcode::StL)); break;
        }
      }
      bodies.push_back(std::move(b));
    }
    for (Algorithm alg : {Algorithm::Serialize, Algorithm::Progressive}) {
      run(bodies, alg);  // run() asserts validity and cost bounds
    }
  }
}

TEST(Csi, ProgressiveIsOptimalForTwoThreads) {
  // For two threads the pairwise DP is exactly optimal: compare against
  // the known SCS of a small instance.
  auto a = body({Instr::push_i(1), Instr::of(Opcode::Add), Instr::push_i(2)});
  auto b = body({Instr::of(Opcode::Add), Instr::push_i(2), Instr::push_i(1)});
  auto res = run({a, b});
  // SCS of [1,A,2] and [A,2,1] is [1,A,2,1] (length 4).
  EXPECT_EQ(res.schedule.size(), 4u);
}

namespace {

/// Cost of the cheapest legal merge of a[i..] and b[j..], found by
/// enumerating every one: each step emits a's next op alone, b's next op
/// alone, or — when they are the same instruction — one op shared by
/// both. Every complete merge is checked with schedule_valid.
std::int64_t min_merge_cost(const std::vector<Thread>& threads,
                            std::size_t i, std::size_t j,
                            std::vector<GuardedOp>& prefix) {
  const std::vector<Instr>& a = *threads[0].body;
  const std::vector<Instr>& b = *threads[1].body;
  if (i == a.size() && j == b.size()) {
    EXPECT_TRUE(schedule_valid(prefix, threads));
    return schedule_cost(prefix, kCost);
  }
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  auto emit = [&](std::initializer_list<std::size_t> keys, const Instr& in,
                  std::size_t ni, std::size_t nj) {
    DynBitset g(2);
    for (std::size_t k : keys) g.set(k);
    prefix.push_back({g, in});
    best = std::min(best, min_merge_cost(threads, ni, nj, prefix));
    prefix.pop_back();
  };
  if (i < a.size()) emit({0}, a[i], i + 1, j);
  if (j < b.size()) emit({1}, b[j], i, j + 1);
  if (i < a.size() && j < b.size() && a[i] == b[j])
    emit({0, 1}, a[i], i + 1, j + 1);
  return best;
}

}  // namespace

TEST(Csi, ProgressiveMatchesExhaustiveMergeForTwoThreads) {
  Rng rng(17);
  for (int trial = 0; trial < 250; ++trial) {
    std::vector<std::vector<Instr>> bodies(2);
    for (auto& b : bodies) {
      std::size_t len = rng.next_below(6);
      for (std::size_t i = 0; i < len; ++i) {
        switch (rng.next_below(6)) {
          case 0: b.push_back(Instr::push_i(rng.next_range(0, 2))); break;
          case 1: b.push_back(Instr::of(Opcode::Add)); break;
          case 2: b.push_back(Instr::of(Opcode::Mul)); break;
          case 3: b.push_back(Instr::of(Opcode::Div)); break;
          case 4: b.push_back(Instr::of(Opcode::LdL)); break;
          default: b.push_back(Instr::of(Opcode::StL)); break;
        }
      }
    }
    std::vector<Thread> threads{{0, &bodies[0]}, {1, &bodies[1]}};
    std::vector<GuardedOp> prefix;
    const std::int64_t optimum = min_merge_cost(threads, 0, 0, prefix);
    EXPECT_EQ(run(bodies).induced_cost, optimum) << "trial " << trial;
  }
}

TEST(Csi, OrderSearchNeverWorseThanAnySingleOrder) {
  // Three threads where merge order matters: the long thread shares with
  // each short one in different regions.
  auto a = body({Instr::of(Opcode::Add), Instr::of(Opcode::Mul),
                 Instr::of(Opcode::LdL), Instr::of(Opcode::StL)});
  auto b = body({Instr::of(Opcode::Add), Instr::of(Opcode::Mul)});
  auto c = body({Instr::of(Opcode::LdL), Instr::of(Opcode::StL)});
  auto res = run({b, c, a});
  // Optimal: schedule a's body once, shared with b's prefix and c's
  // suffix → 4 ops.
  EXPECT_EQ(res.schedule.size(), 4u);
  EXPECT_EQ(res.induced_cost, res.lower_bound);
}
