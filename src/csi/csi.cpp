#include "msc/csi/csi.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <tuple>

namespace msc::csi {

namespace {

using InstrKey = std::tuple<std::uint8_t, std::uint8_t, std::int64_t, std::uint64_t>;

InstrKey instr_key(const ir::Instr& in) {
  return {static_cast<std::uint8_t>(in.op), static_cast<std::uint8_t>(in.imm.kind),
          in.imm.i, std::bit_cast<std::uint64_t>(in.imm.f)};
}

std::vector<GuardedOp> serialize(const std::vector<Thread>& threads,
                                 std::size_t guard_bits) {
  std::vector<GuardedOp> out;
  for (const Thread& t : threads) {
    DynBitset g(guard_bits);
    g.set(t.key);
    for (const ir::Instr& in : *t.body) out.push_back({g, in});
  }
  return out;
}

/// Optimal (min-cost) merge of two already-guarded sequences: weighted
/// shortest common supersequence by dynamic programming.
std::vector<GuardedOp> merge_pair(const std::vector<GuardedOp>& a,
                                  const std::vector<GuardedOp>& b,
                                  const ir::CostModel& cost) {
  const std::size_t n = a.size(), m = b.size();
  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;
  std::vector<std::int64_t> dp((n + 1) * (m + 1), 0);
  auto at = [&](std::size_t i, std::size_t j) -> std::int64_t& {
    return dp[i * (m + 1) + j];
  };
  for (std::size_t i = n + 1; i-- > 0;) {
    for (std::size_t j = m + 1; j-- > 0;) {
      if (i == n && j == m) continue;
      std::int64_t best = kInf;
      if (i < n) best = std::min(best, cost.instr_cost(a[i].instr) + at(i + 1, j));
      if (j < m) best = std::min(best, cost.instr_cost(b[j].instr) + at(i, j + 1));
      if (i < n && j < m && a[i].instr == b[j].instr)
        best = std::min(best, cost.instr_cost(a[i].instr) + at(i + 1, j + 1));
      at(i, j) = best;
    }
  }
  std::vector<GuardedOp> out;
  std::size_t i = 0, j = 0;
  while (i < n || j < m) {
    // Prefer the shared emission when it is on an optimal path.
    if (i < n && j < m && a[i].instr == b[j].instr &&
        at(i, j) == cost.instr_cost(a[i].instr) + at(i + 1, j + 1)) {
      out.push_back({a[i].guard | b[j].guard, a[i].instr});
      ++i;
      ++j;
      continue;
    }
    if (i < n && at(i, j) == cost.instr_cost(a[i].instr) + at(i + 1, j)) {
      out.push_back(a[i]);
      ++i;
      continue;
    }
    out.push_back(b[j]);
    ++j;
  }
  return out;
}

std::vector<GuardedOp> progressive_in_order(const std::vector<const Thread*>& order,
                                            const ir::CostModel& cost,
                                            std::size_t guard_bits) {
  std::vector<GuardedOp> acc;
  for (const Thread* t : order) {
    std::vector<GuardedOp> cur;
    DynBitset g(guard_bits);
    g.set(t->key);
    for (const ir::Instr& in : *t->body) cur.push_back({g, in});
    acc = merge_pair(acc, cur, cost);
  }
  return acc;
}

/// Progressive pairwise merging, exploring several thread orders — our
/// lightweight analogue of the paper's permutation search (§3.1): merge
/// order changes which sharings the pairwise-optimal DP can see.
std::vector<GuardedOp> progressive(const std::vector<Thread>& threads,
                                   const ir::CostModel& cost,
                                   std::size_t guard_bits) {
  std::vector<const Thread*> order;
  for (const Thread& t : threads) order.push_back(&t);

  auto longest_first = order;
  std::sort(longest_first.begin(), longest_first.end(),
            [](const Thread* a, const Thread* b) {
              if (a->body->size() != b->body->size())
                return a->body->size() > b->body->size();
              return a->key < b->key;
            });
  auto reversed = order;
  std::reverse(reversed.begin(), reversed.end());

  std::vector<GuardedOp> best;
  std::int64_t best_cost = -1;
  for (const auto& o : {order, longest_first, reversed}) {
    auto sched = progressive_in_order(o, cost, guard_bits);
    std::int64_t c = schedule_cost(sched, cost);
    if (best_cost < 0 || c < best_cost) {
      best_cost = c;
      best = std::move(sched);
    }
  }
  return best;
}

}  // namespace

std::int64_t schedule_cost(const std::vector<GuardedOp>& schedule,
                           const ir::CostModel& cost) {
  std::int64_t total = 0;
  for (const GuardedOp& op : schedule) total += cost.instr_cost(op.instr);
  return total;
}

bool schedule_valid(const std::vector<GuardedOp>& schedule,
                    const std::vector<Thread>& threads) {
  for (const Thread& t : threads) {
    std::size_t pos = 0;
    for (const GuardedOp& op : schedule) {
      if (!op.guard.test(t.key)) continue;
      if (pos >= t.body->size()) return false;
      if (!((*t.body)[pos] == op.instr)) return false;
      ++pos;
    }
    if (pos != t.body->size()) return false;
  }
  // No op may carry a guard bit that is not one of the thread keys.
  DynBitset keys;
  for (const Thread& t : threads) keys.set(t.key);
  for (const GuardedOp& op : schedule)
    if (!op.guard.is_subset_of(keys)) return false;
  return true;
}

CsiResult induce(const std::vector<Thread>& threads, const ir::CostModel& cost,
                 const CsiOptions& options) {
  CsiResult res;
  std::size_t bits = options.guard_bits;
  for (const Thread& t : threads) bits = std::max(bits, t.key + 1);

  res.serialized_cost = 0;
  for (const Thread& t : threads)
    for (const ir::Instr& in : *t.body) res.serialized_cost += cost.instr_cost(in);

  // Class lower bound: each distinct instruction must appear at least
  // max-per-thread times; also no schedule is shorter than its longest
  // thread (§3.1's "theoretical lower bound on execution time").
  std::map<InstrKey, std::int64_t> class_cost;  // max over threads
  std::int64_t longest_thread = 0;
  for (const Thread& t : threads) {
    std::map<InstrKey, std::int64_t> local;
    std::int64_t tc = 0;
    for (const ir::Instr& in : *t.body) {
      local[instr_key(in)] += cost.instr_cost(in);
      tc += cost.instr_cost(in);
    }
    longest_thread = std::max(longest_thread, tc);
    for (const auto& [key, c] : local)
      class_cost[key] = std::max(class_cost[key], c);
  }
  std::int64_t class_bound = 0;
  for (const auto& [key, c] : class_cost) class_bound += c;
  res.lower_bound = std::max(class_bound, longest_thread);

  switch (options.algorithm) {
    case Algorithm::Serialize:
      res.schedule = serialize(threads, bits);
      break;
    case Algorithm::Progressive:
      res.schedule = progressive(threads, cost, bits);
      break;
  }
  res.induced_cost = schedule_cost(res.schedule, cost);
  for (const GuardedOp& op : res.schedule)
    if (op.guard.count() >= 2) ++res.shared_ops;
  return res;
}

}  // namespace msc::csi
