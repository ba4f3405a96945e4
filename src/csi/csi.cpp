#include "msc/csi/csi.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <numeric>

namespace msc::csi {

namespace {

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

/// The threads of one induce() call as integers: every distinct
/// instruction gets a dense id keyed by (op, imm kind, imm bits) — the
/// relation Instr::operator== tests — and its cost is computed once.
struct Interned {
  std::vector<ir::Instr> instrs;   ///< id → instruction
  std::vector<std::int64_t> cost;  ///< id → instr_cost
  std::vector<std::uint32_t> ids;  ///< every thread's body, concatenated
  std::vector<std::size_t> start;  ///< thread slot t owns ids[start[t], start[t+1])

  Interned(const std::vector<Thread>& threads, const ir::CostModel& model) {
    std::size_t total = 0;
    for (const Thread& t : threads) total += t.body->size();
    // Open-addressing table of ids, at most half full.
    int table_bits = 4;
    while ((std::size_t{1} << table_bits) < 2 * total) ++table_bits;
    constexpr std::uint32_t kEmpty = std::numeric_limits<std::uint32_t>::max();
    std::vector<std::uint32_t> table(std::size_t{1} << table_bits, kEmpty);
    const std::size_t mask = table.size() - 1;
    ids.reserve(total);
    start.push_back(0);
    for (const Thread& t : threads) {
      for (const ir::Instr& in : *t.body) {
        const std::uint64_t tag = static_cast<std::uint64_t>(in.op) << 8 |
                                  static_cast<std::uint64_t>(in.imm.kind);
        std::size_t h = static_cast<std::size_t>(
            ((static_cast<std::uint64_t>(in.imm.bits()) ^ tag << 48) *
             0x9E3779B97F4A7C15ull) >> (64 - table_bits));
        while (table[h] != kEmpty && !(instrs[table[h]] == in)) h = (h + 1) & mask;
        if (table[h] == kEmpty) {
          table[h] = static_cast<std::uint32_t>(instrs.size());
          instrs.push_back(in);
          cost.push_back(model.instr_cost(in));
        }
        ids.push_back(table[h]);
      }
      start.push_back(ids.size());
    }
  }
};

/// A partial schedule: op ids plus one guard row per op of `words` words
/// over thread slots (bit t = the thread at index t of induce()'s input).
struct Partial {
  std::vector<std::uint32_t> ids;
  std::vector<std::uint64_t> rows;
};

/// Optimal (min-cost) merge of the partial schedule `a` with thread slot
/// `t`'s body: weighted shortest common supersequence by dynamic
/// programming over ids and precomputed costs, into `out`. `dp` is
/// scratch reused across merges.
void merge_pair(const Partial& a, const Interned& in, std::size_t t,
                std::size_t words, std::vector<std::int64_t>& dp, Partial& out) {
  const std::uint32_t* b = in.ids.data() + in.start[t];
  const std::size_t n = a.ids.size(), m = in.start[t + 1] - in.start[t];
  const std::int64_t* cost = in.cost.data();
  dp.resize((n + 1) * (m + 1));
  auto at = [&](std::size_t i, std::size_t j) -> std::int64_t& {
    return dp[i * (m + 1) + j];
  };
  at(n, m) = 0;
  for (std::size_t j = m; j-- > 0;) at(n, j) = cost[b[j]] + at(n, j + 1);
  for (std::size_t i = n; i-- > 0;) {
    const std::uint32_t ai = a.ids[i];
    const std::int64_t ca = cost[ai];
    at(i, m) = ca + at(i + 1, m);
    for (std::size_t j = m; j-- > 0;) {
      std::int64_t best = std::min(ca + at(i + 1, j), cost[b[j]] + at(i, j + 1));
      if (ai == b[j]) best = std::min(best, ca + at(i + 1, j + 1));
      at(i, j) = best;
    }
  }
  out.ids.clear();
  out.rows.clear();
  const std::uint64_t bit = std::uint64_t{1} << (t & 63);
  auto emit = [&](std::uint32_t id, const std::uint64_t* row, bool with_t) {
    out.ids.push_back(id);
    for (std::size_t w = 0; w < words; ++w)
      out.rows.push_back((row ? row[w] : 0) | (with_t && w == t / 64 ? bit : 0));
  };
  std::size_t i = 0, j = 0;
  while (i < n || j < m) {
    const std::uint64_t* row = i < n ? a.rows.data() + i * words : nullptr;
    // Prefer the shared emission when it is on an optimal path.
    if (i < n && j < m && a.ids[i] == b[j] &&
        at(i, j) == cost[b[j]] + at(i + 1, j + 1)) {
      emit(b[j], row, true);
      ++i;
      ++j;
      continue;
    }
    if (i < n && at(i, j) == cost[a.ids[i]] + at(i + 1, j)) {
      emit(a.ids[i], row, false);
      ++i;
      continue;
    }
    emit(b[j], nullptr, true);
    ++j;
  }
}

/// Progressive pairwise merging, exploring several thread orders — our
/// lightweight analogue of the paper's permutation search (§3.1): merge
/// order changes which sharings the pairwise-optimal DP can see. An order
/// equal to one already tried is skipped: it would rebuild the same
/// schedule, and the strict `<` keeps the first of equal-cost schedules.
std::vector<GuardedOp> progressive(const std::vector<Thread>& threads,
                                   const Interned& in, std::size_t guard_bits) {
  std::vector<std::size_t> id_order(threads.size());
  std::iota(id_order.begin(), id_order.end(), std::size_t{0});
  std::array<std::vector<std::size_t>, 3> orders{id_order, id_order, id_order};
  std::sort(orders[1].begin(), orders[1].end(), [&](std::size_t a, std::size_t b) {
    const std::size_t la = threads[a].body->size();
    const std::size_t lb = threads[b].body->size();
    if (la != lb) return la > lb;  // longest first
    return threads[a].key < threads[b].key;
  });
  std::reverse(orders[2].begin(), orders[2].end());

  const std::size_t words = (threads.size() + 63) / 64;
  std::vector<std::int64_t> dp;
  Partial acc, next, best;
  std::int64_t best_cost = -1;
  for (std::size_t k = 0; k < orders.size(); ++k) {
    if (std::find(orders.begin(), orders.begin() + k, orders[k]) != orders.begin() + k)
      continue;
    acc.ids.clear();
    acc.rows.clear();
    for (std::size_t t : orders[k]) {
      merge_pair(acc, in, t, words, dp, next);
      std::swap(acc, next);
    }
    std::int64_t c = 0;
    for (std::uint32_t id : acc.ids) c += in.cost[id];
    if (best_cost < 0 || c < best_cost) {
      best_cost = c;
      std::swap(best, acc);
    }
  }

  // Only the chosen schedule gets DynBitset guards over thread keys.
  std::vector<GuardedOp> out;
  out.reserve(best.ids.size());
  for (std::size_t i = 0; i < best.ids.size(); ++i) {
    DynBitset g(guard_bits);
    for (std::size_t w = 0; w < words; ++w)
      for (std::uint64_t r = best.rows[i * words + w]; r != 0; r &= r - 1)
        g.set(threads[w * 64 + static_cast<std::size_t>(std::countr_zero(r))].key);
    out.push_back({std::move(g), in.instrs[best.ids[i]]});
  }
  return out;
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

  const Interned in(threads, cost);
  res.serialized_cost = 0;
  for (std::uint32_t id : in.ids) res.serialized_cost += in.cost[id];

  // Class lower bound: each distinct instruction must appear at least
  // max-per-thread times; also no schedule is shorter than its longest
  // thread (§3.1's "theoretical lower bound on execution time").
  std::vector<std::int64_t> class_cost(in.instrs.size(), 0);  // max over threads
  std::vector<std::int64_t> local(in.instrs.size(), 0);
  std::int64_t longest_thread = 0;
  for (std::size_t t = 0; t + 1 < in.start.size(); ++t) {
    std::int64_t tc = 0;
    for (std::size_t k = in.start[t]; k < in.start[t + 1]; ++k) {
      local[in.ids[k]] += in.cost[in.ids[k]];
      tc += in.cost[in.ids[k]];
    }
    longest_thread = std::max(longest_thread, tc);
    for (std::size_t k = in.start[t]; k < in.start[t + 1]; ++k) {
      std::int64_t& c = class_cost[in.ids[k]];
      c = std::max(c, local[in.ids[k]]);
      local[in.ids[k]] = 0;
    }
  }
  std::int64_t class_bound = 0;
  for (std::int64_t c : class_cost) class_bound += c;
  res.lower_bound = std::max(class_bound, longest_thread);

  switch (options.algorithm) {
    case Algorithm::Serialize:
      res.schedule = serialize(threads, bits);
      break;
    case Algorithm::Progressive:
      res.schedule = progressive(threads, in, bits);
      break;
  }
  res.induced_cost = schedule_cost(res.schedule, cost);
  for (const GuardedOp& op : res.schedule)
    if (op.guard.count() >= 2) ++res.shared_ops;
  return res;
}

}  // namespace msc::csi
