#include <gtest/gtest.h>

#include <set>

#include "msc/hash/multiway.hpp"
#include "msc/support/rng.hpp"

using namespace msc;
using namespace msc::hash;

namespace {

/// Every built switch must be a perfect lookup over its keys and reject
/// foreign keys.
void check_perfect(const std::vector<std::uint64_t>& keys,
                   const SearchOptions& opts = {}) {
  HashedSwitch sw = build_switch(keys, opts);
  for (std::size_t i = 0; i < keys.size(); ++i)
    EXPECT_EQ(sw.lookup(keys[i]), static_cast<std::int32_t>(i))
        << "key " << keys[i];
  // A value sharing low bits with a real key must not alias.
  for (std::uint64_t k : keys) {
    std::uint64_t foreign = k ^ (1ull << 63) ^ 0x5a5a5a5aull;
    bool is_key = false;
    for (std::uint64_t other : keys) is_key |= other == foreign;
    if (!is_key) {
      EXPECT_EQ(sw.lookup(foreign), -1);
    }
  }
}

/// The function build_switch must choose: the same candidate order (table
/// widths from the smallest, then Identity, ShiftMask, NotShiftMask,
/// XorShiftMask by shift, then the MulShift multiplier walk), checked with
/// a fresh std::set per candidate.
HashFn reference_search(const std::vector<std::uint64_t>& keys,
                        const SearchOptions& opts = {}) {
  auto perfect = [&](const HashFn& fn) {
    std::set<std::uint64_t> slots;
    for (std::uint64_t k : keys)
      if (!slots.insert(fn.eval(k)).second) return false;
    return true;
  };
  std::uint32_t min_bits = 0;
  while ((std::size_t{1} << min_bits) < keys.size()) ++min_bits;
  for (std::uint32_t bits = min_bits; bits <= opts.max_bits; ++bits) {
    const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
    std::vector<HashFn> candidates{{HashFn::Kind::Identity, 0, 0, mask}};
    for (std::uint32_t s = 1; s < 64; ++s)
      candidates.push_back({HashFn::Kind::ShiftMask, s, 0, mask});
    for (std::uint32_t s = 0; s < 64; ++s)
      candidates.push_back({HashFn::Kind::NotShiftMask, s, 0, mask});
    for (std::uint32_t s = 1; s < 64; ++s)
      candidates.push_back({HashFn::Kind::XorShiftMask, s, 0, mask});
    std::uint64_t mul = 0x9E3779B97F4A7C15ull;
    for (std::uint32_t a = 0; a < opts.mul_attempts; ++a) {
      candidates.push_back({HashFn::Kind::MulShift, 64 - bits, mul | 1, mask});
      mul = mul * 0xBF58476D1CE4E5B9ull + 0x94D049BB133111EBull;
    }
    for (const HashFn& fn : candidates)
      if (perfect(fn)) return fn;
  }
  HashFn linear;
  linear.kind = HashFn::Kind::Linear;
  return linear;
}

void check_search_order(const std::vector<std::uint64_t>& keys) {
  const HashFn want = reference_search(keys);
  const HashFn got = build_switch(keys).fn;
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.shift, want.shift);
  EXPECT_EQ(got.mul, want.mul);
  EXPECT_EQ(got.mask, want.mask);
}

}  // namespace

TEST(Hash, SingleKey) { check_perfect({0x40ull}); }

TEST(Hash, PaperListing5MsZeroPattern) {
  // Meta state 0 of Listing 5 branches on aggregates {BIT(2)|BIT(6),
  // BIT(6), BIT(2)} and the paper hashes them contiguous.
  std::vector<std::uint64_t> keys = {(1ull << 2) | (1ull << 6), 1ull << 6,
                                     1ull << 2};
  HashedSwitch sw = build_switch(keys);
  EXPECT_FALSE(sw.is_linear());
  EXPECT_LE(sw.table_size(), 8u);
  check_perfect(keys);
}

TEST(Hash, PaperListing5Ms26Pattern) {
  // ms_2_6 dispatches over five aggregates of bits {2,6,9}.
  auto bit = [](int b) { return 1ull << b; };
  std::vector<std::uint64_t> keys = {
      bit(2) | bit(6), bit(9), bit(6) | bit(9), bit(2) | bit(9),
      bit(2) | bit(6) | bit(9)};
  HashedSwitch sw = build_switch(keys);
  EXPECT_FALSE(sw.is_linear());
  EXPECT_LE(sw.table_size(), 16u);  // the paper's mask is 15
  check_perfect(keys);
}

TEST(Hash, DenseKeysUseIdentity) {
  HashedSwitch sw = build_switch({0, 1, 2, 3});
  EXPECT_EQ(sw.fn.kind, HashFn::Kind::Identity);
  EXPECT_EQ(sw.table_size(), 4u);
  EXPECT_DOUBLE_EQ(sw.density(), 1.0);
}

TEST(Hash, ShiftedDenseKeysUseShiftMask) {
  HashedSwitch sw = build_switch({0x100, 0x200, 0x300, 0x000});
  EXPECT_EQ(sw.fn.kind, HashFn::Kind::ShiftMask);
  EXPECT_EQ(sw.fn.shift, 8u);
  check_perfect({0x100, 0x200, 0x300, 0x000});
}

TEST(Hash, TableSizeIsMinimalPowerOfTwoWhenPossible) {
  // 5 keys need ≥8 slots; these hash perfectly at 8.
  std::vector<std::uint64_t> keys = {1, 2, 3, 4, 5};
  HashedSwitch sw = build_switch(keys);
  EXPECT_EQ(sw.table_size(), 8u);
}

TEST(Hash, SparseRandomKeySets) {
  Rng rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<std::uint64_t> keys;
    std::size_t n = 2 + rng.next_below(12);
    while (keys.size() < n) {
      std::uint64_t k = rng.next_u64() & ((1ull << 40) - 1);
      bool dup = false;
      for (std::uint64_t o : keys) dup |= o == k;
      if (!dup) keys.push_back(k);
    }
    check_perfect(keys);
    check_search_order(keys);
  }
}

TEST(Hash, SubsetBitPatterns) {
  // The real workload: all non-empty subsets of a few pc bits.
  std::vector<int> bits = {3, 7, 12, 20};
  std::vector<std::uint64_t> keys;
  for (unsigned m = 1; m < 16; ++m) {
    std::uint64_t k = 0;
    for (int i = 0; i < 4; ++i)
      if (m & (1u << i)) k |= 1ull << bits[static_cast<std::size_t>(i)];
    keys.push_back(k);
  }
  check_perfect(keys);
  check_search_order(keys);
}

TEST(Hash, LinearFallbackStillCorrect) {
  // Force the fallback with an impossible table budget.
  SearchOptions opts;
  opts.max_bits = 1;  // at most 2 slots
  opts.mul_attempts = 1;
  std::vector<std::uint64_t> keys = {10, 20, 30, 40, 50};
  HashedSwitch sw = build_switch(keys, opts);
  EXPECT_TRUE(sw.is_linear());
  for (std::size_t i = 0; i < keys.size(); ++i)
    EXPECT_EQ(sw.lookup(keys[i]), static_cast<std::int32_t>(i));
  EXPECT_EQ(sw.lookup(99), -1);
}

TEST(Hash, RejectsBadInput) {
  EXPECT_THROW(build_switch({}), std::invalid_argument);
  EXPECT_THROW(build_switch({5, 5}), std::invalid_argument);
}

TEST(Hash, ForeignKeyHashingToEmptySlotIsMiss) {
  // 5 keys in an 8-slot table leave empty (-1 sentinel) slots. A foreign
  // key landing in one must report a miss — the sentinel must not escape
  // as a fake "index -1 matched" result, nor index keys[] out of range.
  std::vector<std::uint64_t> keys = {1, 2, 3, 4, 5};
  HashedSwitch sw = build_switch(keys);
  ASSERT_FALSE(sw.is_linear());
  bool probed_empty_slot = false;
  for (std::uint64_t probe = 0; probe < 64; ++probe) {
    bool is_key = false;
    for (std::uint64_t k : keys) is_key |= k == probe;
    if (is_key) continue;
    std::uint64_t h = sw.fn.eval(probe);
    ASSERT_LT(h, sw.table.size());
    if (sw.table[h] < 0) probed_empty_slot = true;
    EXPECT_EQ(sw.lookup(probe), -1) << "probe " << probe;
  }
  EXPECT_TRUE(probed_empty_slot);
}

TEST(Hash, CorruptTableIndexOutOfRangeIsMiss) {
  // A hand-built (or corrupted/deserialized) table may hold slot indexes
  // past the key vector; lookup must answer miss, not read out of range.
  HashedSwitch sw = build_switch({0, 1, 2, 3});
  ASSERT_EQ(sw.fn.kind, HashFn::Kind::Identity);
  sw.table[2] = 99;  // points far past keys.size()
  EXPECT_EQ(sw.lookup(2), -1);
  // Untouched slots still resolve.
  EXPECT_EQ(sw.lookup(1), 1);
}

TEST(Hash, AllEmptyTableRejectsEverything) {
  HashedSwitch sw = build_switch({7, 11});
  for (auto& slot : sw.table) slot = -1;
  EXPECT_EQ(sw.lookup(7), -1);
  EXPECT_EQ(sw.lookup(11), -1);
  EXPECT_EQ(sw.lookup(0), -1);
}

TEST(Hash, RenderedExpressionsLookLikeListing5) {
  HashFn f1{HashFn::Kind::NotShiftMask, 5, 0, 3};
  EXPECT_EQ(f1.render("apc"), "(((~apc) >> 5) & 3)");
  HashFn f2{HashFn::Kind::XorShiftMask, 6, 0, 15};
  EXPECT_EQ(f2.render("apc"), "(((apc >> 6) ^ apc) & 15)");
}

TEST(Hash, EvalMatchesRenderSemantics) {
  HashFn f{HashFn::Kind::XorShiftMask, 6, 0, 15};
  std::uint64_t apc = (1ull << 2) | (1ull << 9);
  EXPECT_EQ(f.eval(apc), ((apc >> 6) ^ apc) & 15);
  HashFn g{HashFn::Kind::NotShiftMask, 5, 0, 3};
  EXPECT_EQ(g.eval(apc), (~apc >> 5) & 3);
}
