#include "msc/hash/multiway.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "msc/support/str.hpp"

namespace msc::hash {

std::uint64_t HashFn::eval(std::uint64_t key) const {
  switch (kind) {
    case Kind::Identity:
      return key & mask;
    case Kind::ShiftMask:
      return (key >> shift) & mask;
    case Kind::NotShiftMask:
      return (~key >> shift) & mask;
    case Kind::XorShiftMask:
      return ((key >> shift) ^ key) & mask;
    case Kind::MulShift:
      return ((key * mul) >> shift) & mask;
    case Kind::Linear:
      return 0;
  }
  return 0;
}

std::string HashFn::render(const std::string& var) const {
  switch (kind) {
    case Kind::Identity:
      return cat("(", var, " & ", mask, ")");
    case Kind::ShiftMask:
      return cat("((", var, " >> ", shift, ") & ", mask, ")");
    case Kind::NotShiftMask:
      return cat("(((~", var, ") >> ", shift, ") & ", mask, ")");
    case Kind::XorShiftMask:
      return cat("(((", var, " >> ", shift, ") ^ ", var, ") & ", mask, ")");
    case Kind::MulShift:
      return cat("(((", var, " * ", mul, "ull) >> ", shift, ") & ", mask, ")");
    case Kind::Linear:
      return cat("/* linear scan over ", var, " */");
  }
  return "?";
}

std::int32_t HashedSwitch::lookup(std::uint64_t key) const {
  if (fn.kind == HashFn::Kind::Linear) {
    for (std::size_t i = 0; i < keys.size(); ++i)
      if (keys[i] == key) return static_cast<std::int32_t>(i);
    return -1;
  }
  std::uint64_t h = fn.eval(key);
  if (h >= table.size()) return -1;
  std::int32_t idx = table[h];
  // A foreign key can hash to an empty slot: that is a miss, and the -1
  // sentinel must never escape as if it were a match for "key index -1".
  if (idx < 0) return -1;
  // Guard against aliasing: a foreign key may hash into an occupied slot.
  // A corrupt or hand-built table may also hold an index past `keys`;
  // bounds-check before the confirming compare rather than reading out of
  // range.
  if (static_cast<std::size_t>(idx) >= keys.size() ||
      keys[static_cast<std::size_t>(idx)] != key)
    return -1;
  return idx;
}

double HashedSwitch::density() const {
  if (table.empty()) return 0.0;
  std::size_t used = 0;
  for (std::int32_t v : table)
    if (v >= 0) ++used;
  return static_cast<double>(used) / static_cast<double>(table.size());
}

namespace {

/// Whether `fn` sends `keys` to distinct slots. `used` is the search's
/// one scratch slot table (at least fn.mask + 1 entries, all clear); only
/// the slots this call marks are cleared again.
bool injective(const HashFn& fn, const std::vector<std::uint64_t>& keys,
               std::vector<std::uint8_t>& used) {
  std::size_t marked = 0;
  for (; marked < keys.size(); ++marked) {
    std::uint8_t& slot = used[fn.eval(keys[marked])];
    if (slot) break;
    slot = 1;
  }
  for (std::size_t k = 0; k < marked; ++k) used[fn.eval(keys[k])] = 0;
  return marked == keys.size();
}

HashedSwitch finish(HashFn fn, const std::vector<std::uint64_t>& keys) {
  HashedSwitch sw;
  sw.fn = fn;
  sw.keys = keys;
  if (fn.kind == HashFn::Kind::Linear) return sw;
  sw.table.assign(static_cast<std::size_t>(fn.mask) + 1, -1);
  for (std::size_t i = 0; i < keys.size(); ++i)
    sw.table[fn.eval(keys[i])] = static_cast<std::int32_t>(i);
  return sw;
}

}  // namespace

HashedSwitch build_switch(const std::vector<std::uint64_t>& keys,
                          const SearchOptions& options) {
  if (keys.empty()) throw std::invalid_argument("build_switch: no keys");
  {
    std::unordered_set<std::uint64_t> distinct(keys.begin(), keys.end());
    if (distinct.size() != keys.size())
      throw std::invalid_argument("build_switch: duplicate keys");
  }

  std::uint32_t min_bits = 0;
  while ((std::size_t{1} << min_bits) < keys.size()) ++min_bits;

  std::vector<std::uint8_t> used;

  for (std::uint32_t bits = min_bits; bits <= options.max_bits; ++bits) {
    std::uint64_t mask = (bits >= 64) ? ~0ull : ((std::uint64_t{1} << bits) - 1);
    used.resize(static_cast<std::size_t>(mask) + 1);
    // Cheapest families first; within a family smallest shift first, so
    // the chosen encoding is deterministic.
    {
      HashFn fn{HashFn::Kind::Identity, 0, 0, mask};
      if (injective(fn, keys, used)) return finish(fn, keys);
    }
    for (std::uint32_t s = 1; s < 64; ++s) {
      HashFn fn{HashFn::Kind::ShiftMask, s, 0, mask};
      if (injective(fn, keys, used)) return finish(fn, keys);
    }
    for (std::uint32_t s = 0; s < 64; ++s) {
      HashFn fn{HashFn::Kind::NotShiftMask, s, 0, mask};
      if (injective(fn, keys, used)) return finish(fn, keys);
    }
    for (std::uint32_t s = 1; s < 64; ++s) {
      HashFn fn{HashFn::Kind::XorShiftMask, s, 0, mask};
      if (injective(fn, keys, used)) return finish(fn, keys);
    }
    std::uint64_t mul = 0x9E3779B97F4A7C15ull;  // golden-ratio seed
    for (std::uint32_t a = 0; a < options.mul_attempts; ++a) {
      HashFn fn{HashFn::Kind::MulShift, 64 - bits, mul | 1, mask};
      if (injective(fn, keys, used)) return finish(fn, keys);
      mul = mul * 0xBF58476D1CE4E5B9ull + 0x94D049BB133111EBull;
    }
  }
  HashFn fn;
  fn.kind = HashFn::Kind::Linear;
  return finish(fn, keys);
}

}  // namespace msc::hash
