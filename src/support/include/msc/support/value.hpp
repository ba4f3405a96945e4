#ifndef MSC_SUPPORT_VALUE_HPP
#define MSC_SUPPORT_VALUE_HPP

#include <bit>
#include <cstdint>
#include <string>

namespace msc {

/// One memory/stack cell of the simulated machines.
///
/// MIMDC has two scalar types, `int` and `float` (paper §4.1); we widen
/// them to int64/double so overflow in synthetic workloads is a non-issue.
/// A cell is a tagged union: the kind tag says which payload member is
/// active, so the oracle and the SIMD target can be compared bit-for-bit
/// including type. Stores that keep cells as structure-of-arrays hold a
/// tag lane plus one 64-bit payload lane, moved through bits()/from_bits().
struct Value {
  enum class Kind : std::uint8_t { Int, Float };

  Kind kind = Kind::Int;
  union {
    std::int64_t i = 0;
    double f;
  };

  Value() = default;
  static Value of_int(std::int64_t v) {
    Value x;
    x.i = v;
    return x;
  }
  static Value of_float(double v) {
    Value x;
    x.kind = Kind::Float;
    x.f = v;
    return x;
  }

  /// The active payload as a raw 64-bit word (the double's bit pattern
  /// for floats), and its inverse. Each reads or writes the active member
  /// only, so no payload is ever read through the other member.
  std::int64_t bits() const { return is_int() ? i : std::bit_cast<std::int64_t>(f); }
  static Value from_bits(Kind kind, std::int64_t bits) {
    return kind == Kind::Int ? of_int(bits) : of_float(std::bit_cast<double>(bits));
  }

  bool is_int() const { return kind == Kind::Int; }
  bool is_float() const { return kind == Kind::Float; }

  /// Numeric value as double regardless of tag (for mixed arithmetic).
  double as_double() const { return is_int() ? static_cast<double>(i) : f; }
  /// Numeric value as int64 (floats truncate, as C does).
  std::int64_t as_int() const { return is_int() ? i : static_cast<std::int64_t>(f); }

  /// C truthiness.
  bool truthy() const { return is_int() ? i != 0 : f != 0.0; }

  /// Bit-for-bit identity: same kind and same payload word, so 0.0 and
  /// -0.0 differ and a NaN equals itself. Guest comparisons (Eq, Lt, ...)
  /// are computed on numbers in ir::arith, not through this operator.
  bool operator==(const Value& o) const { return kind == o.kind && bits() == o.bits(); }
  bool operator!=(const Value& o) const { return !(*this == o); }

  std::string to_string() const;
};

static_assert(sizeof(Value) == 16, "a cell is a kind tag plus one 64-bit word");

}  // namespace msc

#endif  // MSC_SUPPORT_VALUE_HPP
