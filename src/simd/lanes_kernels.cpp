// Elementwise lane kernels behind msc/support/simd_isa.hpp.
//
// Dispatch strategy: classify each operand lane's kind tags over the
// MASKED elements only. If both sides are uniformly Int (or uniformly
// Float), the whole padded lane runs through one branch-free full-width
// loop — every element, enabled or not, is fully defined, so this is
// sanitizer-clean and lets the vector ISAs work on whole registers.
// Anything else (mixed tags, or ops whose scalar semantics convert a
// float to an int) falls back to a masked per-element loop over
// ir::eval_binary, which touches enabled elements only. Either way the
// enabled results are bit-identical to the scalar interpreter.
//
// Full-width safety rules (see DESIGN.md §14):
//  - disabled elements may hold garbage VALUES but are always initialized,
//    so wrap-around int math and float math on them is defined (any
//    64-bit word is a valid int64 and, through bit_cast, a valid double);
//  - float→int conversions never run full-width (a huge double on a
//    disabled element would be UB), so CastI/BitNot/shift-style ops on
//    float lanes are always masked-elementwise;
//  - int→float conversion is defined for every int64, so Int-lane inputs
//    may be promoted full-width;
//  - every operand is a (tag, payload) pair of lanes; the payload word is
//    Value::bits. Float loops bit_cast each element (or reinterpret whole
//    registers), so no double* ever aliases an int64 payload lane;
//  - full-width outputs write the payload of every element plus one tag
//    memset, matching Value::of_int / of_float bit patterns.
#include <bit>
#include <cstring>

#include "msc/simd/lanes.hpp"

#if defined(__x86_64__) && !defined(MSC_SIMD_ISA_SCALAR)
#include <immintrin.h>
#endif
#if defined(__aarch64__) && !defined(MSC_SIMD_ISA_SCALAR)
#include <arm_neon.h>
#endif

namespace msc::simd {
namespace {

using ir::Opcode;

enum class TagClass : std::uint8_t { Int, Float, Mixed };

constexpr int kUnhandled = 0;
constexpr int kWroteInt = 1;
constexpr int kWroteFloat = 2;

/// Kind uniformity over the masked elements only. Full mask words check
/// eight tag bytes at a time; partial words test per bit.
TagClass masked_tag_class(const std::uint8_t* tag, const std::uint64_t* mask,
                          std::size_t n) {
  constexpr std::uint64_t kAllFloat = 0x0101010101010101ull;
  bool any_int = false, any_float = false;
  const std::size_t nwords = n / 64;
  for (std::size_t w = 0; w < nwords; ++w) {
    const std::uint64_t m = mask[w];
    if (m == 0) continue;
    const std::uint8_t* t = tag + w * 64;
    if (m == ~std::uint64_t{0}) {
      std::uint64_t orv = 0, andv = ~std::uint64_t{0};
      for (int c = 0; c < 8; ++c) {
        std::uint64_t chunk;
        std::memcpy(&chunk, t + c * 8, 8);
        orv |= chunk;
        andv &= chunk;
      }
      if (orv == 0) {
        any_int = true;
      } else if (andv == kAllFloat) {
        any_float = true;
      } else {
        return TagClass::Mixed;
      }
    } else {
      std::uint64_t mm = m;
      while (mm != 0) {
        const int b = __builtin_ctzll(mm);
        if (t[b] != 0) {
          any_float = true;
        } else {
          any_int = true;
        }
        mm &= mm - 1;
      }
    }
    if (any_int && any_float) return TagClass::Mixed;
  }
  return any_float ? TagClass::Float : TagClass::Int;
}

/// Tag a full-width result: every element Int (kWroteInt) or Float.
void finish(int r, std::uint8_t* otag, std::size_t n) {
  std::memset(otag, r == kWroteInt ? 0 : 1, n);
}

double as_f64(std::int64_t bits) { return std::bit_cast<double>(bits); }
std::int64_t f64_bits(double v) { return std::bit_cast<std::int64_t>(v); }

Value lane_value(const std::uint8_t* tag, const std::int64_t* bits,
                 std::size_t k) {
  return Value::from_bits(static_cast<Value::Kind>(tag[k]), bits[k]);
}

void put_value(std::uint8_t* otag, std::int64_t* obits, std::size_t k,
               const Value& v) {
  otag[k] = static_cast<std::uint8_t>(v.kind);
  obits[k] = v.bits();
}

// ------------------------------------------------ portable full-width loops

/// Int×int binary over the whole lane; getters give per-element operands.
/// Handles every binary opcode (so both-Int lanes never hit the masked
/// fallback); mirrors ir::arith's wrap-mod-2^64 semantics exactly.
template <typename GX, typename GY>
int int_bin_go(Opcode op, GX gx, GY gy, std::int64_t* oi, std::size_t n) {
  switch (op) {
    case Opcode::Add:
      for (std::size_t k = 0; k < n; ++k)
        oi[k] = static_cast<std::int64_t>(static_cast<std::uint64_t>(gx(k)) +
                                          static_cast<std::uint64_t>(gy(k)));
      return kWroteInt;
    case Opcode::Sub:
      for (std::size_t k = 0; k < n; ++k)
        oi[k] = static_cast<std::int64_t>(static_cast<std::uint64_t>(gx(k)) -
                                          static_cast<std::uint64_t>(gy(k)));
      return kWroteInt;
    case Opcode::Mul:
      for (std::size_t k = 0; k < n; ++k)
        oi[k] = static_cast<std::int64_t>(static_cast<std::uint64_t>(gx(k)) *
                                          static_cast<std::uint64_t>(gy(k)));
      return kWroteInt;
    case Opcode::Div:
      for (std::size_t k = 0; k < n; ++k) {
        const std::int64_t x = gx(k), y = gy(k);
        if (y == 0)
          oi[k] = 0;
        else if (y == -1)
          oi[k] = static_cast<std::int64_t>(-static_cast<std::uint64_t>(x));
        else
          oi[k] = x / y;
      }
      return kWroteInt;
    case Opcode::Mod:
      for (std::size_t k = 0; k < n; ++k) {
        const std::int64_t x = gx(k), y = gy(k);
        oi[k] = (y == 0 || y == -1) ? 0 : x % y;
      }
      return kWroteInt;
    case Opcode::Lt:
      for (std::size_t k = 0; k < n; ++k) oi[k] = gx(k) < gy(k) ? 1 : 0;
      return kWroteInt;
    case Opcode::Le:
      for (std::size_t k = 0; k < n; ++k) oi[k] = gx(k) <= gy(k) ? 1 : 0;
      return kWroteInt;
    case Opcode::Gt:
      for (std::size_t k = 0; k < n; ++k) oi[k] = gx(k) > gy(k) ? 1 : 0;
      return kWroteInt;
    case Opcode::Ge:
      for (std::size_t k = 0; k < n; ++k) oi[k] = gx(k) >= gy(k) ? 1 : 0;
      return kWroteInt;
    case Opcode::Eq:
      for (std::size_t k = 0; k < n; ++k) oi[k] = gx(k) == gy(k) ? 1 : 0;
      return kWroteInt;
    case Opcode::Ne:
      for (std::size_t k = 0; k < n; ++k) oi[k] = gx(k) != gy(k) ? 1 : 0;
      return kWroteInt;
    case Opcode::LAnd:
      for (std::size_t k = 0; k < n; ++k)
        oi[k] = (gx(k) != 0 && gy(k) != 0) ? 1 : 0;
      return kWroteInt;
    case Opcode::LOr:
      for (std::size_t k = 0; k < n; ++k)
        oi[k] = (gx(k) != 0 || gy(k) != 0) ? 1 : 0;
      return kWroteInt;
    case Opcode::BitAnd:
      for (std::size_t k = 0; k < n; ++k) oi[k] = gx(k) & gy(k);
      return kWroteInt;
    case Opcode::BitOr:
      for (std::size_t k = 0; k < n; ++k) oi[k] = gx(k) | gy(k);
      return kWroteInt;
    case Opcode::BitXor:
      for (std::size_t k = 0; k < n; ++k) oi[k] = gx(k) ^ gy(k);
      return kWroteInt;
    case Opcode::Shl:
      for (std::size_t k = 0; k < n; ++k)
        oi[k] = static_cast<std::int64_t>(
            static_cast<std::uint64_t>(gx(k))
            << (static_cast<std::uint64_t>(gy(k)) & 63));
      return kWroteInt;
    case Opcode::Shr:
      for (std::size_t k = 0; k < n; ++k)
        oi[k] = static_cast<std::int64_t>(
            static_cast<std::uint64_t>(gx(k)) >>
            (static_cast<std::uint64_t>(gy(k)) & 63));
      return kWroteInt;
    default:
      return kUnhandled;
  }
}

/// Float binary over the whole lane (either side may be a promoted Int
/// lane — int64→double is defined for every value, so promotion may run
/// full-width). Handles exactly the ops ir::arith defines on floats plus
/// LAnd/LOr truthiness; everything else (Mod, bit ops, shifts — which
/// convert float→int per element) reports kUnhandled. Arithmetic writes
/// each double's bits into `oi`, comparisons write 0/1.
template <typename GX, typename GY>
int float_bin_go(Opcode op, GX gx, GY gy, std::int64_t* oi, std::size_t n) {
  switch (op) {
    case Opcode::Add:
      for (std::size_t k = 0; k < n; ++k) oi[k] = f64_bits(gx(k) + gy(k));
      return kWroteFloat;
    case Opcode::Sub:
      for (std::size_t k = 0; k < n; ++k) oi[k] = f64_bits(gx(k) - gy(k));
      return kWroteFloat;
    case Opcode::Mul:
      for (std::size_t k = 0; k < n; ++k) oi[k] = f64_bits(gx(k) * gy(k));
      return kWroteFloat;
    case Opcode::Div:
      for (std::size_t k = 0; k < n; ++k) {
        const double y = gy(k);
        oi[k] = f64_bits(y == 0.0 ? 0.0 : gx(k) / y);
      }
      return kWroteFloat;
    case Opcode::Lt:
      for (std::size_t k = 0; k < n; ++k) oi[k] = gx(k) < gy(k) ? 1 : 0;
      return kWroteInt;
    case Opcode::Le:
      for (std::size_t k = 0; k < n; ++k) oi[k] = gx(k) <= gy(k) ? 1 : 0;
      return kWroteInt;
    case Opcode::Gt:
      for (std::size_t k = 0; k < n; ++k) oi[k] = gx(k) > gy(k) ? 1 : 0;
      return kWroteInt;
    case Opcode::Ge:
      for (std::size_t k = 0; k < n; ++k) oi[k] = gx(k) >= gy(k) ? 1 : 0;
      return kWroteInt;
    case Opcode::Eq:
      for (std::size_t k = 0; k < n; ++k) oi[k] = gx(k) == gy(k) ? 1 : 0;
      return kWroteInt;
    case Opcode::Ne:
      for (std::size_t k = 0; k < n; ++k) oi[k] = gx(k) != gy(k) ? 1 : 0;
      return kWroteInt;
    case Opcode::LAnd:
      for (std::size_t k = 0; k < n; ++k)
        oi[k] = (gx(k) != 0.0 && gy(k) != 0.0) ? 1 : 0;
      return kWroteInt;
    case Opcode::LOr:
      for (std::size_t k = 0; k < n; ++k)
        oi[k] = (gx(k) != 0.0 || gy(k) != 0.0) ? 1 : 0;
      return kWroteInt;
    default:
      return kUnhandled;
  }
}

// ------------------------------------------------- ISA applier signatures

/// Full-width int×int applier. bptr == nullptr means "broadcast bimm".
using IntBinFn = int (*)(Opcode op, const std::int64_t* a,
                         const std::int64_t* bptr, std::int64_t bimm,
                         std::int64_t* oi, std::size_t n);
/// Full-width float×float applier over payload lanes holding double bits,
/// same broadcast convention.
using FloatBinFn = int (*)(Opcode op, const std::int64_t* a,
                           const std::int64_t* bptr, double bimm,
                           std::int64_t* oi, std::size_t n);

int int_bin_portable(Opcode op, const std::int64_t* a,
                     const std::int64_t* bptr, std::int64_t bimm,
                     std::int64_t* oi, std::size_t n) {
  if (bptr != nullptr)
    return int_bin_go(
        op, [a](std::size_t k) { return a[k]; },
        [bptr](std::size_t k) { return bptr[k]; }, oi, n);
  return int_bin_go(
      op, [a](std::size_t k) { return a[k]; },
      [bimm](std::size_t) { return bimm; }, oi, n);
}

int float_bin_portable(Opcode op, const std::int64_t* a,
                       const std::int64_t* bptr, double bimm, std::int64_t* oi,
                       std::size_t n) {
  if (bptr != nullptr)
    return float_bin_go(
        op, [a](std::size_t k) { return as_f64(a[k]); },
        [bptr](std::size_t k) { return as_f64(bptr[k]); }, oi, n);
  return float_bin_go(
      op, [a](std::size_t k) { return as_f64(a[k]); },
      [bimm](std::size_t) { return bimm; }, oi, n);
}

// ---------------------------------------------------------- AVX2 appliers

#if defined(__x86_64__) && !defined(MSC_SIMD_ISA_SCALAR)

__attribute__((target("avx2"))) int int_bin_avx2(Opcode op,
                                                 const std::int64_t* a,
                                                 const std::int64_t* bptr,
                                                 std::int64_t bimm,
                                                 std::int64_t* oi,
                                                 std::size_t n) {
  // Mul/Div/Mod have no 64-bit AVX2 forms; the caller falls back to the
  // portable full-width loop for those.
  switch (op) {
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::BitAnd:
    case Opcode::BitOr:
    case Opcode::BitXor:
    case Opcode::Shl:
    case Opcode::Shr:
    case Opcode::Lt:
    case Opcode::Le:
    case Opcode::Gt:
    case Opcode::Ge:
    case Opcode::Eq:
    case Opcode::Ne:
    case Opcode::LAnd:
    case Opcode::LOr:
      break;
    default:
      return kUnhandled;
  }
  const __m256i ones = _mm256_set1_epi64x(-1);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i sixtythree = _mm256_set1_epi64x(63);
  const __m256i vimm = _mm256_set1_epi64x(bimm);
  for (std::size_t k = 0; k < n; k += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + k));
    const __m256i vb =
        bptr != nullptr
            ? _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bptr + k))
            : vimm;
    __m256i vo;
    switch (op) {
      case Opcode::Add: vo = _mm256_add_epi64(va, vb); break;
      case Opcode::Sub: vo = _mm256_sub_epi64(va, vb); break;
      case Opcode::BitAnd: vo = _mm256_and_si256(va, vb); break;
      case Opcode::BitOr: vo = _mm256_or_si256(va, vb); break;
      case Opcode::BitXor: vo = _mm256_xor_si256(va, vb); break;
      case Opcode::Shl:
        vo = _mm256_sllv_epi64(va, _mm256_and_si256(vb, sixtythree));
        break;
      case Opcode::Shr:
        vo = _mm256_srlv_epi64(va, _mm256_and_si256(vb, sixtythree));
        break;
      case Opcode::Lt:
        vo = _mm256_srli_epi64(_mm256_cmpgt_epi64(vb, va), 63);
        break;
      case Opcode::Gt:
        vo = _mm256_srli_epi64(_mm256_cmpgt_epi64(va, vb), 63);
        break;
      case Opcode::Le:
        vo = _mm256_srli_epi64(
            _mm256_xor_si256(_mm256_cmpgt_epi64(va, vb), ones), 63);
        break;
      case Opcode::Ge:
        vo = _mm256_srli_epi64(
            _mm256_xor_si256(_mm256_cmpgt_epi64(vb, va), ones), 63);
        break;
      case Opcode::Eq:
        vo = _mm256_srli_epi64(_mm256_cmpeq_epi64(va, vb), 63);
        break;
      case Opcode::Ne:
        vo = _mm256_srli_epi64(
            _mm256_xor_si256(_mm256_cmpeq_epi64(va, vb), ones), 63);
        break;
      case Opcode::LAnd: {
        const __m256i ta = _mm256_xor_si256(_mm256_cmpeq_epi64(va, zero), ones);
        const __m256i tb = _mm256_xor_si256(_mm256_cmpeq_epi64(vb, zero), ones);
        vo = _mm256_srli_epi64(_mm256_and_si256(ta, tb), 63);
        break;
      }
      case Opcode::LOr: {
        const __m256i ta = _mm256_xor_si256(_mm256_cmpeq_epi64(va, zero), ones);
        const __m256i tb = _mm256_xor_si256(_mm256_cmpeq_epi64(vb, zero), ones);
        vo = _mm256_srli_epi64(_mm256_or_si256(ta, tb), 63);
        break;
      }
      default: vo = zero; break;  // unreachable: filtered above
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(oi + k), vo);
  }
  return kWroteInt;
}

__attribute__((target("avx2"))) int float_bin_avx2(Opcode op,
                                                   const std::int64_t* a,
                                                   const std::int64_t* bptr,
                                                   double bimm,
                                                   std::int64_t* oi,
                                                   std::size_t n) {
  switch (op) {
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::Div:
    case Opcode::Lt:
    case Opcode::Le:
    case Opcode::Gt:
    case Opcode::Ge:
    case Opcode::Eq:
    case Opcode::Ne:
    case Opcode::LAnd:
    case Opcode::LOr:
      break;
    default:
      return kUnhandled;
  }
  const __m256d zerod = _mm256_setzero_pd();
  const __m256d vimm = _mm256_set1_pd(bimm);
  const bool cmp_out = !(op == Opcode::Add || op == Opcode::Sub ||
                         op == Opcode::Mul || op == Opcode::Div);
  for (std::size_t k = 0; k < n; k += 4) {
    const __m256d va = _mm256_castsi256_pd(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + k)));
    const __m256d vb =
        bptr != nullptr
            ? _mm256_castsi256_pd(
                  _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bptr + k)))
            : vimm;
    if (!cmp_out) {
      __m256d vo;
      switch (op) {
        case Opcode::Add: vo = _mm256_add_pd(va, vb); break;
        case Opcode::Sub: vo = _mm256_sub_pd(va, vb); break;
        case Opcode::Mul: vo = _mm256_mul_pd(va, vb); break;
        default: {  // Div: guest define x/0 == 0
          const __m256d q = _mm256_div_pd(va, vb);
          const __m256d yzero = _mm256_cmp_pd(vb, zerod, _CMP_EQ_OQ);
          vo = _mm256_andnot_pd(yzero, q);
          break;
        }
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(oi + k),
                          _mm256_castpd_si256(vo));
      continue;
    }
    __m256d m;
    switch (op) {
      case Opcode::Lt: m = _mm256_cmp_pd(va, vb, _CMP_LT_OQ); break;
      case Opcode::Le: m = _mm256_cmp_pd(va, vb, _CMP_LE_OQ); break;
      case Opcode::Gt: m = _mm256_cmp_pd(va, vb, _CMP_GT_OQ); break;
      case Opcode::Ge: m = _mm256_cmp_pd(va, vb, _CMP_GE_OQ); break;
      case Opcode::Eq: m = _mm256_cmp_pd(va, vb, _CMP_EQ_OQ); break;
      case Opcode::Ne: m = _mm256_cmp_pd(va, vb, _CMP_NEQ_UQ); break;
      case Opcode::LAnd: {
        const __m256d ta = _mm256_cmp_pd(va, zerod, _CMP_NEQ_UQ);
        const __m256d tb = _mm256_cmp_pd(vb, zerod, _CMP_NEQ_UQ);
        m = _mm256_and_pd(ta, tb);
        break;
      }
      default: {  // LOr
        const __m256d ta = _mm256_cmp_pd(va, zerod, _CMP_NEQ_UQ);
        const __m256d tb = _mm256_cmp_pd(vb, zerod, _CMP_NEQ_UQ);
        m = _mm256_or_pd(ta, tb);
        break;
      }
    }
    const __m256i bits = _mm256_castpd_si256(m);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(oi + k),
                        _mm256_srli_epi64(bits, 63));
  }
  return cmp_out ? kWroteInt : kWroteFloat;
}

#endif  // __x86_64__ && !MSC_SIMD_ISA_SCALAR

// ---------------------------------------------------------- NEON appliers

#if defined(__aarch64__) && !defined(MSC_SIMD_ISA_SCALAR)

int int_bin_neon(Opcode op, const std::int64_t* a, const std::int64_t* bptr,
                 std::int64_t bimm, std::int64_t* oi, std::size_t n) {
  switch (op) {
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::BitAnd:
    case Opcode::BitOr:
    case Opcode::BitXor:
    case Opcode::Eq:
    case Opcode::Gt:
    case Opcode::Lt:
      break;
    default:
      return kUnhandled;
  }
  const int64x2_t vimm = vdupq_n_s64(bimm);
  for (std::size_t k = 0; k < n; k += 2) {
    const int64x2_t va = vld1q_s64(a + k);
    const int64x2_t vb = bptr != nullptr ? vld1q_s64(bptr + k) : vimm;
    int64x2_t vo;
    switch (op) {
      case Opcode::Add: vo = vaddq_s64(va, vb); break;
      case Opcode::Sub: vo = vsubq_s64(va, vb); break;
      case Opcode::BitAnd:
        vo = vreinterpretq_s64_u64(
            vandq_u64(vreinterpretq_u64_s64(va), vreinterpretq_u64_s64(vb)));
        break;
      case Opcode::BitOr:
        vo = vreinterpretq_s64_u64(
            vorrq_u64(vreinterpretq_u64_s64(va), vreinterpretq_u64_s64(vb)));
        break;
      case Opcode::BitXor:
        vo = vreinterpretq_s64_u64(
            veorq_u64(vreinterpretq_u64_s64(va), vreinterpretq_u64_s64(vb)));
        break;
      case Opcode::Eq:
        vo = vreinterpretq_s64_u64(vshrq_n_u64(vceqq_s64(va, vb), 63));
        break;
      case Opcode::Gt:
        vo = vreinterpretq_s64_u64(vshrq_n_u64(vcgtq_s64(va, vb), 63));
        break;
      default:  // Lt
        vo = vreinterpretq_s64_u64(vshrq_n_u64(vcgtq_s64(vb, va), 63));
        break;
    }
    vst1q_s64(oi + k, vo);
  }
  return kWroteInt;
}

int float_bin_neon(Opcode op, const std::int64_t* a, const std::int64_t* bptr,
                   double bimm, std::int64_t* oi, std::size_t n) {
  switch (op) {
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
      break;
    default:
      return kUnhandled;
  }
  const float64x2_t vimm = vdupq_n_f64(bimm);
  for (std::size_t k = 0; k < n; k += 2) {
    const float64x2_t va = vreinterpretq_f64_s64(vld1q_s64(a + k));
    const float64x2_t vb =
        bptr != nullptr ? vreinterpretq_f64_s64(vld1q_s64(bptr + k)) : vimm;
    float64x2_t vo;
    switch (op) {
      case Opcode::Add: vo = vaddq_f64(va, vb); break;
      case Opcode::Sub: vo = vsubq_f64(va, vb); break;
      default: vo = vmulq_f64(va, vb); break;  // Mul
    }
    vst1q_s64(oi + k, vreinterpretq_s64_f64(vo));
  }
  return kWroteFloat;
}

#endif  // __aarch64__ && !MSC_SIMD_ISA_SCALAR

// -------------------------------------------------------- shared dispatch

void bin_masked_elem(Opcode op, const std::uint8_t* atag,
                     const std::int64_t* abits, const std::uint8_t* btag,
                     const std::int64_t* bbits, std::uint8_t* otag,
                     std::int64_t* obits, const std::uint64_t* mask,
                     std::size_t n) {
  for_each_lane_bit(mask, n / 64, [&](std::size_t k) {
    const Value a = lane_value(atag, abits, k);
    const Value b = lane_value(btag, bbits, k);
    put_value(otag, obits, k, ir::eval_binary(op, a, b));
  });
}

void bin_imm_masked_elem(Opcode op, const std::uint8_t* atag,
                         const std::int64_t* abits, const Value& b,
                         std::uint8_t* otag, std::int64_t* obits,
                         const std::uint64_t* mask, std::size_t n) {
  for_each_lane_bit(mask, n / 64, [&](std::size_t k) {
    put_value(otag, obits, k,
              ir::eval_binary(op, lane_value(atag, abits, k), b));
  });
}

/// Element k of a payload lane as a double: Int lanes promote (defined
/// for every int64), Float lanes reinterpret their bits.
double lane_f64(TagClass c, const std::int64_t* bits, std::size_t k) {
  return c == TagClass::Int ? static_cast<double>(bits[k]) : as_f64(bits[k]);
}

/// Lane×lane dispatch shared by every ISA table; `ibin`/`fbin` are the
/// ISA's full-width appliers (tried first, portable loops as fallback).
void bin_dispatch(Opcode op, const std::uint8_t* atag, const std::int64_t* abits,
                  const std::uint8_t* btag, const std::int64_t* bbits,
                  std::uint8_t* otag, std::int64_t* obits,
                  const std::uint64_t* mask, std::size_t n, IntBinFn ibin,
                  FloatBinFn fbin) {
  const TagClass ca = masked_tag_class(atag, mask, n);
  const TagClass cb =
      ca == TagClass::Mixed ? TagClass::Mixed : masked_tag_class(btag, mask, n);
  if (ca == TagClass::Int && cb == TagClass::Int) {
    int r = ibin(op, abits, bbits, 0, obits, n);
    if (r == kUnhandled) r = int_bin_portable(op, abits, bbits, 0, obits, n);
    finish(r, otag, n);  // every int binary op is handled
    return;
  }
  if (ca != TagClass::Mixed && cb != TagClass::Mixed) {
    // At least one side uniformly Float: ir::arith takes the
    // either_float path. Promote an Int side full-width (defined).
    int r = kUnhandled;
    if (ca == TagClass::Float && cb == TagClass::Float)
      r = fbin(op, abits, bbits, 0.0, obits, n);
    if (r == kUnhandled)
      r = float_bin_go(
          op, [&](std::size_t k) { return lane_f64(ca, abits, k); },
          [&](std::size_t k) { return lane_f64(cb, bbits, k); }, obits, n);
    if (r != kUnhandled) {
      finish(r, otag, n);
      return;
    }
  }
  bin_masked_elem(op, atag, abits, btag, bbits, otag, obits, mask, n);
}

void bin_imm_dispatch(Opcode op, const std::uint8_t* atag,
                      const std::int64_t* abits, const Value& b,
                      std::uint8_t* otag, std::int64_t* obits,
                      const std::uint64_t* mask, std::size_t n, IntBinFn ibin,
                      FloatBinFn fbin) {
  const TagClass ca = masked_tag_class(atag, mask, n);
  if (ca == TagClass::Int && b.is_int()) {
    int r = ibin(op, abits, nullptr, b.i, obits, n);
    if (r == kUnhandled) r = int_bin_portable(op, abits, nullptr, b.i, obits, n);
    finish(r, otag, n);
    return;
  }
  if (ca != TagClass::Mixed) {
    const double y = b.as_double();
    int r = kUnhandled;
    if (ca == TagClass::Float) r = fbin(op, abits, nullptr, y, obits, n);
    if (r == kUnhandled)
      r = float_bin_go(
          op, [&](std::size_t k) { return lane_f64(ca, abits, k); },
          [y](std::size_t) { return y; }, obits, n);
    if (r != kUnhandled) {
      finish(r, otag, n);
      return;
    }
  }
  bin_imm_masked_elem(op, atag, abits, b, otag, obits, mask, n);
}

/// Unary ops; shared by every ISA table (unary lanes are rare and cheap).
void un_portable(Opcode op, const std::uint8_t* atag, const std::int64_t* abits,
                 std::uint8_t* otag, std::int64_t* obits,
                 const std::uint64_t* mask, std::size_t n) {
  const TagClass ca = masked_tag_class(atag, mask, n);
  int r = kUnhandled;
  switch (op) {
    case Opcode::Neg:
      if (ca == TagClass::Int) {
        for (std::size_t k = 0; k < n; ++k)
          obits[k] = static_cast<std::int64_t>(-static_cast<std::uint64_t>(abits[k]));
        r = kWroteInt;
      } else if (ca == TagClass::Float) {
        for (std::size_t k = 0; k < n; ++k) obits[k] = f64_bits(-as_f64(abits[k]));
        r = kWroteFloat;
      }
      break;
    case Opcode::Not:
      if (ca == TagClass::Int) {
        for (std::size_t k = 0; k < n; ++k) obits[k] = abits[k] == 0 ? 1 : 0;
        r = kWroteInt;
      } else if (ca == TagClass::Float) {
        for (std::size_t k = 0; k < n; ++k)
          obits[k] = as_f64(abits[k]) == 0.0 ? 1 : 0;
        r = kWroteInt;
      }
      break;
    case Opcode::BitNot:
      if (ca == TagClass::Int) {
        for (std::size_t k = 0; k < n; ++k) obits[k] = ~abits[k];
        r = kWroteInt;
      }
      break;  // float→int conversion: masked elementwise only
    case Opcode::CastI:
      if (ca == TagClass::Int) {
        for (std::size_t k = 0; k < n; ++k) obits[k] = abits[k];
        r = kWroteInt;
      }
      break;  // float→int conversion: masked elementwise only
    case Opcode::CastF:
      if (ca == TagClass::Int) {
        for (std::size_t k = 0; k < n; ++k)
          obits[k] = f64_bits(static_cast<double>(abits[k]));
        r = kWroteFloat;
      } else if (ca == TagClass::Float) {
        for (std::size_t k = 0; k < n; ++k) obits[k] = abits[k];
        r = kWroteFloat;
      }
      break;
    default:
      break;
  }
  if (r != kUnhandled) {
    finish(r, otag, n);
    return;
  }
  for_each_lane_bit(mask, n / 64, [&](std::size_t k) {
    const Value a = lane_value(atag, abits, k);
    Value v;
    switch (op) {
      case Opcode::Neg:
        v = a.is_float() ? Value::of_float(-a.f)
                         : Value::of_int(static_cast<std::int64_t>(
                               -static_cast<std::uint64_t>(a.i)));
        break;
      case Opcode::Not: v = Value::of_int(!a.truthy()); break;
      case Opcode::BitNot: v = Value::of_int(~a.as_int()); break;
      case Opcode::CastI: v = Value::of_int(a.as_int()); break;
      default: v = Value::of_float(a.as_double()); break;  // CastF
    }
    put_value(otag, obits, k, v);
  });
}

// ------------------------------------------------------------- ISA tables

template <IntBinFn ibin, FloatBinFn fbin>
void bin_entry(Opcode op, const std::uint8_t* atag, const std::int64_t* abits,
               const std::uint8_t* btag, const std::int64_t* bbits,
               std::uint8_t* otag, std::int64_t* obits,
               const std::uint64_t* mask, std::size_t n) {
  bin_dispatch(op, atag, abits, btag, bbits, otag, obits, mask, n, ibin, fbin);
}

template <IntBinFn ibin, FloatBinFn fbin>
void bin_imm_entry(Opcode op, const std::uint8_t* atag,
                   const std::int64_t* abits, const Value& b,
                   std::uint8_t* otag, std::int64_t* obits,
                   const std::uint64_t* mask, std::size_t n) {
  bin_imm_dispatch(op, atag, abits, b, otag, obits, mask, n, ibin, fbin);
}

const LaneKernels kPortableKernels{
    bin_entry<int_bin_portable, float_bin_portable>,
    bin_imm_entry<int_bin_portable, float_bin_portable>, un_portable};
#if defined(__x86_64__) && !defined(MSC_SIMD_ISA_SCALAR)
const LaneKernels kAvx2Kernels{bin_entry<int_bin_avx2, float_bin_avx2>,
                               bin_imm_entry<int_bin_avx2, float_bin_avx2>,
                               un_portable};
#endif
#if defined(__aarch64__) && !defined(MSC_SIMD_ISA_SCALAR)
const LaneKernels kNeonKernels{bin_entry<int_bin_neon, float_bin_neon>,
                               bin_imm_entry<int_bin_neon, float_bin_neon>,
                               un_portable};
#endif

}  // namespace

const LaneKernels& lane_kernels(SimdIsa isa) {
#if defined(__x86_64__) && !defined(MSC_SIMD_ISA_SCALAR)
  if (isa == SimdIsa::Avx2) return kAvx2Kernels;
#endif
#if defined(__aarch64__) && !defined(MSC_SIMD_ISA_SCALAR)
  if (isa == SimdIsa::Neon) return kNeonKernels;
#endif
  (void)isa;
  return kPortableKernels;
}

}  // namespace msc::simd
