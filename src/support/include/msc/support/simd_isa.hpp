// Host-SIMD ISA selection for the lane-major execution backend.
//
// The simulated machine's semantics never depend on the host ISA: every
// engine must produce bit-identical SimdStats, visits, tracer streams and
// profiles whichever ISA executes the lanes. This header only decides
// *how* whole lanes are evaluated:
//
//   Scalar  - no lane executor: every codegen-engine group runs the
//             flat-list span, PE by PE (also the forced fallback when
//             built with -DMSC_SIMD_ISA=scalar).
//   Avx2    - x86-64 lane kernels, 4 x 64-bit elements per register.
//   Neon    - AArch64 lane kernels, 2 x 64-bit elements per register.
//   Auto    - resolve to the best ISA the host supports at runtime.
//
// Requesting an ISA the host (or build) cannot execute is a configuration
// error and throws std::invalid_argument from resolve_simd_isa().
#pragma once

#include <cstdint>
#include <string>

namespace msc {

enum class SimdIsa : std::uint8_t { Auto, Scalar, Avx2, Neon };

/// Best ISA the current host can execute (never Auto). Returns Scalar when
/// the build forced -DMSC_SIMD_ISA=scalar or the CPU lacks vector support.
SimdIsa detect_simd_isa();

/// Auto -> detect_simd_isa(); explicit ISAs are validated against the host
/// and build. Throws std::invalid_argument for an unavailable request.
SimdIsa resolve_simd_isa(SimdIsa requested);

/// Parse "auto" | "scalar" | "avx2" | "neon"; throws std::invalid_argument.
SimdIsa parse_simd_isa(const std::string& text);

const char* simd_isa_name(SimdIsa isa);

/// 64-bit elements processed per vector register (1 for Scalar/Auto).
int simd_isa_lane_width(SimdIsa isa);

/// True when the build carries lane kernels (false under
/// -DMSC_SIMD_ISA=scalar, where the vector TUs are compiled out).
bool simd_isa_compiled();

}  // namespace msc
