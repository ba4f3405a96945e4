#ifndef MSC_KERNELS_VERIFIED_HPP
#define MSC_KERNELS_VERIFIED_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "msc/driver/runner.hpp"
#include "msc/mimd/machine.hpp"
#include "msc/support/value.hpp"

namespace msc::kernels {

/// Parameters of a verified-kernel instance. Every kernel is generated
/// for a concrete problem size `n` (the participating PEs), so the source
/// embeds `n` as a literal and the machine may be wider than the problem
/// (`nprocs > n` with `initial_active = n`).
struct VerifiedParams {
  std::int64_t n = 8;        ///< problem size == participating PEs
  std::int64_t nprocs = -1;  ///< machine width; -1 ⇒ exactly n
  std::uint64_t input_seed = 1;
};

/// A concrete kernel instance paired with its host-side ground truth.
/// Unlike workload::Kernel (shape generators checked engine-vs-engine),
/// a VerifiedCase carries `expected_results`/`expected_ran` computed by an
/// independent host-side reference function — a run is checked against
/// the *answer*, not against another engine.
struct VerifiedCase {
  std::string name;
  std::string description;
  std::string source;
  std::int64_t n = 0;
  std::uint64_t input_seed = 0;
  /// nprocs / initial_active / reuse_halted_pes preset for this instance.
  /// Engine and limits are left at their defaults for the caller to set.
  mimd::RunConfig config;
  /// A RunConfig::max_blocks that covers the MIMD oracle's run, and the
  /// SIMD machine's far fewer meta transitions: participating PEs × (loop
  /// trips + 1) × 16 blocks. The loop bodies run 4–9 blocks per trip, and
  /// the extra trip covers the code around the loop.
  std::int64_t max_blocks = 0;
  bool uses_seed_input = false;  ///< reads the seeded poly global `x`
  bool uses_spawn = false;
  /// The alive-PE count falls while the kernel runs (halt/tree collapse)
  /// — the profile co-scheduling mixes care about (DESIGN.md §12).
  bool sheds_occupancy = false;
  /// Ground truth, indexed by PE over [0, config.nprocs): main's return
  /// value where `expected_ran[p]`, meaningless otherwise. PEs that halt
  /// without returning are expected to leave the zero-initialised result
  /// cell, i.e. int 0.
  std::vector<Value> expected_results;
  std::vector<bool> expected_ran;
};

/// The six verified kernels, in canonical order: "reduce", "scan",
/// "oddeven", "stencil", "bfs", "workqueue".
const std::vector<std::string>& verified_names();
bool is_verified(const std::string& name);

/// Build the instance `name` for `params` (source + config + expected
/// outputs). Throws std::out_of_range for unknown names and
/// std::invalid_argument for unusable params (n < 1, nprocs < n).
VerifiedCase make_case(const std::string& name, VerifiedParams params = {});

/// Parse "name" or "name@n" (e.g. "reduce@65") into a case; `base` seeds
/// the remaining params. Throws like make_case on bad input.
VerifiedCase parse_case(const std::string& spec, VerifiedParams base = {});

/// Compare a run's observations against the case's ground truth. Returns
/// "" on a match, else a human-readable diagnostic naming the first
/// mismatching PE.
std::string check(const VerifiedCase& c, const driver::Observed& obs);

}  // namespace msc::kernels

#endif  // MSC_KERNELS_VERIFIED_HPP
