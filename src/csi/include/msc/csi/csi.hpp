#ifndef MSC_CSI_CSI_HPP
#define MSC_CSI_CSI_HPP

#include <cstdint>
#include <vector>

#include "msc/ir/cost.hpp"
#include "msc/ir/instr.hpp"
#include "msc/support/bitset.hpp"

namespace msc::csi {

/// One SIMD-scheduled operation: the instruction plus the set of threads
/// (MIMD states) whose PEs execute it.
struct GuardedOp {
  DynBitset guard;
  ir::Instr instr;
};

/// A thread to schedule: the instruction body of one MIMD state merged
/// into a meta state (§3.1: "multiple instruction sequences that are
/// supposed to execute simultaneously").
struct Thread {
  std::size_t key;  ///< MIMD state id (guard bit)
  const std::vector<ir::Instr>* body;
};

enum class Algorithm : std::uint8_t {
  /// No induction: threads serialized one after another (the naive SIMD
  /// coding CSI improves upon; §3.1's ablation baseline).
  Serialize,
  /// Progressive pairwise induction (default): fold the threads into one
  /// schedule by a weighted shortest-common-supersequence DP, one thread
  /// at a time, and keep the cheapest of three merge orders (id order,
  /// longest first, reversed). Exactly optimal for two threads; our
  /// stand-in for the paper's permutation-in-range search.
  Progressive,
};

struct CsiOptions {
  Algorithm algorithm = Algorithm::Progressive;
  /// Guard-bitset width (number of MIMD states in the graph).
  std::size_t guard_bits = 0;
};

struct CsiResult {
  std::vector<GuardedOp> schedule;
  std::int64_t serialized_cost = 0;  ///< cost with no sharing at all
  std::int64_t induced_cost = 0;     ///< cost of the returned schedule
  std::int64_t lower_bound = 0;      ///< class-count bound (can't do better)
  std::size_t shared_ops = 0;        ///< ops executed by ≥2 threads
};

/// Common subexpression induction for one meta state: produce a single
/// SIMD instruction schedule in which identical operations from different
/// threads are factored into one broadcast. Each thread's projection of
/// the schedule (ops whose guard contains the thread key) is exactly its
/// original body, in order — threads have no cross dependencies, so any
/// interleaving is legal; only intra-thread order is fixed. The schedule
/// comes from `options.algorithm`; `lower_bound` is the larger of the
/// class bound (each distinct instruction at least as often as any one
/// thread needs it) and the costliest single thread.
CsiResult induce(const std::vector<Thread>& threads, const ir::CostModel& cost,
                 const CsiOptions& options);

/// Test helper: check that `schedule` projects to each thread's body.
bool schedule_valid(const std::vector<GuardedOp>& schedule,
                    const std::vector<Thread>& threads);

/// Cost of a schedule: each op is one SIMD broadcast paid once.
std::int64_t schedule_cost(const std::vector<GuardedOp>& schedule,
                           const ir::CostModel& cost);

}  // namespace msc::csi

#endif  // MSC_CSI_CSI_HPP
