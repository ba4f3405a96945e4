#ifndef MSC_CORE_CONVERT_HPP
#define MSC_CORE_CONVERT_HPP

#include <cstdint>
#include <stdexcept>
#include <string>

#include "msc/core/automaton.hpp"
#include "msc/ir/cost.hpp"
#include "msc/ir/graph.hpp"

namespace msc::core {

/// Options for meta-state conversion.
struct ConvertOptions {
  /// §2.5: assume both successors of every two-exit state are always
  /// taken. Collapses the automaton dramatically (Fig. 5) at the cost of
  /// wider (less efficient) meta states.
  bool compress = false;

  /// With compression, additionally merge any meta state whose member set
  /// is strictly contained in another's into that superset (the paper's
  /// "the case of both successors can always emulate either successor");
  /// this is what reduces Listing 1's compressed automaton to the two
  /// states of Fig. 5. Ignored in base mode, where transitions are keyed
  /// on exact occupancy.
  bool subsume = true;

  /// Ignored under compression, which always tracks barrier occupancy
  /// (a compressed transition is unconditional, so the §3.2.4 masking
  /// trick has no key to adjust; release is handled by occupancy-keyed
  /// arcs instead).
  BarrierMode barrier_mode = BarrierMode::TrackOccupancy;

  /// §4.2: straighten the finished automaton — lay single-successor chains
  /// out consecutively so codegen emits fall-throughs instead of gotos.
  bool straighten = true;

  /// §2.4 MIMD-state time splitting. When a freshly created meta state
  /// mixes member costs badly, the expensive members are split into a
  /// min-cost head plus a tail state and the conversion restarts.
  bool time_split = false;
  std::int64_t split_delta = 4;     ///< cost noise level, in cycles
  std::int64_t split_percent = 75;  ///< acceptable utilization, in percent
  int max_split_rounds = 64;

  /// Memoize successor-set enumerations keyed on the meta-state member
  /// bitset. The memo survives §2.4 time-split restarts: a restart only
  /// invalidates entries whose member sets include a split state, so the
  /// (typically dominant) untouched frontier is reused instead of
  /// recomputed. Disable only to measure the cache (bench_convert_cache).
  bool memoize = true;

  /// Explosion guard (§1.2 warns of up to S!/(S−N)! states). Enforced
  /// before insertion: exactly this many meta states may be created.
  std::size_t max_meta_states = 250'000;
};

/// Thrown when `max_meta_states` is exceeded.
class ExplosionError : public std::runtime_error {
 public:
  explicit ExplosionError(std::size_t limit);
  std::size_t limit() const { return limit_; }

 private:
  std::size_t limit_;
};

struct ConvertStats {
  std::size_t meta_states = 0;
  std::size_t arcs = 0;
  std::size_t reach_calls = 0;      ///< recursive successor enumerations
  int splits_performed = 0;         ///< §2.4 state splits across all rounds
  int restarts = 0;                 ///< conversion restarts due to splitting

  // Successor-set memo cache (survives time-split restarts).
  std::size_t cache_hits = 0;        ///< member sets served from the memo
  std::size_t cache_misses = 0;      ///< member sets enumerated by reach()
  std::size_t cache_invalidated = 0; ///< entries dropped by split restarts

  // Per-phase wall time, in seconds (accumulated across restart rounds).
  double subsume_seconds = 0.0;     ///< Fig. 5 subsumption pass
  double straighten_seconds = 0.0;  ///< §4.2 layout pass
  double total_seconds = 0.0;       ///< whole meta_state_convert() call
};

/// Render stats as a stable JSON object (the `--trace-convert` payload).
/// Schema documented in DESIGN.md §"Conversion engine".
std::string to_json(const ConvertStats& stats);

struct ConvertResult {
  /// The (possibly time-split) MIMD state graph the automaton refers to.
  ir::StateGraph graph;
  MetaAutomaton automaton;
  ConvertStats stats;
};

/// Meta-state conversion (§2): build the meta-state automaton for `graph`.
/// The input graph is copied; time splitting mutates only the copy.
ConvertResult meta_state_convert(const ir::StateGraph& graph,
                                 const ir::CostModel& cost,
                                 const ConvertOptions& options = {});

}  // namespace msc::core

#endif  // MSC_CORE_CONVERT_HPP
