#ifndef MSC_SIMD_MACHINE_HPP
#define MSC_SIMD_MACHINE_HPP

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "msc/codegen/program.hpp"
#include "msc/codegen/translate.hpp"
#include "msc/ir/cost.hpp"
#include "msc/ir/exec.hpp"
#include "msc/mimd/machine.hpp"  // RunConfig, SimdEngine, Timeout
#include "msc/simd/lanes.hpp"
#include "msc/support/simd_isa.hpp"

namespace msc::telemetry {
class TraceSink;
}

namespace msc::simd {

struct SimdStats {
  /// Cycles consumed by the single control unit (everything is serialized
  /// through it: guarded bodies, pc updates, global-ors, dispatches).
  std::int64_t control_cycles = 0;
  /// Σ op-cost × enabled PEs — actual work done.
  std::int64_t busy_pe_cycles = 0;
  /// Σ op-cost × alive PEs — work capacity offered while code ran.
  std::int64_t offered_pe_cycles = 0;
  std::int64_t meta_transitions = 0;
  std::int64_t global_ors = 0;
  /// Enable-mask reprogrammings (one per `if (pc & …)` boundary).
  std::int64_t guard_switches = 0;
  std::int64_t spawns = 0;
  /// PaperPrune/fold-collision transitions resolved via the member index
  /// instead of the hashed switch (see DESIGN.md §2.6 discussion).
  std::int64_t rescue_transitions = 0;
  /// Router traversals (parallel-subscript loads/stores through the
  /// inter-PE network). Counted in the shared MemoryBus layer, so both
  /// engines agree by construction.
  std::int64_t router_ops = 0;

  /// PE utilization while executing meta-state bodies (§2.4 motivates
  /// time splitting with "up to 95% of its processor cycles ... waiting").
  double utilization() const {
    return offered_pe_cycles == 0
               ? 1.0
               : static_cast<double>(busy_pe_cycles) /
                     static_cast<double>(offered_pe_cycles);
  }

  bool operator==(const SimdStats& o) const = default;
};

/// Per-meta-state execution profile (§2.4's utilization lens applied per
/// state rather than per run). Accumulated in the engine-independent
/// step() skeleton from SimdStats deltas, so (a) both engines produce
/// bit-identical profiles and (b) summing any cycle field over all states
/// reproduces the run's SimdStats total exactly — `mscprof` and the
/// observability tests rely on both properties.
struct StateProfile {
  /// Power-of-two buckets over the enabled-PE count at state entry:
  /// bucket 0 ↔ 0 PEs, bucket k ↔ [2^(k-1), 2^k), last bucket open.
  static constexpr int kEnabledBuckets = 16;

  std::int64_t visits = 0;
  std::int64_t enabled_min = 0;  ///< fewest PEs alive at any entry
  std::int64_t enabled_max = 0;
  std::int64_t enabled_sum = 0;  ///< Σ over visits (mean = sum / visits)
  std::int64_t control_cycles = 0;   ///< broadcast + transition cost here
  std::int64_t busy_pe_cycles = 0;
  std::int64_t offered_pe_cycles = 0;
  std::int64_t global_ors = 0;
  std::int64_t guard_switches = 0;
  std::int64_t router_ops = 0;
  std::int64_t spawns = 0;
  std::array<std::int64_t, kEnabledBuckets> enabled_hist{};

  double utilization() const {
    return offered_pe_cycles == 0
               ? 1.0
               : static_cast<double>(busy_pe_cycles) /
                     static_cast<double>(offered_pe_cycles);
  }

  bool operator==(const StateProfile&) const = default;
};

/// Observer for meta-state execution (tracing/visualization). Callbacks
/// fire synchronously from run()/step(); implementations must not mutate
/// the machine. Attaching a tracer never changes the run's statistics:
/// both engines compute tracer inputs lazily (machine_test asserts this).
class SimdTracer {
 public:
  virtual ~SimdTracer() = default;
  /// Before a meta state's code runs: which MIMD states are occupied and
  /// how many PEs are alive.
  virtual void on_state(core::MetaId id, const DynBitset& occupancy,
                        std::int64_t alive) = 0;
  /// After the transition is resolved (to == kNoMeta on exit).
  virtual void on_transition(core::MetaId from, core::MetaId to,
                             const DynBitset& apc) = 0;
};

/// MasPar-MP-1-like SIMD array executing a meta-state SIMD program: one
/// control unit walking the automaton, N PEs holding only data (§1.2: "PEs
/// merely hold data"), per-PE enable bits derived from the pc guards, a
/// global-or network for aggregate pcs, and a router for parallel
/// subscripts. Per-PE program memory footprint is zero by construction.
///
/// This is the engine-independent interface plus the shared substrate
/// (PE/mono memory, the §3.2.5 spawn pool, ever-ran flags, stats, visit
/// counts, the step() skeleton and the transition-table lookup). It holds
/// no per-PE pc: each engine keeps its own. Two engines implement the
/// per-broadcast hot path — see mimd::SimdEngine and make_machine(); their
/// observable behaviour is bit-identical by contract
/// (simd_differential_test).
class SimdMachine : public ir::MemoryBus {
 public:
  SimdMachine(const codegen::SimdProgram& program, const ir::CostModel& cost,
              const mimd::RunConfig& config);
  ~SimdMachine() override = default;

  void poke(std::int64_t proc, std::int64_t addr, Value v);
  Value peek(std::int64_t proc, std::int64_t addr) const;
  /// Seed one local cell across all PEs from a per-PE integer vector
  /// (vals.size() == nprocs): one memcpy into the payload lane, byte-identical
  /// to nprocs scalar pokes of Value::of_int.
  void fill_lane(std::int64_t addr, const std::vector<std::int64_t>& vals);
  void poke_mono(std::int64_t addr, Value v);
  Value peek_mono(std::int64_t addr) const;

  void run();

  /// Publish run aggregates into MetricsRegistry::global() (mscc
  /// --metrics). run() calls this on clean completion; callers driving
  /// step() manually may call it themselves. Idempotent per machine.
  void publish_metrics();

  /// Attach an execution observer (nullptr to detach).
  void set_tracer(SimdTracer* tracer) { tracer_ = tracer; }

  /// Attach a Chrome-trace sink (nullptr to detach): every step() emits
  /// one complete event on the deterministic cycle timeline
  /// (telemetry::TraceSink::kSimdPid) carrying enabled-PE count, occupied
  /// meta-state members, and the step's global-or/router/cycle deltas.
  /// With no sink attached the per-step cost is one pointer test; stats,
  /// memories, and visits are unchanged either way (pinned by
  /// simd_differential_test and bench_scaling's T-OBS gate).
  void set_trace_sink(telemetry::TraceSink* sink) { trace_sink_ = sink; }

  /// Start accumulating per-meta-state profiles (mscc --profile-simd).
  /// Call before run(); idempotent. Profiling never changes observable
  /// execution — it only reads SimdStats deltas at step boundaries.
  void enable_profiling() {
    profile_.assign(prog_.states.size(), StateProfile{});
    profiling_ = true;
  }
  bool profiling() const { return profiling_; }
  /// Per-meta-state profiles (empty unless enable_profiling() was called).
  const std::vector<StateProfile>& profile() const { return profile_; }

  /// Execute one meta state and take its transition. Returns false once
  /// the automaton exits (nothing executed then). Lets examples/benches
  /// trace occupancy over time.
  bool step();
  core::MetaId current_state() const { return cur_; }
  virtual std::int64_t alive_count() const = 0;
  /// Machine width (RunConfig::nprocs) — partition bookkeeping for the
  /// co-scheduler and reporting tools.
  std::int64_t nprocs() const { return config_.nprocs; }
  /// Resolved host ISA executing whole-lane broadcasts. Always Scalar for
  /// the reference engine (it is the scalar differential oracle).
  SimdIsa isa() const { return isa_; }

  /// "codegen" or "reference" (--trace-simd, bench labels).
  virtual const char* engine_name() const = 0;

  const SimdStats& stats() const { return stats_; }
  bool ever_ran(std::int64_t proc) const {
    return ever_ran_.test(static_cast<std::size_t>(proc));
  }
  /// Per-meta-state execution counts (benches, --trace-simd).
  const std::vector<std::int64_t>& state_visits() const { return visits_; }

  // MemoryBus:
  Value mono_load(std::int64_t addr) override;
  void mono_store(std::int64_t addr, Value v) override;
  Value route_load(std::int64_t proc, std::int64_t addr) override;
  void route_store(std::int64_t proc, std::int64_t addr, Value v) override;

 protected:
  /// Run one meta state's guarded broadcasts and commit the pc updates.
  virtual void exec_state(const codegen::MetaCode& mc) = 0;
  /// The aggregate pc: bit s set iff some PE's pc is s. step() asks once
  /// per meta state for the transition, and again for observers.
  virtual DynBitset aggregate_pc() const = 0;

  /// Transition-table lookup shared by both engines: charges the static
  /// transition cost, counts global-ors, and resolves Direct/Multiway/
  /// rescue exactly as §3.2.1–3.2.4 prescribe.
  core::MetaId resolve_transition(const codegen::MetaCode& mc,
                                  const DynBitset& apc);
  /// Where the initially active PEs start (SPMD: the start meta state's
  /// one member).
  ir::StateId start_pc() const {
    return static_cast<ir::StateId>(prog_.states[prog_.start].members.first());
  }
  void check_local(std::int64_t proc, std::int64_t addr) const;
  /// §3.2.5 spawn, shared by both engines: take the lowest-numbered PE in
  /// free_ (the PE the historical linear search from PE 0 found), fault
  /// when the pool is empty, reset the child's memory and stack and mark
  /// it ever-ran. Returns the child's id; the caller sets its pc, committed
  /// with the meta state's other updates.
  std::int64_t claim_child();

  /// Validate nprocs/initial_active before any allocation (MachineFault on
  /// bad configs, matching the historical construction order).
  static std::int64_t validated_nprocs(const mimd::RunConfig& config);

  const codegen::SimdProgram& prog_;
  const ir::CostModel& cost_;
  mimd::RunConfig config_;
  /// Lane-major SoA local memories + per-PE operand stacks (both engines).
  LaneStore lanes_;
  SimdIsa isa_ = SimdIsa::Scalar;
  /// PEs that were initially active or claimed by a spawn.
  DynBitset ever_ran_;
  /// The §3.2.5 "pool of free processors": PEs a spawn may claim (pc ==
  /// none, not claimed earlier in this meta state, and fresh unless
  /// reuse_halted_pes). Filled at construction with the PEs that never
  /// ran; each engine's pc commit returns halted PEs to it under reuse.
  DynBitset free_;
  std::vector<Value> mono_;
  SimdStats stats_;
  std::vector<std::int64_t> visits_;
  /// Attribute the stats delta of one executed step (state entry through
  /// transition) to `state`: profile accumulation and/or one trace event.
  void record_step(core::MetaId state, const SimdStats& pre,
                   std::int64_t pre_alive);

  core::MetaId cur_ = core::kNoMeta;  ///< next meta state step() will run
  bool finished_ = false;
  bool metrics_published_ = false;
  SimdTracer* tracer_ = nullptr;
  telemetry::TraceSink* trace_sink_ = nullptr;
  std::vector<StateProfile> profile_;
  bool profiling_ = false;
};

/// The original scalar implementation, kept compiled in forever as the
/// differential oracle: every PE has its own pc, every broadcast scans all
/// nprocs PEs against the guard, and the aggregate pc and alive count are
/// full rescans. Spawns claim from the base machine's free_ pool like the
/// codegen engine's do.
class ReferenceSimdMachine final : public SimdMachine {
 public:
  ReferenceSimdMachine(const codegen::SimdProgram& program,
                       const ir::CostModel& cost,
                       const mimd::RunConfig& config);
  const char* engine_name() const override { return "reference"; }
  std::int64_t alive_count() const override;

 protected:
  void exec_state(const codegen::MetaCode& mc) override;
  DynBitset aggregate_pc() const override;

 private:
  /// pc_[i] is PE i's MIMD state (kNoState: not running). Within
  /// exec_state pcs are frozen (lockstep) and pc ops write next_pc_.
  std::vector<ir::StateId> pc_;
  std::vector<ir::StateId> next_pc_;
};

/// The default engine: occupancy-indexed execution of the translated
/// program (DESIGN.md §7, §11). At construction the program body is
/// compiled — through the process-global cache in codegen/translate.hpp,
/// so repeat runs of the same automaton skip the work — into fused
/// same-guard groups of constant-folded host ops. exec_state has one loop
/// over the groups: it ORs the guard's per-MIMD-state PE words into a lane
/// mask, charges the group's precomputed cycle aggregates, and then either
/// dispatches the folded stream op-major (threaded/computed-goto dispatch)
/// over the mask's PEs in ascending id, the reference engine's scan order,
/// or hands the mask to the LaneExecutor. Host cost per group is
/// O(nprocs/64 × occupied guard states + enabled PEs), not O(nprocs).
///
/// Maintained invariants: occ_ partitions the running PEs (PE i is in
/// occ(s) iff its pc is s; there is no per-PE pc), apc_.test(s) iff occ(s)
/// is not empty, alive_ == Σ |occ(s)|, and the base's free_ holds exactly
/// the PEs a spawn may claim. Within exec_state occ_ is frozen (lockstep
/// semantics): pc ops record mask moves and commit() applies them. Each
/// PE takes at most one pc op per meta state (codegen::generate gives each
/// member one, guarded by that member alone), so no PE moves twice.
///
/// Observable behaviour — memories, SimdStats, profiles, visits, tracer
/// streams — is bit-identical to the reference oracle.
class CodegenSimdMachine final : public SimdMachine, protected LaneHost {
 public:
  CodegenSimdMachine(const codegen::SimdProgram& program,
                     const ir::CostModel& cost, const mimd::RunConfig& config);
  const char* engine_name() const override { return "codegen"; }
  std::int64_t alive_count() const override { return alive_; }

 protected:
  void exec_state(const codegen::MetaCode& mc) override;
  DynBitset aggregate_pc() const override { return apc_; }

  /// LaneHost: execute TOps [first, end) of the current group for every
  /// masked PE, op-outer / PE-inner. Also runs whole groups: under
  /// SimdIsa::Scalar, and for sparse groups (enabled × 8 < lane width).
  void lane_scalar_span(std::int32_t first, std::int32_t end,
                        const std::uint64_t* mask,
                        std::size_t nwords) override;
  /// LaneHost: record that the masked PEs leave their state for `target`
  /// (kNoState: halt). O(mask words).
  void lane_move(const std::uint64_t* mask, ir::StateId target) override;

 private:
  /// Dispatch folded host ops [op, end) over enabled_scratch_ (ascending
  /// PE ids, gathered from `mask` by lane_scalar_span); pc ops record
  /// moves of `mask`.
  void run_ops(const codegen::TOp* op, const codegen::TOp* end,
               const std::uint64_t* mask);
  const LanePlan& plan_for(core::MetaId id, const codegen::TransState& ts);
  /// OR the occ_ rows of the occupied `guard_states` into lane_mask_;
  /// returns the enabled-PE count.
  std::int64_t build_lane_mask(const std::vector<ir::StateId>& guard_states);
  /// Per-machine executor, built on first whole-lane run.
  LaneExecutor& lane_executor();

  /// Apply the meta state's moves word by word: occ(s) -= leave_ over
  /// occupied s, occ(t) |= arrive(t) over written targets, and free_ |=
  /// the halted PEs (leave_ minus every arrival) under reuse.
  void commit();

  /// Row `s` (nwords_ words, bit i = PE i) of occ_ / arrive_.
  std::uint64_t* occ(std::size_t s) { return occ_.data() + s * nwords_; }
  std::uint64_t* arrive(std::size_t s) { return arrive_.data() + s * nwords_; }

  std::shared_ptr<const codegen::TransProgram> trans_;
  std::size_t nwords_;  ///< words per PE mask: lanes_.mask_words()
  /// occ(s) = PE ids whose pc == s (bit order doubles as the PE-id
  /// execution order the reference engine uses).
  std::vector<std::uint64_t> occ_;
  /// Incremental aggregate pc: bit s set iff occ(s) is not empty.
  DynBitset apc_;
  std::int64_t alive_ = 0;

  // The running meta state's pc moves, all sized at construction.
  std::vector<std::uint64_t> leave_;   ///< PEs whose pc op ran (halts too)
  std::vector<std::uint64_t> arrive_;  ///< arrive(t): PEs whose new pc is t
  DynBitset targets_;                  ///< states t with arrive(t) written
  std::vector<std::uint64_t> split_;   ///< CondSetPc: taken, not taken

  // Scratch reused across groups (no per-group allocation).
  std::vector<std::int64_t> enabled_scratch_;
  /// The group's enable set (nwords_ words, bit i = PE i), rebuilt per
  /// group by build_lane_mask.
  std::vector<std::uint64_t> lane_mask_;
  std::unique_ptr<LaneExecutor> lane_exec_;
  /// Lazily lowered lane plans, indexed by meta-state id (per machine —
  /// the shared translation cache stays RunConfig/ISA-independent).
  std::vector<std::unique_ptr<LanePlan>> lane_plans_;
  const codegen::TGroup* cur_group_ = nullptr;  ///< span source
};

/// Build the engine selected by `config.engine`.
std::unique_ptr<SimdMachine> make_machine(const codegen::SimdProgram& program,
                                          const ir::CostModel& cost,
                                          const mimd::RunConfig& config);

/// Parse "codegen"/"reference" (mscc --simd-engine); throws
/// std::invalid_argument on anything else.
mimd::SimdEngine parse_engine(const std::string& name);
/// Canonical name of an engine ("codegen"/"reference").
const char* engine_name(mimd::SimdEngine engine);

/// JSON for --trace-simd / --profile-simd: engine name, cycle/utilization
/// stats, per-meta-state visit counts, and — when profiling was enabled —
/// a "profile" array with one StateProfile object per meta state. Schema
/// documented in DESIGN.md §7 and §10.
std::string to_json(const SimdMachine& machine);

}  // namespace msc::simd

#endif  // MSC_SIMD_MACHINE_HPP
