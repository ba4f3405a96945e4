#ifndef MSC_INTERP_MACHINE_HPP
#define MSC_INTERP_MACHINE_HPP

#include <cstdint>
#include <vector>

#include "msc/ir/cost.hpp"
#include "msc/ir/exec.hpp"
#include "msc/ir/graph.hpp"
#include "msc/mimd/machine.hpp"  // RunConfig, Timeout

namespace msc::interp {

/// Dispatch strategy of the §1.1 interpreter loop.
enum class Dispatch : std::uint8_t {
  /// "Basic MIMD Interpreter Algorithm": step 3 repeats for *every*
  /// instruction type, enabled or not.
  Naive,
  /// The [NiT90]/[DiC92] trick: global-or an opcode presence mask first
  /// and only serialize over the types some PE actually fetched.
  GlobalOr,
};

/// The flattened "MIMD instruction set" image placed in every PE's local
/// memory. Each instruction occupies three cells: [opcode, argA, argB]. A
/// push carries its immediate in argA as Value::bits, read back by opcode
/// (PushF's word is a double's bit pattern).
struct InterpImage {
  /// One interpreter opcode per ir::Opcode, plus control pseudo-ops.
  enum Op : std::int64_t {
    kJump = 1000,   ///< a = target word index
    kJumpF = 1001,  ///< pop cond; a = TRUE word index, b = FALSE word index
    kHalt = 1002,
    kSpawn = 1003,  ///< a = child entry word index (fall through for parent)
    kWait = 1004,   ///< §2.6 barrier
  };

  std::vector<std::int64_t> words;        ///< 3 cells per instruction
  std::vector<std::int64_t> block_entry;  ///< MIMD state id → word index
  std::int64_t entry = 0;

  std::size_t instr_count() const { return words.size() / 3; }
  /// Per-PE memory cost of holding the program (§1.1 overhead 2).
  std::int64_t cells_per_pe() const {
    return static_cast<std::int64_t>(words.size());
  }
};

/// Flatten a MIMD state graph into an interpreter image.
InterpImage assemble(const ir::StateGraph& graph);

struct InterpStats {
  std::int64_t control_cycles = 0;
  std::int64_t fetch_cycles = 0;     ///< overhead 1: fetch/decode
  std::int64_t dispatch_cycles = 0;  ///< serialization over opcode types
  std::int64_t execute_cycles = 0;   ///< useful work broadcasts
  std::int64_t loop_cycles = 0;      ///< overhead 3: interpreter loop jump
  std::int64_t busy_pe_cycles = 0;
  std::int64_t offered_pe_cycles = 0;
  std::int64_t iterations = 0;
  std::int64_t global_ors = 0;
  std::int64_t spawns = 0;
  std::int64_t program_cells_per_pe = 0;  ///< overhead 2: replicated code

  double utilization() const {
    return offered_pe_cycles == 0
               ? 1.0
               : static_cast<double>(busy_pe_cycles) /
                     static_cast<double>(offered_pe_cycles);
  }
};

/// SIMD machine interpretively executing MIMD code (§1.1) — the baseline
/// meta-state conversion is measured against. Functionally equivalent to
/// the MIMD oracle (same instruction semantics, same barrier/spawn rules);
/// the cost model charges the three §1.1 overheads explicitly.
class InterpMachine : public ir::MemoryBus {
 public:
  InterpMachine(const ir::StateGraph& graph, const ir::CostModel& cost,
                const mimd::RunConfig& config, Dispatch dispatch = Dispatch::GlobalOr);

  void poke(std::int64_t proc, std::int64_t addr, Value v);
  Value peek(std::int64_t proc, std::int64_t addr) const;
  void poke_mono(std::int64_t addr, Value v);
  Value peek_mono(std::int64_t addr) const;

  void run();

  const InterpStats& stats() const { return stats_; }
  bool ever_ran(std::int64_t proc) const { return pes_[proc].ever_ran; }

  // MemoryBus:
  Value mono_load(std::int64_t addr) override;
  void mono_store(std::int64_t addr, Value v) override;
  Value route_load(std::int64_t proc, std::int64_t addr) override;
  void route_store(std::int64_t proc, std::int64_t addr, Value v) override;

 private:
  struct Pe {
    std::int64_t pc = -1;  ///< word index; -1 = not in any process
    bool waiting = false;
    bool ever_ran = false;
    ir::SoaLocal local;
    std::vector<Value> stack;
  };

  bool alive(const Pe& pe) const { return pe.pc >= 0; }
  void step();
  void exec_one(std::int64_t pid, std::int64_t op, std::int64_t a,
                std::int64_t b);
  void check_local(std::int64_t proc, std::int64_t addr) const;

  const ir::StateGraph& graph_;
  const ir::CostModel& cost_;
  mimd::RunConfig config_;
  Dispatch dispatch_;
  InterpImage image_;
  std::vector<Pe> pes_;
  std::vector<Value> mono_;
  InterpStats stats_;
};

}  // namespace msc::interp

#endif  // MSC_INTERP_MACHINE_HPP
