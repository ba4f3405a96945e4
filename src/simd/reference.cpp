// The original scalar SIMD engine, kept as the differential oracle: every
// PE has its own pc, every broadcast scans all nprocs PEs and the aggregate
// pc is a full rescan. It is the only engine with per-PE pcs.
// Deliberately simple — its value is being obviously correct, so the
// occupancy-indexed engines can be checked against it bit-for-bit forever
// (tests/simd_differential_test.cpp). Spawns claim from the base
// machine's free_ pool (SimdMachine::claim_child), the one spawn pool
// both engines share.
#include "msc/simd/machine.hpp"

#include <algorithm>

namespace msc::simd {

using codegen::MetaCode;
using codegen::SOp;
using codegen::SOpKind;
using ir::kNoState;

ReferenceSimdMachine::ReferenceSimdMachine(const codegen::SimdProgram& program,
                                           const ir::CostModel& cost,
                                           const mimd::RunConfig& config)
    : SimdMachine(program, cost, config),
      pc_(static_cast<std::size_t>(config_.nprocs), kNoState) {
  // The oracle's value is being obviously correct: it never takes the
  // whole-lane path, whatever RunConfig::simd_isa asked for.
  isa_ = SimdIsa::Scalar;
  std::fill_n(pc_.begin(), config_.active(), start_pc());
}

std::int64_t ReferenceSimdMachine::alive_count() const {
  return std::count_if(pc_.begin(), pc_.end(),
                       [](ir::StateId pc) { return pc != kNoState; });
}

DynBitset ReferenceSimdMachine::aggregate_pc() const {
  DynBitset apc(prog_.mimd_states);
  for (ir::StateId pc : pc_)
    if (pc != kNoState) apc.set(pc);
  return apc;
}

void ReferenceSimdMachine::exec_state(const MetaCode& mc) {
  next_pc_ = pc_;
  const std::int64_t alive = alive_count();

  const DynBitset* prev_guard = nullptr;
  for (const SOp& op : mc.code) {
    // Re-programming the PE enable mask costs a broadcast of its own
    // whenever consecutive ops carry different guards (the `if (pc & …)`
    // boundaries of Listing 5).
    // (Charged to the control unit only: utilization remains the §2.4
    // divergence metric over instruction broadcasts.)
    if (!prev_guard || !(*prev_guard == op.guard)) {
      stats_.control_cycles += cost_.guard_switch;
      ++stats_.guard_switches;
    }
    prev_guard = &op.guard;
    // Single instruction broadcast: enabled PEs act, the rest idle.
    std::int64_t op_cost = 0;
    switch (op.kind) {
      case SOpKind::Data: op_cost = cost_.instr_cost(op.instr); break;
      case SOpKind::SetPc: op_cost = cost_.jump; break;
      case SOpKind::CondSetPc: op_cost = cost_.branch; break;
      case SOpKind::HaltPc: op_cost = cost_.halt; break;
      case SOpKind::SpawnPc: op_cost = cost_.spawn; break;
    }
    stats_.control_cycles += op_cost;
    stats_.offered_pe_cycles += op_cost * alive;

    for (std::int64_t i = 0; i < config_.nprocs; ++i) {
      const std::size_t pe = static_cast<std::size_t>(i);
      if (pc_[pe] == kNoState || !op.guard.test(pc_[pe])) continue;
      stats_.busy_pe_cycles += op_cost;
      switch (op.kind) {
        case SOpKind::Data: {
          ir::PeContext ctx{lanes_.pe_view(i), &lanes_.stack(i), i,
                            config_.nprocs};
          ir::exec_instr(op.instr, ctx, *this);
          break;
        }
        case SOpKind::SetPc:
          next_pc_[pe] = op.a;
          break;
        case SOpKind::CondSetPc: {
          Value cond = ir::stack_pop(lanes_.stack(i));
          next_pc_[pe] = cond.truthy() ? op.a : op.b;
          break;
        }
        case SOpKind::HaltPc:
          next_pc_[pe] = kNoState;
          break;
        case SOpKind::SpawnPc:
          next_pc_[static_cast<std::size_t>(claim_child())] = op.a;
          next_pc_[pe] = op.b;
          break;
      }
    }
  }
  for (std::size_t i = 0; i < pc_.size(); ++i) {
    // A PE halting this state re-enters the spawn pool only under reuse
    // (§3.2.5); fresh never-ran PEs are already in it.
    if (config_.reuse_halted_pes && pc_[i] != kNoState && next_pc_[i] == kNoState)
      free_.set(i);
    pc_[i] = next_pc_[i];
  }
}

}  // namespace msc::simd
