// The default SIMD engine (DESIGN.md §7, §11): occupancy-indexed
// execution of the translated program from codegen/translate.cpp.
//
//  - occ_[s] holds the ids of the PEs sitting in MIMD state s; apc_ (the
//    aggregate pc), alive_, and the base machine's spawn pool free_ are
//    maintained incrementally at the pc commit of each meta state instead
//    of by the reference engine's full scans per step;
//  - one loop runs every fused same-guard group: the enable set is the OR
//    of the guard states' occ_ words (a lane mask, bit order = PE order),
//    and the group's precomputed cycle aggregates are charged in O(1);
//  - a group then runs one of two ways, the same observable machine
//    either way. The flat-list span gathers the mask into an ascending PE
//    list (the reference engine's 0..nprocs scan order) and dispatches the
//    folded host stream op-major — threaded computed-goto dispatch under
//    GCC/Clang, a switch loop elsewhere — with a tight per-opcode inner
//    loop over that list. Under a vector host ISA, dense groups instead go
//    to the LaneExecutor, which evaluates each op of the group's lowered
//    lane run (lanes.cpp) across all enabled PEs at a time. SimdIsa::Scalar
//    and sparse groups (enabled*8 < lane width) always take the flat list;
//  - immediate-fused ops (BinImm, LdLImm, …) skip the push/pop traffic of
//    their unfused forms, and constant folding already removed whole runs
//    of ops at translation time (stats still charge the originals).
//
// Op-major order (instruction outer, PE inner) is what keeps faults and
// cross-PE side effects bit-identical to the reference engine: the n-th
// broadcast reaches PE i before PE j > i, and no PE sees broadcast n+1
// until every PE saw n.
#include "msc/simd/machine.hpp"

#include <algorithm>
#include <memory>

#include "msc/support/str.hpp"

namespace msc::simd {

using codegen::MetaCode;
using codegen::TGroup;
using codegen::TOp;
using codegen::TOpKind;
using codegen::TransState;
using core::MetaId;
using ir::kNoState;
using ir::MachineFault;

CodegenSimdMachine::CodegenSimdMachine(const codegen::SimdProgram& program,
                                       const ir::CostModel& cost,
                                       const mimd::RunConfig& config)
    : SimdMachine(program, cost, config),
      trans_(codegen::translate(program, cost)),
      occ_(prog_.mimd_states, DynBitset(static_cast<std::size_t>(config_.nprocs))),
      occ_count_(prog_.mimd_states, 0),
      apc_(prog_.mimd_states),
      lane_mask_(lanes_.mask_words(), 0) {
  for (std::int64_t i = 0; i < config_.nprocs; ++i) {
    Pe& pe = pes_[static_cast<std::size_t>(i)];
    pe.next_pc = pe.pc;
    if (pe.pc != kNoState) {
      occ_[static_cast<std::size_t>(pe.pc)].set(static_cast<std::size_t>(i));
      if (occ_count_[static_cast<std::size_t>(pe.pc)]++ == 0)
        apc_.set(static_cast<std::size_t>(pe.pc));
      ++alive_;
    }
  }
}

void CodegenSimdMachine::lane_set_next_pc(std::int64_t pe,
                                          ir::StateId target) {
  pes_[static_cast<std::size_t>(pe)].next_pc = target;
  moved_.push_back(pe);
}

std::int64_t CodegenSimdMachine::build_lane_mask(
    const std::vector<ir::StateId>& guard_states) {
  std::fill(lane_mask_.begin(), lane_mask_.end(), 0);
  std::int64_t enabled = 0;
  for (ir::StateId s : guard_states) {
    const std::size_t si = static_cast<std::size_t>(s);
    if (occ_count_[si] == 0) continue;
    enabled += occ_count_[si];
    const DynBitset& pes = occ_[si];
    // DynBitset words hold ceil(nprocs/64) == mask_words() words; pads
    // beyond nprocs are never set, so pad PEs are never enabled.
    for (std::size_t w = 0; w < pes.word_size(); ++w)
      lane_mask_[w] |= pes.word(w);
  }
  return enabled;
}

LaneExecutor& CodegenSimdMachine::lane_executor() {
  if (!lane_exec_)
    lane_exec_ = std::make_unique<LaneExecutor>(lanes_, *this, config_.nprocs,
                                                isa_);
  return *lane_exec_;
}

void CodegenSimdMachine::commit() {
  for (std::int64_t i : moved_) {
    Pe& pe = pes_[static_cast<std::size_t>(i)];
    if (pe.next_pc == pe.pc) continue;  // e.g. a self-loop branch target
    if (pe.pc != kNoState) {
      std::size_t old_pc = static_cast<std::size_t>(pe.pc);
      occ_[old_pc].reset(static_cast<std::size_t>(i));
      if (--occ_count_[old_pc] == 0) apc_.reset(old_pc);
    } else {
      ++alive_;  // spawned child comes to life
    }
    if (pe.next_pc != kNoState) {
      std::size_t new_pc = static_cast<std::size_t>(pe.next_pc);
      occ_[new_pc].set(static_cast<std::size_t>(i));
      if (occ_count_[new_pc]++ == 0) apc_.set(new_pc);
    } else {
      --alive_;  // halted; §3.2.5: returns to the pool only under reuse
      if (config_.reuse_halted_pes) free_.set(static_cast<std::size_t>(i));
    }
    pe.pc = pe.next_pc;
  }
  moved_.clear();
}

const LanePlan& CodegenSimdMachine::plan_for(MetaId id, const TransState& ts) {
  if (lane_plans_.size() != trans_->states.size())
    lane_plans_.resize(trans_->states.size());
  auto& slot = lane_plans_[static_cast<std::size_t>(id)];
  if (!slot) slot = std::make_unique<LanePlan>(build_lane_plan(ts));
  return *slot;
}

void CodegenSimdMachine::exec_state(const MetaCode& mc) {
  const TransState& ts = trans_->states[static_cast<std::size_t>(mc.id)];
  // SimdIsa::Scalar has no lane executor, so no lane plan either.
  const LanePlan* plan =
      isa_ == SimdIsa::Scalar ? nullptr : &plan_for(mc.id, ts);
  for (std::size_t gi = 0; gi < ts.groups.size(); ++gi) {
    const TGroup& g = ts.groups[gi];
    // One charge per group visit: the aggregates were computed from the
    // ORIGINAL ops, so the totals equal the reference engine's per-op
    // accounting exactly, whichever backend executes the group.
    stats_.control_cycles += g.control_cost;
    ++stats_.guard_switches;
    stats_.offered_pe_cycles += g.cost_sum * alive_;
    const std::int64_t enabled = build_lane_mask(g.guard_states);
    stats_.busy_pe_cycles += g.cost_sum * enabled;
    if (enabled == 0 || g.code.empty()) continue;
    cur_group_ = &g;
    if (plan == nullptr || enabled * 8 < lanes_.width()) {
      // Scalar ISA, or sparse occupancy, where whole-lane work would touch
      // mostly-disabled elements; the flat-list span is the same
      // observable machine.
      lane_scalar_span(0, static_cast<std::int32_t>(g.code.size()),
                       lane_mask_.data(), lane_mask_.size());
    } else {
      lane_executor().run(plan->runs[gi], lane_mask_.data(), *this);
    }
  }
  cur_group_ = nullptr;
  commit();
}

void CodegenSimdMachine::lane_scalar_span(std::int32_t first, std::int32_t end,
                                          const std::uint64_t* mask,
                                          std::size_t nwords) {
  // Gather the mask into the flat ascending PE list the op-major
  // dispatcher wants, then run the source subrange through it.
  enabled_scratch_.clear();
  for_each_lane_bit(mask, nwords, [&](std::size_t k) {
    enabled_scratch_.push_back(static_cast<std::int64_t>(k));
  });
  run_ops(cur_group_->code.data() + first, cur_group_->code.data() + end);
}

void CodegenSimdMachine::run_ops(const TOp* op, const TOp* const end) {
  if (op == end) return;
  const std::int64_t* const pe_begin = enabled_scratch_.data();
  const std::int64_t* const pe_end = pe_begin + enabled_scratch_.size();

#if defined(__GNUC__) || defined(__clang__)
#define MSC_TOP(name) l_##name:
#define MSC_NEXT()                                         \
  do {                                                     \
    if (++op == end) return;                               \
    goto* kDispatch[static_cast<std::size_t>(op->kind)];   \
  } while (0)
  // Label order must match codegen::TOpKind's declaration order.
  static const void* const kDispatch[] = {
      &&l_Exec,   &&l_PushI,  &&l_PushF,  &&l_LdLImm,    &&l_StLImm,
      &&l_LdMImm, &&l_StMImm, &&l_BinImm, &&l_SetPc,     &&l_CondSetPc,
      &&l_HaltPc, &&l_SpawnPc};
  goto* kDispatch[static_cast<std::size_t>(op->kind)];
#else
#define MSC_TOP(name) case TOpKind::name:
#define MSC_NEXT() break
  for (; op != end; ++op) {
    switch (op->kind) {
#endif

  MSC_TOP(Exec) {
    for (const std::int64_t* p = pe_begin; p != pe_end; ++p) {
      ir::PeContext ctx{lanes_.pe_view(*p), &lanes_.stack(*p), *p,
                        config_.nprocs};
      ir::exec_instr(op->instr, ctx, *this);
    }
  }
  MSC_NEXT();

  MSC_TOP(PushI)
  MSC_TOP(PushF) {
    const Value v = op->instr.imm;
    for (const std::int64_t* p = pe_begin; p != pe_end; ++p)
      lanes_.stack(*p).push_back(v);
  }
  MSC_NEXT();

  MSC_TOP(LdLImm) {
    const std::int64_t addr = op->instr.imm.as_int();
    // All PE locals share config_.local_mem_cells cells, so a bad address
    // faults at the first enabled PE either way.
    if (addr < 0 || addr >= config_.local_mem_cells)
      throw MachineFault(cat("local load out of range: ", addr));
    const std::uint8_t* tl = lanes_.tag_lane(addr);
    const std::int64_t* pl = lanes_.payload_lane(addr);
    for (const std::int64_t* p = pe_begin; p != pe_end; ++p)
      lanes_.stack(*p).push_back(
          Value::from_bits(static_cast<Value::Kind>(tl[*p]), pl[*p]));
  }
  MSC_NEXT();

  MSC_TOP(StLImm) {
    const std::int64_t addr = op->instr.imm.as_int();
    const bool in_range = addr >= 0 && addr < config_.local_mem_cells;
    // One row lookup per group; growing the row before a PE faults on
    // underflow only adds zero rows, which no observer can tell apart.
    std::uint8_t* tl = in_range ? lanes_.tag_lane(addr) : nullptr;
    std::int64_t* pl = in_range ? lanes_.payload_lane(addr) : nullptr;
    for (const std::int64_t* p = pe_begin; p != pe_end; ++p) {
      // Underflow precedes the range check, as in the unfused pop order.
      Value v = ir::stack_pop(lanes_.stack(*p));
      if (!in_range)
        throw MachineFault(cat("local store out of range: ", addr));
      tl[*p] = static_cast<std::uint8_t>(v.kind);
      pl[*p] = v.bits();
    }
  }
  MSC_NEXT();

  MSC_TOP(LdMImm) {
    // No side effects and no stores in between: one load serves all PEs.
    const Value v = mono_load(op->instr.imm.as_int());
    for (const std::int64_t* p = pe_begin; p != pe_end; ++p)
      lanes_.stack(*p).push_back(v);
  }
  MSC_NEXT();

  MSC_TOP(StMImm) {
    const std::int64_t addr = op->instr.imm.as_int();
    for (const std::int64_t* p = pe_begin; p != pe_end; ++p) {
      Value v = ir::stack_pop(lanes_.stack(*p));
      mono_store(addr, v);
    }
  }
  MSC_NEXT();

  MSC_TOP(BinImm) {
    const Value imm = op->instr.imm;
    const ir::Opcode opc = op->instr.op;
    for (const std::int64_t* p = pe_begin; p != pe_end; ++p) {
      auto& st = lanes_.stack(*p);
      if (st.empty()) throw MachineFault("operand stack underflow");
      st.back() = ir::eval_binary(opc, st.back(), imm);
    }
  }
  MSC_NEXT();

  MSC_TOP(SetPc) {
    for (const std::int64_t* p = pe_begin; p != pe_end; ++p) {
      pes_[static_cast<std::size_t>(*p)].next_pc = op->a;
      moved_.push_back(*p);
    }
  }
  MSC_NEXT();

  MSC_TOP(CondSetPc) {
    for (const std::int64_t* p = pe_begin; p != pe_end; ++p) {
      Value cond = ir::stack_pop(lanes_.stack(*p));
      pes_[static_cast<std::size_t>(*p)].next_pc = cond.truthy() ? op->a
                                                                 : op->b;
      moved_.push_back(*p);
    }
  }
  MSC_NEXT();

  MSC_TOP(HaltPc) {
    for (const std::int64_t* p = pe_begin; p != pe_end; ++p) {
      pes_[static_cast<std::size_t>(*p)].next_pc = kNoState;
      moved_.push_back(*p);
    }
  }
  MSC_NEXT();

  MSC_TOP(SpawnPc) {
    for (const std::int64_t* p = pe_begin; p != pe_end; ++p) {
      moved_.push_back(claim_child(op->a));
      pes_[static_cast<std::size_t>(*p)].next_pc = op->b;
      moved_.push_back(*p);
    }
  }
  MSC_NEXT();

#if !(defined(__GNUC__) || defined(__clang__))
    }
  }
#endif
#undef MSC_TOP
#undef MSC_NEXT
}

MetaId CodegenSimdMachine::next_state(const MetaCode& mc, DynBitset* apc) {
  *apc = apc_;
  return resolve_transition(mc, *apc);
}

}  // namespace msc::simd
