// The default SIMD engine (DESIGN.md §7, §11): occupancy-indexed
// execution of the translated program from codegen/translate.cpp.
//
//  - occ(s) holds the PEs whose pc is s, the engine's only pc store: pc
//    ops record mask moves that commit() applies word by word at the end
//    of each meta state, keeping apc_ (the aggregate pc), alive_ and the
//    base machine's spawn pool free_ current without per-PE scans;
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
      nwords_(lanes_.mask_words()),
      occ_(prog_.mimd_states * nwords_, 0),
      apc_(prog_.mimd_states),
      alive_(config_.active()),
      leave_(nwords_, 0),
      arrive_(occ_.size(), 0),
      targets_(prog_.mimd_states),
      split_(2 * nwords_, 0),
      lane_mask_(nwords_, 0) {
  if (alive_ == 0) return;
  const std::size_t start = static_cast<std::size_t>(start_pc());
  for (std::size_t w = 0; w < nwords_; ++w) occ(start)[w] = ever_ran_.word(w);
  apc_.set(start);
}

void CodegenSimdMachine::lane_move(const std::uint64_t* mask,
                                   ir::StateId target) {
  for (std::size_t w = 0; w < nwords_; ++w) leave_[w] |= mask[w];
  if (target == kNoState) return;
  std::uint64_t* to = arrive(static_cast<std::size_t>(target));
  for (std::size_t w = 0; w < nwords_; ++w) to[w] |= mask[w];
  targets_.set(static_cast<std::size_t>(target));
}

std::int64_t CodegenSimdMachine::build_lane_mask(
    const std::vector<ir::StateId>& guard_states) {
  std::fill(lane_mask_.begin(), lane_mask_.end(), 0);
  for (ir::StateId s : guard_states) {
    const std::size_t si = static_cast<std::size_t>(s);
    if (!apc_.test(si)) continue;
    // Pads beyond nprocs are never set, so pad PEs are never enabled.
    const std::uint64_t* pes = occ(si);
    for (std::size_t w = 0; w < nwords_; ++w) lane_mask_[w] |= pes[w];
  }
  std::int64_t enabled = 0;  // the occ rows are disjoint
  for (std::uint64_t w : lane_mask_) enabled += __builtin_popcountll(w);
  return enabled;
}

LaneExecutor& CodegenSimdMachine::lane_executor() {
  if (!lane_exec_)
    lane_exec_ = std::make_unique<LaneExecutor>(lanes_, *this, config_.nprocs,
                                                isa_);
  return *lane_exec_;
}

void CodegenSimdMachine::commit() {
  // Leave first, so a PE moving s -> s (a self-loop) lands back in s.
  // Spawned children sit in no occ row; they only arrive.
  for (std::size_t s : apc_.bits()) {
    std::uint64_t* row = occ(s);
    std::uint64_t rest = 0;
    for (std::size_t w = 0; w < nwords_; ++w) {
      const std::uint64_t gone = row[w] & leave_[w];
      alive_ -= __builtin_popcountll(gone);
      rest |= row[w] ^= gone;
    }
    if (rest == 0) apc_.reset(s);
  }
  for (std::size_t t : targets_.bits()) {
    std::uint64_t* row = occ(t);
    std::uint64_t* in = arrive(t);
    std::uint64_t came = 0;  // a CondSetPc branch may take no PE
    for (std::size_t w = 0; w < nwords_; ++w) {
      alive_ += __builtin_popcountll(in[w]);
      came |= in[w];
      row[w] |= in[w];
      leave_[w] &= ~in[w];
      in[w] = 0;
    }
    if (came != 0) apc_.set(t);
  }
  targets_.clear();
  // What left and arrived nowhere halted. §3.2.5: a halted PE returns to
  // the spawn pool only under reuse.
  if (config_.reuse_halted_pes)
    for_each_lane_bit(leave_.data(), nwords_,
                      [&](std::size_t k) { free_.set(k); });
  std::fill(leave_.begin(), leave_.end(), 0);
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
  run_ops(cur_group_->code.data() + first, cur_group_->code.data() + end,
          mask);
}

void CodegenSimdMachine::run_ops(const TOp* op, const TOp* const end,
                                 const std::uint64_t* mask) {
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

  MSC_TOP(SetPc) { lane_move(mask, op->a); }
  MSC_NEXT();

  MSC_TOP(CondSetPc) {
    std::uint64_t* taken = split_.data();
    split_lane_mask(mask, nwords_, taken, taken + nwords_, [&](std::size_t k) {
      return ir::stack_pop(lanes_.stack(static_cast<std::int64_t>(k))).truthy();
    });
    lane_move(taken, op->a);
    lane_move(taken + nwords_, op->b);
  }
  MSC_NEXT();

  MSC_TOP(HaltPc) { lane_move(mask, kNoState); }
  MSC_NEXT();

  MSC_TOP(SpawnPc) {
    // Parents claim in ascending id, each the lowest free PE; children
    // arrive at op->a, not leaving any state.
    std::uint64_t* child_at = arrive(static_cast<std::size_t>(op->a));
    for (const std::int64_t* p = pe_begin; p != pe_end; ++p) {
      const std::int64_t child = claim_child();
      child_at[child >> 6] |= std::uint64_t{1} << (child & 63);
    }
    targets_.set(static_cast<std::size_t>(op->a));
    lane_move(mask, op->b);
  }
  MSC_NEXT();

#if !(defined(__GNUC__) || defined(__clang__))
    }
  }
#endif
#undef MSC_TOP
#undef MSC_NEXT
}

}  // namespace msc::simd
