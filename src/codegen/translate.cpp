// SOp → host-stream translation for the codegen engine, plus the
// process-global translation cache.
//
// Translation happens per (program body, cost model), never per RunConfig:
// the per-group cycle aggregates are per-PE factors multiplied by the live
// alive/enabled counts at runtime, and memory bounds are checked against
// the executing machine's config, so one cached entry serves every
// nprocs/memory-size combination of the same automaton.
//
// The folder models qemu's tcg/optimize.c at SOp granularity: a symbolic
// `pending` stack of known constants rides on top of the real operand
// stack. Pure ops over pending constants evaluate at translation time
// (through the same ir::exec_instr / ir::eval_binary the machines use, so
// wrap/div-by-zero/float-promotion semantics cannot drift); one remaining
// constant fuses into the consuming op as an immediate (BinImm, LdLImm,
// StLImm, …); anything else materializes the constants back onto the real
// stack first. Simulated costs are always charged from the ORIGINAL ops,
// so SimdStats are bit-identical no matter how much the host stream folds.
#include "msc/codegen/translate.hpp"

#include <utility>

#include "msc/ir/exec.hpp"
#include "msc/support/metrics.hpp"
#include "msc/support/single_flight.hpp"

namespace msc::codegen {

namespace {

using ir::Instr;
using ir::Opcode;

/// Translation-time bus for folding pure ops; unreachable by construction.
class NullBus final : public ir::MemoryBus {
 public:
  Value mono_load(std::int64_t) override { return fault(); }
  void mono_store(std::int64_t, Value) override { fault(); }
  Value route_load(std::int64_t, std::int64_t) override { return fault(); }
  void route_store(std::int64_t, std::int64_t, Value) override { fault(); }

 private:
  static Value fault() {
    throw ir::MachineFault("translation-time bus access");
  }
};

Value fold_unary(const Instr& in, Value a) {
  static NullBus bus;
  std::vector<Value> stack{a};
  ir::PeContext ctx{ir::LocalView{}, &stack, /*proc_id=*/0, /*nprocs=*/1};
  ir::exec_instr(in, ctx, bus);
  return stack.back();
}

bool is_pure_unary(Opcode op) {
  switch (op) {
    case Opcode::Neg:
    case Opcode::Not:
    case Opcode::BitNot:
    case Opcode::CastI:
    case Opcode::CastF:
      return true;
    default:
      return false;
  }
}

bool is_pure_binary(Opcode op) {
  switch (op) {
    case Opcode::Add: case Opcode::Sub: case Opcode::Mul:
    case Opcode::Div: case Opcode::Mod:
    case Opcode::Lt: case Opcode::Le: case Opcode::Gt: case Opcode::Ge:
    case Opcode::Eq: case Opcode::Ne:
    case Opcode::LAnd: case Opcode::LOr:
    case Opcode::BitAnd: case Opcode::BitOr: case Opcode::BitXor:
    case Opcode::Shl: case Opcode::Shr:
      return true;
    default:
      return false;
  }
}

/// Builds one TGroup's host stream while tracking the pending-constant
/// region on top of the (virtual) operand stack.
class GroupFolder {
 public:
  explicit GroupFolder(TGroup* g) : g_(g) {}

  void data(const Instr& in) {
    switch (in.op) {
      case Opcode::PushI:
      case Opcode::PushF:
        pending_.push_back(in.imm);
        return;
      case Opcode::Pop: {
        std::int64_t n = in.imm.i;
        if (n >= 0 && static_cast<std::size_t>(n) <= pending_.size()) {
          pending_.resize(pending_.size() - static_cast<std::size_t>(n));
          return;
        }
        break;  // may underflow the real stack: keep exact fault behaviour
      }
      case Opcode::Dup:
        if (!pending_.empty()) {
          pending_.push_back(pending_.back());
          return;
        }
        break;
      case Opcode::Swap:
        if (pending_.size() >= 2) {
          std::swap(pending_[pending_.size() - 1], pending_[pending_.size() - 2]);
          return;
        }
        break;
      case Opcode::LdL:
      case Opcode::LdM:
        if (!pending_.empty()) {
          // The loaded value lands above whatever sits under the address.
          materialize_below_top();
          Value addr = take_top();
          emit({in.op == Opcode::LdL ? TOpKind::LdLImm : TOpKind::LdMImm,
                Instr{in.op, addr}});
          return;
        }
        break;
      case Opcode::StL:
      case Opcode::StM:
        if (!pending_.empty()) {
          // Pops addr (our constant) then value (real stack top after
          // materializing the rest of the pending region).
          Value addr = take_top();
          materialize();
          emit({in.op == Opcode::StL ? TOpKind::StLImm : TOpKind::StMImm,
                Instr{in.op, addr}});
          return;
        }
        break;
      default:
        if (is_pure_unary(in.op)) {
          if (!pending_.empty()) {
            pending_.back() = fold_unary(in, pending_.back());
            return;
          }
        } else if (is_pure_binary(in.op)) {
          if (pending_.size() >= 2) {
            Value b = take_top();
            Value a = take_top();
            pending_.push_back(ir::eval_binary(in.op, a, b));
            return;
          }
          if (pending_.size() == 1) {
            // One known operand: fuse it as the second (last-pushed) one.
            Value imm = take_top();
            emit({TOpKind::BinImm, Instr{in.op, imm}});
            return;
          }
        }
        break;
    }
    materialize();
    emit({TOpKind::Exec, in});
  }

  void set_pc(ir::StateId a) { emit({TOpKind::SetPc, {}, a}); }

  void cond_set_pc(ir::StateId a, ir::StateId b) {
    if (!pending_.empty()) {
      // tcg-style branch fold: the condition is a known constant.
      Value cond = take_top();
      emit({TOpKind::SetPc, {}, cond.truthy() ? a : b});
      return;
    }
    emit({TOpKind::CondSetPc, {}, a, b});
  }

  void halt_pc() { emit({TOpKind::HaltPc, {}}); }

  void spawn_pc(ir::StateId a, ir::StateId b) {
    emit({TOpKind::SpawnPc, {}, a, b});
  }

  /// Flush remaining constants onto the real stack (group boundary).
  void finish() { materialize(); }

 private:
  void emit(TOp op) { g_->code.push_back(std::move(op)); }

  Value take_top() {
    Value v = pending_.back();
    pending_.pop_back();
    return v;
  }

  void materialize_one(const Value& v) {
    emit({v.is_float() ? TOpKind::PushF : TOpKind::PushI,
          Instr{v.is_float() ? Opcode::PushF : Opcode::PushI, v}});
  }

  void materialize() {
    for (const Value& v : pending_) materialize_one(v);
    pending_.clear();
  }

  void materialize_below_top() {
    for (std::size_t i = 0; i + 1 < pending_.size(); ++i)
      materialize_one(pending_[i]);
    if (!pending_.empty()) pending_.erase(pending_.begin(), pending_.end() - 1);
  }

  TGroup* g_;
  std::vector<Value> pending_;
};

std::int64_t op_cost(const SOp& op, const ir::CostModel& cost) {
  switch (op.kind) {
    case SOpKind::Data: return cost.instr_cost(op.instr);
    case SOpKind::SetPc: return cost.jump;
    case SOpKind::CondSetPc: return cost.branch;
    case SOpKind::HaltPc: return cost.halt;
    case SOpKind::SpawnPc: return cost.spawn;
  }
  return 0;
}

void translate_state(const MetaCode& mc, const ir::CostModel& cost,
                     TransState* out, TransProgram* prog) {
  TGroup* g = nullptr;
  std::unique_ptr<GroupFolder> folder;
  auto close_group = [&] {
    if (!g) return;
    folder->finish();
    g->control_cost = cost.guard_switch + g->cost_sum;
    prog->host_ops += static_cast<std::int64_t>(g->code.size());
    g = nullptr;
    folder.reset();
  };
  for (const SOp& op : mc.code) {
    // Maximal same-guard runs: new_guard marks exactly the enable-mask
    // reprogramming boundaries the reference engine charges for.
    if (op.new_guard || !g) {
      close_group();
      out->groups.emplace_back();
      g = &out->groups.back();
      g->guard_states = op.guard_states;
      folder = std::make_unique<GroupFolder>(g);
    }
    ++prog->source_ops;
    g->cost_sum += op_cost(op, cost);
    switch (op.kind) {
      case SOpKind::Data: folder->data(op.instr); break;
      case SOpKind::SetPc: folder->set_pc(op.a); break;
      case SOpKind::CondSetPc: folder->cond_set_pc(op.a, op.b); break;
      case SOpKind::HaltPc: folder->halt_pc(); break;
      case SOpKind::SpawnPc: folder->spawn_pc(op.a, op.b); break;
    }
  }
  close_group();
}

TransProgram translate_uncached(const SimdProgram& prog,
                                const ir::CostModel& cost) {
  TransProgram out;
  out.states.resize(prog.states.size());
  for (std::size_t i = 0; i < prog.states.size(); ++i)
    translate_state(prog.states[i], cost, &out.states[i], &out);
  return out;
}

// ---------------------------------------------------------------------------
// Cache keying: two independent 64-bit structural hashes over everything
// execution-relevant in the program body plus the cost model. Two streams
// (FNV-1a and a splitmix64 accumulator) make an accidental collision — which
// would silently execute the wrong translation — a ~2^-128 event.

struct Key {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  bool operator==(const Key&) const = default;
};

struct KeyHash {
  std::size_t operator()(const Key& k) const {
    return static_cast<std::size_t>(k.a ^ (k.b * 0x9E3779B97F4A7C15ull));
  }
};

struct Hasher {
  std::uint64_t a = 1469598103934665603ull;  // FNV-1a offset basis
  std::uint64_t b = 0x243F6A8885A308D3ull;

  void mix(std::uint64_t v) {
    a = (a ^ v) * 1099511628211ull;  // FNV-1a prime
    std::uint64_t x = b + v + 0x9E3779B97F4A7C15ull;
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    b = x;
  }
  void mix_value(const Value& v) {
    mix(static_cast<std::uint64_t>(v.kind));
    mix(static_cast<std::uint64_t>(v.bits()));
  }
  Key key() const { return {a, b}; }
};

Key cache_key(const SimdProgram& prog, const ir::CostModel& cost) {
  Hasher h;
  h.mix(prog.mimd_states);
  h.mix(prog.states.size());
  for (const MetaCode& mc : prog.states) {
    h.mix(mc.id);
    h.mix(mc.code.size());
    for (const SOp& op : mc.code) {
      h.mix(static_cast<std::uint64_t>(op.kind));
      h.mix(op.new_guard);
      h.mix(op.guard_states.size());
      for (ir::StateId s : op.guard_states) h.mix(s);
      h.mix(static_cast<std::uint64_t>(op.instr.op));
      h.mix_value(op.instr.imm);
      h.mix(op.a);
      h.mix(op.b);
    }
  }
  for (std::int64_t c :
       {cost.push, cost.pop, cost.dup, cost.ld_local, cost.st_local,
        cost.ld_mono, cost.st_mono, cost.route, cost.alu, cost.mul, cost.div,
        cost.cast, cost.query, cost.jump, cost.branch, cost.halt, cost.spawn,
        cost.guard_switch})
    h.mix(static_cast<std::uint64_t>(c));
  return h.key();
}

/// Bounds host memory across long fuzzing sessions; 16 comfortably holds
/// a differential matrix's distinct (pipeline, cost) combinations.
/// Translation cannot fail (the NullBus above is unreachable by
/// construction), so waiters keep the default std::runtime_error rebuild.
using Cache =
    SingleFlightLru<Key, std::shared_ptr<const TransProgram>, KeyHash>;

Cache& cache() {
  static Cache c(16);
  return c;
}

}  // namespace

std::shared_ptr<const TransProgram> translate(const SimdProgram& prog,
                                              const ir::CostModel& cost) {
  using telemetry::Counter;
  using telemetry::MetricsRegistry;
  static Counter& hits_metric =
      MetricsRegistry::global().counter("codegen.trans_cache_hits");
  static Counter& misses_metric =
      MetricsRegistry::global().counter("codegen.trans_cache_misses");

  // Single-flight: machines are built from arbitrary threads (mscd
  // workers, the fuzzer's matrix, co-scheduling harnesses), and racing
  // builders of one automaton must share a single translation.
  Cache::Outcome outcome = Cache::Outcome::Hit;
  auto trans = cache().get_or_compute(
      cache_key(prog, cost),
      [&] {
        return std::make_shared<const TransProgram>(
            translate_uncached(prog, cost));
      },
      &outcome);
  (outcome == Cache::Outcome::Miss ? misses_metric : hits_metric).add();
  return trans;
}

TranslationCacheStats translation_cache_stats() {
  const Cache::Stats s = cache().stats();
  return {s.hits, s.misses, s.evictions, s.entries};
}

void translation_cache_clear() { cache().clear(); }

}  // namespace msc::codegen
