#include "msc/ir/exec.hpp"

#include <cassert>
#include <utility>

#include "msc/support/str.hpp"

namespace msc::ir {

namespace {

Value local_load(PeContext& pe, std::int64_t addr) {
  if (addr < 0 || addr >= pe.local.cells)
    throw MachineFault(cat("local load out of range: ", addr));
  return pe.local.get(addr);
}

void local_store(PeContext& pe, std::int64_t addr, Value v) {
  if (addr < 0 || addr >= pe.local.cells)
    throw MachineFault(cat("local store out of range: ", addr));
  pe.local.put(addr, v);
}

bool either_float(const Value& a, const Value& b) {
  return a.is_float() || b.is_float();
}

Value arith(Opcode op, const Value& a, const Value& b) {
  if (either_float(a, b)) {
    double x = a.as_double(), y = b.as_double();
    switch (op) {
      case Opcode::Add: return Value::of_float(x + y);
      case Opcode::Sub: return Value::of_float(x - y);
      case Opcode::Mul: return Value::of_float(x * y);
      case Opcode::Div: return Value::of_float(y == 0.0 ? 0.0 : x / y);
      case Opcode::Mod: return Value::of_int(0);  // unreachable: sema rejects
      case Opcode::Lt: return Value::of_int(x < y);
      case Opcode::Le: return Value::of_int(x <= y);
      case Opcode::Gt: return Value::of_int(x > y);
      case Opcode::Ge: return Value::of_int(x >= y);
      case Opcode::Eq: return Value::of_int(x == y);
      case Opcode::Ne: return Value::of_int(x != y);
      default: break;
    }
  }
  std::int64_t x = a.as_int(), y = b.as_int();
  // Guest integer arithmetic wraps mod 2^64, matching the hardware the
  // simulated machine models; route through uint64 so overflow is defined.
  auto ux = static_cast<std::uint64_t>(x), uy = static_cast<std::uint64_t>(y);
  switch (op) {
    case Opcode::Add: return Value::of_int(static_cast<std::int64_t>(ux + uy));
    case Opcode::Sub: return Value::of_int(static_cast<std::int64_t>(ux - uy));
    case Opcode::Mul: return Value::of_int(static_cast<std::int64_t>(ux * uy));
    // Division by zero is defined as 0 so that randomly generated
    // workloads are total; documented in DESIGN.md. INT64_MIN / -1 wraps.
    case Opcode::Div:
      if (y == 0) return Value::of_int(0);
      if (y == -1) return Value::of_int(static_cast<std::int64_t>(-ux));
      return Value::of_int(x / y);
    case Opcode::Mod:
      if (y == 0 || y == -1) return Value::of_int(0);
      return Value::of_int(x % y);
    case Opcode::Lt: return Value::of_int(x < y);
    case Opcode::Le: return Value::of_int(x <= y);
    case Opcode::Gt: return Value::of_int(x > y);
    case Opcode::Ge: return Value::of_int(x >= y);
    case Opcode::Eq: return Value::of_int(x == y);
    case Opcode::Ne: return Value::of_int(x != y);
    case Opcode::BitAnd: return Value::of_int(x & y);
    case Opcode::BitOr: return Value::of_int(x | y);
    case Opcode::BitXor: return Value::of_int(x ^ y);
    case Opcode::Shl:
      return Value::of_int(static_cast<std::int64_t>(
          static_cast<std::uint64_t>(x) << (static_cast<std::uint64_t>(y) & 63)));
    case Opcode::Shr:
      return Value::of_int(static_cast<std::int64_t>(
          static_cast<std::uint64_t>(x) >> (static_cast<std::uint64_t>(y) & 63)));
    default: break;
  }
  throw MachineFault("bad arithmetic opcode");
}

}  // namespace

void SoaLocal::assign(std::int64_t cells, std::size_t cols) {
  tag_.clear();
  bits_.clear();
  const std::size_t n = static_cast<std::size_t>(cells) * cols;
  tag_.reserve(n);
  bits_.reserve(n);
  cols_ = cols;
  cells_ = cells;
  rows_ = 0;
}

void SoaLocal::grow(std::int64_t rows) {
  assert(rows <= cells_ && "callers range-check against cells()");
  const std::size_t n = static_cast<std::size_t>(rows) * cols_;
  tag_.resize(n);
  bits_.resize(n);
  rows_ = rows;
}

void SoaLocal::clear_col(std::size_t col) {
  for (std::int64_t addr = 0; addr < rows_; ++addr) {
    const std::size_t at = index(addr, col);
    tag_[at] = 0;
    bits_[at] = 0;
  }
}

Value eval_binary(Opcode op, const Value& a, const Value& b) {
  if (op == Opcode::LAnd) return Value::of_int(a.truthy() && b.truthy());
  if (op == Opcode::LOr) return Value::of_int(a.truthy() || b.truthy());
  return arith(op, a, b);
}

Value stack_pop(std::vector<Value>& stack) {
  if (stack.empty()) throw MachineFault("operand stack underflow");
  Value v = stack.back();
  stack.pop_back();
  return v;
}

void exec_instr(const Instr& in, PeContext& pe, MemoryBus& bus) {
  auto& st = *pe.stack;
  switch (in.op) {
    case Opcode::PushI:
    case Opcode::PushF:
      st.push_back(in.imm);
      return;
    case Opcode::Pop: {
      std::int64_t n = in.imm.i;
      if (n < 0 || static_cast<std::size_t>(n) > st.size())
        throw MachineFault("Pop count exceeds stack depth");
      st.resize(st.size() - static_cast<std::size_t>(n));
      return;
    }
    case Opcode::Dup: {
      if (st.empty()) throw MachineFault("Dup on empty stack");
      st.push_back(st.back());
      return;
    }
    case Opcode::Swap: {
      if (st.size() < 2) throw MachineFault("Swap needs two stack cells");
      std::swap(st[st.size() - 1], st[st.size() - 2]);
      return;
    }
    case Opcode::LdL: {
      Value addr = stack_pop(st);
      st.push_back(local_load(pe, addr.as_int()));
      return;
    }
    case Opcode::StL: {
      Value addr = stack_pop(st);
      Value v = stack_pop(st);
      local_store(pe, addr.as_int(), v);
      return;
    }
    case Opcode::LdM: {
      Value addr = stack_pop(st);
      st.push_back(bus.mono_load(addr.as_int()));
      return;
    }
    case Opcode::StM: {
      Value addr = stack_pop(st);
      Value v = stack_pop(st);
      bus.mono_store(addr.as_int(), v);
      return;
    }
    case Opcode::RouteLd: {
      Value proc = stack_pop(st);
      Value addr = stack_pop(st);
      st.push_back(bus.route_load(proc.as_int(), addr.as_int()));
      return;
    }
    case Opcode::RouteSt: {
      Value proc = stack_pop(st);
      Value addr = stack_pop(st);
      Value v = stack_pop(st);
      bus.route_store(proc.as_int(), addr.as_int(), v);
      return;
    }
    case Opcode::Neg: {
      Value a = stack_pop(st);
      st.push_back(a.is_float() ? Value::of_float(-a.f)
                                : Value::of_int(static_cast<std::int64_t>(
                                      -static_cast<std::uint64_t>(a.i))));
      return;
    }
    case Opcode::Not: {
      Value a = stack_pop(st);
      st.push_back(Value::of_int(!a.truthy()));
      return;
    }
    case Opcode::BitNot: {
      Value a = stack_pop(st);
      st.push_back(Value::of_int(~a.as_int()));
      return;
    }
    case Opcode::CastI: {
      Value a = stack_pop(st);
      st.push_back(Value::of_int(a.as_int()));
      return;
    }
    case Opcode::CastF: {
      Value a = stack_pop(st);
      st.push_back(Value::of_float(a.as_double()));
      return;
    }
    case Opcode::ProcId:
      st.push_back(Value::of_int(pe.proc_id));
      return;
    case Opcode::NProcs:
      st.push_back(Value::of_int(pe.nprocs));
      return;
    case Opcode::LAnd: {
      Value b = stack_pop(st);
      Value a = stack_pop(st);
      st.push_back(Value::of_int(a.truthy() && b.truthy()));
      return;
    }
    case Opcode::LOr: {
      Value b = stack_pop(st);
      Value a = stack_pop(st);
      st.push_back(Value::of_int(a.truthy() || b.truthy()));
      return;
    }
    default: {
      Value b = stack_pop(st);
      Value a = stack_pop(st);
      st.push_back(arith(in.op, a, b));
      return;
    }
  }
}

const char* opcode_name(Opcode op) {
  switch (op) {
    case Opcode::PushI: return "PushI";
    case Opcode::PushF: return "PushF";
    case Opcode::Pop: return "Pop";
    case Opcode::Dup: return "Dup";
    case Opcode::Swap: return "Swap";
    case Opcode::LdL: return "LdL";
    case Opcode::StL: return "StL";
    case Opcode::LdM: return "LdM";
    case Opcode::StM: return "StM";
    case Opcode::RouteLd: return "RouteLd";
    case Opcode::RouteSt: return "RouteSt";
    case Opcode::Add: return "Add";
    case Opcode::Sub: return "Sub";
    case Opcode::Mul: return "Mul";
    case Opcode::Div: return "Div";
    case Opcode::Mod: return "Mod";
    case Opcode::Lt: return "Lt";
    case Opcode::Le: return "Le";
    case Opcode::Gt: return "Gt";
    case Opcode::Ge: return "Ge";
    case Opcode::Eq: return "Eq";
    case Opcode::Ne: return "Ne";
    case Opcode::LAnd: return "LAnd";
    case Opcode::LOr: return "LOr";
    case Opcode::BitAnd: return "BitAnd";
    case Opcode::BitOr: return "BitOr";
    case Opcode::BitXor: return "BitXor";
    case Opcode::Shl: return "Shl";
    case Opcode::Shr: return "Shr";
    case Opcode::Neg: return "Neg";
    case Opcode::Not: return "Not";
    case Opcode::BitNot: return "BitNot";
    case Opcode::CastI: return "CastI";
    case Opcode::CastF: return "CastF";
    case Opcode::ProcId: return "ProcId";
    case Opcode::NProcs: return "NProcs";
  }
  return "?";
}

std::string Instr::to_string() const {
  switch (op) {
    case Opcode::PushI: return cat("Push(", imm.i, ")");
    case Opcode::PushF: return cat("Push(", fmt_double(imm.f, 3), ")");
    case Opcode::Pop: return cat("Pop(", imm.i, ")");
    default: return opcode_name(op);
  }
}

}  // namespace msc::ir
