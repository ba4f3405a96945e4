#include <gtest/gtest.h>

#include "msc/ir/cost.hpp"
#include "msc/ir/exec.hpp"

using namespace msc;
using namespace msc::ir;

namespace {

/// Scripted bus for instruction-level tests.
class TestBus : public MemoryBus {
 public:
  std::vector<Value> mono = std::vector<Value>(16);
  std::vector<std::vector<Value>> remotes{4, std::vector<Value>(16)};

  Value mono_load(std::int64_t addr) override { return mono.at(addr); }
  void mono_store(std::int64_t addr, Value v) override { mono.at(addr) = v; }
  Value route_load(std::int64_t proc, std::int64_t addr) override {
    return remotes.at(proc).at(addr);
  }
  void route_store(std::int64_t proc, std::int64_t addr, Value v) override {
    remotes.at(proc).at(addr) = v;
  }
};

class ExecTest : public testing::Test {
 protected:
  SoaLocal local_mem = [] {
    SoaLocal m;
    m.assign(16);
    return m;
  }();
  std::vector<Value> stack;
  TestBus bus;
  PeContext pe{local_mem.view(), &stack, 2, 4};

  void run(std::initializer_list<Instr> instrs) {
    for (const Instr& in : instrs) exec_instr(in, pe, bus);
  }
  Value top() { return stack.back(); }
};

}  // namespace

TEST_F(ExecTest, PushPopDup) {
  run({Instr::push_i(7), Instr::push_f(1.5), Instr::of(Opcode::Dup)});
  EXPECT_EQ(stack.size(), 3u);
  EXPECT_EQ(top(), Value::of_float(1.5));
  run({Instr::pop(2)});
  EXPECT_EQ(stack.size(), 1u);
  EXPECT_EQ(top(), Value::of_int(7));
}

TEST_F(ExecTest, IntArithmetic) {
  run({Instr::push_i(10), Instr::push_i(3), Instr::of(Opcode::Sub)});
  EXPECT_EQ(top(), Value::of_int(7));
  run({Instr::push_i(3), Instr::of(Opcode::Mul)});
  EXPECT_EQ(top(), Value::of_int(21));
  run({Instr::push_i(4), Instr::of(Opcode::Div)});
  EXPECT_EQ(top(), Value::of_int(5));
  run({Instr::push_i(3), Instr::of(Opcode::Mod)});
  EXPECT_EQ(top(), Value::of_int(2));
}

TEST_F(ExecTest, DivisionByZeroIsDefined) {
  run({Instr::push_i(9), Instr::push_i(0), Instr::of(Opcode::Div)});
  EXPECT_EQ(top(), Value::of_int(0));
  run({Instr::push_i(9), Instr::push_i(0), Instr::of(Opcode::Mod)});
  EXPECT_EQ(top(), Value::of_int(0));
}

TEST_F(ExecTest, MixedArithmeticPromotesToFloat) {
  run({Instr::push_i(1), Instr::push_f(0.5), Instr::of(Opcode::Add)});
  EXPECT_EQ(top(), Value::of_float(1.5));
  run({Instr::push_i(2), Instr::of(Opcode::Mul)});
  EXPECT_EQ(top(), Value::of_float(3.0));
}

TEST_F(ExecTest, ComparisonsYieldInt) {
  run({Instr::push_f(1.5), Instr::push_i(2), Instr::of(Opcode::Lt)});
  EXPECT_EQ(top(), Value::of_int(1));
  run({Instr::push_i(3), Instr::push_i(3), Instr::of(Opcode::Ge)});
  EXPECT_EQ(top(), Value::of_int(1));
  run({Instr::push_i(3), Instr::push_i(4), Instr::of(Opcode::Eq)});
  EXPECT_EQ(top(), Value::of_int(0));
}

TEST_F(ExecTest, LogicalOpsUseTruthiness) {
  run({Instr::push_f(0.25), Instr::push_i(0), Instr::of(Opcode::LOr)});
  EXPECT_EQ(top(), Value::of_int(1));
  run({Instr::push_i(2), Instr::of(Opcode::LAnd)});
  EXPECT_EQ(top(), Value::of_int(1));
  run({Instr::push_i(0), Instr::of(Opcode::LAnd)});
  EXPECT_EQ(top(), Value::of_int(0));
  run({Instr::of(Opcode::Not)});
  EXPECT_EQ(top(), Value::of_int(1));
}

TEST_F(ExecTest, ShiftsMaskTheCount) {
  run({Instr::push_i(1), Instr::push_i(65), Instr::of(Opcode::Shl)});
  EXPECT_EQ(top(), Value::of_int(2));  // 65 & 63 == 1
}

TEST_F(ExecTest, Casts) {
  run({Instr::push_f(2.75), Instr::of(Opcode::CastI)});
  EXPECT_EQ(top(), Value::of_int(2));
  run({Instr::of(Opcode::CastF)});
  EXPECT_EQ(top(), Value::of_float(2.0));
}

TEST_F(ExecTest, LocalLoadStore) {
  run({Instr::push_i(42), Instr::push_i(5), Instr::of(Opcode::StL)});
  EXPECT_EQ(local_mem.get(5), Value::of_int(42));
  run({Instr::push_i(5), Instr::of(Opcode::LdL)});
  EXPECT_EQ(top(), Value::of_int(42));
}

TEST_F(ExecTest, MonoLoadStore) {
  run({Instr::push_i(9), Instr::push_i(1), Instr::of(Opcode::StM)});
  EXPECT_EQ(bus.mono[1], Value::of_int(9));
  run({Instr::push_i(1), Instr::of(Opcode::LdM)});
  EXPECT_EQ(top(), Value::of_int(9));
}

TEST_F(ExecTest, Routing) {
  bus.remotes[3][2] = Value::of_int(77);
  // RouteLd: push addr, push proc.
  run({Instr::push_i(2), Instr::push_i(3), Instr::of(Opcode::RouteLd)});
  EXPECT_EQ(top(), Value::of_int(77));
  // RouteSt: push value, addr, proc.
  run({Instr::push_i(55), Instr::push_i(4), Instr::push_i(1),
       Instr::of(Opcode::RouteSt)});
  EXPECT_EQ(bus.remotes[1][4], Value::of_int(55));
}

TEST_F(ExecTest, MachineQueries) {
  run({Instr::of(Opcode::ProcId)});
  EXPECT_EQ(top(), Value::of_int(2));
  run({Instr::of(Opcode::NProcs)});
  EXPECT_EQ(top(), Value::of_int(4));
}

TEST_F(ExecTest, Faults) {
  EXPECT_THROW(run({Instr::of(Opcode::Add)}), MachineFault);
  stack.clear();
  EXPECT_THROW(run({Instr::of(Opcode::Dup)}), MachineFault);
  EXPECT_THROW(run({Instr::push_i(99), Instr::of(Opcode::LdL)}), MachineFault);
  stack.clear();
  EXPECT_THROW(run({Instr::push_i(1), Instr::pop(2)}), MachineFault);
}

TEST_F(ExecTest, LocalMemoryGrowsOnFirstTouchUpToItsCells) {
  // A fresh memory has no live rows; a load below cells reads Value{}
  // without growing it.
  EXPECT_EQ(local_mem.rows(), 0);
  run({Instr::push_i(15), Instr::of(Opcode::LdL)});
  EXPECT_EQ(top(), Value::of_int(0));
  EXPECT_EQ(local_mem.rows(), 0);
  // A store to the last cell makes every row below it live and zero.
  run({Instr::push_f(2.5), Instr::push_i(15), Instr::of(Opcode::StL)});
  EXPECT_EQ(local_mem.rows(), 16);
  EXPECT_EQ(local_mem.get(15), Value::of_float(2.5));
  for (std::int64_t a = 0; a < 15; ++a) {
    EXPECT_EQ(local_mem.get(a).kind, Value::Kind::Int);
    EXPECT_EQ(local_mem.get(a).bits(), 0);
  }
  // The logical bound, not the live rows, sets the range check.
  const auto fault = [&](std::initializer_list<Instr> instrs) -> std::string {
    try {
      run(instrs);
    } catch (const MachineFault& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_EQ(fault({Instr::push_i(1), Instr::push_i(16), Instr::of(Opcode::StL)}),
            "local store out of range: 16");
  EXPECT_EQ(fault({Instr::push_i(16), Instr::of(Opcode::LdL)}),
            "local load out of range: 16");
  EXPECT_EQ(local_mem.rows(), 16);
}

TEST(SoaLocal, AssignAfterWritesReadsBackZeros) {
  SoaLocal m;
  m.assign(16);
  for (std::int64_t a = 0; a < 16; ++a)
    m.set(a, Value::of_float(static_cast<double>(a) + 0.5));
  m.assign(16);
  EXPECT_EQ(m.rows(), 0);
  EXPECT_EQ(m.cells(), 16);
  // Regrowth over the old rows value-initialises them, tag and payload.
  m.set(15, Value::of_int(1));
  for (std::int64_t a = 0; a < 15; ++a) {
    EXPECT_EQ(m.get(a).kind, Value::Kind::Int) << a;
    EXPECT_EQ(m.get(a).bits(), 0) << a;
  }
}

TEST(CostModel, OrderingOfCosts) {
  CostModel cost;
  // Relative cost structure the experiments rely on.
  EXPECT_GT(cost.route, cost.st_mono);
  EXPECT_GT(cost.st_mono, cost.st_local);
  EXPECT_GT(cost.div, cost.mul);
  EXPECT_GT(cost.mul, cost.alu);
  EXPECT_GT(cost.global_or, cost.jump);
  EXPECT_EQ(cost.instr_cost(Instr::of(Opcode::RouteLd)), cost.route);
  EXPECT_EQ(cost.instr_cost(Instr::push_i(1)), cost.push);
}

TEST(CostModel, BlockCostSumsBodyAndExit) {
  CostModel cost;
  Block b;
  b.body = {Instr::push_i(1), Instr::of(Opcode::Mul)};
  b.exit = ExitKind::Branch;
  EXPECT_EQ(cost.block_cost(b), cost.push + cost.mul + cost.branch);
  b.exit = ExitKind::Halt;
  EXPECT_EQ(cost.block_cost(b), cost.push + cost.mul + cost.halt);
}
