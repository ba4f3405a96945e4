#include <gtest/gtest.h>

#include <optional>

#include "msc/codegen/program.hpp"
#include "msc/driver/pipeline.hpp"
#include "msc/driver/runner.hpp"
#include "msc/interp/machine.hpp"
#include "msc/mimd/machine.hpp"
#include "msc/simd/machine.hpp"
#include "msc/support/str.hpp"
#include "msc/workload/kernels.hpp"

using namespace msc;

namespace {

class InterpTest : public testing::TestWithParam<std::string> {};

TEST_P(InterpTest, MatchesOracle) {
  const workload::Kernel& k = workload::kernel(GetParam());
  auto compiled = driver::compile(k.source);
  ir::CostModel cost;
  mimd::RunConfig config;
  config.nprocs = 8;
  if (k.name == "spawn_tree") config.initial_active = 2;

  for (auto dispatch : {interp::Dispatch::Naive, interp::Dispatch::GlobalOr}) {
    for (std::uint64_t seed : {3ull, 11ull}) {
      auto oracle = driver::run_oracle(compiled, config, seed);

      interp::InterpMachine m(compiled.graph, cost, config, dispatch);
      driver::seed_machine(m, compiled, config, seed);
      m.run();
      for (std::int64_t p = 0; p < config.nprocs; ++p) {
        ASSERT_EQ(m.ever_ran(p), oracle.ran[static_cast<std::size_t>(p)]);
        if (!m.ever_ran(p)) continue;
        EXPECT_EQ(m.peek(p, frontend::Layout::kResultAddr),
                  oracle.results[static_cast<std::size_t>(p)])
            << "PE " << p << " seed " << seed;
      }
    }
  }
}

TEST_P(InterpTest, NaiveCostsMoreThanGlobalOrDispatch) {
  const workload::Kernel& k = workload::kernel(GetParam());
  auto compiled = driver::compile(k.source);
  ir::CostModel cost;
  mimd::RunConfig config;
  config.nprocs = 8;
  if (k.name == "spawn_tree") config.initial_active = 2;

  interp::InterpMachine naive(compiled.graph, cost, config, interp::Dispatch::Naive);
  driver::seed_machine(naive, compiled, config, 5);
  naive.run();
  interp::InterpMachine smart(compiled.graph, cost, config,
                              interp::Dispatch::GlobalOr);
  driver::seed_machine(smart, compiled, config, 5);
  smart.run();
  EXPECT_GT(naive.stats().dispatch_cycles, smart.stats().dispatch_cycles);
  EXPECT_EQ(naive.stats().iterations, smart.stats().iterations);
}

std::vector<std::string> interp_kernels() {
  std::vector<std::string> names;
  for (const auto& k : workload::suite()) names.push_back(k.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(Suite, InterpTest, testing::ValuesIn(interp_kernels()),
                         [](const auto& info) { return info.param; });

/// what() of the ir::MachineFault `f` throws, or "" when it throws none.
template <class F>
std::string fault_text(F&& f) {
  try {
    f();
  } catch (const ir::MachineFault& e) {
    return e.what();
  }
  return "";
}

TEST(InterpMachine, RejectsInitialActiveAboveNprocs) {
  auto compiled = driver::compile(workload::listing1().source);
  ir::CostModel cost;
  mimd::RunConfig config;
  config.nprocs = 4;
  config.initial_active = 5;
  // Same check and text as the MIMD oracle and both SIMD engines.
  EXPECT_EQ(fault_text([&] {
              interp::InterpMachine m(compiled.graph, cost, config,
                                      interp::Dispatch::GlobalOr);
            }),
            "initial_active exceeds nprocs");
  EXPECT_EQ(fault_text([&] { driver::run_oracle(compiled, config, 1); }),
            "initial_active exceeds nprocs");
  auto conv = core::meta_state_convert(compiled.graph, cost, {});
  for (auto engine :
       {mimd::SimdEngine::Reference, mimd::SimdEngine::Codegen}) {
    config.engine = engine;
    EXPECT_EQ(fault_text([&] { driver::run_simd(compiled, conv, config, 1); }),
              "initial_active exceeds nprocs")
        << simd::engine_name(engine);
  }
}

TEST(InterpMachine, SpawnExhaustionFaultMatchesEveryMachine) {
  auto compiled =
      driver::compile("int main() { spawn { return 1; } return 0; }");
  ir::CostModel cost;
  auto conv = core::meta_state_convert(compiled.graph, cost, {});
  mimd::RunConfig config;
  config.nprocs = 2;
  config.initial_active = 2;  // nobody free

  const std::string oracle =
      fault_text([&] { driver::run_oracle(compiled, config, 1); });
  EXPECT_EQ(oracle,
            "spawn failed: no free processing element "
            "(§3.2.5 assumes processes ≤ processors)");
  for (auto dispatch : {interp::Dispatch::Naive, interp::Dispatch::GlobalOr}) {
    EXPECT_EQ(fault_text([&] {
                interp::InterpMachine m(compiled.graph, cost, config, dispatch);
                m.run();
              }),
              oracle);
  }
  for (auto engine :
       {mimd::SimdEngine::Reference, mimd::SimdEngine::Codegen}) {
    config.engine = engine;
    EXPECT_EQ(fault_text([&] { driver::run_simd(compiled, conv, config, 1); }),
              oracle)
        << simd::engine_name(engine);
  }
}

/// 16 PEs: PEs 0..7 store 7 through a dynamic address (`edge - pid/64`,
/// i.e. `edge`) and halt; PEs 8..15 idle past them, then each spawns a
/// child that, under reuse_halted_pes, lands on a halted PE, copies
/// local[edge] into local[0] and marks local[1] = 5. Eight enabled PEs fill
/// a 64-lane group densely enough for the lane executor's dynamic
/// load/store paths.
ir::StateGraph edge_store_graph(std::int64_t edge) {
  using ir::Instr;
  using ir::Opcode;
  const std::vector<Instr> addr = {Instr::push_i(edge), Instr::of(Opcode::ProcId),
                                   Instr::push_i(64), Instr::of(Opcode::Div),
                                   Instr::of(Opcode::Sub)};
  ir::StateGraph g;
  const ir::StateId s0 = g.add_block("S0"), a = g.add_block("A"),
                    b1 = g.add_block("B1"), b2 = g.add_block("B2"),
                    c = g.add_block("C"), d = g.add_block("D");
  g.start = s0;
  g.at(s0).body = {Instr::of(Opcode::ProcId), Instr::push_i(8),
                   Instr::of(Opcode::Lt)};
  g.at(s0).exit = ir::ExitKind::Branch;
  g.at(s0).target = a;
  g.at(s0).alt = b1;

  g.at(a).body = {Instr::push_i(7)};
  g.at(a).body.insert(g.at(a).body.end(), addr.begin(), addr.end());
  g.at(a).body.push_back(Instr::of(Opcode::StL));

  // The interpreter steps instruction by instruction: stay in B1 until
  // every A PE has halted, as the oracle and the SIMD machine order it.
  for (int i = 0; i < 16; ++i)
    g.at(b1).body.insert(g.at(b1).body.end(), {Instr::push_i(0), Instr::pop(1)});
  g.at(b1).exit = ir::ExitKind::Jump;
  g.at(b1).target = b2;
  g.at(b2).exit = ir::ExitKind::Spawn;
  g.at(b2).target = c;
  g.at(b2).alt = d;

  g.at(c).body = addr;
  g.at(c).body.insert(g.at(c).body.end(),
                      {Instr::of(Opcode::LdL), Instr::push_i(0),
                       Instr::of(Opcode::StL), Instr::push_i(5),
                       Instr::push_i(1), Instr::of(Opcode::StL)});
  return g;
}

struct EdgeRun {
  std::string fault;
  std::vector<Value> mem;  ///< local[0], local[1], local[edge] per PE
  std::int64_t spawns = 0;
  bool operator==(const EdgeRun&) const = default;
};

/// Run `m` and read back its fault text, memories and spawn count.
template <class M>
EdgeRun edge_run(M& m, std::int64_t nprocs, std::int64_t edge) {
  EdgeRun r;
  r.fault = fault_text([&] { m.run(); });
  r.spawns = m.stats().spawns;
  for (std::int64_t p = 0; p < nprocs; ++p)
    for (std::int64_t addr : {std::int64_t{0}, std::int64_t{1}, edge})
      r.mem.push_back(m.peek(p, addr));
  return r;
}

TEST(InterpMachine, SpawnReuseResetsLocalMemoryAtTheLogicalEdge) {
  ir::CostModel cost;
  mimd::RunConfig config;
  config.nprocs = 16;
  config.reuse_halted_pes = true;
  const std::int64_t cells = config.local_mem_cells;
  for (std::int64_t edge : {cells - 1, cells}) {
    SCOPED_TRACE(edge);
    const ir::StateGraph graph = edge_store_graph(edge);
    const std::int64_t last = cells - 1;

    mimd::MimdMachine mimd_machine(graph, cost, config);
    const EdgeRun oracle = edge_run(mimd_machine, config.nprocs, last);
    if (edge < cells) {
      ASSERT_EQ(oracle.fault, "");
      EXPECT_EQ(oracle.spawns, 8);
      for (std::size_t p = 0; p < 8; ++p) {
        EXPECT_EQ(oracle.mem[p * 3], Value::of_int(0)) << "stale cell, PE " << p;
        EXPECT_EQ(oracle.mem[p * 3 + 1], Value::of_int(5)) << "no child, PE " << p;
        EXPECT_EQ(oracle.mem[p * 3 + 2], Value::of_int(0)) << "PE " << p;
      }
    } else {
      EXPECT_EQ(oracle.fault, "local store out of range: 4096");
    }

    for (auto dispatch : {interp::Dispatch::Naive, interp::Dispatch::GlobalOr}) {
      interp::InterpMachine m(graph, cost, config, dispatch);
      EXPECT_EQ(edge_run(m, config.nprocs, last), oracle) << "interp";
    }

    const auto conv = core::meta_state_convert(graph, cost, {});
    const auto prog = codegen::generate(conv.automaton, conv.graph, cost, {});
    std::optional<simd::SimdStats> reference_stats;
    for (auto engine : {mimd::SimdEngine::Reference, mimd::SimdEngine::Codegen})
      for (auto isa : {SimdIsa::Auto, SimdIsa::Scalar}) {
        SCOPED_TRACE(cat(simd::engine_name(engine), "/", simd_isa_name(isa)));
        mimd::RunConfig c = config;
        c.engine = engine;
        c.simd_isa = isa;
        auto m = simd::make_machine(prog, cost, c);
        EXPECT_EQ(edge_run(*m, config.nprocs, last), oracle);
        // On a fault the codegen engine has already charged busy cycles for
        // the whole group, the reference engine only up to the faulting PE.
        if (!oracle.fault.empty()) continue;
        if (!reference_stats) reference_stats = m->stats();
        EXPECT_TRUE(m->stats() == *reference_stats);
      }
  }
}

TEST(InterpImage, ProgramFootprintGrowsWithCode) {
  auto small = driver::compile(workload::listing1().source);
  auto big = driver::compile(workload::branchy_source(10));
  auto img_small = interp::assemble(small.graph);
  auto img_big = interp::assemble(big.graph);
  EXPECT_GT(img_big.cells_per_pe(), img_small.cells_per_pe());
  EXPECT_GT(img_small.cells_per_pe(), 0);
}

}  // namespace
