#include <gtest/gtest.h>

#include "msc/driver/pipeline.hpp"
#include "msc/driver/runner.hpp"
#include "msc/interp/machine.hpp"
#include "msc/simd/machine.hpp"
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

TEST(InterpImage, ProgramFootprintGrowsWithCode) {
  auto small = driver::compile(workload::listing1().source);
  auto big = driver::compile(workload::branchy_source(10));
  auto img_small = interp::assemble(small.graph);
  auto img_big = interp::assemble(big.graph);
  EXPECT_GT(img_big.cells_per_pe(), img_small.cells_per_pe());
  EXPECT_GT(img_small.cells_per_pe(), 0);
}

}  // namespace
