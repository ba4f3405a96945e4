#include <gtest/gtest.h>

#include "msc/driver/pipeline.hpp"
#include "msc/driver/runner.hpp"
#include "msc/workload/kernels.hpp"

using namespace msc;

namespace {

struct Case {
  std::string kernel;
  bool compress;
  core::BarrierMode barrier_mode;
  bool time_split;
};

std::string case_name(const testing::TestParamInfo<Case>& info) {
  const Case& c = info.param;
  std::string n = c.kernel;
  n += c.compress ? "_compressed" : "_base";
  n += c.barrier_mode == core::BarrierMode::PaperPrune ? "_prune" : "_track";
  if (c.time_split) n += "_split";
  return n;
}

class EquivalenceTest : public testing::TestWithParam<Case> {};

TEST_P(EquivalenceTest, SimdMatchesOracle) {
  const Case& c = GetParam();
  const workload::Kernel& k = workload::kernel(c.kernel);
  auto compiled = driver::compile(k.source);

  core::ConvertOptions opts;
  opts.compress = c.compress;
  opts.barrier_mode = c.barrier_mode;
  opts.time_split = c.time_split;
  ir::CostModel cost;
  auto conversion = core::meta_state_convert(compiled.graph, cost, opts);
  ASSERT_TRUE(conversion.automaton.validate(conversion.graph).empty())
      << conversion.automaton.dump();

  mimd::RunConfig config;
  config.nprocs = 8;
  if (c.kernel == "spawn_tree") config.initial_active = 2;

  // Both §3.1 codings — CSI on (the default) and naive serialization —
  // must reproduce the oracle.
  codegen::CodegenOptions serialized;
  serialized.use_csi = false;
  for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
    auto oracle = driver::run_oracle(compiled, config, seed);
    for (const codegen::CodegenOptions& cg :
         {codegen::CodegenOptions{}, serialized}) {
      auto simd = driver::run_simd(compiled, conversion, config, seed, cost, cg);
      const char* coding = cg.use_csi ? "csi" : "serialized";
      if (k.per_pe_deterministic) {
        EXPECT_TRUE(oracle == simd)
            << "seed " << seed << " (" << coding << ")\noracle: "
            << oracle.to_string() << "\nsimd:   " << simd.to_string();
      } else {
        EXPECT_TRUE(oracle.equivalent_unordered(simd))
            << "seed " << seed << " (" << coding << ")\noracle: "
            << oracle.to_string() << "\nsimd:   " << simd.to_string();
      }
    }
  }
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const workload::Kernel& k : workload::suite()) {
    for (bool compress : {false, true}) {
      for (auto mode :
           {core::BarrierMode::TrackOccupancy, core::BarrierMode::PaperPrune}) {
        for (bool split : {false, true}) {
          // PaperPrune is exercised only where the converter accepts it:
          // one barrier state, static process population, no compression
          // (the other combinations are compile errors — soundness_test).
          if (mode == core::BarrierMode::PaperPrune &&
              (compress || k.source.find("spawn") != std::string::npos ||
               driver::compile(k.source).graph.barrier_states().count() > 1))
            continue;
          // Time splitting multiplies MIMD states; on loop-heavy divergent
          // kernels the *base* conversion then exceeds the explosion guard
          // (a real §1.2 phenomenon, measured in bench_state_explosion).
          // Compression handles those; skip only base+split there.
          if (split && !compress &&
              (k.name == "recursion" || k.name == "imbalanced"))
            continue;
          cases.push_back({k.name, compress, mode, split});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllKernels, EquivalenceTest,
                         testing::ValuesIn(all_cases()), case_name);

}  // namespace
