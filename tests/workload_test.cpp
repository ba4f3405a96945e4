#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "msc/driver/pipeline.hpp"
#include "msc/driver/runner.hpp"
#include "msc/workload/generator.hpp"
#include "msc/workload/kernels.hpp"

using namespace msc;

// ------------------------------------------------------------------ kernels

TEST(Kernels, SuiteIsWellFormed) {
  std::set<std::string> names;
  for (const auto& k : workload::suite()) {
    EXPECT_FALSE(k.name.empty());
    EXPECT_FALSE(k.description.empty());
    EXPECT_TRUE(names.insert(k.name).second) << "duplicate kernel " << k.name;
    // Every kernel compiles into a valid graph.
    auto compiled = driver::compile(k.source);
    EXPECT_TRUE(compiled.graph.validate().empty()) << k.name;
    EXPECT_FALSE(compiled.diags.has_errors()) << k.name;
    // Seeded kernels actually declare the poly input.
    if (k.wants_seed_input) {
      const auto* slot = compiled.layout.find("x");
      ASSERT_NE(slot, nullptr) << k.name;
      EXPECT_EQ(slot->storage, frontend::Storage::PolyStatic) << k.name;
    }
  }
}

TEST(Kernels, LookupByName) {
  EXPECT_EQ(workload::kernel("listing1").name, "listing1");
  EXPECT_EQ(workload::kernel("listing4").name, "listing4");
  EXPECT_THROW(workload::kernel("nope"), std::out_of_range);
}

TEST(Kernels, ParameterizedSourcesScale) {
  auto small = driver::compile(workload::loopy_source(2));
  auto large = driver::compile(workload::loopy_source(6));
  EXPECT_GT(large.graph.size(), small.graph.size());
  auto barrier = driver::compile(workload::loopy_barrier_source(3));
  EXPECT_EQ(barrier.graph.barrier_states().count(), 3u);
  auto imbalance = driver::compile(workload::imbalanced_once_source(1, 20));
  ir::CostModel cost;
  const auto& start = imbalance.graph.at(imbalance.graph.start);
  std::int64_t a = cost.block_cost(imbalance.graph.at(start.target));
  std::int64_t b = cost.block_cost(imbalance.graph.at(start.alt));
  EXPECT_GT(std::max(a, b), 5 * std::min(a, b));
}

TEST(Kernels, Listing4IsStaticOnly) {
  // Verbatim Listing 4 never terminates at runtime (documented); the
  // oracle must hit the block budget rather than finish.
  auto compiled = driver::compile(workload::listing4().source);
  ir::CostModel cost;
  mimd::RunConfig cfg;
  cfg.nprocs = 1;
  cfg.max_blocks = 1000;
  mimd::MimdMachine m(compiled.graph, cost, cfg);
  m.poke(0, compiled.layout.frame_stack_base - 1, Value{});  // touch memory
  EXPECT_THROW(m.run(), mimd::Timeout);
}

// ---------------------------------------------------------------- generator

TEST(Generator, DeterministicPerSeed) {
  workload::GenOptions opts;
  EXPECT_EQ(workload::generate_program(42, opts), workload::generate_program(42, opts));
  EXPECT_NE(workload::generate_program(42, opts), workload::generate_program(43, opts));
}

TEST(Generator, AllProgramsCompileAndTerminate) {
  ir::CostModel cost;
  for (std::uint64_t seed = 500; seed < 530; ++seed) {
    std::string src = workload::generate_program(seed);
    SCOPED_TRACE(src);
    auto compiled = driver::compile(src);
    EXPECT_TRUE(compiled.graph.validate().empty());
    mimd::RunConfig cfg;
    cfg.nprocs = 4;
    // Must finish well within the budget (loops are bounded counters).
    auto obs = driver::run_oracle(compiled, cfg, seed);
    for (bool ran : obs.ran) EXPECT_TRUE(ran);
  }
}

TEST(Generator, HaltsWithinDeclaredBlockBound) {
  // The generator's termination contract: every program halts inside its
  // structural block_bound() — loops are counted down from a bounded start,
  // so no program relies on the interpreter's default block budget to stop.
  workload::GenOptions gen;
  gen.allow_spawn = true;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    workload::GenProgram prog = workload::generate_ast(seed, gen);
    const std::string src = prog.render();
    SCOPED_TRACE(src);
    EXPECT_EQ(src, workload::generate_program(seed, gen));
    auto compiled = driver::compile(src);
    mimd::RunConfig cfg;
    cfg.nprocs = 6;
    cfg.initial_active = 2;  // headroom for spawn
    cfg.max_blocks = cfg.nprocs * prog.block_bound();
    try {
      driver::run_oracle(compiled, cfg, seed);
    } catch (const mimd::Timeout&) {
      FAIL() << "program exceeded its declared bound of "
             << prog.block_bound() << " blocks per PE";
    } catch (const ir::MachineFault&) {
      // spawn exhaustion is a legitimate way to halt
    }
  }
}

TEST(Generator, MutationsPreserveWellFormednessAndTermination) {
  workload::GenOptions gen;
  gen.allow_spawn = true;
  Rng rng(99);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    workload::GenProgram prog = workload::generate_ast(seed, gen);
    for (int round = 0; round < 8; ++round) {
      workload::mutate_program(prog, rng);
      const std::string src = prog.render();
      SCOPED_TRACE(src);
      driver::Compiled compiled;
      ASSERT_NO_THROW(compiled = driver::compile(src));
      mimd::RunConfig cfg;
      cfg.nprocs = 4;
      cfg.initial_active = 2;
      cfg.max_blocks = cfg.nprocs * prog.block_bound();
      try {
        driver::run_oracle(compiled, cfg, seed);
      } catch (const mimd::Timeout&) {
        FAIL() << "mutated program exceeded its declared bound of "
               << prog.block_bound() << " blocks per PE";
      } catch (const ir::MachineFault&) {
      }
    }
  }
}

TEST(Generator, OptionKnobsAreRespected) {
  workload::GenOptions no_barrier;
  no_barrier.allow_barrier = false;
  no_barrier.allow_mono = false;
  for (std::uint64_t seed = 1; seed < 20; ++seed) {
    std::string src = workload::generate_program(seed, no_barrier);
    EXPECT_EQ(src.find("wait;"), std::string::npos) << src;
    EXPECT_EQ(src.find("mono"), std::string::npos) << src;
  }
  workload::GenOptions no_loops;
  no_loops.allow_loops = false;
  for (std::uint64_t seed = 1; seed < 20; ++seed) {
    std::string src = workload::generate_program(seed, no_loops);
    EXPECT_EQ(src.find("do {"), std::string::npos) << src;
  }
  workload::GenOptions no_float;
  no_float.allow_float = false;
  for (std::uint64_t seed = 1; seed < 20; ++seed) {
    std::string src = workload::generate_program(seed, no_float);
    EXPECT_EQ(src.find("float"), std::string::npos) << src;
  }
}

// ------------------------------------------------------------------- runner

TEST(Runner, SeedInputIsDeterministicAndSmall) {
  for (std::int64_t p = 0; p < 32; ++p) {
    std::int64_t v = driver::seed_input(7, p);
    EXPECT_EQ(v, driver::seed_input(7, p));
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 97);
  }
  EXPECT_NE(driver::seed_input(7, 0), driver::seed_input(8, 0));
}

TEST(Runner, ObservedComparesMemoriesNotJustResults) {
  const char* a = "poly int g; int main() { g = procid(); return 1; }";
  const char* b = "poly int g; int main() { g = procid() + 1; return 1; }";
  mimd::RunConfig cfg;
  cfg.nprocs = 2;
  auto oa = driver::run_oracle(driver::compile(a), cfg, 1);
  auto ob = driver::run_oracle(driver::compile(b), cfg, 1);
  EXPECT_FALSE(oa == ob);  // same results, different global memory
  EXPECT_EQ(oa.results[0], ob.results[0]);
}

TEST(Runner, UnorderedEquivalenceIgnoresPePermutation) {
  driver::Observed a, b;
  a.ran = {true, true, false};
  a.results = {Value::of_int(1), Value::of_int(2), Value{}};
  b.ran = {true, false, true};
  b.results = {Value::of_int(2), Value{}, Value::of_int(1)};
  EXPECT_TRUE(a.equivalent_unordered(b));
  EXPECT_FALSE(a == b);
  b.results[2] = Value::of_int(3);
  EXPECT_FALSE(a.equivalent_unordered(b));
}

TEST(Runner, UnorderedEquivalenceComparesBits) {
  // Ints that differ only above 2^53 round to one double, and 0.0 equals
  // -0.0 as a number: neither pair is the same result.
  const std::int64_t big = std::int64_t{1} << 53;
  driver::Observed a, b;
  a.ran = b.ran = {true};
  a.results = {Value::of_int(big)};
  b.results = {Value::of_int(big + 1)};
  EXPECT_FALSE(a.equivalent_unordered(b));
  a.results = {Value::of_float(0.0)};
  b.results = {Value::of_float(-0.0)};
  EXPECT_FALSE(a.equivalent_unordered(b));
  b.results = {Value::of_float(0.0)};
  EXPECT_TRUE(a.equivalent_unordered(b));
}

TEST(Runner, MimdStatsExposed) {
  auto compiled = driver::compile(workload::listing3().source);
  mimd::RunConfig cfg;
  cfg.nprocs = 4;
  mimd::MimdStats stats;
  driver::run_oracle(compiled, cfg, 1, &stats);
  EXPECT_GT(stats.blocks_executed, 0);
  EXPECT_GT(stats.busy_cycles, 0);
  EXPECT_EQ(stats.barrier_releases, 1);
}

TEST(Kernels, OddEvenSortActuallySorts) {
  auto compiled = driver::compile(workload::kernel("oddeven_sort").source);
  mimd::RunConfig cfg;
  cfg.nprocs = 8;
  auto obs = driver::run_oracle(compiled, cfg, 21);
  // PE p must end with the p-th smallest input.
  std::vector<std::int64_t> inputs;
  for (std::int64_t p = 0; p < cfg.nprocs; ++p)
    inputs.push_back(driver::seed_input(21, p));
  std::sort(inputs.begin(), inputs.end());
  for (std::size_t p = 0; p < 8; ++p)
    EXPECT_EQ(obs.results[p].i, inputs[p]) << "PE " << p;
}

TEST(Kernels, EscapeIterDiverges) {
  auto compiled = driver::compile(workload::kernel("escape_iter").source);
  mimd::RunConfig cfg;
  cfg.nprocs = 16;
  auto obs = driver::run_oracle(compiled, cfg, 33);
  std::set<std::int64_t> distinct;
  for (const Value& v : obs.results) {
    EXPECT_GE(v.i, 1);
    EXPECT_LE(v.i, 24);
    distinct.insert(v.i);
  }
  EXPECT_GE(distinct.size(), 3u);  // real divergence across PEs
}
