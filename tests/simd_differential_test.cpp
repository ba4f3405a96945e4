// Differential harness for the SIMD engines: the occupancy-indexed
// codegen engine must be bit-identical to the scalar reference oracle —
// same final memories, same SimdStats counters, same per-meta-state visit
// counts, same tracer streams — on every equivalence-suite workload and
// nested_branch_source, across a seed sweep and both conversion modes.
// This is the contract that lets the codegen engine's incremental
// occupancy bookkeeping and folded host streams be trusted forever
// (DESIGN.md §7, §11).
#include <gtest/gtest.h>

#include <functional>

#include "msc/driver/pipeline.hpp"
#include "msc/driver/runner.hpp"
#include "msc/fuzz/manifest.hpp"
#include "msc/simd/machine.hpp"
#include "msc/support/str.hpp"
#include "msc/support/trace.hpp"
#include "msc/workload/kernels.hpp"

using namespace msc;

namespace {

ir::CostModel kCost;

struct Case {
  std::string name;
  std::string source;
  bool spawn = false;
};

std::vector<Case> all_cases() {
  std::vector<Case> v;
  for (const workload::Kernel& k : workload::suite())
    v.push_back({k.name, k.source, k.name == "spawn_tree"});
  v.push_back({"nested_branch3", workload::nested_branch_source(3), false});
  return v;
}

std::string case_name(const testing::TestParamInfo<Case>& info) {
  return info.param.name;
}

/// Runs both engines on an identical configuration and asserts every
/// observable of the codegen engine is bit-identical to the reference
/// oracle. The codegen engine runs twice: under config.simd_isa (the host
/// ISA by default, so dense groups take the lane executor) and under a
/// forced SimdIsa::Scalar, where every group takes the flat-list span —
/// so both branches are compared on every build, not only on a
/// -DMSC_SIMD_ISA=scalar one.
void expect_engines_identical(const driver::Compiled& compiled,
                              const core::ConvertResult& conv,
                              mimd::RunConfig config, std::uint64_t seed,
                              const std::string& label) {
  SCOPED_TRACE(label);
  simd::SimdStats ref_stats;
  std::vector<std::int64_t> ref_visits;
  config.engine = mimd::SimdEngine::Reference;
  auto ref = driver::run_simd(compiled, conv, config, seed, kCost, {},
                              &ref_stats, &ref_visits);
  config.engine = mimd::SimdEngine::Codegen;
  for (SimdIsa isa : {config.simd_isa, SimdIsa::Scalar}) {
    SCOPED_TRACE(cat("codegen isa=", simd_isa_name(isa)));
    config.simd_isa = isa;
    simd::SimdStats stats;
    std::vector<std::int64_t> visits;
    auto got = driver::run_simd(compiled, conv, config, seed, kCost, {},
                                &stats, &visits);

    // Final memories (results, poly globals, mono globals, ran flags).
    EXPECT_TRUE(got == ref) << "got: " << got.to_string()
                            << "\nref: " << ref.to_string();
    // Every cycle counter, bit for bit.
    EXPECT_EQ(stats.control_cycles, ref_stats.control_cycles);
    EXPECT_EQ(stats.busy_pe_cycles, ref_stats.busy_pe_cycles);
    EXPECT_EQ(stats.offered_pe_cycles, ref_stats.offered_pe_cycles);
    EXPECT_EQ(stats.meta_transitions, ref_stats.meta_transitions);
    EXPECT_EQ(stats.global_ors, ref_stats.global_ors);
    EXPECT_EQ(stats.guard_switches, ref_stats.guard_switches);
    EXPECT_EQ(stats.spawns, ref_stats.spawns);
    EXPECT_EQ(stats.rescue_transitions, ref_stats.rescue_transitions);
    EXPECT_TRUE(stats == ref_stats);
    // Per-meta-state visit counts (pins the whole state sequence length).
    EXPECT_EQ(visits, ref_visits);
  }
}

class SimdDifferentialTest : public testing::TestWithParam<Case> {};

TEST_P(SimdDifferentialTest, EnginesBitIdenticalAcrossSeedsAndModes) {
  const Case& c = GetParam();
  auto compiled = driver::compile(c.source);

  int combos = 0;
  for (bool compress : {false, true}) {
    core::ConvertOptions opts;
    opts.compress = compress;
    core::ConvertResult conv;
    try {
      conv = core::meta_state_convert(compiled.graph, kCost, opts);
    } catch (const core::ExplosionError&) {
      continue;  // base-mode explosion is a measured phenomenon, not a bug
    }
    mimd::RunConfig config;
    config.nprocs = 8;
    if (c.spawn) config.initial_active = 2;
    for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
      expect_engines_identical(compiled, conv, config, seed,
                               cat(c.name, compress ? "/compressed" : "/base",
                                   "/seed", seed));
      ++combos;
    }
  }
  EXPECT_GE(combos, 3) << "every conversion mode exploded";
}

INSTANTIATE_TEST_SUITE_P(AllKernels, SimdDifferentialTest,
                         testing::ValuesIn(all_cases()), case_name);

TEST(SimdDifferential, ScalarVsVectorBitIdenticalOnAllEngines) {
  // The lane-major store executes whole-lane op runs under the host
  // vector ISA; forcing --simd-isa scalar takes the per-PE path over the
  // same store. Both paths must produce bit-identical memories, stats
  // and visit counts on every suite workload × engine. Skip-pass when
  // the host has no vector ISA (the forced-scalar CI leg).
  const SimdIsa host = resolve_simd_isa(SimdIsa::Auto);
  if (host == SimdIsa::Scalar)
    GTEST_SKIP() << "host has no vector ISA; scalar == scalar trivially";
  for (const Case& c : all_cases()) {
    SCOPED_TRACE(c.name);
    auto compiled = driver::compile(c.source);
    auto conv = core::meta_state_convert(compiled.graph, kCost, {});
    for (std::int64_t nprocs : {8ll, 65ll}) {
      SCOPED_TRACE(nprocs);
      mimd::RunConfig config;
      config.nprocs = nprocs;
      if (c.spawn) config.initial_active = 2;
      for (auto engine :
           {mimd::SimdEngine::Reference, mimd::SimdEngine::Codegen}) {
        SCOPED_TRACE(simd::engine_name(engine));
        config.engine = engine;
        config.simd_isa = SimdIsa::Scalar;
        simd::SimdStats s_stats;
        std::vector<std::int64_t> s_visits;
        auto scalar = driver::run_simd(compiled, conv, config, 42, kCost, {},
                                       &s_stats, &s_visits);
        config.simd_isa = host;
        simd::SimdStats v_stats;
        std::vector<std::int64_t> v_visits;
        auto vector = driver::run_simd(compiled, conv, config, 42, kCost, {},
                                       &v_stats, &v_visits);
        EXPECT_TRUE(scalar == vector)
            << "scalar: " << scalar.to_string()
            << "\nvector: " << vector.to_string();
        EXPECT_TRUE(s_stats == v_stats);
        EXPECT_EQ(s_visits, v_visits);
      }
    }
  }
}

TEST(SimdDifferential, SpawnReusePolicyIdentical) {
  // reuse_halted_pes re-routes spawn allocation through the halted-PE
  // path of the free pool — the exact paths the codegen engine's free list
  // replaces, so compare both policies differentially.
  auto compiled = driver::compile(workload::kernel("spawn_tree").source);
  auto conv = core::meta_state_convert(compiled.graph, kCost, {});
  for (bool reuse : {false, true}) {
    mimd::RunConfig config;
    config.nprocs = 8;
    config.initial_active = 2;
    config.reuse_halted_pes = reuse;
    expect_engines_identical(compiled, conv, config, 1,
                             reuse ? "reuse" : "fresh");
  }
}

/// Serializes the full tracer stream for engine-vs-engine comparison.
class RecordingTracer final : public simd::SimdTracer {
 public:
  std::vector<std::string> events;

  void on_state(core::MetaId id, const DynBitset& occ,
                std::int64_t alive) override {
    events.push_back(cat("state ", id, " occ=", occ.to_string(),
                         " alive=", alive));
  }
  void on_transition(core::MetaId from, core::MetaId to,
                     const DynBitset& apc) override {
    events.push_back(cat("trans ", from, "->", to, " apc=", apc.to_string()));
  }
};

TEST(SimdDifferential, ObservabilityNeverChangesExecution) {
  // Attaching a trace sink and/or enabling profiling must leave every
  // observable of the run — final memories, SimdStats, visit counts —
  // bit-identical to an uninstrumented run, on both engines. The profiles
  // themselves must also be engine-independent, and summing any cycle
  // field over all meta states must reproduce the run total exactly (the
  // accumulation happens in the engine-independent step() skeleton, but
  // this pins it against regressions).
  for (const char* name : {"listing1", "spawn_tree", "oddeven_sort"}) {
    SCOPED_TRACE(name);
    auto compiled = driver::compile(workload::kernel(name).source);
    auto conv = core::meta_state_convert(compiled.graph, kCost, {});
    auto prog = codegen::generate(conv.automaton, conv.graph, kCost, {});
    mimd::RunConfig config;
    config.nprocs = 8;
    if (std::string(name) == "spawn_tree") config.initial_active = 2;

    std::vector<simd::StateProfile> profiles[2];
    std::string traces[2];
    int idx = 0;
    for (auto engine :
         {mimd::SimdEngine::Codegen, mimd::SimdEngine::Reference}) {
      SCOPED_TRACE(simd::engine_name(engine));
      config.engine = engine;
      // Plain run.
      auto plain = simd::make_machine(prog, kCost, config);
      driver::seed_machine(*plain, compiled, config, 5);
      plain->run();
      // Instrumented run: sink + profiling.
      telemetry::TraceSink sink;
      auto inst = simd::make_machine(prog, kCost, config);
      driver::seed_machine(*inst, compiled, config, 5);
      inst->set_trace_sink(&sink);
      inst->enable_profiling();
      inst->run();

      EXPECT_TRUE(plain->stats() == inst->stats());
      EXPECT_EQ(plain->state_visits(), inst->state_visits());
      for (std::int64_t p = 0; p < config.nprocs; ++p) {
        EXPECT_EQ(plain->ever_ran(p), inst->ever_ran(p));
        EXPECT_EQ(plain->peek(p, 0).to_string(), inst->peek(p, 0).to_string());
      }

      // Per-state sums reproduce the run totals bit-exactly.
      const simd::SimdStats& s = inst->stats();
      simd::StateProfile sum;
      std::int64_t visits = 0;
      for (const simd::StateProfile& p : inst->profile()) {
        visits += p.visits;
        sum.control_cycles += p.control_cycles;
        sum.busy_pe_cycles += p.busy_pe_cycles;
        sum.offered_pe_cycles += p.offered_pe_cycles;
        sum.global_ors += p.global_ors;
        sum.guard_switches += p.guard_switches;
        sum.router_ops += p.router_ops;
        sum.spawns += p.spawns;
      }
      EXPECT_EQ(visits, s.meta_transitions);
      EXPECT_EQ(sum.control_cycles, s.control_cycles);
      EXPECT_EQ(sum.busy_pe_cycles, s.busy_pe_cycles);
      EXPECT_EQ(sum.offered_pe_cycles, s.offered_pe_cycles);
      EXPECT_EQ(sum.global_ors, s.global_ors);
      EXPECT_EQ(sum.guard_switches, s.guard_switches);
      EXPECT_EQ(sum.router_ops, s.router_ops);
      EXPECT_EQ(sum.spawns, s.spawns);

      profiles[idx] = inst->profile();
      traces[idx] = sink.to_json();
      ++idx;
    }
    // Engine-independent: identical profiles and identical (deterministic,
    // simulated-cycle-timestamped) trace files.
    EXPECT_TRUE(profiles[0] == profiles[1]);
    EXPECT_EQ(traces[0], traces[1]);
  }
}

TEST(SimdDifferential, TracerStreamsIdentical) {
  // The occupancy/alive/apc values handed to tracers come from full scans
  // in the reference engine and incremental structures in the codegen one;
  // the streams must still match event for event.
  for (const char* name : {"listing1", "spawn_tree", "oddeven_sort"}) {
    auto compiled = driver::compile(workload::kernel(name).source);
    auto conv = core::meta_state_convert(compiled.graph, kCost, {});
    auto prog = codegen::generate(conv.automaton, conv.graph, kCost, {});
    mimd::RunConfig config;
    config.nprocs = 8;
    if (std::string(name) == "spawn_tree") config.initial_active = 2;

    std::vector<std::string> streams[2];
    int idx = 0;
    for (auto engine :
         {mimd::SimdEngine::Codegen, mimd::SimdEngine::Reference}) {
      config.engine = engine;
      auto m = simd::make_machine(prog, kCost, config);
      driver::seed_machine(*m, compiled, config, 5);
      RecordingTracer tracer;
      m->set_tracer(&tracer);
      m->run();
      streams[idx++] = std::move(tracer.events);
    }
    EXPECT_EQ(streams[0], streams[1]) << name;
  }
}

/// What a caller can see of a run that may fault: the fault text, every
/// PE's ever-ran flag, and every local and mono cell.
struct FaultView {
  std::string fault;
  std::vector<bool> ran;
  std::vector<Value> mem;
  bool operator==(const FaultView&) const = default;
};

FaultView run_to_fault(const codegen::SimdProgram& prog,
                       const mimd::RunConfig& config,
                       const std::function<void(simd::SimdMachine&)>& seed) {
  auto m = simd::make_machine(prog, kCost, config);
  seed(*m);
  FaultView v;
  try {
    m->run();
  } catch (const ir::MachineFault& e) {
    v.fault = e.what();
  }
  for (std::int64_t p = 0; p < config.nprocs; ++p) {
    v.ran.push_back(m->ever_ran(p));
    for (std::int64_t addr = 0; addr < config.local_mem_cells; ++addr)
      v.mem.push_back(m->peek(p, addr));
  }
  for (std::int64_t addr = 0; addr < config.mono_mem_cells; ++addr)
    v.mem.push_back(m->peek_mono(addr));
  return v;
}

/// A faulting run must fault with the same text and leave the same
/// memories and ever-ran flags on the reference engine and on the codegen
/// engine under the default and a forced-scalar ISA. The fault stops a
/// meta state part-way, so this pins that none of the codegen engine's
/// recorded-but-uncommitted pc moves leak out. Stats are not compared:
/// the engines charge a faulting group differently.
void expect_fault_identical(const codegen::SimdProgram& prog,
                            mimd::RunConfig config,
                            const std::function<void(simd::SimdMachine&)>& seed,
                            const std::string& fault) {
  config.engine = mimd::SimdEngine::Reference;
  const FaultView ref = run_to_fault(prog, config, seed);
  EXPECT_EQ(ref.fault, fault);
  config.engine = mimd::SimdEngine::Codegen;
  for (SimdIsa isa : {config.simd_isa, SimdIsa::Scalar}) {
    SCOPED_TRACE(cat("codegen isa=", simd_isa_name(isa)));
    config.simd_isa = isa;
    const FaultView got = run_to_fault(prog, config, seed);
    EXPECT_EQ(got.fault, ref.fault);
    EXPECT_EQ(got.ran, ref.ran);
    EXPECT_TRUE(got.mem == ref.mem);
  }
}

/// 16 PEs: PEs 0..7 store 7 at local[store_at] and halt; PEs 8..15 idle
/// past them, then each spawns a child that, under reuse_halted_pes, lands
/// on a halted PE and copies local[load_at] into local[0]. Both addresses
/// are dynamic (`addr - pid/64`), and eight enabled PEs fill a 64-lane
/// group densely enough for the lane executor's gather/scatter paths.
ir::StateGraph edge_graph(std::int64_t store_at, std::int64_t load_at) {
  using ir::Instr;
  using ir::Opcode;
  const auto addr = [](std::int64_t at) {
    return std::vector<Instr>{Instr::push_i(at), Instr::of(Opcode::ProcId),
                              Instr::push_i(64), Instr::of(Opcode::Div),
                              Instr::of(Opcode::Sub)};
  };
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
  for (const Instr& in : addr(store_at)) g.at(a).body.push_back(in);
  g.at(a).body.push_back(Instr::of(Opcode::StL));
  g.at(b1).body = {Instr::push_i(0), Instr::pop(1)};
  g.at(b1).exit = ir::ExitKind::Jump;
  g.at(b1).target = b2;
  g.at(b2).exit = ir::ExitKind::Spawn;
  g.at(b2).target = c;
  g.at(b2).alt = d;
  g.at(c).body = addr(load_at);
  g.at(c).body.insert(g.at(c).body.end(),
                      {Instr::of(Opcode::LdL), Instr::push_i(0),
                       Instr::of(Opcode::StL)});
  return g;
}

TEST(SimdDifferential, FaultingRunsIdentical) {
  mimd::RunConfig config;
  config.nprocs = 16;
  config.reuse_halted_pes = true;
  const std::int64_t cells = config.local_mem_cells;
  const auto no_seed = [](simd::SimdMachine&) {};
  struct EdgeCase {
    const char* name;
    std::int64_t store_at, load_at;
    std::string fault;
  };
  for (const EdgeCase& e :
       {EdgeCase{"store at the logical edge", cells, 0,
                 cat("local store out of range: ", cells)},
        EdgeCase{"load past the logical edge", cells - 1, cells,
                 cat("local load out of range: ", cells)}}) {
    SCOPED_TRACE(e.name);
    const auto conv =
        core::meta_state_convert(edge_graph(e.store_at, e.load_at), kCost, {});
    const auto prog = codegen::generate(conv.automaton, conv.graph, kCost, {});
    expect_fault_identical(prog, config, no_seed, e.fault);
  }

  SCOPED_TRACE("corpus/spawn_exhaustion");
  std::string source;
  const fuzz::Manifest manifest = fuzz::load_manifest(
      cat(MSC_CORPUS_DIR, "/spawn_exhaustion.json"), &source);
  ASSERT_EQ(manifest.expect, "fault");
  const auto compiled = driver::compile(source);
  const auto conv = core::meta_state_convert(compiled.graph, kCost, {});
  const auto prog = codegen::generate(conv.automaton, conv.graph, kCost, {});
  config = {};
  config.nprocs = manifest.nprocs;
  config.initial_active = manifest.initial_active;
  config.reuse_halted_pes = manifest.reuse_halted_pes;
  expect_fault_identical(
      prog, config,
      [&](simd::SimdMachine& m) {
        driver::seed_machine(m, compiled, config, manifest.input_seed);
      },
      "spawn failed: no free processing element "
      "(§3.2.5 assumes processes ≤ processors)");
}

}  // namespace
