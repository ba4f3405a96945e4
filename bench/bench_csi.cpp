// T-CSI — §3.1 common subexpression induction: factor operations shared
// by multiple threads of a meta state into single SIMD broadcasts.
// Measure schedule cost vs. naive serialization vs. the class lower
// bound, per kernel, plus end-to-end cycle impact. The gate
// T-CSI.induction-bounded demands lower bound ≤ induced ≤ serialized on
// every suite row and a strict saving over the whole suite.
#include "bench_util.hpp"

#include "msc/csi/csi.hpp"
#include "msc/driver/pipeline.hpp"
#include "msc/driver/runner.hpp"
#include "msc/support/rng.hpp"
#include "msc/workload/kernels.hpp"

using namespace msc;
using bench::Table;

namespace {

ir::CostModel kCost;
constexpr std::uint64_t kSeed = 41;

struct Agg {
  std::int64_t serialized = 0;
  std::int64_t induced = 0;
  std::int64_t bound = 0;
  std::size_t shared = 0;
  std::size_t wide_states = 0;
};

Agg aggregate(const std::string& src, csi::Algorithm alg) {
  auto compiled = driver::compile(src);
  auto conv = core::meta_state_convert(compiled.graph, kCost, {});
  Agg agg;
  for (const auto& ms : conv.automaton.states) {
    if (ms.width() < 2) continue;
    ++agg.wide_states;
    std::vector<csi::Thread> threads;
    for (std::size_t s : ms.members.bits()) {
      const auto& b = conv.graph.at(static_cast<ir::StateId>(s));
      if (!b.body.empty()) threads.push_back({s, &b.body});
    }
    csi::CsiOptions opts;
    opts.algorithm = alg;
    opts.guard_bits = conv.graph.size();
    auto res = csi::induce(threads, kCost, opts);
    agg.serialized += res.serialized_cost;
    agg.induced += res.induced_cost;
    agg.bound += res.lower_bound;
    agg.shared += res.shared_ops;
  }
  return agg;
}

void report() {
  std::printf("== T-CSI: common subexpression induction over multi-thread "
              "meta states ==\n");

  Table t({"kernel", "wide states", "serialized", "induced", "lower bound",
           "saved", "shared ops"},
          {18, 12, 12, 10, 13, 10, 11});
  Agg total;
  std::string out_of_bounds;
  for (const auto& k : workload::suite()) {
    if (k.name == "imbalanced") continue;
    Agg a = aggregate(k.source, csi::Algorithm::Progressive);
    if (a.wide_states == 0) continue;
    if ((a.bound > a.induced || a.induced > a.serialized) &&
        out_of_bounds.empty())
      out_of_bounds = k.name;
    total.serialized += a.serialized;
    total.induced += a.induced;
    double saved = a.serialized == 0
                       ? 0.0
                       : 1.0 - static_cast<double>(a.induced) /
                                   static_cast<double>(a.serialized);
    t.row({k.name, bench::num(a.wide_states), bench::num(a.serialized),
           bench::num(a.induced), bench::num(a.bound), bench::pct(saved),
           bench::num(a.shared)});
  }
  t.print("Aggregate schedule cost across all multi-member meta states "
          "(induced ≤ serialized, ≥ class lower bound)");
  bench::JsonReport::instance().gate(
      "T-CSI.induction-bounded",
      out_of_bounds.empty() && total.induced < total.serialized,
      out_of_bounds.empty()
          ? cat("every suite row has lower bound <= induced <= serialized; "
                "suite total induced ", total.induced, " vs serialized ",
                total.serialized, " (gate: induced < serialized)")
          : cat(out_of_bounds, ": induced cost outside [lower bound, "
                               "serialized]"));

  Table ladder({"schedule", "cost (listing1)", "cost (branchy4)"},
               {14, 18, 18});
  Agg listing1, branchy4;
  for (auto [name, a] : std::vector<std::pair<std::string, csi::Algorithm>>{
           {"serialize", csi::Algorithm::Serialize},
           {"progressive", csi::Algorithm::Progressive}}) {
    listing1 = aggregate(workload::listing1().source, a);
    branchy4 = aggregate(workload::branchy_source(4), a);
    ladder.row({name, bench::num(listing1.induced), bench::num(branchy4.induced)});
  }
  ladder.row(
      {"lower bound", bench::num(listing1.bound), bench::num(branchy4.bound)});
  ladder.print("Search quality ladder (§3.1): serialize ≥ progressive ≥ "
               "class lower bound");

  // End-to-end: cycles with and without CSI.
  Table e2e({"kernel", "cycles no-CSI", "cycles CSI", "speedup"},
            {18, 14, 12, 10});
  for (const auto& name : {"listing1", "branchy4", "floatmix", "loopmix"}) {
    auto compiled = driver::compile(workload::kernel(name).source);
    auto conv = core::meta_state_convert(compiled.graph, kCost, {});
    mimd::RunConfig cfg;
    cfg.nprocs = 16;
    codegen::CodegenOptions no_csi;
    no_csi.use_csi = false;
    simd::SimdStats off, on;
    driver::run_simd(compiled, conv, cfg, kSeed, kCost, no_csi, &off);
    driver::run_simd(compiled, conv, cfg, kSeed, kCost, {}, &on);
    e2e.row({name, bench::num(off.control_cycles), bench::num(on.control_cycles),
             bench::ratio(static_cast<double>(off.control_cycles) /
                          static_cast<double>(on.control_cycles))});
  }
  e2e.print("End-to-end SIMD cycles, CSI off vs. on");
}

std::vector<std::vector<ir::Instr>> synth_threads(std::size_t n, std::size_t len,
                                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<ir::Instr>> bodies(n);
  for (auto& b : bodies) {
    for (std::size_t i = 0; i < len; ++i) {
      switch (rng.next_below(4)) {
        case 0: b.push_back(ir::Instr::push_i(rng.next_range(0, 4))); break;
        case 1: b.push_back(ir::Instr::of(ir::Opcode::Add)); break;
        case 2: b.push_back(ir::Instr::of(ir::Opcode::LdL)); break;
        default: b.push_back(ir::Instr::of(ir::Opcode::StL)); break;
      }
    }
  }
  return bodies;
}

void BM_CsiProgressive(benchmark::State& state) {
  auto bodies = synth_threads(static_cast<std::size_t>(state.range(0)), 40, 5);
  std::vector<csi::Thread> threads;
  for (std::size_t i = 0; i < bodies.size(); ++i) threads.push_back({i, &bodies[i]});
  csi::CsiOptions opts;
  opts.guard_bits = bodies.size();
  for (auto _ : state) benchmark::DoNotOptimize(csi::induce(threads, kCost, opts));
}
BENCHMARK(BM_CsiProgressive)->Arg(2)->Arg(4)->Arg(8);

}  // namespace

MSC_BENCH_MAIN(report)
