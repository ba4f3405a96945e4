// CONV-CACHE — the restart-surviving successor memo. §2.4 time splitting
// restarts conversion from scratch every time a block is split; without
// the memo every restart re-enumerates reach() for the entire
// already-converted prefix. The memo keeps raw successor sets across
// restarts, dropping only entries whose member sets contain a split block,
// so restart n re-pays only the invalidated slice.
//
// The table compares cached and uncached conversion on time-split-heavy
// workloads: reach() calls and wall time, plus a bit-identity check. The
// CONV-CACHE.identical gate fails the run when any row's automata differ;
// wall-clock speed-ups are reported but not gated (too noisy on shared
// hosts).
#include "bench_util.hpp"

#include <algorithm>
#include <chrono>

#include "msc/driver/pipeline.hpp"
#include "msc/workload/kernels.hpp"

using namespace msc;
using bench::Table;

namespace {

ir::CostModel kCost;

struct Timed {
  core::ConvertResult result;
  double seconds;
};

Timed convert_timed(const driver::Compiled& compiled,
                    const core::ConvertOptions& opts, int reps = 5) {
  Timed t;
  t.seconds = 1e30;
  for (int r = 0; r < reps; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    auto res = core::meta_state_convert(compiled.graph, kCost, opts);
    auto t1 = std::chrono::steady_clock::now();
    t.seconds =
        std::min(t.seconds, std::chrono::duration<double>(t1 - t0).count());
    t.result = std::move(res);
  }
  return t;
}

struct Workload {
  const char* name;
  std::string source;
  int reps = 5;
};

std::vector<Workload> workloads() {
  return {
      {"listing1", workload::listing1().source},
      {"branchy(5)", workload::branchy_source(5)},
      {"oddeven_sort", workload::kernel("oddeven_sort").source},
      {"nested(3)", workload::nested_branch_source(3)},
      {"nested(4)", workload::nested_branch_source(4), 1},
  };
}

void report() {
  std::printf("== CONV-CACHE: restart-surviving successor memo ==\n");

  Table memo({"workload", "meta", "restarts", "reach (cache)", "reach (none)",
              "wall (cache)", "wall (none)", "speedup", "identical"},
             {17, 8, 10, 15, 14, 14, 13, 9, 10});
  const std::vector<Workload> rows = workloads();
  double heaviest_speedup = 0.0;
  std::string differing;
  for (const Workload& w : rows) {
    auto compiled = driver::compile(w.source);
    core::ConvertOptions cached;
    cached.time_split = true;
    core::ConvertOptions uncached = cached;
    uncached.memoize = false;
    Timed with = convert_timed(compiled, cached, w.reps);
    Timed without = convert_timed(compiled, uncached, w.reps);
    bool same = with.result.automaton.dump() == without.result.automaton.dump();
    if (!same) differing += cat(differing.empty() ? "" : ", ", w.name);
    double speedup = without.seconds / with.seconds;
    heaviest_speedup = std::max(heaviest_speedup, speedup);
    memo.row({w.name, bench::num(with.result.automaton.num_states()),
              bench::num(std::int64_t{with.result.stats.restarts}),
              bench::num(with.result.stats.reach_calls),
              bench::num(without.result.stats.reach_calls),
              fmt_double(with.seconds * 1e3, 3) + "ms",
              fmt_double(without.seconds * 1e3, 3) + "ms",
              bench::ratio(speedup), same ? "yes" : "NO"});
  }
  memo.print("Successor-set memo under time splitting (--split), cached vs "
             "--no-cache");
  std::printf("best wall-clock speedup from the cache: %s\n",
              bench::ratio(heaviest_speedup).c_str());
  bench::JsonReport::instance().gate(
      "CONV-CACHE.identical", differing.empty(),
      differing.empty()
          ? cat("cached and uncached conversions give the same automaton on "
                "all ", rows.size(), " rows")
          : cat("cached and uncached automata differ on: ", differing));
}

void BM_ConvertCached(benchmark::State& state) {
  auto compiled = driver::compile(workload::nested_branch_source(3));
  core::ConvertOptions opts;
  opts.time_split = true;
  for (auto _ : state)
    benchmark::DoNotOptimize(core::meta_state_convert(compiled.graph, kCost, opts));
}
BENCHMARK(BM_ConvertCached);

void BM_ConvertUncached(benchmark::State& state) {
  auto compiled = driver::compile(workload::nested_branch_source(3));
  core::ConvertOptions opts;
  opts.time_split = true;
  opts.memoize = false;
  for (auto _ : state)
    benchmark::DoNotOptimize(core::meta_state_convert(compiled.graph, kCost, opts));
}
BENCHMARK(BM_ConvertUncached);

}  // namespace

MSC_BENCH_MAIN(report)
