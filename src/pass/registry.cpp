// The built-in pass registry: every stage of the toolchain, registered by
// name so pipelines can be printed, reordered, disabled, and timed.
#include <chrono>

#include "msc/codegen/program.hpp"
#include "msc/core/dme.hpp"
#include "msc/core/straighten.hpp"
#include "msc/core/subsume.hpp"
#include "msc/core/time_split.hpp"
#include "msc/ir/passes.hpp"
#include "msc/ir/peephole.hpp"
#include "msc/pass/pass.hpp"
#include "msc/support/str.hpp"

namespace msc::pass {

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

core::ConvertResult& conversion_of(PipelineState& st, const char* pass) {
  if (!st.conversion)
    throw PipelineError(
        cat("pass '", pass, "' requires a conversion but none has run"));
  return *st.conversion;
}

void refresh_counts(core::ConvertResult& conv) {
  conv.stats.meta_states = conv.automaton.num_states();
  conv.stats.arcs = conv.automaton.num_arcs();
}

void run_convert(PipelineState& st, Counters& counters) {
  core::ConvertOptions o = st.options;
  // Subsumption and straightening are pipeline passes of their own; the
  // engine-internal variants stay off so each boundary is observable.
  o.subsume = false;
  o.straighten = false;
  try {
    st.conversion = core::meta_state_convert(st.graph, st.cost, o);
  } catch (const core::ExplosionError&) {
    if (!st.adaptive) throw;
    // §1.2 fallback policy: rerun under §2.5 compression, which is bounded
    // by the reachable unions. Record the switch so later passes (and the
    // caller) see which mode actually ran.
    o.compress = true;
    o.barrier_mode = core::BarrierMode::TrackOccupancy;
    st.options.compress = true;
    st.options.barrier_mode = core::BarrierMode::TrackOccupancy;
    st.conversion = core::meta_state_convert(st.graph, st.cost, o);
  }
  const core::ConvertStats& s = st.conversion->stats;
  counters = {{"reach_calls", static_cast<std::int64_t>(s.reach_calls)},
              {"restarts", s.restarts},
              {"splits_performed", s.splits_performed},
              {"cache_hits", static_cast<std::int64_t>(s.cache_hits)},
              {"cache_misses", static_cast<std::int64_t>(s.cache_misses)},
              {"cache_invalidated",
               static_cast<std::int64_t>(s.cache_invalidated)}};
}

std::vector<Pass> builtin_passes() {
  std::vector<Pass> v;
  v.push_back(
      {"simplify",
       "fold trivial branches, bypass empty blocks, merge chains, drop "
       "unreachable MIMD states (§2.1/§4.2)",
       Stage::IR, /*default_on=*/true,
       [](PipelineState& st, Counters& c) {
         const std::int64_t before = static_cast<std::int64_t>(st.graph.size());
         ir::simplify(st.graph);
         c.emplace_back("blocks_removed",
                        before - static_cast<std::int64_t>(st.graph.size()));
       }});
  v.push_back({"peephole",
               "local strength reduction on block bodies (constant folding, "
               "dead values, pop fusion)",
               Stage::IR, /*default_on=*/true,
               [](PipelineState& st, Counters& c) {
                 c.emplace_back(
                     "instrs_removed",
                     static_cast<std::int64_t>(ir::peephole(st.graph)));
               }});
  v.push_back({"compress",
               "§2.5 meta-state compression: assume both successors of every "
               "two-exit state are taken",
               Stage::Config, /*default_on=*/false,
               [](PipelineState& st, Counters&) {
                 st.options.compress = true;
               }});
  v.push_back({"time-split",
               "§2.4 MIMD-state time splitting: split cost-imbalanced members "
               "and restart conversion",
               Stage::Config, /*default_on=*/false,
               [](PipelineState& st, Counters&) {
                 st.options.time_split = true;
               }});
  v.push_back({"convert",
               "§2.3 meta-state conversion: enumerate reachable aggregates "
               "into the automaton",
               Stage::Convert, /*default_on=*/true, run_convert});
  v.push_back({"subsume",
               "Fig. 5 reduction: merge compressed meta states into their "
               "strict supersets (no-op on base-mode automata)",
               Stage::Automaton, /*default_on=*/true,
               [](PipelineState& st, Counters& c) {
                 core::ConvertResult& conv = conversion_of(st, "subsume");
                 std::int64_t merged = 0;
                 if (conv.automaton.compressed) {
                   const Clock::time_point t0 = Clock::now();
                   merged = static_cast<std::int64_t>(
                       core::subsume_automaton(conv.automaton));
                   conv.stats.subsume_seconds += since(t0);
                   refresh_counts(conv);
                 }
                 c.emplace_back("states_merged", merged);
               }});
  v.push_back({"dme",
               "dead-meta-state and duplicate-arc elimination (cleanup for "
               "custom pass orders)",
               Stage::Automaton, /*default_on=*/false,
               [](PipelineState& st, Counters& c) {
                 core::ConvertResult& conv = conversion_of(st, "dme");
                 const core::DmeResult r =
                     core::eliminate_dead_states(conv.automaton);
                 refresh_counts(conv);
                 c.emplace_back("states_removed",
                                static_cast<std::int64_t>(r.states_removed));
                 c.emplace_back("arcs_removed",
                                static_cast<std::int64_t>(r.arcs_removed));
               }});
  v.push_back({"straighten",
               "§4.2 layout: order single-successor chains consecutively so "
               "codegen emits fall-throughs",
               Stage::Automaton, /*default_on=*/true,
               [](PipelineState& st, Counters& c) {
                 core::ConvertResult& conv = conversion_of(st, "straighten");
                 const Clock::time_point t0 = Clock::now();
                 const std::size_t pairs = core::straighten(conv.automaton);
                 conv.stats.straighten_seconds += since(t0);
                 c.emplace_back("fallthrough_pairs",
                                static_cast<std::int64_t>(pairs));
               }});
  v.push_back({"codegen",
               "guarded SIMD coding of the automaton (§3.1 CSI + §3.2 "
               "transition logic)",
               Stage::Codegen, /*default_on=*/false,
               [](PipelineState& st, Counters& c) {
                 core::ConvertResult& conv = conversion_of(st, "codegen");
                 st.prog = codegen::generate(conv.automaton, conv.graph,
                                             st.cost, st.cgopts);
                 std::int64_t sops = 0;
                 for (const auto& ms : st.prog->states)
                   sops += static_cast<std::int64_t>(ms.code.size());
                 c.emplace_back("sops", sops);
               }});
  return v;
}

std::vector<Pass>& mutable_registry() {
  static std::vector<Pass> passes = builtin_passes();
  return passes;
}

}  // namespace

const char* to_string(Stage stage) {
  switch (stage) {
    case Stage::IR: return "ir";
    case Stage::Config: return "config";
    case Stage::Convert: return "convert";
    case Stage::Automaton: return "automaton";
    case Stage::Codegen: return "codegen";
  }
  return "unknown";
}

const std::vector<Pass>& registered_passes() { return mutable_registry(); }

bool register_pass(Pass pass) {
  if (!pass.run || pass.name.empty()) return false;
  for (const Pass& p : mutable_registry())
    if (p.name == pass.name) return false;
  mutable_registry().push_back(std::move(pass));
  return true;
}

const Pass* find_pass(const std::string& name) {
  for (const Pass& p : registered_passes())
    if (p.name == name) return &p;
  return nullptr;
}

std::vector<std::string> default_pipeline() {
  std::vector<std::string> names;
  for (const Pass& p : registered_passes())
    if (p.default_on) names.push_back(p.name);
  return names;
}

}  // namespace msc::pass
