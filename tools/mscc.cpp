// mscc — the meta-state converter driver, a command-line equivalent of the
// paper's prototype (§4): MIMDC in, meta-state automaton / MPL-style SIMD
// code / DOT graphs out, with optional execution on the simulated machines.
//
// The toolchain is a named pass pipeline (DESIGN.md §9): --print-pipeline
// shows it, --pass-pipeline / --disable-pass reshape it, --pass-timings
// exports per-pass telemetry, --verify-each checks invariants at every
// pass boundary.
//
// Usage:
//   mscc [options] file.mimdc
//   mscc [options] --kernel listing1
//
// Exit codes (one per failing stage, so scripts can tell them apart):
//   0  success
//   1  I/O or internal error
//   2  bad usage or pipeline-construction error (unknown pass, bad order)
//   3  compile error in the MIMDC input
//   4  meta-state explosion (conversion exceeded --max-meta-states)
//   5  machine fault while executing (--run)
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "msc/codegen/program.hpp"
#include "msc/codegen/translate.hpp"
#include "msc/core/profile.hpp"
#include "msc/core/serialize.hpp"
#include "msc/driver/pipeline.hpp"
#include "msc/driver/runner.hpp"
#include "msc/ir/exec.hpp"
#include "msc/pass/pass.hpp"
#include "msc/kernels/verified.hpp"
#include "msc/simd/coschedule.hpp"
#include "msc/simd/machine.hpp"
#include "msc/support/metrics.hpp"
#include "msc/support/simd_isa.hpp"
#include "msc/support/str.hpp"
#include "msc/support/trace.hpp"
#include "msc/workload/kernels.hpp"

using namespace msc;

namespace {

enum ExitCode {
  kOk = 0,
  kInternal = 1,
  kUsage = 2,
  kCompile = 3,
  kExplosion = 4,
  kFault = 5,
};

int usage() {
  std::fprintf(
      stderr,
      "usage: mscc [options] (file.mimdc | --kernel <name> | --coschedule L)\n"
      "\n"
      "conversion stages (shorthands for pipeline edits):\n"
      "  --compress          §2.5 meta-state compression\n"
      "  --adaptive          base conversion, compress only on state explosion\n"
      "  --no-subsume        keep subset meta states when compressing\n"
      "  --prune             §2.6 barrier handling exactly as in the paper\n"
      "                      (compile error with spawn, more than one barrier\n"
      "                      state, or --compress — those corners are unsound)\n"
      "  --split             §2.4 MIMD-state time splitting\n"
      "\n"
      "pass pipeline:\n"
      "  --print-pipeline    print the resolved pipeline and the full pass\n"
      "                      registry, then exit\n"
      "  --pass-pipeline L   run exactly the comma-separated pass list L\n"
      "                      (overrides the stage shorthands above)\n"
      "  --disable-pass P    drop pass P from the pipeline (repeatable)\n"
      "  --verify-each       run the structural invariant checkers after\n"
      "                      every pass; a failure names the offending pass\n"
      "  --pass-timings F    write per-pass telemetry JSON (wall time,\n"
      "                      state/arc counts, counters; DESIGN.md §9) to\n"
      "                      F; '-' writes to stdout\n"
      "\n"
      "conversion engine:\n"
      "  --no-cache          disable the successor-set memo cache (it\n"
      "                      otherwise survives --split restarts)\n"
      "  --max-meta-states N abort conversion (exit 4) past N meta states\n"
      "  --trace-convert F   write conversion stats JSON (cache hits/misses,\n"
      "                      restarts, per-phase wall time) to F; '-' = stdout\n"
      "\n"
      "output and execution:\n"
      "  --no-csi            serialize meta-state bodies instead of CSI (§3.1)\n"
      "  --emit K            mpl|meta|mimd|dot|dot-mimd|profile|module\n"
      "                      (default meta)\n"
      "  --run               also execute on SIMD machine + MIMD oracle\n"
      "  --trace             like --run, plus a per-meta-state occupancy trace\n"
      "  --simd-engine E     codegen = occupancy-indexed, translation-cached\n"
      "                      engine (default), reference = the scalar\n"
      "                      oracle; results and stats are bit-identical\n"
      "  --simd-isa I        auto = best host ISA (default), scalar = force\n"
      "                      the portable path, avx2|neon = require that\n"
      "                      ISA (error if the host lacks it); results and\n"
      "                      stats are bit-identical in every case\n"
      "  --trace-simd F      implies --run; write SIMD execution stats JSON\n"
      "                      (engine, cycle counters, utilization, router\n"
      "                      ops, per-meta-state visits) to F; '-' = stdout\n"
      "  --nprocs N          PEs (default 8)\n"
      "  --active N          initially active PEs (default all)\n"
      "  --seed S            per-PE input seed (default 1)\n"
      "\n"
      "kernels and co-scheduling (DESIGN.md §12):\n"
      "  --kernel K          use a built-in workload kernel, or a verified\n"
      "                      kernel 'name[@n]' (reduce, scan, oddeven,\n"
      "                      stencil, bfs, workqueue; default n = 8) — the\n"
      "                      latter preset --nprocs/--active to the kernel's\n"
      "                      geometry and, with --run, check the results\n"
      "                      against the host-side ground truth\n"
      "  --coschedule L      MASIM-style time-multiplexing: convert each\n"
      "                      verified kernel in the comma list L (e.g.\n"
      "                      'reduce@65,workqueue@64') and co-schedule the\n"
      "                      automata on one simulated machine; prints per-\n"
      "                      program attribution + machine utilization and\n"
      "                      checks every program against ground truth\n"
      "  --cosched-policy P  sequential | rr | greedy (default rr)\n"
      "  --cosched-quantum N meta-state steps per scheduling turn (default 1)\n"
      "                      (--seed also shuffles the program order;\n"
      "                      --profile-simd writes the co-scheduled profile\n"
      "                      JSON with per-program sections for mscprof)\n"
      "\n"
      "observability (DESIGN.md §10; read the outputs with mscprof):\n"
      "  --profile-simd F    implies --run; write per-meta-state utilization\n"
      "                      profiles (visits, enabled-PE min/mean/max and\n"
      "                      histogram, cycle/global-or/router shares) as\n"
      "                      JSON to F; '-' = stdout\n"
      "  --trace-chrome F    write a Chrome trace-event JSON file to F\n"
      "                      ('-' = stdout): wall-clock spans for every pass\n"
      "                      and conversion phase (pid 1) plus, with --run,\n"
      "                      one event per executed meta state on the\n"
      "                      simulated-cycle timeline (pid 2); load in\n"
      "                      Perfetto / chrome://tracing\n"
      "  --metrics F         write the process-global metrics registry\n"
      "                      (counters, gauges, histograms from conversion,\n"
      "                      passes, and the SIMD machines) as JSON to F;\n"
      "                      '-' = stdout\n"
      "\n"
      "exit codes: 0 ok, 1 I/O or internal error, 2 usage/pipeline error,\n"
      "            3 compile error, 4 state explosion, 5 machine fault\n");
  return kUsage;
}

/// file:line:col: error: message, plus the offending source line with a
/// caret under the column — the same rendering for every stage that can
/// point at source.
void render_compile_error(const std::string& file, const std::string& source,
                          const CompileError& e) {
  const SourceLoc loc = e.loc();
  std::string message = e.what();
  // CompileError::what() is pre-formatted as "line:col: message"; strip
  // the prefix so the location appears exactly once.
  const std::string prefix = cat(loc.line, ":", loc.col, ": ");
  if (starts_with(message, prefix)) message = message.substr(prefix.size());
  if (loc.valid())
    std::fprintf(stderr, "%s:%u:%u: error: %s\n", file.c_str(), loc.line,
                 loc.col, message.c_str());
  else
    std::fprintf(stderr, "%s: error: %s\n", file.c_str(), message.c_str());

  if (!loc.valid()) return;
  const std::vector<std::string> lines = split(source, '\n');
  if (loc.line > lines.size()) return;
  const std::string& text = lines[loc.line - 1];
  std::fprintf(stderr, "  %s\n", text.c_str());
  std::string caret;
  for (std::uint32_t c = 1; c < loc.col && c <= text.size(); ++c)
    caret += text[c - 1] == '\t' ? '\t' : ' ';
  std::fprintf(stderr, "  %s^\n", caret.c_str());
}

int print_pipeline(const driver::PipelineOptions& popts) {
  pass::ManagerOptions mo;
  mo.pipeline = driver::resolve_pipeline(popts);
  mo.disabled = popts.disabled;
  pass::PassManager pm(std::move(mo));
  std::printf("pipeline: %s\n\n", join(pm.names(), " -> ").c_str());
  std::printf("registered passes:\n");
  std::printf("  %-12s %-10s %-8s %s\n", "name", "stage", "default",
              "description");
  for (const pass::Pass& p : pass::registered_passes())
    std::printf("  %-12s %-10s %-8s %s\n", p.name.c_str(),
                pass::to_string(p.stage), p.default_on ? "on" : "off",
                p.description.c_str());
  return kOk;
}

/// --coschedule: convert each verified kernel in `specs`, load all the
/// automata onto one simulated machine and time-multiplex them. Prints
/// per-program attribution plus machine-level utilization, checks every
/// program against its host-side ground truth, and (with --profile-simd /
/// --trace-simd) writes the co-scheduled profile document.
int run_coschedule(const std::vector<std::string>& specs,
                   driver::PipelineOptions popts, const mimd::RunConfig& base,
                   std::uint64_t seed, const simd::CoOptions& co,
                   const std::string& profile_path,
                   const std::string& trace_path, std::string& input_name,
                   std::string& source) {
  ir::CostModel cost;
  if (popts.pipeline.empty()) popts.pipeline = driver::resolve_pipeline(popts);
  if (std::find(popts.pipeline.begin(), popts.pipeline.end(), "codegen") ==
      popts.pipeline.end())
    popts.pipeline.push_back("codegen");

  // Converted holds the SimdProgram the machines reference; keep each at a
  // stable address for the machines' lifetime.
  std::vector<std::unique_ptr<driver::Converted>> converted;
  std::vector<kernels::VerifiedCase> cases;
  std::vector<mimd::RunConfig> configs;
  simd::CoScheduler cs;
  const bool profiling = !profile_path.empty();
  for (const std::string& spec : specs) {
    kernels::VerifiedParams params;
    params.input_seed = seed;
    kernels::VerifiedCase c = kernels::parse_case(spec, params);
    input_name = cat("<kernel:", spec, ">");
    source = c.source;
    auto conv = std::make_unique<driver::Converted>(
        driver::convert(c.source, cost, popts));
    mimd::RunConfig config = base;
    config.nprocs = c.config.nprocs;
    config.initial_active = c.config.initial_active;
    config.reuse_halted_pes = c.config.reuse_halted_pes;
    config.max_blocks = c.max_blocks;
    auto machine = simd::make_machine(*conv->prog, cost, config);
    driver::seed_machine(*machine, conv->compiled, config, seed);
    if (profiling) machine->enable_profiling();
    cs.add_program(spec, std::move(machine));
    converted.push_back(std::move(conv));
    cases.push_back(std::move(c));
    configs.push_back(config);
  }

  const simd::CoResult r = cs.run(co);

  std::printf("co-schedule: policy=%s seed=%llu quantum=%lld engine=%s "
              "programs=%zu machine-pes=%lld\n\n",
              simd::copolicy_name(r.policy),
              static_cast<unsigned long long>(r.seed),
              static_cast<long long>(r.quantum),
              simd::engine_name(base.engine), r.programs.size(),
              static_cast<long long>(r.machine_pes));
  std::printf("%-18s %5s %7s %10s %10s %6s %10s %10s  %s\n", "program", "pes",
              "steps", "cycles", "busy", "util%", "done@", "idle-pe",
              "ground-truth");
  int rc = kOk;
  for (std::size_t i = 0; i < r.programs.size(); ++i) {
    const simd::CoProgramResult& p = r.programs[i];
    const driver::Observed obs = driver::observe_simd(
        cs.machine(i), converted[i]->compiled, configs[i]);
    const std::string verdict = kernels::check(cases[i], obs);
    if (!verdict.empty()) {
      rc = kInternal;
      std::fprintf(stderr, "mscc: ground-truth mismatch: %s\n",
                   verdict.c_str());
    }
    std::printf("%-18s %5lld %7lld %10lld %10lld %6.1f %10lld %10lld  %s\n",
                p.name.c_str(), static_cast<long long>(p.pes),
                static_cast<long long>(p.steps),
                static_cast<long long>(p.stats.control_cycles),
                static_cast<long long>(p.stats.busy_pe_cycles),
                100.0 * p.utilization(),
                static_cast<long long>(p.completion_cycle),
                static_cast<long long>(p.idle_pe_cycles),
                verdict.empty() ? "ok" : "FAIL");
  }
  std::printf("\nmachine: elapsed=%lld busy=%lld held=%lld idle=%lld "
              "utilization=%.1f%%\n",
              static_cast<long long>(r.elapsed_control_cycles),
              static_cast<long long>(r.machine.busy_pe_cycles),
              static_cast<long long>(r.held_pe_cycles),
              static_cast<long long>(r.idle_pe_cycles),
              100.0 * r.machine_utilization());

  if (!profile_path.empty())
    driver::write_json_file(simd::to_json(r), "co-scheduled profile",
                            profile_path);
  if (!trace_path.empty())
    driver::write_json_file(simd::to_json(r), "co-scheduled trace",
                            trace_path);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  std::string source, input_name = "<stdin>", emit = "meta";
  driver::PipelineOptions popts;
  core::ConvertOptions& copts = popts.convert;
  mimd::RunConfig config;
  config.nprocs = 8;
  bool run = false;
  bool trace = false;
  bool show_pipeline = false;
  std::string trace_simd_path;
  std::string profile_simd_path;
  std::string trace_chrome_path;
  std::string metrics_path;
  std::uint64_t seed = 1;
  std::vector<std::string> cosched_specs;
  simd::CoOptions co;
  std::optional<std::string> verified_spec;
  bool user_nprocs = false;
  bool user_active = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // Accept both "--flag value" and "--flag=value".
    std::string inline_value;
    bool has_inline = false;
    if (starts_with(arg, "--")) {
      const std::size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        inline_value = arg.substr(eq + 1);
        arg = arg.substr(0, eq);
        has_inline = true;
      }
    }
    auto next = [&]() -> std::string {
      if (has_inline) return inline_value;
      if (i + 1 >= argc) std::exit(usage());
      return argv[++i];
    };
    if (arg == "--compress") copts.compress = true;
    else if (arg == "--adaptive") popts.adaptive = true;
    else if (arg == "--no-subsume") copts.subsume = false;
    else if (arg == "--prune") copts.barrier_mode = core::BarrierMode::PaperPrune;
    else if (arg == "--split") copts.time_split = true;
    else if (arg == "--no-cache") copts.memoize = false;
    else if (arg == "--max-meta-states")
      copts.max_meta_states =
          static_cast<std::size_t>(std::atoll(next().c_str()));
    else if (arg == "--trace-convert") popts.trace_convert_path = next();
    else if (arg == "--print-pipeline") show_pipeline = true;
    else if (arg == "--pass-pipeline") {
      popts.pipeline.clear();
      for (const std::string& name : split(next(), ','))
        if (!name.empty()) popts.pipeline.push_back(name);
    }
    else if (arg == "--disable-pass") popts.disabled.push_back(next());
    else if (arg == "--verify-each") popts.verify_each = true;
    else if (arg == "--pass-timings") popts.pass_timings_path = next();
    else if (arg == "--no-csi") popts.codegen.use_csi = false;
    else if (arg == "--emit") emit = next();
    else if (arg == "--run") run = true;
    else if (arg == "--trace") { run = true; trace = true; }
    else if (arg == "--simd-engine") {
      try {
        config.engine = simd::parse_engine(next());
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "mscc: %s\n", e.what());
        return usage();
      }
    }
    else if (arg == "--simd-isa") {
      try {
        config.simd_isa = parse_simd_isa(next());
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "mscc: %s\n", e.what());
        return usage();
      }
    }
    else if (arg == "--trace-simd") { run = true; trace_simd_path = next(); }
    else if (arg == "--profile-simd") { run = true; profile_simd_path = next(); }
    else if (arg == "--trace-chrome") trace_chrome_path = next();
    else if (arg == "--metrics") metrics_path = next();
    else if (arg == "--nprocs") {
      config.nprocs = std::atoll(next().c_str());
      user_nprocs = true;
    }
    else if (arg == "--active") {
      config.initial_active = std::atoll(next().c_str());
      user_active = true;
    }
    else if (arg == "--seed")
      seed = static_cast<std::uint64_t>(std::atoll(next().c_str()));
    else if (arg == "--kernel") {
      const std::string name = next();
      if (kernels::is_verified(name.substr(0, name.find('@')))) {
        verified_spec = name;  // source + geometry resolved after parsing
      } else {
        source = workload::kernel(name).source;
      }
      input_name = cat("<kernel:", name, ">");
    }
    else if (arg == "--coschedule") {
      for (const std::string& spec : split(next(), ','))
        if (!spec.empty()) cosched_specs.push_back(spec);
    }
    else if (arg == "--cosched-policy") {
      try {
        co.policy = simd::parse_copolicy(next());
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "mscc: %s\n", e.what());
        return usage();
      }
    }
    else if (arg == "--cosched-quantum")
      co.quantum = std::atoll(next().c_str());
    else if (arg == "--help" || arg == "-h") return usage();
    else if (!arg.empty() && arg[0] == '-') return usage();
    else {
      std::ifstream in(arg);
      if (!in) {
        std::fprintf(stderr, "mscc: cannot open '%s'\n", arg.c_str());
        return kInternal;
      }
      std::ostringstream ss;
      ss << in.rdbuf();
      source = ss.str();
      input_name = arg;
    }
  }

  if (show_pipeline) {
    try {
      return print_pipeline(popts);
    } catch (const pass::PipelineError& e) {
      std::fprintf(stderr, "mscc: %s\n", e.what());
      return kUsage;
    }
  }
  if (source.empty() && !verified_spec && cosched_specs.empty())
    return usage();

  // Verified kernels resolve after parsing so --seed/--nprocs are known;
  // they preset the machine geometry unless the flags override it, and
  // the block budget (no flag sets it), which the default 4 M is too small
  // for at large n (oddeven@1024 runs ~9 M oracle blocks).
  std::optional<kernels::VerifiedCase> vcase;
  if (verified_spec && cosched_specs.empty()) {
    try {
      kernels::VerifiedParams params;
      params.input_seed = seed;
      if (user_nprocs) params.nprocs = config.nprocs;
      kernels::VerifiedCase c = kernels::parse_case(*verified_spec, params);
      source = c.source;
      if (!user_nprocs) config.nprocs = c.config.nprocs;
      if (!user_active) config.initial_active = c.config.initial_active;
      config.reuse_halted_pes = c.config.reuse_halted_pes;
      config.max_blocks = c.max_blocks;
      vcase = std::move(c);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "mscc: %s\n", e.what());
      return usage();
    }
  }

  const bool need_codegen = emit == "mpl" || run;
  if (need_codegen) {
    if (popts.pipeline.empty()) popts.pipeline = driver::resolve_pipeline(popts);
    popts.pipeline.push_back("codegen");
  }

  // One sink spans the whole invocation: pipeline spans land on pid 1, the
  // SIMD machine's per-meta-state events (with --run) on pid 2.
  std::optional<telemetry::TraceSink> chrome;
  if (!trace_chrome_path.empty()) {
    chrome.emplace();
    chrome->name_process(telemetry::TraceSink::kToolchainPid, "mscc toolchain");
    chrome->name_process(telemetry::TraceSink::kSimdPid, "simd machine");
    popts.trace_sink = &*chrome;
  }

  try {
    if (!cosched_specs.empty()) {
      co.seed = seed;
      return run_coschedule(cosched_specs, popts, config, seed, co,
                            profile_simd_path, trace_simd_path, input_name,
                            source);
    }
    ir::CostModel cost;
    driver::Converted converted = driver::convert(source, cost, popts);
    driver::Compiled& compiled = converted.compiled;
    for (const std::string& msg : compiled.diags.messages())
      std::fprintf(stderr, "%s\n", msg.c_str());
    core::ConvertResult& conv = converted.conversion;
    if (need_codegen && !converted.prog)
      throw pass::PipelineError(
          "--emit mpl / --run need the 'codegen' pass, but the pipeline "
          "omits it");

    if (emit == "mimd") {
      std::printf("%s", conv.graph.dump().c_str());
    } else if (emit == "meta") {
      std::printf("%s", conv.automaton.dump().c_str());
    } else if (emit == "dot") {
      std::printf("%s", conv.automaton.to_dot().c_str());
    } else if (emit == "dot-mimd") {
      std::printf("%s", conv.graph.to_dot().c_str());
    } else if (emit == "profile") {
      std::printf("%s", core::profile(conv.automaton).to_string().c_str());
    } else if (emit == "module") {
      std::printf("%s", core::serialize(
                            core::Module{conv.graph, conv.automaton, conv.stats})
                            .c_str());
    } else if (emit == "mpl") {
      std::printf("%s", codegen::to_mpl(*converted.prog, conv.graph).c_str());
    } else {
      return usage();
    }

    if (run) {
      auto oracle = driver::run_oracle(compiled, config, seed);
      // One machine runs the program built by the pipeline's codegen pass,
      // with whichever observers were asked for attached.
      class Printer final : public simd::SimdTracer {
       public:
        void on_state(core::MetaId id, const DynBitset& occ,
                      std::int64_t alive) override {
          std::printf("%5d  ms%-4u occ=%-18s alive=%lld\n", step_++, id,
                      occ.to_string().c_str(), static_cast<long long>(alive));
        }
        void on_transition(core::MetaId, core::MetaId to,
                           const DynBitset& apc) override {
          if (to == core::kNoMeta)
            std::printf("       exit on apc=%s\n", apc.to_string().c_str());
        }

       private:
        int step_ = 0;
      } printer;
      auto machine = simd::make_machine(*converted.prog, cost, config);
      driver::seed_machine(*machine, compiled, config, seed);
      if (trace) {
        machine->set_tracer(&printer);
        std::printf("\n%5s  %-6s %-22s %s\n", "step", "state", "occupancy",
                    "alive");
      }
      if (!profile_simd_path.empty()) machine->enable_profiling();
      if (chrome) machine->set_trace_sink(&*chrome);
      machine->run();
      if (!trace_simd_path.empty())
        driver::write_simd_trace(*machine, trace_simd_path);
      if (!profile_simd_path.empty())
        driver::write_json_file(simd::to_json(*machine), "simd profile",
                                profile_simd_path);
      const driver::Observed simd =
          driver::observe_simd(*machine, compiled, config);
      const simd::SimdStats& stats = machine->stats();
      std::printf("\noracle: %s\n", oracle.to_string().c_str());
      std::printf("simd  : %s\n", simd.to_string().c_str());
      std::printf("match : %s\n", oracle == simd ? "yes" : "NO");
      if (vcase && !user_active) {
        const std::string verdict = kernels::check(*vcase, simd);
        std::printf("ground-truth: %s\n", verdict.empty() ? "ok" : "FAIL");
        if (!verdict.empty()) {
          std::fprintf(stderr, "mscc: ground-truth mismatch: %s\n",
                       verdict.c_str());
          return kInternal;
        }
      }
      std::printf("engine=%s isa=%s meta states=%zu cycles=%lld "
                  "utilization=%.1f%% global-ors=%lld\n",
                  simd::engine_name(config.engine),
                  simd_isa_name(machine->isa()),
                  conv.automaton.num_states(),
                  static_cast<long long>(stats.control_cycles),
                  100.0 * stats.utilization(),
                  static_cast<long long>(stats.global_ors));
      if (config.engine == mimd::SimdEngine::Codegen) {
        const codegen::TranslationCacheStats tc =
            codegen::translation_cache_stats();
        std::printf("trans-cache: hits=%llu misses=%llu evictions=%llu "
                    "entries=%llu\n",
                    static_cast<unsigned long long>(tc.hits),
                    static_cast<unsigned long long>(tc.misses),
                    static_cast<unsigned long long>(tc.evictions),
                    static_cast<unsigned long long>(tc.entries));
      }
    }
    if (chrome)
      driver::write_json_file(chrome->to_json(), "chrome trace",
                              trace_chrome_path);
    if (!metrics_path.empty())
      driver::write_json_file(telemetry::MetricsRegistry::global().to_json(),
                              "metrics", metrics_path);
  } catch (const CompileError& e) {
    render_compile_error(input_name, source, e);
    return kCompile;
  } catch (const core::ExplosionError& e) {
    std::fprintf(stderr,
                 "mscc: state explosion: %s\n"
                 "mscc: note: retry with --compress or --adaptive, or raise "
                 "--max-meta-states\n",
                 e.what());
    return kExplosion;
  } catch (const ir::MachineFault& e) {
    std::fprintf(stderr, "mscc: machine fault: %s\n", e.what());
    return kFault;
  } catch (const pass::PipelineError& e) {
    std::fprintf(stderr, "mscc: %s\n", e.what());
    return kUsage;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mscc: %s\n", e.what());
    return kInternal;
  }
  return kOk;
}
