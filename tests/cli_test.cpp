// Integration test for the mscc command-line driver: invokes the built
// binary (path injected by CMake) and checks output/exit codes.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

namespace {

struct CliResult {
  int exit_code;
  std::string output;
};

CliResult run_cli(const std::string& args) {
  std::string cmd = std::string(MSCC_BINARY) + " " + args + " 2>&1";
  std::array<char, 4096> buf{};
  CliResult res;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (!pipe) {
    res.exit_code = -1;
    return res;
  }
  std::size_t n;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0)
    res.output.append(buf.data(), n);
  int status = pclose(pipe);
  res.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return res;
}

}  // namespace

TEST(Cli, EmitMetaForKernel) {
  auto r = run_cli("--kernel listing1 --emit meta");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("meta-state automaton: 8 states"), std::string::npos)
      << r.output;
}

TEST(Cli, CompressedEmitsTwoStates) {
  auto r = run_cli("--kernel listing1 --compress --emit meta");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("2 states"), std::string::npos) << r.output;
}

TEST(Cli, EmitMplLooksLikeListing5) {
  auto r = run_cli("--kernel listing4 --emit mpl");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("apc = globalor(pc);"), std::string::npos);
  EXPECT_NE(r.output.find("ms_0:"), std::string::npos);
}

TEST(Cli, EmitDotIsWellFormed) {
  auto r = run_cli("--kernel listing3 --prune --emit dot");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("digraph meta {"), std::string::npos);
  auto g = run_cli("--kernel listing3 --emit dot-mimd");
  EXPECT_NE(g.output.find("digraph mimd {"), std::string::npos);
}

TEST(Cli, RunReportsMatchAndStats) {
  auto r = run_cli("--kernel listing1 --run --nprocs 4 --seed 9 --emit meta");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("match : yes"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("utilization="), std::string::npos);
}

TEST(Cli, CompilesFromFile) {
  std::string path = std::string(MSCC_TMPDIR) + "/cli_test_prog.mimdc";
  {
    std::ofstream out(path);
    out << "int main() { return 7 * 6; }\n";
  }
  auto r = run_cli(path + " --run --nprocs 2 --emit mimd");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("match : yes"), std::string::npos);
  EXPECT_NE(r.output.find("results: 42 42"), std::string::npos) << r.output;
}

TEST(Cli, ReportsCompileErrorsWithCaretAndExit3) {
  std::string path = std::string(MSCC_TMPDIR) + "/cli_test_bad.mimdc";
  {
    std::ofstream out(path);
    out << "int main() { return zz; }\n";
  }
  auto r = run_cli(path);
  EXPECT_EQ(r.exit_code, 3) << r.output;
  // file:line:col: error: message, the source line, a caret under col 21.
  EXPECT_NE(r.output.find(path + ":1:21: error:"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("undeclared"), std::string::npos);
  EXPECT_NE(r.output.find("  int main() { return zz; }"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\n                      ^"), std::string::npos)
      << r.output;
}

TEST(Cli, UsageOnBadArguments) {
  EXPECT_EQ(run_cli("--emit bogus --kernel listing1").exit_code, 2);
  EXPECT_EQ(run_cli("").exit_code, 2);
  EXPECT_EQ(run_cli("--no-such-flag").exit_code, 2);
}

TEST(Cli, AdaptiveFallsBackOnExplosion) {
  auto r = run_cli("--kernel listing1 --adaptive --emit meta");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("8 states"), std::string::npos);
}

TEST(Cli, ProfileEmit) {
  auto r = run_cli("--kernel listing1 --emit profile");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("automaton profile:"), std::string::npos);
  EXPECT_NE(r.output.find("width histogram"), std::string::npos);
}

TEST(Cli, ModuleEmitIsParseable) {
  auto r = run_cli("--kernel listing1 --emit module");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("mscmod 3"), std::string::npos);
  EXPECT_NE(r.output.find("\nstats "), std::string::npos);
  EXPECT_NE(r.output.find("\nend\n"), std::string::npos);
}

TEST(Cli, ThreadsFlagIsUnknown) {
  // Conversion is serial; the retired --threads flag is a usage error.
  auto r = run_cli("--kernel oddeven_sort --threads 4 --emit meta");
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

TEST(Cli, TraceConvertWritesJson) {
  std::string path = std::string(MSCC_TMPDIR) + "/cli_trace.json";
  auto r = run_cli("--kernel listing1 --split --trace-convert " + path +
                   " --emit meta");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string json((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"cache\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"restarts\""), std::string::npos);
  EXPECT_NE(json.find("\"phase_seconds\""), std::string::npos);
}

TEST(Cli, TraceSimdWritesJsonForAllEngines) {
  for (const char* engine : {"codegen", "reference"}) {
    std::string path =
        std::string(MSCC_TMPDIR) + "/cli_simd_trace_" + engine + ".json";
    auto r = run_cli("--kernel listing1 --emit meta --simd-engine " +
                     std::string(engine) + " --trace-simd " + path);
    EXPECT_EQ(r.exit_code, 0) << r.output;
    // --trace-simd implies --run: the summary must name the engine.
    EXPECT_NE(r.output.find("engine=" + std::string(engine)),
              std::string::npos)
        << r.output;
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::string json((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(json.find("\"engine\": \"" + std::string(engine) + "\""),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"utilization\""), std::string::npos);
    EXPECT_NE(json.find("\"visits\""), std::string::npos);
  }
}

TEST(Cli, CodegenEngineRunsAndReportsTranslationCache) {
  auto r = run_cli("--kernel listing1 --run --nprocs 4 --seed 9 "
                   "--simd-engine codegen --emit meta");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("match : yes"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("engine=codegen"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("trans-cache: hits="), std::string::npos) << r.output;
}

TEST(Cli, PruneUnsoundCombinationsExitWithCode3) {
  // Satellite of the PaperPrune soundness promotion: the CLI surfaces all
  // three rejected corners as ordinary compile errors (exit 3), with a
  // caret when the construct has a source location.
  std::string spawny = std::string(MSCC_TMPDIR) + "/cli_prune_spawn.mimdc";
  {
    std::ofstream out(spawny);
    out << "int main() {\n  spawn { return 2; }\n  wait;\n  return 1;\n}\n";
  }
  auto s = run_cli(spawny + " --prune --emit meta");
  EXPECT_EQ(s.exit_code, 3) << s.output;
  EXPECT_NE(s.output.find("error:"), std::string::npos) << s.output;
  EXPECT_NE(s.output.find("barrier mode 'prune'"), std::string::npos)
      << s.output;
  EXPECT_NE(s.output.find("^"), std::string::npos) << s.output;

  std::string twob = std::string(MSCC_TMPDIR) + "/cli_prune_twob.mimdc";
  {
    std::ofstream out(twob);
    out << "poly int x;\nint main() {\n  poly int r;\n"
           "  if (x & 1) { r = 1; wait; } else { r = 2; wait; }\n"
           "  return r + x;\n}\n";
  }
  auto t = run_cli(twob + " --prune --emit meta");
  EXPECT_EQ(t.exit_code, 3) << t.output;
  EXPECT_NE(t.output.find("barrier mode 'prune'"), std::string::npos)
      << t.output;

  auto c = run_cli("--kernel listing3 --prune --compress --emit meta");
  EXPECT_EQ(c.exit_code, 3) << c.output;
  EXPECT_NE(c.output.find("compression"), std::string::npos) << c.output;

  // The sound corner still works: one static barrier, no compression.
  auto ok = run_cli("--kernel listing3 --prune --emit meta");
  EXPECT_EQ(ok.exit_code, 0) << ok.output;
}

TEST(Cli, BadSimdEngineIsUsageError) {
  auto r = run_cli("--kernel listing1 --simd-engine warp");
  EXPECT_NE(r.exit_code, 0);
  // The retired occupancy interpreter has no alias.
  auto fast = run_cli("--kernel listing1 --simd-engine fast");
  EXPECT_EQ(fast.exit_code, 2) << fast.output;
  EXPECT_NE(fast.output.find("expected codegen|reference"), std::string::npos)
      << fast.output;
}

TEST(Cli, PrintPipelineListsEveryRegisteredPass) {
  auto r = run_cli("--print-pipeline");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find(
                "pipeline: simplify -> peephole -> convert -> subsume -> "
                "straighten"),
            std::string::npos)
      << r.output;
  for (const char* pass : {"simplify", "peephole", "compress", "time-split",
                           "convert", "subsume", "dme", "straighten", "codegen"})
    EXPECT_NE(r.output.find(pass), std::string::npos) << pass;

  // Stage flags and --disable-pass reshape the printed pipeline.
  auto c = run_cli("--print-pipeline --compress --split --disable-pass subsume");
  EXPECT_NE(c.output.find("pipeline: simplify -> peephole -> compress -> "
                          "time-split -> convert -> straighten"),
            std::string::npos)
      << c.output;
}

TEST(Cli, DisablePassChangesEmittedAutomaton) {
  auto with = run_cli("--kernel listing4 --compress --emit meta");
  auto without =
      run_cli("--kernel listing4 --compress --disable-pass subsume --emit meta");
  EXPECT_EQ(with.exit_code, 0);
  EXPECT_EQ(without.exit_code, 0);
  EXPECT_NE(with.output, without.output)
      << "disabling subsume should keep subset meta states";
}

TEST(Cli, PassPipelineSelectsExactPasses) {
  // Same passes as the default, spelled explicitly: identical output.
  auto dflt = run_cli("--kernel listing1 --emit meta");
  auto expl = run_cli(
      "--kernel listing1 "
      "--pass-pipeline simplify,peephole,convert,subsume,straighten "
      "--emit meta");
  EXPECT_EQ(expl.exit_code, 0) << expl.output;
  EXPECT_EQ(dflt.output, expl.output);

  // Unknown names and invariant-violating orders are usage errors (2).
  auto unknown = run_cli("--kernel listing1 --pass-pipeline convert,frobnicate");
  EXPECT_EQ(unknown.exit_code, 2);
  EXPECT_NE(unknown.output.find("unknown pass 'frobnicate'"), std::string::npos)
      << unknown.output;
  auto disorder = run_cli("--kernel listing1 --pass-pipeline straighten,convert");
  EXPECT_EQ(disorder.exit_code, 2);
  EXPECT_NE(disorder.output.find("before any convert pass"), std::string::npos)
      << disorder.output;
}

TEST(Cli, PassTimingsWritesSchemaJson) {
  std::string path = std::string(MSCC_TMPDIR) + "/cli_pass_timings.json";
  auto r = run_cli("--kernel listing1 --compress --verify-each --pass-timings " +
                   path + " --emit meta");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string json((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"schema\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"pipeline\": [\"simplify\", \"peephole\", "
                      "\"compress\", \"convert\", \"subsume\", "
                      "\"straighten\"]"),
            std::string::npos)
      << json;
  for (const char* key : {"\"passes\"", "\"seconds\"", "\"before\"", "\"after\"",
                          "\"meta_states\"", "\"counters\"", "\"total_seconds\"",
                          "\"convert\""})
    EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
}

TEST(Cli, ExplosionExitsWithCode4) {
  auto r = run_cli("--kernel oddeven_sort --max-meta-states 3 --emit meta");
  EXPECT_EQ(r.exit_code, 4) << r.output;
  EXPECT_NE(r.output.find("state explosion"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("--adaptive"), std::string::npos) << r.output;
}

TEST(Cli, MachineFaultExitsWithCode5) {
  std::string path = std::string(MSCC_TMPDIR) + "/cli_test_fault.mimdc";
  {
    std::ofstream out(path);
    // Spawn exhaustion: every PE is busy, so spawn faults at runtime on
    // both machines (the oracle faults first).
    out << "int main() { spawn { halt; } return 1; }\n";
  }
  auto r = run_cli(path + " --run --nprocs 2 --active 2 --emit meta");
  EXPECT_EQ(r.exit_code, 5) << r.output;
  EXPECT_NE(r.output.find("machine fault"), std::string::npos) << r.output;
}

TEST(Cli, VerifyEachPassesOnDefaultPipeline) {
  // listing3 terminates under the default run config (listing4's MIMD
  // oracle exhausts the block budget regardless of PE count).
  auto r = run_cli("--kernel listing3 --split --verify-each --run --emit meta");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("match : yes"), std::string::npos) << r.output;
}

TEST(Cli, HelpDocumentsObservabilityFlagsAndExitCodes) {
  auto r = run_cli("--help");
  EXPECT_EQ(r.exit_code, 2);
  for (const char* text :
       {"--profile-simd", "--trace-chrome", "--metrics", "--trace-simd",
        "--trace-convert", "--pass-timings", "mscprof",
        "exit codes: 0 ok, 1 I/O or internal error, 2 usage/pipeline error",
        "3 compile error, 4 state explosion, 5 machine fault"})
    EXPECT_NE(r.output.find(text), std::string::npos) << text;
}

TEST(Cli, ProfileSimdWritesPerStateProfiles) {
  std::string path = std::string(MSCC_TMPDIR) + "/cli_profile_simd.json";
  // --profile-simd implies --run.
  auto r = run_cli("--kernel listing1 --emit meta --nprocs 4 --profile-simd " +
                   path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("match : yes"), std::string::npos) << r.output;
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::string json((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  for (const char* key : {"\"profile\"", "\"enabled_hist\"", "\"visits\"",
                          "\"router_ops\"", "\"utilization\""})
    EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
}

TEST(Cli, TraceChromeWritesTraceEventsForPassesAndRun) {
  std::string path = std::string(MSCC_TMPDIR) + "/cli_chrome.json";
  auto r = run_cli("--kernel listing1 --emit meta --run --nprocs 4 "
                   "--trace-chrome " + path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::string json((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Toolchain spans (pid 1): one per pass.
  EXPECT_NE(json.find("\"name\": \"convert\", \"cat\": \"pass\""),
            std::string::npos)
      << json;
  // Simulated-cycle meta-state events (pid 2) with their stat deltas.
  EXPECT_NE(json.find("\"cat\": \"meta-state\""), std::string::npos);
  EXPECT_NE(json.find("\"enabled_pes\""), std::string::npos);
  // Without --run there must be no pid-2 events, but the file still writes.
  std::string path2 = std::string(MSCC_TMPDIR) + "/cli_chrome_norun.json";
  auto r2 = run_cli("--kernel listing1 --emit meta --trace-chrome " + path2);
  EXPECT_EQ(r2.exit_code, 0) << r2.output;
  std::ifstream in2(path2);
  ASSERT_TRUE(in2.good());
  std::string json2((std::istreambuf_iterator<char>(in2)),
                    std::istreambuf_iterator<char>());
  EXPECT_EQ(json2.find("\"cat\": \"meta-state\""), std::string::npos);
  EXPECT_NE(json2.find("\"cat\": \"pass\""), std::string::npos);
}

TEST(Cli, MetricsWritesGlobalRegistry) {
  std::string path = std::string(MSCC_TMPDIR) + "/cli_metrics.json";
  auto r = run_cli("--kernel listing1 --emit meta --run --nprocs 4 "
                   "--metrics " + path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::string json((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  for (const char* key :
       {"\"schema\": 1", "\"counters\"", "\"histograms\"", "\"convert.runs\"",
        "\"simd.runs\"", "\"pass.runs\"", "\"simd.utilization_pct\""})
    EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
}

TEST(Cli, FlagEqualsValueFormAccepted) {
  auto r = run_cli("--kernel=listing1 --emit=meta --max-meta-states=1000");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("meta-state automaton"), std::string::npos);
}
