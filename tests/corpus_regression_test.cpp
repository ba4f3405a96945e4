// Replays every checked-in reproducer under tests/corpus/ across the full
// differential option matrix (compress × subsume × barrier_mode ×
// time_split × engine): known-tricky shapes keep matching the
// MIMD oracle bit-for-bit, and bugs mscfuzz has found stay fixed — a
// finding manifest that evaluates clean here proves the defect it once
// witnessed no longer exists.
#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "msc/driver/pipeline.hpp"
#include "msc/driver/runner.hpp"
#include "msc/fuzz/fuzz.hpp"
#include "msc/fuzz/manifest.hpp"

using namespace msc;
namespace fs = std::filesystem;

namespace {

std::vector<std::string> manifest_paths() {
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(MSC_CORPUS_DIR))
    if (entry.path().extension() == ".json")
      paths.push_back(entry.path().string());
  std::sort(paths.begin(), paths.end());
  return paths;
}

std::string param_name(const testing::TestParamInfo<std::string>& info) {
  std::string stem = fs::path(info.param).stem().string();
  for (char& c : stem)
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  return stem;
}

TEST(Corpus, HasTheSeededEntries) {
  EXPECT_GE(manifest_paths().size(), 8u)
      << "tests/corpus/ lost its seeded reproducers";
  // Every source file must be claimed by exactly one manifest.
  for (const auto& entry : fs::directory_iterator(MSC_CORPUS_DIR)) {
    if (entry.path().extension() != ".mimdc") continue;
    fs::path manifest = entry.path();
    manifest.replace_extension(".json");
    EXPECT_TRUE(fs::exists(manifest))
        << entry.path().filename() << " has no manifest";
  }
}

class CorpusTest : public testing::TestWithParam<std::string> {};

TEST_P(CorpusTest, ReplaysCleanAcrossTheMatrix) {
  std::string source;
  fuzz::Manifest m;
  ASSERT_NO_THROW(m = fuzz::load_manifest(GetParam(), &source)) << GetParam();
  SCOPED_TRACE(source);

  // The manifest's expectation about the oracle itself.
  driver::Compiled compiled;
  ASSERT_NO_THROW(compiled = driver::compile(source));
  const fuzz::EvalConfig cfg = m.eval_config();
  mimd::RunConfig rc;
  rc.nprocs = cfg.nprocs;
  rc.initial_active = cfg.initial_active;
  rc.reuse_halted_pes = cfg.reuse_halted_pes;
  if (m.expect == "fault") {
    EXPECT_THROW(driver::run_oracle(compiled, rc, cfg.input_seed),
                 ir::MachineFault);
  } else {
    EXPECT_NO_THROW(driver::run_oracle(compiled, rc, cfg.input_seed));
  }

  // The whole matrix must agree with the oracle (including agreeing on the
  // fault, for expect == "fault" entries — evaluate() checks both sides).
  fuzz::EvalResult ev =
      fuzz::evaluate(source, cfg, fuzz::default_matrix());
  ASSERT_FALSE(ev.skipped) << "oracle could not run " << m.source_file;
  if (ev.finding)
    FAIL() << to_string(ev.finding->kind) << " in "
           << ev.finding->spec.label() << "\n"
           << ev.finding->detail;
}

INSTANTIATE_TEST_SUITE_P(Manifests, CorpusTest,
                         testing::ValuesIn(manifest_paths()), param_name);

}  // namespace
