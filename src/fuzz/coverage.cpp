// Coverage bookkeeping and the differential option matrix.
#include "msc/fuzz/fuzz.hpp"

#include "msc/simd/machine.hpp"

#include "msc/support/str.hpp"

namespace msc::fuzz {

std::size_t FuzzCoverage::merge() {
  std::size_t novel = 0;
  for (std::uint64_t f : current_)
    if (global_.insert(f).second) ++novel;
  return novel;
}

const char* to_string(FindingKind kind) {
  switch (kind) {
    case FindingKind::Divergence: return "divergence";
    case FindingKind::StatsMismatch: return "stats-mismatch";
    case FindingKind::Crash: return "crash";
    case FindingKind::CompileError: return "compile-error";
    case FindingKind::UnsoundAccept: return "unsound-accept";
  }
  return "unknown";
}

bool RunSpec::has(const std::string& pass) const {
  for (const std::string& name : pipeline)
    if (name == pass) return true;
  return false;
}

std::string RunSpec::convert_key() const {
  return cat(join(pipeline, ","),
             barrier_mode == core::BarrierMode::PaperPrune ? "-prune" : "");
}

std::string RunSpec::label() const {
  return cat(convert_key(), "/", simd::engine_name(engine));
}

std::vector<RunSpec> default_matrix() {
  std::vector<RunSpec> m;
  auto add = [&](std::vector<std::string> pipeline, core::BarrierMode mode,
                 mimd::SimdEngine engine) {
    RunSpec s;
    s.pipeline = std::move(pipeline);
    s.barrier_mode = mode;
    s.engine = engine;
    m.push_back(s);
  };
  using core::BarrierMode;
  using mimd::SimdEngine;
  const std::vector<std::string> base = {"convert", "subsume", "straighten"};
  const std::vector<std::string> comp = {"compress", "convert", "subsume",
                                         "straighten"};
  // Base pipeline on both engines.
  add(base, BarrierMode::TrackOccupancy, SimdEngine::Codegen);
  add(base, BarrierMode::TrackOccupancy, SimdEngine::Reference);
  // The paper's §2.6 pruning rule (cells the converter must *reject* —
  // compress/spawn/multi-barrier — are asserted inside evaluate()).
  add(base, BarrierMode::PaperPrune, SimdEngine::Codegen);
  add(base, BarrierMode::PaperPrune, SimdEngine::Reference);
  // §2.5 compression, with and without Fig. 5 subsumption.
  add(comp, BarrierMode::TrackOccupancy, SimdEngine::Codegen);
  add(comp, BarrierMode::TrackOccupancy, SimdEngine::Reference);
  add({"compress", "convert", "straighten"}, BarrierMode::TrackOccupancy,
      SimdEngine::Codegen);
  // §2.4 time splitting (restart machinery + split graphs).
  add({"time-split", "convert", "subsume", "straighten"},
      BarrierMode::TrackOccupancy, SimdEngine::Codegen);
  add({"time-split", "convert", "subsume", "straighten"},
      BarrierMode::TrackOccupancy, SimdEngine::Reference);
  // Custom-order coverage: the dme cleanup pass, straighten-less layout.
  add({"convert", "subsume", "dme"}, BarrierMode::TrackOccupancy,
      SimdEngine::Codegen);
  return m;
}

}  // namespace msc::fuzz
