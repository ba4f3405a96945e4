// Repro manifests: one JSON object per reproducer, shared by the fuzzer's
// output, `mscfuzz --replay`, and corpus_regression_test. Read with
// support/json and written with json_escape, like every other JSON
// document in the toolchain.
#include "msc/fuzz/manifest.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "msc/simd/machine.hpp"
#include "msc/support/json.hpp"
#include "msc/support/str.hpp"

namespace msc::fuzz {
namespace {

// Field readers: an absent key keeps the default, a present key of the
// wrong type throws (json::ParseError is a std::runtime_error).
void read(const json::Value& doc, const char* key, std::string& field) {
  if (const json::Value* v = doc.find(key)) field = v->as_string();
}

void read(const json::Value& doc, const char* key, bool& field) {
  const json::Value* v = doc.find(key);
  if (!v) return;
  if (v->kind != json::Value::Kind::Bool)
    throw std::runtime_error(cat("manifest field '", key, "' is not a bool"));
  field = v->b;
}

template <typename Int>
void read(const json::Value& doc, const char* key, Int& field) {
  if (const json::Value* v = doc.find(key))
    field = static_cast<Int>(v->as_int());
}

}  // namespace

RunSpec Manifest::spec() const {
  RunSpec s;
  if (!pipeline.empty()) {
    s.pipeline.clear();
    for (const std::string& name : split(pipeline, ','))
      if (!name.empty()) s.pipeline.push_back(name);
  }
  s.barrier_mode = prune ? core::BarrierMode::PaperPrune
                         : core::BarrierMode::TrackOccupancy;
  s.threads = threads;
  try {
    s.engine = simd::parse_engine(engine);
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(cat("manifest: ", e.what()));
  }
  return s;
}

EvalConfig Manifest::eval_config() const {
  EvalConfig cfg;
  cfg.nprocs = nprocs;
  cfg.initial_active = initial_active;
  cfg.input_seed = input_seed;
  cfg.reuse_halted_pes = reuse_halted_pes;
  return cfg;
}

FindingKind Manifest::finding_kind() const {
  if (kind == "divergence") return FindingKind::Divergence;
  if (kind == "stats-mismatch") return FindingKind::StatsMismatch;
  if (kind == "crash") return FindingKind::Crash;
  if (kind == "compile-error") return FindingKind::CompileError;
  if (kind == "unsound-accept") return FindingKind::UnsoundAccept;
  throw std::runtime_error(
      cat("manifest kind '", kind, "' is not a finding kind"));
}

std::string to_json(const Manifest& m) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": " << m.schema << ",\n";
  os << "  \"kind\": \"" << json_escape(m.kind) << "\",\n";
  os << "  \"source_file\": \"" << json_escape(m.source_file) << "\",\n";
  os << "  \"expect\": \"" << json_escape(m.expect) << "\",\n";
  os << "  \"nprocs\": " << m.nprocs << ",\n";
  os << "  \"initial_active\": " << m.initial_active << ",\n";
  os << "  \"input_seed\": " << m.input_seed << ",\n";
  os << "  \"reuse_halted_pes\": " << (m.reuse_halted_pes ? "true" : "false")
     << ",\n";
  os << "  \"pipeline\": \"" << json_escape(m.pipeline) << "\",\n";
  os << "  \"prune\": " << (m.prune ? "true" : "false") << ",\n";
  os << "  \"threads\": " << m.threads << ",\n";
  os << "  \"engine\": \"" << json_escape(m.engine) << "\",\n";
  os << "  \"note\": \"" << json_escape(m.note) << "\"\n";
  os << "}\n";
  return os.str();
}

Manifest parse_manifest(const std::string& text) {
  const json::Value doc = json::parse(text);
  if (!doc.is_object())
    throw std::runtime_error("manifest is not a JSON object");
  Manifest m;
  read(doc, "schema", m.schema);
  if (m.schema != 1)
    throw std::runtime_error(
        cat("unsupported manifest schema ", std::int64_t{m.schema}));
  read(doc, "kind", m.kind);
  read(doc, "source_file", m.source_file);
  read(doc, "expect", m.expect);
  read(doc, "nprocs", m.nprocs);
  read(doc, "initial_active", m.initial_active);
  read(doc, "input_seed", m.input_seed);
  read(doc, "reuse_halted_pes", m.reuse_halted_pes);
  read(doc, "pipeline", m.pipeline);
  read(doc, "prune", m.prune);
  read(doc, "threads", m.threads);
  read(doc, "engine", m.engine);
  read(doc, "note", m.note);
  if (m.source_file.empty())
    throw std::runtime_error("manifest is missing source_file");
  return m;
}

Manifest load_manifest(const std::string& path, std::string* source_out) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error(cat("cannot open manifest: ", path));
  std::ostringstream buf;
  buf << in.rdbuf();
  Manifest m = parse_manifest(buf.str());
  if (source_out) {
    const std::filesystem::path src =
        std::filesystem::path(path).parent_path() / m.source_file;
    std::ifstream sin(src);
    if (!sin)
      throw std::runtime_error(cat("cannot open source: ", src.string()));
    std::ostringstream sbuf;
    sbuf << sin.rdbuf();
    *source_out = sbuf.str();
  }
  return m;
}

Manifest manifest_for(const Finding& finding, const EvalConfig& cfg,
                      const std::string& source_file) {
  Manifest m;
  m.kind = to_string(finding.kind);
  m.source_file = source_file;
  m.expect = "match";
  m.nprocs = cfg.nprocs;
  m.initial_active = cfg.initial_active;
  m.input_seed = cfg.input_seed;
  m.reuse_halted_pes = cfg.reuse_halted_pes;
  const RunSpec& s = finding.spec;
  m.pipeline = join(s.pipeline, ",");
  m.prune = s.barrier_mode == core::BarrierMode::PaperPrune;
  m.threads = s.threads;
  m.engine = simd::engine_name(s.engine);
  // First line of the detail is enough context for a human reader.
  const std::size_t nl = finding.detail.find('\n');
  m.note = nl == std::string::npos ? finding.detail
                                   : finding.detail.substr(0, nl);
  return m;
}

}  // namespace msc::fuzz
