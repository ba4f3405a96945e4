#include "msc/core/serialize.hpp"

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "msc/support/str.hpp"

namespace msc::core {

namespace {

constexpr int kVersion = 3;

std::int64_t micros(double seconds) {
  return static_cast<std::int64_t>(seconds * 1e6 + 0.5);
}

std::string bits_of(const DynBitset& b) {
  std::string out;
  for (std::size_t bit : b.bits()) out += cat(" ", bit);
  return out;
}

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::runtime_error(cat("module parse error at line ", line, ": ", what));
}

class Reader {
 public:
  explicit Reader(const std::string& text) : in_(text) {}

  /// Next non-comment, non-blank line split into fields; false at EOF.
  bool next(std::vector<std::string>& fields) {
    std::string line;
    while (std::getline(in_, line)) {
      ++lineno_;
      std::istringstream ls(line);
      fields.clear();
      std::string tok;
      while (ls >> tok) {
        if (tok[0] == '#') break;
        fields.push_back(tok);
      }
      if (!fields.empty()) return true;
    }
    return false;
  }

  std::size_t lineno() const { return lineno_; }

 private:
  std::istringstream in_;
  std::size_t lineno_ = 0;
};

std::int64_t to_i64(const std::string& s, std::size_t line) {
  try {
    return std::stoll(s);
  } catch (...) {
    fail(line, cat("expected integer, got '", s, "'"));
  }
}

std::uint64_t to_u64(const std::string& s, std::size_t line) {
  try {
    return std::stoull(s);
  } catch (...) {
    fail(line, cat("expected unsigned integer, got '", s, "'"));
  }
}

DynBitset bits_from(const std::vector<std::string>& fields, std::size_t first,
                    std::size_t line) {
  DynBitset b;
  for (std::size_t i = first; i < fields.size(); ++i)
    b.set(static_cast<std::size_t>(to_u64(fields[i], line)));
  return b;
}

}  // namespace

std::string serialize(const Module& module) {
  std::ostringstream os;
  os << "mscmod " << kVersion << "\n";

  const ir::StateGraph& g = module.graph;
  os << "graph " << g.size() << " " << g.start << "\n";
  for (const ir::Block& b : g.blocks) {
    os << "block " << b.id << " " << static_cast<int>(b.exit) << " "
       << static_cast<std::int64_t>(
              b.target == ir::kNoState ? -1 : static_cast<std::int64_t>(b.target))
       << " "
       << static_cast<std::int64_t>(
              b.alt == ir::kNoState ? -1 : static_cast<std::int64_t>(b.alt))
       << " " << (b.barrier_wait ? 1 : 0);
    if (!b.label.empty()) os << " " << b.label;  // labels have no spaces
    os << "\n";
    // One field per payload kind; the one the kind does not use is 0.
    for (const ir::Instr& in : b.body)
      os << "instr " << b.id << " " << static_cast<int>(in.op) << " "
         << static_cast<int>(in.imm.kind) << " "
         << (in.imm.is_int() ? in.imm.i : 0) << " "
         << (in.imm.is_float() ? static_cast<std::uint64_t>(in.imm.bits()) : 0)
         << "\n";
  }

  const MetaAutomaton& a = module.automaton;
  os << "automaton " << a.num_states() << " " << a.start << " "
     << static_cast<int>(a.barrier_mode) << " " << (a.compressed ? 1 : 0)
     << "\n";
  os << "barriers" << bits_of(a.barriers) << "\n";
  for (const MetaState& s : a.states) {
    os << "meta " << s.id << " "
       << static_cast<std::int64_t>(
              s.unconditional == kNoMeta
                  ? -1
                  : static_cast<std::int64_t>(s.unconditional))
       << bits_of(s.members) << "\n";
    for (const auto& [key, target] : s.arcs)
      os << "arc " << s.id << " " << target << bits_of(key) << "\n";
  }

  const ConvertStats& st = module.stats;
  os << "stats " << st.meta_states << " " << st.arcs << " " << st.reach_calls
     << " " << st.splits_performed << " " << st.restarts << " "
     << st.cache_hits << " " << st.cache_misses << " " << st.cache_invalidated
     << " " << micros(st.subsume_seconds) << " " << micros(st.straighten_seconds)
     << " " << micros(st.total_seconds) << "\n";
  os << "end\n";
  return os.str();
}

Module deserialize(const std::string& text) {
  Reader rd(text);
  std::vector<std::string> f;
  Module mod;

  if (!rd.next(f) || f.size() != 2 || f[0] != "mscmod")
    fail(rd.lineno(), "missing 'mscmod' header");
  if (to_i64(f[1], rd.lineno()) != kVersion)
    fail(rd.lineno(),
         cat("unsupported module version ", f[1], " (this build reads version ",
             kVersion, "; regenerate with mscc --emit module)"));

  if (!rd.next(f) || f.size() != 3 || f[0] != "graph")
    fail(rd.lineno(), "expected 'graph'");
  std::size_t nblocks = static_cast<std::size_t>(to_u64(f[1], rd.lineno()));
  for (std::size_t i = 0; i < nblocks; ++i) mod.graph.add_block();
  mod.graph.start = static_cast<ir::StateId>(to_u64(f[2], rd.lineno()));

  bool saw_automaton = false, saw_end = false;
  while (rd.next(f)) {
    std::size_t ln = rd.lineno();
    if (f[0] == "block") {
      if (f.size() < 6) fail(ln, "short 'block' record");
      std::size_t id = static_cast<std::size_t>(to_u64(f[1], ln));
      if (id >= nblocks) fail(ln, "block id out of range");
      ir::Block& b = mod.graph.at(static_cast<ir::StateId>(id));
      int exit = static_cast<int>(to_i64(f[2], ln));
      if (exit < 0 || exit > 3) fail(ln, "bad exit kind");
      b.exit = static_cast<ir::ExitKind>(exit);
      std::int64_t t = to_i64(f[3], ln), alt = to_i64(f[4], ln);
      b.target = t < 0 ? ir::kNoState : static_cast<ir::StateId>(t);
      b.alt = alt < 0 ? ir::kNoState : static_cast<ir::StateId>(alt);
      b.barrier_wait = to_i64(f[5], ln) != 0;
      if (f.size() > 6) b.label = f[6];
    } else if (f[0] == "instr") {
      if (f.size() != 6) fail(ln, "short 'instr' record");
      std::size_t id = static_cast<std::size_t>(to_u64(f[1], ln));
      if (id >= nblocks) fail(ln, "instr block id out of range");
      const std::int64_t op = to_i64(f[2], ln), kind = to_i64(f[3], ln);
      if (op < 0 || op > static_cast<std::int64_t>(ir::Opcode::NProcs))
        fail(ln, cat("unknown opcode ", op));
      if (kind != 0 && kind != 1) fail(ln, cat("unknown value kind ", kind));
      const bool is_int = static_cast<Value::Kind>(kind) == Value::Kind::Int;
      const std::int64_t int_field = to_i64(f[4], ln);
      const auto float_field = static_cast<std::int64_t>(to_u64(f[5], ln));
      if ((is_int ? float_field : int_field) != 0)
        fail(ln, "nonzero payload in the field the value kind does not use");
      const ir::Instr in{static_cast<ir::Opcode>(op),
                         Value::from_bits(static_cast<Value::Kind>(kind),
                                          is_int ? int_field : float_field)};
      mod.graph.at(static_cast<ir::StateId>(id)).body.push_back(in);
    } else if (f[0] == "automaton") {
      if (f.size() != 5) fail(ln, "short 'automaton' record");
      saw_automaton = true;
      std::size_t nstates = static_cast<std::size_t>(to_u64(f[1], ln));
      for (std::size_t i = 0; i < nstates; ++i)
        mod.automaton.add(DynBitset());  // members filled by 'meta'
      mod.automaton.start = static_cast<MetaId>(to_u64(f[2], ln));
      std::int64_t mode = to_i64(f[3], ln);
      if (mode != static_cast<std::int64_t>(BarrierMode::TrackOccupancy) &&
          mode != static_cast<std::int64_t>(BarrierMode::PaperPrune))
        fail(ln, cat("unknown barrier mode ", mode));
      mod.automaton.barrier_mode = static_cast<BarrierMode>(mode);
      std::int64_t compressed = to_i64(f[4], ln);
      if (compressed != 0 && compressed != 1)
        fail(ln, cat("bad compressed flag ", compressed));
      mod.automaton.compressed = compressed != 0;
    } else if (f[0] == "barriers") {
      mod.automaton.barriers = bits_from(f, 1, ln);
    } else if (f[0] == "meta") {
      if (f.size() < 3) fail(ln, "short 'meta' record");
      std::size_t id = static_cast<std::size_t>(to_u64(f[1], ln));
      if (id >= mod.automaton.states.size()) fail(ln, "meta id out of range");
      MetaState& s = mod.automaton.states[id];
      std::int64_t unc = to_i64(f[2], ln);
      s.unconditional = unc < 0 ? kNoMeta : static_cast<MetaId>(unc);
      s.members = bits_from(f, 3, ln);
    } else if (f[0] == "arc") {
      if (f.size() < 4) fail(ln, "short 'arc' record");
      std::size_t from = static_cast<std::size_t>(to_u64(f[1], ln));
      std::size_t to = static_cast<std::size_t>(to_u64(f[2], ln));
      if (from >= mod.automaton.states.size() ||
          to >= mod.automaton.states.size())
        fail(ln, "arc endpoint out of range");
      mod.automaton.states[from].arcs.emplace_back(bits_from(f, 3, ln),
                                                   static_cast<MetaId>(to));
    } else if (f[0] == "stats") {
      if (f.size() != 12) fail(ln, "short 'stats' record");
      ConvertStats& st = mod.stats;
      st.meta_states = static_cast<std::size_t>(to_u64(f[1], ln));
      st.arcs = static_cast<std::size_t>(to_u64(f[2], ln));
      st.reach_calls = static_cast<std::size_t>(to_u64(f[3], ln));
      st.splits_performed = static_cast<int>(to_i64(f[4], ln));
      st.restarts = static_cast<int>(to_i64(f[5], ln));
      st.cache_hits = static_cast<std::size_t>(to_u64(f[6], ln));
      st.cache_misses = static_cast<std::size_t>(to_u64(f[7], ln));
      st.cache_invalidated = static_cast<std::size_t>(to_u64(f[8], ln));
      st.subsume_seconds = static_cast<double>(to_i64(f[9], ln)) / 1e6;
      st.straighten_seconds = static_cast<double>(to_i64(f[10], ln)) / 1e6;
      st.total_seconds = static_cast<double>(to_i64(f[11], ln)) / 1e6;
    } else if (f[0] == "end") {
      saw_end = true;
      break;
    } else {
      fail(ln, cat("unknown record '", f[0], "'"));
    }
  }
  if (!saw_automaton) fail(rd.lineno(), "missing 'automaton' section");
  if (!saw_end) fail(rd.lineno(), "missing 'end'");

  // Rebuild the member index and sanity-check against the graph.
  mod.automaton.index.clear();
  for (const MetaState& s : mod.automaton.states)
    mod.automaton.index.emplace(s.members, s.id);
  auto graph_problems = mod.graph.validate();
  if (!graph_problems.empty()) fail(rd.lineno(), graph_problems.front());
  auto aut_problems = mod.automaton.validate(mod.graph);
  if (!aut_problems.empty()) fail(rd.lineno(), aut_problems.front());
  return mod;
}

}  // namespace msc::core
