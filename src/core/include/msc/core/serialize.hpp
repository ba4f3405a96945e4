#ifndef MSC_CORE_SERIALIZE_HPP
#define MSC_CORE_SERIALIZE_HPP

#include <string>

#include "msc/core/automaton.hpp"
#include "msc/core/convert.hpp"
#include "msc/ir/graph.hpp"

namespace msc::core {

/// Versioned, line-oriented text serialization of a compiled module — the
/// MIMD state graph plus its meta-state automaton and the stats of the
/// conversion that produced it. Lets a build cache a conversion (they can
/// be expensive, §1.2) and reload it without re-running the compiler:
/// `codegen::generate` only needs these structures.
///
/// Format (one record per line, space-separated, '#' comments ignored):
///   mscmod 3
///   graph <nblocks> <start>
///   block <id> <exit> <target> <alt> <barrier> <label…>
///   instr <block> <op> <kind> <int> <float-bits>
///   automaton <nstates> <start> <mode> <compressed>
///   barriers <bit…>
///   meta <id> <unconditional> <member-bit…>
///   arc <from> <to> <key-bit…>
///   stats <meta_states> <arcs> <reach_calls> <splits> <restarts>
///         <cache_hits> <cache_misses> <cache_invalidated> <subsume_us>
///         <straighten_us> <total_us>                    (one line)
///   end
///
/// A version other than the current one is rejected with a clear error —
/// silent reinterpretation of old records is how boundary bugs survive.
struct Module {
  ir::StateGraph graph;
  MetaAutomaton automaton;
  ConvertStats stats;
};

std::string serialize(const Module& module);

/// Parse a serialized module. Throws std::runtime_error with a line number
/// on malformed input.
Module deserialize(const std::string& text);

}  // namespace msc::core

#endif  // MSC_CORE_SERIALIZE_HPP
