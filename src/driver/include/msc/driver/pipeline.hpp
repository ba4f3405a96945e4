#ifndef MSC_DRIVER_PIPELINE_HPP
#define MSC_DRIVER_PIPELINE_HPP

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "msc/codegen/program.hpp"
#include "msc/core/convert.hpp"
#include "msc/frontend/ast.hpp"
#include "msc/frontend/sema.hpp"
#include "msc/ir/cost.hpp"
#include "msc/ir/graph.hpp"
#include "msc/support/diag.hpp"
#include "msc/support/telemetry.hpp"

namespace msc::telemetry {
class TraceSink;
}

namespace msc::driver {

/// Output of the MIMDC front half: analyzed AST, memory layout, and the
/// simplified whole-program MIMD state graph (§2.1–2.2).
struct Compiled {
  std::unique_ptr<frontend::Program> program;
  frontend::Layout layout;
  Diagnostics diags;
  ir::StateGraph graph;
};

/// Lex → parse → sema → CFG build, with no IR passes applied. Building
/// block for custom pipelines; most callers want compile().
Compiled front(const std::string& source);

/// front() + the IR-stage passes of the default pipeline (simplify,
/// peephole). Throws CompileError on malformed input.
Compiled compile(const std::string& source);

/// compile() + the conversion-stage pipeline in one call.
struct Converted {
  Compiled compiled;
  core::ConvertResult conversion;
  /// Per-pass instrumentation for the pipeline that ran (--pass-timings).
  telemetry::PipelineTrace trace;
  /// Set when the pipeline included the `codegen` pass.
  std::optional<codegen::SimdProgram> prog;
};

/// Full front-half configuration: conversion options plus the driver-level
/// policies that wrap them.
struct PipelineOptions {
  /// Engine-level conversion knobs (memoize, barrier_mode,
  /// max_meta_states...). Its stage flags (compress/subsume/straighten/
  /// time_split) select passes when `pipeline` is empty; with an explicit
  /// `pipeline` they are ignored — the pass list is the source of truth.
  core::ConvertOptions convert;
  /// Options for the `codegen` pass, when the pipeline includes it.
  codegen::CodegenOptions codegen;
  /// Retry under compression when plain conversion explodes (DESIGN.md §4).
  bool adaptive = false;
  /// When non-empty, write the conversion's ConvertStats as JSON to this
  /// path after a successful conversion ("-" = stdout). Schema: see
  /// core::to_json / DESIGN.md §5 (--trace-convert in mscc).
  std::string trace_convert_path;
  /// Explicit pass pipeline (--pass-pipeline). Empty = derive from the
  /// stage flags in `convert` (the default pipeline, plus compress /
  /// time-split when those flags are set).
  std::vector<std::string> pipeline;
  /// Pass names removed after resolution (--disable-pass).
  std::vector<std::string> disabled;
  /// Run the structural invariant checkers after every pass
  /// (--verify-each); failures raise pass::PipelineError naming the pass.
  bool verify_each = false;
  /// When non-empty, write the pipeline's telemetry JSON here
  /// ("-" = stdout); schema in DESIGN.md §9 (--pass-timings in mscc).
  std::string pass_timings_path;
  /// Chrome-trace sink for the pipeline run (null = tracing off). The
  /// PassManager emits one wall-clock span per pass and the convert pass
  /// adds its phase breakdown (--trace-chrome in mscc; DESIGN.md §10).
  telemetry::TraceSink* trace_sink = nullptr;
};

/// Resolve the pass list `options` describes: `options.pipeline` when
/// given, else the default pipeline with the stage flags in
/// `options.convert` folded in (compress/time-split inserted, subsume/
/// straighten dropped when disabled).
std::vector<std::string> resolve_pipeline(const PipelineOptions& options);

Converted convert(const std::string& source, const ir::CostModel& cost,
                  const PipelineOptions& options);

/// Back-compat convenience: wraps `options` in PipelineOptions (same
/// pass derivation, adaptive off, no traces).
Converted convert(const std::string& source, const ir::CostModel& cost = {},
                  const core::ConvertOptions& options = {});

}  // namespace msc::driver

#endif  // MSC_DRIVER_PIPELINE_HPP
