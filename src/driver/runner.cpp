#include "msc/driver/runner.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "msc/support/rng.hpp"
#include "msc/support/str.hpp"

namespace msc::driver {

namespace {

/// Observation collection shared by both machines (same peek interface).
template <typename M>
Observed observe(const M& machine, const Compiled& compiled,
                 const mimd::RunConfig& config,
                 const std::vector<bool>& ran) {
  Observed obs;
  obs.ran = ran;
  obs.results.resize(static_cast<std::size_t>(config.nprocs));
  for (std::int64_t p = 0; p < config.nprocs; ++p)
    if (ran[static_cast<std::size_t>(p)])
      obs.results[static_cast<std::size_t>(p)] =
          machine.peek(p, frontend::Layout::kResultAddr);
  for (const auto& [name, slot] : compiled.layout.globals) {
    if (slot.storage == frontend::Storage::MonoStatic) {
      std::vector<Value> vals;
      for (std::int64_t c = 0; c < slot.size; ++c)
        vals.push_back(machine.peek_mono(slot.addr + c));
      obs.mono_globals[name] = std::move(vals);
    } else {
      std::vector<Value> vals;
      for (std::int64_t p = 0; p < config.nprocs; ++p) {
        if (!ran[static_cast<std::size_t>(p)]) continue;
        for (std::int64_t c = 0; c < slot.size; ++c)
          vals.push_back(machine.peek(p, slot.addr + c));
      }
      obs.poly_globals[name] = std::move(vals);
    }
  }
  return obs;
}

}  // namespace

bool Observed::operator==(const Observed& o) const {
  if (ran != o.ran) return false;
  for (std::size_t p = 0; p < ran.size(); ++p)
    if (ran[p] && !(results[p] == o.results[p])) return false;
  return poly_globals == o.poly_globals && mono_globals == o.mono_globals;
}

bool Observed::equivalent_unordered(const Observed& o) const {
  auto key = [](const Value& v) {
    return std::pair<int, std::int64_t>(static_cast<int>(v.kind), v.bits());
  };
  auto multiset_of = [&](const Observed& obs) {
    std::vector<std::pair<int, std::int64_t>> m;
    for (std::size_t p = 0; p < obs.ran.size(); ++p)
      if (obs.ran[p]) m.push_back(key(obs.results[p]));
    std::sort(m.begin(), m.end());
    return m;
  };
  if (multiset_of(*this) != multiset_of(o)) return false;
  return mono_globals == o.mono_globals;
}

std::string Observed::to_string() const {
  std::ostringstream os;
  os << "results:";
  for (std::size_t p = 0; p < ran.size(); ++p)
    os << " " << (ran[p] ? results[p].to_string() : std::string("-"));
  for (const auto& [name, vals] : mono_globals) {
    os << " | mono " << name << ":";
    for (const Value& v : vals) os << " " << v.to_string();
  }
  for (const auto& [name, vals] : poly_globals) {
    os << " | " << name << ":";
    for (const Value& v : vals) os << " " << v.to_string();
  }
  return os.str();
}

void write_json_file(const std::string& json, const std::string& what,
                     const std::string& path) {
  if (path == "-") {
    std::fputs(json.c_str(), stdout);
    return;
  }
  std::ofstream out(path);
  if (!out)
    throw std::runtime_error(cat("cannot write ", what, " to '", path, "'"));
  out << json;
  if (!out.flush())
    throw std::runtime_error(cat("failed writing ", what, " to '", path, "'"));
}

void write_convert_trace(const core::ConvertStats& stats,
                         const std::string& path) {
  write_json_file(core::to_json(stats), "convert trace", path);
}

void write_pass_timings(const telemetry::PipelineTrace& trace,
                        const std::string& path) {
  write_json_file(trace.to_json(), "pass timings", path);
}

void write_simd_trace(const simd::SimdMachine& machine,
                      const std::string& path) {
  write_json_file(simd::to_json(machine), "simd trace", path);
}

std::int64_t seed_input(std::uint64_t seed, std::int64_t pe) {
  Rng rng(seed ^ (0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(pe + 1)));
  return static_cast<std::int64_t>(rng.next_below(97));
}

Observed observe_simd(const simd::SimdMachine& machine,
                      const Compiled& compiled,
                      const mimd::RunConfig& config) {
  std::vector<bool> ran(static_cast<std::size_t>(config.nprocs));
  for (std::int64_t p = 0; p < config.nprocs; ++p)
    ran[static_cast<std::size_t>(p)] = machine.ever_ran(p);
  return observe(machine, compiled, config, ran);
}

Observed run_oracle(const Compiled& compiled, const mimd::RunConfig& config,
                    std::uint64_t seed, mimd::MimdStats* stats_out) {
  ir::CostModel cost;
  mimd::MimdMachine machine(compiled.graph, cost, config);
  seed_machine(machine, compiled, config, seed);
  machine.run();
  if (stats_out) *stats_out = machine.stats();
  std::vector<bool> ran(static_cast<std::size_t>(config.nprocs));
  for (std::int64_t p = 0; p < config.nprocs; ++p)
    ran[static_cast<std::size_t>(p)] = machine.ever_ran(p);
  return observe(machine, compiled, config, ran);
}

Observed run_simd(const Compiled& compiled, const core::ConvertResult& conversion,
                  const mimd::RunConfig& config, std::uint64_t seed,
                  const ir::CostModel& cost, const codegen::CodegenOptions& cg,
                  simd::SimdStats* stats_out,
                  std::vector<std::int64_t>* visits_out) {
  codegen::SimdProgram prog =
      codegen::generate(conversion.automaton, conversion.graph, cost, cg);
  auto machine = simd::make_machine(prog, cost, config);
  seed_machine(*machine, compiled, config, seed);
  machine->run();
  if (stats_out) *stats_out = machine->stats();
  if (visits_out) *visits_out = machine->state_visits();
  std::vector<bool> ran(static_cast<std::size_t>(config.nprocs));
  for (std::int64_t p = 0; p < config.nprocs; ++p)
    ran[static_cast<std::size_t>(p)] = machine->ever_ran(p);
  return observe(*machine, compiled, config, ran);
}

}  // namespace msc::driver
