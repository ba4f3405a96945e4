#include "msc/interp/machine.hpp"

#include <algorithm>
#include <set>

#include "msc/support/str.hpp"

namespace msc::interp {

using ir::ExitKind;
using ir::MachineFault;
using ir::Opcode;

namespace {

/// Number of data opcodes in the ISA (for the naive dispatch sweep).
constexpr std::int64_t kNumDataOpcodes = static_cast<std::int64_t>(Opcode::NProcs) + 1;
constexpr std::int64_t kNumControlOpcodes = 5;

std::int64_t op_word(Opcode op) { return static_cast<std::int64_t>(op); }

}  // namespace

InterpImage assemble(const ir::StateGraph& graph) {
  InterpImage img;
  img.block_entry.resize(graph.size(), 0);

  // Pass 1: layout. Three cells per instruction; barrier blocks get a
  // kWait; Spawn needs a following Jump for the parent's continuation.
  std::int64_t word = 0;
  for (const ir::Block& b : graph.blocks) {
    img.block_entry[b.id] = word;
    word += 3 * static_cast<std::int64_t>(b.body.size());
    if (b.barrier_wait) word += 3;
    switch (b.exit) {
      case ExitKind::Halt:
      case ExitKind::Jump:
      case ExitKind::Branch:
        word += 3;
        break;
      case ExitKind::Spawn:
        word += 6;
        break;
    }
  }
  img.words.reserve(static_cast<std::size_t>(word));

  auto emit = [&](std::int64_t op, std::int64_t a, std::int64_t b) {
    img.words.push_back(op);
    img.words.push_back(a);
    img.words.push_back(b);
  };

  // Pass 2: code.
  for (const ir::Block& b : graph.blocks) {
    for (const ir::Instr& in : b.body)
      emit(op_word(in.op), in.imm.bits(), 0);
    if (b.barrier_wait) emit(InterpImage::kWait, 0, 0);
    switch (b.exit) {
      case ExitKind::Halt:
        emit(InterpImage::kHalt, 0, 0);
        break;
      case ExitKind::Jump:
        emit(InterpImage::kJump, img.block_entry[b.target], 0);
        break;
      case ExitKind::Branch:
        emit(InterpImage::kJumpF, img.block_entry[b.target],
             img.block_entry[b.alt]);
        break;
      case ExitKind::Spawn:
        emit(InterpImage::kSpawn, img.block_entry[b.target], 0);
        emit(InterpImage::kJump, img.block_entry[b.alt], 0);
        break;
    }
  }
  img.entry = img.block_entry[graph.start];
  return img;
}

InterpMachine::InterpMachine(const ir::StateGraph& graph, const ir::CostModel& cost,
                             const mimd::RunConfig& config, Dispatch dispatch)
    : graph_(graph), cost_(cost), config_(config), dispatch_(dispatch),
      image_(assemble(graph)) {
  if (config_.nprocs <= 0) throw MachineFault("nprocs must be positive");
  if (config_.active() > config_.nprocs)
    throw MachineFault("initial_active exceeds nprocs");
  pes_.resize(static_cast<std::size_t>(config_.nprocs));
  for (std::int64_t i = 0; i < config_.nprocs; ++i) {
    Pe& pe = pes_[static_cast<std::size_t>(i)];
    pe.local.assign(config_.local_mem_cells);
    if (i < config_.active()) {
      pe.pc = image_.entry;
      pe.ever_ran = true;
    }
  }
  mono_.assign(static_cast<std::size_t>(config_.mono_mem_cells), Value{});
  stats_.program_cells_per_pe = image_.cells_per_pe();
}

void InterpMachine::check_local(std::int64_t proc, std::int64_t addr) const {
  if (proc < 0 || proc >= config_.nprocs)
    throw MachineFault(cat("PE index out of range: ", proc));
  if (addr < 0 || addr >= config_.local_mem_cells)
    throw MachineFault(cat("local address out of range: ", addr));
}

void InterpMachine::poke(std::int64_t proc, std::int64_t addr, Value v) {
  check_local(proc, addr);
  pes_[static_cast<std::size_t>(proc)].local.set(addr, v);
}

Value InterpMachine::peek(std::int64_t proc, std::int64_t addr) const {
  check_local(proc, addr);
  return pes_[static_cast<std::size_t>(proc)].local.get(addr);
}

void InterpMachine::poke_mono(std::int64_t addr, Value v) {
  if (addr < 0 || addr >= config_.mono_mem_cells)
    throw MachineFault(cat("mono address out of range: ", addr));
  mono_[static_cast<std::size_t>(addr)] = v;
}

Value InterpMachine::peek_mono(std::int64_t addr) const {
  if (addr < 0 || addr >= config_.mono_mem_cells)
    throw MachineFault(cat("mono address out of range: ", addr));
  return mono_[static_cast<std::size_t>(addr)];
}

Value InterpMachine::mono_load(std::int64_t addr) { return peek_mono(addr); }
void InterpMachine::mono_store(std::int64_t addr, Value v) { poke_mono(addr, v); }
Value InterpMachine::route_load(std::int64_t proc, std::int64_t addr) {
  return peek(proc, addr);
}
void InterpMachine::route_store(std::int64_t proc, std::int64_t addr, Value v) {
  poke(proc, addr, v);
}

void InterpMachine::exec_one(std::int64_t pid, std::int64_t op, std::int64_t a,
                             std::int64_t b) {
  Pe& pe = pes_[static_cast<std::size_t>(pid)];
  if (op < 1000) {
    ir::Instr in;
    in.op = static_cast<Opcode>(op);
    in.imm = Value::from_bits(
        in.op == Opcode::PushF ? Value::Kind::Float : Value::Kind::Int, a);
    ir::PeContext ctx{pe.local.view(), &pe.stack, pid, config_.nprocs};
    ir::exec_instr(in, ctx, *this);
    pe.pc += 3;
    return;
  }
  switch (op) {
    case InterpImage::kJump:
      pe.pc = a;
      return;
    case InterpImage::kJumpF: {
      Value cond = ir::stack_pop(pe.stack);
      pe.pc = cond.truthy() ? a : b;
      return;
    }
    case InterpImage::kHalt:
      pe.pc = -1;
      return;
    case InterpImage::kWait:
      pe.waiting = true;  // stays at this word until everyone waits
      return;
    case InterpImage::kSpawn: {
      std::int64_t child = -1;
      for (std::int64_t c = 0; c < config_.nprocs; ++c) {
        const Pe& cp = pes_[static_cast<std::size_t>(c)];
        bool fresh = config_.reuse_halted_pes || !cp.ever_ran;
        if (cp.pc < 0 && fresh) {
          child = c;
          break;
        }
      }
      if (child < 0)
        throw MachineFault("spawn failed: no free processing element "
                           "(§3.2.5 assumes processes ≤ processors)");
      Pe& ch = pes_[static_cast<std::size_t>(child)];
      ch.local.assign(config_.local_mem_cells);
      ch.stack.clear();
      ch.pc = a;
      ch.waiting = false;
      ch.ever_ran = true;
      ++stats_.spawns;
      pe.pc += 3;  // parent falls through to the continuation Jump
      return;
    }
    default:
      throw MachineFault(cat("bad interpreter opcode ", op));
  }
}

void InterpMachine::step() {
  // 1. Fetch & decode on every active (alive, non-waiting) PE at once.
  std::int64_t alive_count = 0, active_count = 0;
  for (const Pe& pe : pes_) {
    if (!alive(pe)) continue;
    ++alive_count;
    if (!pe.waiting) ++active_count;
  }
  stats_.fetch_cycles += cost_.interp_fetch;
  stats_.busy_pe_cycles += cost_.interp_fetch * active_count;
  stats_.offered_pe_cycles += cost_.interp_fetch * alive_count;

  // Which opcode types were fetched?
  std::set<std::int64_t> present;
  for (const Pe& pe : pes_)
    if (alive(pe) && !pe.waiting)
      present.insert(image_.words[static_cast<std::size_t>(pe.pc)]);

  auto op_cost = [&](std::int64_t op) -> std::int64_t {
    if (op < 1000) {
      ir::Instr in;
      in.op = static_cast<Opcode>(op);
      return cost_.instr_cost(in);
    }
    switch (op) {
      case InterpImage::kJump: return cost_.jump;
      case InterpImage::kJumpF: return cost_.branch;
      case InterpImage::kHalt: return cost_.halt;
      case InterpImage::kWait: return cost_.jump;
      case InterpImage::kSpawn: return cost_.spawn;
      default: return 1;
    }
  };

  auto execute_type = [&](std::int64_t op) {
    std::int64_t c = op_cost(op);
    stats_.execute_cycles += c;
    stats_.offered_pe_cycles += c * alive_count;
    for (std::int64_t pid = 0; pid < config_.nprocs; ++pid) {
      Pe& pe = pes_[static_cast<std::size_t>(pid)];
      if (!alive(pe) || pe.waiting) continue;
      std::size_t w = static_cast<std::size_t>(pe.pc);
      if (image_.words[w] != op) continue;
      stats_.busy_pe_cycles += c;
      exec_one(pid, op, image_.words[w + 1], image_.words[w + 2]);
    }
  };

  // 2./3. Serialize over instruction types (§1.1 step 3).
  if (dispatch_ == Dispatch::Naive) {
    // The basic algorithm sweeps every type, present or not.
    for (std::int64_t op = 0; op < kNumDataOpcodes; ++op) {
      stats_.dispatch_cycles += cost_.case_test;
      if (present.count(op)) execute_type(op);
    }
    for (std::int64_t op = 1000; op < 1000 + kNumControlOpcodes; ++op) {
      stats_.dispatch_cycles += cost_.case_test;
      if (present.count(op)) execute_type(op);
    }
  } else {
    // Global-or the opcode presence mask, then touch only present types.
    ++stats_.global_ors;
    stats_.dispatch_cycles += cost_.global_or;
    for (std::int64_t op : present) {
      stats_.dispatch_cycles += cost_.hash_dispatch;
      execute_type(op);
    }
  }

  // 4. "Go to step 1."
  stats_.loop_cycles += cost_.interp_loop;

  // Barrier release: everyone alive is sitting at a kWait.
  bool any_waiting = false, all_waiting = true;
  for (const Pe& pe : pes_) {
    if (!alive(pe)) continue;
    if (pe.waiting) any_waiting = true;
    else all_waiting = false;
  }
  if (any_waiting && all_waiting) {
    for (Pe& pe : pes_) {
      if (!alive(pe)) continue;
      pe.waiting = false;
      pe.pc += 3;
    }
  }
}

void InterpMachine::run() {
  for (;;) {
    bool any_alive = false;
    for (const Pe& pe : pes_)
      if (alive(pe)) any_alive = true;
    if (!any_alive) break;
    step();
    ++stats_.iterations;
    if (stats_.iterations > config_.max_blocks) throw mimd::Timeout();
  }
  stats_.control_cycles = stats_.fetch_cycles + stats_.dispatch_cycles +
                          stats_.execute_cycles + stats_.loop_cycles;
}

}  // namespace msc::interp
