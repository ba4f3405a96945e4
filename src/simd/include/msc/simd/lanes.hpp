#ifndef MSC_SIMD_LANES_HPP
#define MSC_SIMD_LANES_HPP

// Lane-major PE state store and whole-lane execution backend.
//
// The store lays every PE's copy of a local-memory cell out contiguously
// (structure-of-arrays per variable: one kind-tag lane and one 64-bit
// payload lane per address, the payload read as int64 or as a double's
// bits by its tag), padded to a 64-PE boundary so enable masks are
// whole 64-bit words aligned with DynBitset's backing words. The engines
// no longer own PE memory: ReferenceSimdMachine interprets scalar PE views
// of this store, while CodegenSimdMachine may execute each translated
// same-guard group lane-at-a-time through LaneExecutor under a host ISA
// from msc/support/simd_isa.hpp.
//
// Semantics contract: whichever path executes, memories, SimdStats,
// visits, tracer streams and profiles are bit-identical to the scalar
// reference engine (simd_differential_test pins it). The lane plan
// therefore mirrors the scalar order exactly: ops that cannot be proven
// lane-safe fall back to per-PE spans in ascending PE id, partial results
// are materialized onto the real per-PE stacks at every boundary, and
// fault messages/ordering match the scalar interpreter.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "msc/codegen/program.hpp"
#include "msc/codegen/translate.hpp"
#include "msc/ir/cost.hpp"
#include "msc/ir/exec.hpp"
#include "msc/support/simd_isa.hpp"

namespace msc::simd {

/// Iterate the set bits of a lane mask in ascending PE id (the reference
/// engine's 0..nprocs broadcast order).
template <typename F>
inline void for_each_lane_bit(const std::uint64_t* mask, std::size_t nwords,
                              F&& f) {
  for (std::size_t w = 0; w < nwords; ++w) {
    std::uint64_t m = mask[w];
    while (m != 0) {
      const int bit = __builtin_ctzll(m);
      f(w * 64 + static_cast<std::size_t>(bit));
      m &= m - 1;
    }
  }
}

/// Split `mask` by `pred(pe)`, called once per set bit in ascending PE
/// id: `taken` gets the PEs where it holds, `other` the rest.
template <typename F>
inline void split_lane_mask(const std::uint64_t* mask, std::size_t nwords,
                            std::uint64_t* taken, std::uint64_t* other,
                            F&& pred) {
  std::fill_n(taken, nwords, 0);
  for_each_lane_bit(mask, nwords, [&](std::size_t k) {
    if (pred(k)) taken[k / 64] |= std::uint64_t{1} << (k % 64);
  });
  for (std::size_t w = 0; w < nwords; ++w) other[w] = mask[w] & ~taken[w];
}

/// Owns all PE-resident state of a SIMD machine: local memories as one
/// lane-major ir::SoaLocal with width() columns (element (addr, pe) lives
/// at addr * width() + pe in both the tag array and the payload array)
/// plus the per-PE operand stacks. A cell costs 9 B: one tag byte and one
/// Value::bits word. width() is nprocs rounded up to a multiple of 64; the
/// pad elements stay zeroed Value{}s and are never enabled by any mask.
///
/// cells() is the logical local_mem_cells bound every range check uses;
/// only rows [0, rows()) are physically live (see ir::SoaLocal). Stores,
/// row pointers and PE views grow the live rows on first touch, so a
/// machine pays for the addresses its program uses, not for cells().
class LaneStore {
 public:
  LaneStore(std::int64_t nprocs, std::int64_t cells);

  std::int64_t nprocs() const { return nprocs_; }
  std::int64_t width() const {
    return static_cast<std::int64_t>(mem_.cols());
  }
  std::int64_t cells() const { return mem_.cells(); }
  std::int64_t rows() const { return mem_.rows(); }
  std::size_t mask_words() const {
    return mem_.cols() / 64;
  }

  Value load(std::int64_t pe, std::int64_t addr) const {
    return mem_.get(addr, static_cast<std::size_t>(pe));
  }
  void store(std::int64_t pe, std::int64_t addr, const Value& v) {
    mem_.set(addr, v, static_cast<std::size_t>(pe));
  }

  /// Scalar window for exec_instr: column `pe` of the lane-major store.
  ir::LocalView pe_view(std::int64_t pe) {
    return mem_.view(static_cast<std::size_t>(pe));
  }

  /// Lane `addr` (width() elements), made live.
  std::uint8_t* tag_lane(std::int64_t addr) { return mem_.tag_row(addr); }
  std::int64_t* payload_lane(std::int64_t addr) { return mem_.bits_row(addr); }

  std::vector<Value>& stack(std::int64_t pe) {
    return stacks_[static_cast<std::size_t>(pe)];
  }
  const std::vector<Value>& stack(std::int64_t pe) const {
    return stacks_[static_cast<std::size_t>(pe)];
  }

  /// Spawn reset: zero the PE's column across the live rows and clear its
  /// stack.
  void clear_pe(std::int64_t pe);

  /// Seed one address across all PEs from per-PE integers
  /// (vals[0..nprocs)): one memcpy into the payload lane, tag lane
  /// zeroed — byte-identical to nprocs scalar of_int stores.
  void fill_int_lane(std::int64_t addr, const std::int64_t* vals,
                     std::int64_t n);

 private:
  std::int64_t nprocs_;
  ir::SoaLocal mem_;
  std::vector<std::vector<Value>> stacks_;
};

/// One lane-level operation of a lowered same-guard run. The virtual
/// operand stack the ops manipulate holds whole lanes; `Materialize`
/// flushes it onto the real per-PE stacks whenever scalar code (or the
/// end of the run) needs them there.
enum class LOpKind : std::uint8_t {
  PushLane,       ///< broadcast instr.imm
  LoadLane,       ///< push copy of local lane [n] (bounds-checked once)
  StoreLane,      ///< masked scatter of top into local lane [n]; pop
  BroadcastMono,  ///< push broadcast of mono[n]
  StoreMono,      ///< pop; per enabled PE ascending: mono[n] = elem
  LdDynLane,      ///< pop addr lane; push per-PE local[addr] gather
  StDynLane,      ///< pop addr, pop value; per-PE local[addr] scatter
  LdMDynLane,     ///< pop addr lane; push per-PE mono_load gather
  StMDynLane,     ///< pop addr, pop value; per-PE mono_store
  RouteLdLane,    ///< pop proc, pop addr; push per-PE route_load
  RouteStLane,    ///< pop proc, addr, value; per-PE route_store
  BinLane,        ///< pop b; top = eval_binary(instr.op, top, b)
  BinImmLane,     ///< top = eval_binary(instr.op, top, instr.imm)
  UnLane,         ///< top = unary(instr.op, top)
  DupLane,
  SwapLane,
  PopLane,        ///< drop n virtual slots
  ProcIdLane,     ///< push iota
  NProcsLane,     ///< push broadcast nprocs
  SetPcLane,      ///< move the enabled PEs to a
  CondSetPcLane,  ///< pop cond; move the enabled PEs to truthy ? a : b
  HaltPcLane,     ///< move the enabled PEs to none
  Materialize,    ///< push all virtual slots (bottom-up) onto real stacks
  ScalarSpan,     ///< engine executes source ops [src, src_end) per PE
};

struct LOp {
  LOpKind kind;
  ir::Instr instr{ir::Opcode::PushI, {}};
  ir::StateId a = ir::kNoState;
  ir::StateId b = ir::kNoState;
  std::int64_t n = 0;        ///< address / pop count
  std::int32_t src = 0;      ///< ScalarSpan: first source-op index
  std::int32_t src_end = 0;  ///< ScalarSpan: one past the last index
};

/// One translated group (codegen::TGroup) lowered to lane code; ScalarSpan
/// indices refer to that group's TOp stream.
struct LaneRun {
  std::vector<LOp> code;
  std::int32_t max_depth = 0;  ///< peak virtual-stack depth
};

/// One meta state's lowered groups, parallel to TransState::groups.
struct LanePlan {
  std::vector<LaneRun> runs;
};

/// Lower a translated state into one lane run per TGroup.
LanePlan build_lane_plan(const codegen::TransState& ts);

/// Elementwise kernels over whole lanes, dispatched per host ISA. Each
/// lane operand is a (tag, payload) pointer pair; the payload is
/// Value::bits, an int64 or a double's bit pattern by tag. Inputs are
/// fully defined across the padded width; outputs are written fully
/// defined (disabled elements may hold garbage values), and per-element
/// tags and payloads on enabled lanes are bit-identical to
/// ir::eval_binary / the scalar unary ops. `dst` may alias `a`.
struct LaneKernels {
  using BinFn = void (*)(ir::Opcode op, const std::uint8_t* atag,
                         const std::int64_t* abits, const std::uint8_t* btag,
                         const std::int64_t* bbits, std::uint8_t* otag,
                         std::int64_t* obits, const std::uint64_t* mask,
                         std::size_t n);
  using BinImmFn = void (*)(ir::Opcode op, const std::uint8_t* atag,
                            const std::int64_t* abits, const Value& b,
                            std::uint8_t* otag, std::int64_t* obits,
                            const std::uint64_t* mask, std::size_t n);
  using UnFn = void (*)(ir::Opcode op, const std::uint8_t* atag,
                        const std::int64_t* abits, std::uint8_t* otag,
                        std::int64_t* obits, const std::uint64_t* mask,
                        std::size_t n);
  BinFn bin = nullptr;
  BinImmFn bin_imm = nullptr;
  UnFn un = nullptr;
};

/// Kernel table for a resolved ISA (Avx2/Neon when compiled for this
/// host, otherwise portable scalar loops over whole lanes).
const LaneKernels& lane_kernels(SimdIsa isa);

/// Engine services the executor cannot perform itself: per-PE execution
/// of a ScalarSpan of the group's TOps, and pc writes. A pc write is one
/// mask-level move: every PE in `mask` takes `target` (kNoState: halt) as
/// its pc when the engine commits the meta state.
class LaneHost {
 public:
  virtual void lane_scalar_span(std::int32_t first, std::int32_t end,
                                const std::uint64_t* mask,
                                std::size_t nwords) = 0;
  virtual void lane_move(const std::uint64_t* mask, ir::StateId target) = 0;

 protected:
  ~LaneHost() = default;
};

/// Executes lowered lane runs against a LaneStore. One instance per
/// machine; lane buffers are pooled and grown to the deepest plan seen.
class LaneExecutor {
 public:
  LaneExecutor(LaneStore& store, ir::MemoryBus& bus, std::int64_t nprocs,
               SimdIsa isa);

  /// Execute one run under `mask` (mask_words() words; at least one bit
  /// set). Faults propagate as ir::MachineFault with scalar-identical
  /// messages.
  void run(const LaneRun& r, const std::uint64_t* mask, LaneHost& host);

 private:
  struct LaneBuf {
    std::vector<std::uint8_t> tag;
    std::vector<std::int64_t> bits;
  };

  void ensure_depth(std::int32_t depth);
  LaneBuf& slot(std::int32_t d) {
    return bufs_[static_cast<std::size_t>(slot_buf_[static_cast<std::size_t>(d)])];
  }
  LaneBuf& push_slot();
  Value slot_value(const LaneBuf& b, std::size_t k) const {
    return Value::from_bits(static_cast<Value::Kind>(b.tag[k]), b.bits[k]);
  }
  void materialize(const std::uint64_t* mask);

  LaneStore& store_;
  ir::MemoryBus& bus_;
  std::int64_t nprocs_;
  std::size_t width_;
  std::size_t nwords_;
  const LaneKernels* kernels_;
  std::vector<LaneBuf> bufs_;
  std::vector<std::int32_t> slot_buf_;  ///< slot depth -> buffer index
  /// CondSetPcLane's split of the mask: taken, then not taken.
  std::vector<std::uint64_t> split_;
  std::int32_t depth_ = 0;
};

}  // namespace msc::simd

#endif  // MSC_SIMD_LANES_HPP
