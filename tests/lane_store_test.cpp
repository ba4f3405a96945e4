// Unit tests for the lane-major PE state store (simd/lanes.hpp) at the
// PE counts where the 64-PE word geometry has edges — 1, 63, 64, 65,
// 127, 1000 — plus the seeded-input regression that pins fill_int_lane
// byte-identical to the per-PE poke path it replaced, bit-exact payload
// round trips, and the lane kernels run directly on edge values against
// the scalar semantics. Machine-level
// companions (tail masks never enable pad PEs, spawn free-list /
// reuse_halted_pes on the lane store) run the real engines at the same
// PE counts and compare scalar vs host-vector execution.
#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <limits>

#include "msc/driver/pipeline.hpp"
#include "msc/driver/runner.hpp"
#include "msc/simd/lanes.hpp"
#include "msc/simd/machine.hpp"
#include "msc/support/str.hpp"
#include "msc/workload/kernels.hpp"

using namespace msc;
using simd::LaneStore;

namespace {

const std::int64_t kPeCounts[] = {1, 63, 64, 65, 127, 1000};

ir::CostModel kCost;

TEST(LaneStore, GeometryAndWordAlignment) {
  for (std::int64_t n : kPeCounts) {
    SCOPED_TRACE(n);
    LaneStore ls(n, 3);
    EXPECT_EQ(ls.nprocs(), n);
    EXPECT_EQ(ls.cells(), 3);
    // width is nprocs rounded up to a whole number of 64-bit mask words.
    EXPECT_EQ(ls.width(), (n + 63) / 64 * 64);
    EXPECT_EQ(ls.width() % 64, 0);
    EXPECT_EQ(ls.mask_words(), static_cast<std::size_t>(ls.width()) / 64);
    EXPECT_GE(ls.width(), n);
    EXPECT_LT(ls.width() - n, 64);
  }
}

TEST(LaneStore, AddrMajorLayoutRoundTrips) {
  for (std::int64_t n : kPeCounts) {
    SCOPED_TRACE(n);
    LaneStore ls(n, 4);
    for (std::int64_t pe = 0; pe < n; ++pe) {
      ls.store(pe, 0, Value::of_int(pe * 3 + 1));
      ls.store(pe, 2, Value::of_float(0.5 * static_cast<double>(pe)));
    }
    for (std::int64_t pe = 0; pe < n; ++pe) {
      // Scalar view and raw lanes agree on the same element.
      EXPECT_EQ(ls.load(pe, 0).as_int(), pe * 3 + 1);
      EXPECT_EQ(ls.payload_lane(0)[pe], pe * 3 + 1);
      EXPECT_EQ(ls.load(pe, 2).as_double(), 0.5 * static_cast<double>(pe));
      EXPECT_EQ(ls.payload_lane(2)[pe],
                std::bit_cast<std::int64_t>(0.5 * static_cast<double>(pe)));
    }
    // Untouched addresses and every pad element stay default-initialized.
    for (std::int64_t pe = 0; pe < ls.width(); ++pe) {
      EXPECT_EQ(ls.tag_lane(1)[pe], ls.tag_lane(3)[pe]);
      EXPECT_EQ(ls.payload_lane(1)[pe], 0);
    }
    for (std::int64_t pe = n; pe < ls.width(); ++pe) {
      EXPECT_EQ(ls.payload_lane(0)[pe], 0) << "pad lane written at pe " << pe;
      EXPECT_EQ(ls.payload_lane(2)[pe], 0) << "pad lane written at pe " << pe;
    }
  }
}

TEST(LaneStore, FillIntLaneByteIdenticalToScalarStores) {
  for (std::int64_t n : kPeCounts) {
    SCOPED_TRACE(n);
    std::vector<std::int64_t> vals(static_cast<std::size_t>(n));
    for (std::int64_t p = 0; p < n; ++p)
      vals[static_cast<std::size_t>(p)] = driver::seed_input(42, p);

    LaneStore bulk(n, 2), scalar(n, 2);
    bulk.fill_int_lane(1, vals.data(), n);
    for (std::int64_t p = 0; p < n; ++p)
      scalar.store(p, 1, Value::of_int(vals[static_cast<std::size_t>(p)]));

    const std::size_t w = static_cast<std::size_t>(bulk.width());
    EXPECT_EQ(0, std::memcmp(bulk.tag_lane(1), scalar.tag_lane(1), w));
    EXPECT_EQ(0, std::memcmp(bulk.payload_lane(1), scalar.payload_lane(1),
                             w * sizeof(std::int64_t)));
    // Neighbouring lanes untouched.
    for (std::int64_t p = 0; p < bulk.width(); ++p)
      EXPECT_EQ(bulk.payload_lane(0)[p], 0);
  }
}

TEST(LaneStore, ClearPeResetsOneColumnOnly) {
  // Touch the last logical row too: the reset must reach every live row.
  LaneStore ls(65, 4096);
  const std::int64_t addrs[] = {0, 1, 2, 4095};
  for (std::int64_t pe = 0; pe < 65; ++pe)
    for (std::int64_t a : addrs) ls.store(pe, a, Value::of_int(100 * pe + a));
  ls.stack(64).push_back(Value::of_int(9));
  ls.clear_pe(64);
  EXPECT_TRUE(ls.stack(64).empty());
  for (std::int64_t a : addrs) {
    EXPECT_EQ(ls.load(64, a).as_int(), 0);
    EXPECT_EQ(ls.load(63, a).as_int(), 100 * 63 + a) << "neighbour clobbered";
    EXPECT_EQ(ls.load(0, a).as_int(), a) << "neighbour clobbered";
  }
}

const double kNaN = std::bit_cast<double>(std::int64_t{0x7ff800000000beef});

bool same_bits(const Value& a, const Value& b) {
  return a.kind == b.kind && a.bits() == b.bits();
}

TEST(LaneStore, PayloadBitsRoundTripExactly) {
  // -0.0 == 0.0 and NaN != NaN under Value::operator==, so compare the
  // tag and the raw payload word instead.
  const Value edge[] = {Value::of_float(-0.0), Value::of_float(kNaN),
                        Value::of_int(std::numeric_limits<std::int64_t>::min()),
                        Value::of_float(1e300)};
  LaneStore ls(65, 4);
  ir::SoaLocal soa;
  soa.assign(4);
  for (std::int64_t pe = 0; pe < 65; ++pe)
    for (std::int64_t a = 0; a < 4; ++a) ls.store(pe, a, edge[(pe + a) % 4]);
  for (std::int64_t a = 0; a < 4; ++a) soa.set(a, edge[a]);
  for (std::int64_t a = 0; a < 4; ++a) {
    SCOPED_TRACE(a);
    EXPECT_TRUE(same_bits(soa.get(a), edge[a]));
    for (std::int64_t pe = 0; pe < 65; ++pe)
      EXPECT_TRUE(same_bits(ls.load(pe, a), edge[(pe + a) % 4])) << "pe " << pe;
  }
  EXPECT_EQ(ls.tag_lane(0)[0], 1);
  EXPECT_EQ(ls.payload_lane(0)[0], std::bit_cast<std::int64_t>(-0.0));
  EXPECT_EQ(ls.payload_lane(1)[0], std::bit_cast<std::int64_t>(kNaN));

  ls.clear_pe(64);
  soa.assign(4);
  for (std::int64_t a = 0; a < 4; ++a) {
    EXPECT_TRUE(same_bits(ls.load(64, a), Value{}));
    EXPECT_TRUE(same_bits(soa.get(a), Value{}));
    EXPECT_TRUE(same_bits(ls.load(63, a), edge[(63 + a) % 4]))
        << "neighbour clobbered";
  }
}

TEST(LaneStore, LiveRowsGrowOnFirstTouchAndLanesStayPut) {
  for (std::int64_t n : kPeCounts) {
    SCOPED_TRACE(n);
    const std::int64_t cells = 4096;
    LaneStore ls(n, cells);
    EXPECT_EQ(ls.cells(), cells);
    EXPECT_EQ(ls.rows(), 0);
    // Loads past the high-water mark read Value{} and grow nothing.
    for (std::int64_t a : {std::int64_t{0}, cells - 1})
      EXPECT_TRUE(same_bits(ls.load(n - 1, a), Value{}));
    EXPECT_EQ(ls.rows(), 0);

    ls.store(0, 0, Value::of_int(1));
    EXPECT_EQ(ls.rows(), 1);
    const std::uint8_t* tag0 = ls.tag_lane(0);
    const std::int64_t* pay0 = ls.payload_lane(0);
    ls.store(n - 1, cells - 1, Value::of_float(2.5));
    EXPECT_EQ(ls.rows(), cells);
    EXPECT_EQ(ls.tag_lane(0), tag0) << "growth moved lane 0";
    EXPECT_EQ(ls.payload_lane(0), pay0) << "growth moved lane 0";
    EXPECT_TRUE(same_bits(ls.load(n - 1, cells - 1), Value::of_float(2.5)));
    EXPECT_TRUE(same_bits(ls.load(0, 0), Value::of_int(1)));
    // Rows grown in between, pads included, are zeroed Value{}s.
    for (std::int64_t pe = 0; pe < ls.width(); ++pe) {
      EXPECT_EQ(ls.tag_lane(cells / 2)[pe], 0);
      EXPECT_EQ(ls.payload_lane(cells / 2)[pe], 0);
    }
  }
}

TEST(LaneStore, StacksAreIndependentPerPe) {
  LaneStore ls(127, 1);
  for (std::int64_t pe = 0; pe < 127; ++pe)
    for (std::int64_t d = 0; d <= pe % 3; ++d)
      ls.stack(pe).push_back(Value::of_int(pe * 10 + d));
  for (std::int64_t pe = 0; pe < 127; ++pe) {
    ASSERT_EQ(ls.stack(pe).size(), static_cast<std::size_t>(pe % 3 + 1));
    EXPECT_EQ(ls.stack(pe).back().as_int(), pe * 10 + pe % 3);
  }
}

// ---------------------------------------------------------------------------
// The lane kernels called directly on 128-wide lanes under a partial mask:
// every enabled element's tag and payload must equal ir::eval_binary (or
// exec_instr for unary ops) on the same Values. Word 0 of the mask is full
// (the eight-tags-at-a-time classifier), word 1 is sparse (the per-bit
// path). Disabled elements hold 1e300, which no kernel may convert to int.

using ir::Opcode;

constexpr std::size_t kLaneWidth = 128;
const std::uint64_t kMask[2] = {~std::uint64_t{0}, 0x8421f0f05555f00full};

bool enabled(std::size_t k) { return ((kMask[k / 64] >> (k % 64)) & 1) != 0; }

struct Lane {
  std::vector<std::uint8_t> tag = std::vector<std::uint8_t>(kLaneWidth, 0x5a);
  std::vector<std::int64_t> bits = std::vector<std::int64_t>(kLaneWidth, 0x5a5a);
  Value at(std::size_t k) const {
    return Value::from_bits(static_cast<Value::Kind>(tag[k]), bits[k]);
  }
  void put(std::size_t k, const Value& v) {
    tag[k] = static_cast<std::uint8_t>(v.kind);
    bits[k] = v.bits();
  }
};

enum class Fill { Int, Float, Mixed };

/// Ops whose scalar semantics convert a float operand to int; their float
/// inputs must stay in int64 range (out of range is UB in the reference).
bool converts_float(Opcode op) {
  switch (op) {
    case Opcode::BitAnd: case Opcode::BitOr: case Opcode::BitXor:
    case Opcode::Shl: case Opcode::Shr: case Opcode::BitNot: case Opcode::CastI:
      return true;
    default:
      return false;
  }
}

/// Operand a walks the value lists by k % 10, operand b by k / 10, so the
/// fully enabled first word pairs every a value with the first seven b
/// values (the divisors 0 and -1 and INT64_MIN among them).
Lane make_lane(Fill fill, bool convertible, bool operand_b) {
  const std::int64_t ints[] = {0, -1, std::numeric_limits<std::int64_t>::min(),
                               1, std::numeric_limits<std::int64_t>::max(),
                               7, -3, 63, 64, 42};
  const std::vector<double> floats =
      convertible ? std::vector<double>{-0.0, 0.0, 2.5, -7.75, 1e15, -1e15, 3.0}
                  : std::vector<double>{0.0, -0.0, kNaN, 1e300, -1e300, 2.5, -7.75};
  Lane l;
  for (std::size_t k = 0; k < kLaneWidth; ++k) {
    if (!enabled(k)) {
      l.put(k, Value::of_float(1e300));
      continue;
    }
    const std::size_t idx = operand_b ? k / 10 : k % 10;
    const bool is_float =
        fill == Fill::Float || (fill == Fill::Mixed && (k + operand_b) % 3 == 0);
    l.put(k, is_float ? Value::of_float(floats[idx % floats.size()])
                      : Value::of_int(ints[idx % 10]));
  }
  return l;
}

template <typename Want>
void expect_lane(const Lane& out, Want want) {
  for (std::size_t k = 0; k < kLaneWidth; ++k) {
    if (!enabled(k)) continue;
    const Value w = want(k);
    ASSERT_EQ(out.tag[k], static_cast<std::uint8_t>(w.kind)) << "element " << k;
    ASSERT_EQ(out.bits[k], w.bits()) << "element " << k << ": got "
                                     << out.at(k).to_string() << ", want "
                                     << w.to_string();
  }
}

struct NoBus final : ir::MemoryBus {
  Value mono_load(std::int64_t) override { throw ir::MachineFault("bus"); }
  void mono_store(std::int64_t, Value) override { throw ir::MachineFault("bus"); }
  Value route_load(std::int64_t, std::int64_t) override {
    throw ir::MachineFault("bus");
  }
  void route_store(std::int64_t, std::int64_t, Value) override {
    throw ir::MachineFault("bus");
  }
};

Value scalar_unary(Opcode op, const Value& a) {
  std::vector<Value> stack{a};
  NoBus bus;
  ir::PeContext pe{ir::LocalView{}, &stack, 0, 1};
  ir::exec_instr(ir::Instr::of(op), pe, bus);
  return stack.back();
}

TEST(LaneKernels, EdgeValuesMatchScalarSemantics) {
  std::vector<SimdIsa> isas{SimdIsa::Scalar};
  if (resolve_simd_isa(SimdIsa::Auto) != SimdIsa::Scalar)
    isas.push_back(resolve_simd_isa(SimdIsa::Auto));
  const Opcode bin_ops[] = {
      Opcode::Add, Opcode::Sub,    Opcode::Mul,   Opcode::Div,    Opcode::Mod,
      Opcode::Lt,  Opcode::Le,     Opcode::Gt,    Opcode::Ge,     Opcode::Eq,
      Opcode::Ne,  Opcode::LAnd,   Opcode::LOr,   Opcode::BitAnd, Opcode::BitOr,
      Opcode::BitXor, Opcode::Shl, Opcode::Shr};
  const Opcode un_ops[] = {Opcode::Neg, Opcode::Not, Opcode::BitNot,
                           Opcode::CastI, Opcode::CastF};
  const Fill fills[] = {Fill::Int, Fill::Float, Fill::Mixed};
  for (SimdIsa isa : isas) {
    const simd::LaneKernels& lk = simd::lane_kernels(isa);
    for (Opcode op : bin_ops) {
      const bool conv = converts_float(op);
      std::vector<Value> imms{Value::of_int(0), Value::of_int(-1),
                              Value::of_int(std::numeric_limits<std::int64_t>::min()),
                              Value::of_float(-0.0), Value::of_float(2.5)};
      if (!conv) {
        imms.push_back(Value::of_float(kNaN));
        imms.push_back(Value::of_float(1e300));
      }
      for (Fill fa : fills) {
        const Lane a = make_lane(fa, conv, false);
        for (Fill fb : fills) {
          SCOPED_TRACE(cat(simd_isa_name(isa), " bin ", ir::opcode_name(op),
                           " fills ", static_cast<int>(fa), "/",
                           static_cast<int>(fb)));
          const Lane b = make_lane(fb, conv, true);
          const auto want = [&](std::size_t k) {
            return ir::eval_binary(op, a.at(k), b.at(k));
          };
          Lane out;
          lk.bin(op, a.tag.data(), a.bits.data(), b.tag.data(), b.bits.data(),
                 out.tag.data(), out.bits.data(), kMask, kLaneWidth);
          expect_lane(out, want);
          Lane inplace = a;  // the executor's dst == a form
          lk.bin(op, inplace.tag.data(), inplace.bits.data(), b.tag.data(),
                 b.bits.data(), inplace.tag.data(), inplace.bits.data(), kMask,
                 kLaneWidth);
          expect_lane(inplace, want);
        }
        for (const Value& imm : imms) {
          SCOPED_TRACE(cat(simd_isa_name(isa), " bin_imm ", ir::opcode_name(op),
                           " fill ", static_cast<int>(fa), " imm ",
                           imm.to_string()));
          Lane out;
          lk.bin_imm(op, a.tag.data(), a.bits.data(), imm, out.tag.data(),
                     out.bits.data(), kMask, kLaneWidth);
          expect_lane(out, [&](std::size_t k) {
            return ir::eval_binary(op, a.at(k), imm);
          });
        }
      }
    }
    for (Opcode op : un_ops) {
      for (Fill fa : fills) {
        SCOPED_TRACE(cat(simd_isa_name(isa), " un ", ir::opcode_name(op),
                         " fill ", static_cast<int>(fa)));
        const Lane a = make_lane(fa, converts_float(op), false);
        const auto want = [&](std::size_t k) { return scalar_unary(op, a.at(k)); };
        Lane out;
        lk.un(op, a.tag.data(), a.bits.data(), out.tag.data(), out.bits.data(),
              kMask, kLaneWidth);
        expect_lane(out, want);
        Lane inplace = a;
        lk.un(op, inplace.tag.data(), inplace.bits.data(), inplace.tag.data(),
              inplace.bits.data(), kMask, kLaneWidth);
        expect_lane(inplace, want);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Seeded-input regression (satellite of the lane-store refactor): the
// bulk fill_lane seeding path must produce exactly the values the
// per-PE poke loop produced before the refactor. The constants below
// are the pre-refactor golden seed_input values — if seed_input or the
// fill path drifts, machine inputs silently change and every downstream
// differential loses its anchor.

TEST(LaneSeeding, SeedInputGoldenValues) {
  const std::int64_t want42[] = {6, 1, 88, 58, 48, 90, 18, 65};
  const std::int64_t want1[] = {37, 18, 79, 33, 14, 10, 45, 31};
  for (std::int64_t p = 0; p < 8; ++p) {
    EXPECT_EQ(driver::seed_input(42, p), want42[p]) << "pe " << p;
    EXPECT_EQ(driver::seed_input(1, p), want1[p]) << "pe " << p;
  }
}

TEST(LaneSeeding, FillLaneMatchesPokeLoopOnRealMachine) {
  auto compiled = driver::compile(workload::kernel("listing1").source);
  const auto* slot = compiled.layout.find("x");
  ASSERT_NE(slot, nullptr);
  auto conv = core::meta_state_convert(compiled.graph, kCost, {});
  auto prog = codegen::generate(conv.automaton, conv.graph, kCost, {});
  for (std::int64_t n : kPeCounts) {
    SCOPED_TRACE(n);
    mimd::RunConfig config;
    config.nprocs = n;
    auto bulk = simd::make_machine(prog, kCost, config);
    auto poked = simd::make_machine(prog, kCost, config);
    driver::seed_machine(*bulk, compiled, config, 42);  // fill_lane path
    for (std::int64_t p = 0; p < n; ++p)
      poked->poke(p, slot->addr, Value::of_int(driver::seed_input(42, p)));
    for (std::int64_t p = 0; p < n; ++p) {
      const Value a = bulk->peek(p, slot->addr);
      const Value b = poked->peek(p, slot->addr);
      EXPECT_TRUE(a == b) << "pe " << p << ": " << a.to_string() << " vs "
                          << b.to_string();
    }
  }
}

// ---------------------------------------------------------------------------
// Machine-level edges: tail masks and the spawn free-list, at the same
// PE counts, under both the scalar and the host-vector path.

void expect_scalar_vector_identical(const driver::Compiled& compiled,
                                    const core::ConvertResult& conv,
                                    mimd::RunConfig config,
                                    std::uint64_t seed) {
  const SimdIsa host = resolve_simd_isa(SimdIsa::Auto);
  for (auto engine :
       {mimd::SimdEngine::Reference, mimd::SimdEngine::Codegen}) {
    SCOPED_TRACE(simd::engine_name(engine));
    config.engine = engine;
    config.simd_isa = SimdIsa::Scalar;
    simd::SimdStats s_stats;
    std::vector<std::int64_t> s_visits;
    auto scalar = driver::run_simd(compiled, conv, config, seed, kCost, {},
                                   &s_stats, &s_visits);
    if (host == SimdIsa::Scalar) continue;  // no vector ISA on this host
    config.simd_isa = host;
    simd::SimdStats v_stats;
    std::vector<std::int64_t> v_visits;
    auto vector = driver::run_simd(compiled, conv, config, seed, kCost, {},
                                   &v_stats, &v_visits);
    EXPECT_TRUE(scalar == vector)
        << "scalar: " << scalar.to_string() << "\nvector: "
        << vector.to_string();
    EXPECT_TRUE(s_stats == v_stats);
    EXPECT_EQ(s_visits, v_visits);
  }
}

TEST(LaneMachine, TailMasksNeverEnablePadPes) {
  // At 63/65/127/1000 PEs the last mask word is partial: a stray pad bit
  // would corrupt results or over-count busy cycles. Run a branchy
  // kernel at every edge count and demand scalar/vector bit-identity on
  // both engines.
  auto compiled = driver::compile(workload::kernel("listing1").source);
  auto conv = core::meta_state_convert(compiled.graph, kCost, {});
  for (std::int64_t n : kPeCounts) {
    SCOPED_TRACE(n);
    mimd::RunConfig config;
    config.nprocs = n;
    expect_scalar_vector_identical(compiled, conv, config, 42);
  }
}

TEST(LaneMachine, SpawnFreeListAndReuseAcrossWordBoundaries) {
  // spawn_tree allocates PEs through the free list (clear_pe on the lane
  // store); reuse_halted_pes re-routes allocation through halted
  // columns. Both policies must stay bit-identical across ISAs exactly
  // at the word-boundary PE counts.
  auto compiled = driver::compile(workload::kernel("spawn_tree").source);
  auto conv = core::meta_state_convert(compiled.graph, kCost, {});
  for (std::int64_t n : {63ll, 64ll, 65ll}) {
    for (bool reuse : {false, true}) {
      SCOPED_TRACE(cat("n", n, reuse ? "/reuse" : "/fresh"));
      mimd::RunConfig config;
      config.nprocs = n;
      config.initial_active = 2;
      config.reuse_halted_pes = reuse;
      expect_scalar_vector_identical(compiled, conv, config, 7);
    }
  }
}

}  // namespace
