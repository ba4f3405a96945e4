#ifndef MSC_IR_EXEC_HPP
#define MSC_IR_EXEC_HPP

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "msc/ir/instr.hpp"
#include "msc/support/value.hpp"

namespace msc::ir {

/// Access to memories outside the executing PE. Both machine simulators
/// (the asynchronous MIMD oracle and the SIMD target) implement this, so a
/// single `exec_instr` defines instruction semantics once — divergence
/// between oracle and target is impossible by construction.
class MemoryBus {
 public:
  virtual ~MemoryBus() = default;
  virtual Value mono_load(std::int64_t addr) = 0;
  virtual void mono_store(std::int64_t addr, Value v) = 0;
  virtual Value route_load(std::int64_t proc, std::int64_t addr) = 0;
  virtual void route_store(std::int64_t proc, std::int64_t addr, Value v) = 0;
};

struct LocalView;

/// Owning structure-of-arrays local memory, shared by every machine: one
/// column for a per-PE machine (MIMD oracle, interpreter), one column per
/// PE (the padded lane width) for the SIMD engines' lane-major store.
/// Element (addr, col) lives at addr * cols() + col in two arrays, a kind
/// tag byte and a 64-bit payload (Value::bits), so a cell costs 9 B and
/// all columns' copies of one address form one contiguous row.
///
/// cells() is the logical size every range check uses; the physical size
/// is a high-water mark that grows on first touch. assign() reserves
/// cells × cols elements and fills none of them. Only rows [0, rows()) are
/// live: every write, and every request for a row pointer, grows the live
/// rows to cover its address, value-initialising the new rows (Value{} ==
/// integer 0), and a read past rows() yields Value{}. Growth stays inside
/// the reservation, so row pointers never move during the store's life.
/// Callers range-check an address against cells() before touching it.
class SoaLocal {
 public:
  /// Reset to `cells` zeroed rows of `cols` cells. Drops the live rows and
  /// keeps the capacity, so a reset costs nothing until the next touch.
  void assign(std::int64_t cells, std::size_t cols = 1);
  std::int64_t cells() const { return cells_; }
  std::int64_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  Value get(std::int64_t addr, std::size_t col = 0) const {
    if (addr >= rows_) return Value{};
    const std::size_t at = index(addr, col);
    return Value::from_bits(static_cast<Value::Kind>(tag_[at]), bits_[at]);
  }
  void set(std::int64_t addr, const Value& v, std::size_t col = 0) {
    touch(addr);
    const std::size_t at = index(addr, col);
    tag_[at] = static_cast<std::uint8_t>(v.kind);
    bits_[at] = v.bits();
  }
  /// Row `addr` of the tag / payload array (cols() elements), made live.
  std::uint8_t* tag_row(std::int64_t addr) {
    touch(addr);
    return tag_.data() + index(addr, 0);
  }
  std::int64_t* bits_row(std::int64_t addr) {
    touch(addr);
    return bits_.data() + index(addr, 0);
  }
  /// Zero column `col` across the live rows.
  void clear_col(std::size_t col);
  LocalView view(std::size_t col = 0);

 private:
  std::size_t index(std::int64_t addr, std::size_t col) const {
    return static_cast<std::size_t>(addr) * cols_ + col;
  }
  void touch(std::int64_t addr) {
    if (addr >= rows_) grow(addr + 1);
  }
  void grow(std::int64_t rows);

  std::vector<std::uint8_t> tag_;
  std::vector<std::int64_t> bits_;
  std::size_t cols_ = 1;
  std::int64_t cells_ = 0;
  std::int64_t rows_ = 0;
};

/// One PE's window onto a SoaLocal: column `col` of `owner`, whose
/// accesses grow the owner's live rows. `cells` is the logical bound
/// exec_instr range-checks against. A default view has zero cells, so
/// every access faults like an empty local memory.
struct LocalView {
  SoaLocal* owner = nullptr;
  std::size_t col = 0;
  std::int64_t cells = 0;

  Value get(std::int64_t addr) const { return owner->get(addr, col); }
  void put(std::int64_t addr, const Value& v) { owner->set(addr, v, col); }
};

inline LocalView SoaLocal::view(std::size_t col) { return {this, col, cells_}; }

/// One PE's mutable execution state as seen by exec_instr.
struct PeContext {
  LocalView local;            ///< PE-local memory window
  std::vector<Value>* stack;  ///< persistent operand stack
  std::int64_t proc_id;
  std::int64_t nprocs;
};

/// Thrown on machine-level faults (stack underflow, address out of range).
class MachineFault : public std::runtime_error {
 public:
  explicit MachineFault(const std::string& what) : std::runtime_error(what) {}
};

/// Execute one instruction. Throws MachineFault on underflow/range errors.
void exec_instr(const Instr& in, PeContext& pe, MemoryBus& bus);

/// Semantics of one pure binary opcode (Add…Shr, LAnd, LOr) on two popped
/// operands — the single definition exec_instr routes through, exposed so
/// the translation-cache engine's fused immediate ops and constant folder
/// share it (divergence impossible by construction).
Value eval_binary(Opcode op, const Value& a, const Value& b);

/// Pop helper shared with block-exit condition evaluation.
Value stack_pop(std::vector<Value>& stack);

}  // namespace msc::ir

#endif  // MSC_IR_EXEC_HPP
