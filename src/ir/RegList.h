//===- ir/RegList.h - An instruction's operand list -------------*- C++ -*-===//
///
/// \file
/// The def or use list of one Instruction. Nearly every instruction has at
/// most two operands of each kind (calls with more than two arguments are
/// the exception), so the first two registers live inline and only a longer
/// list allocates. The list is as large as a std::vector (24 bytes) and has
/// the subset of its interface the IR uses: push_back, reserve, indexing,
/// iteration, erase and equality.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_IR_REGLIST_H
#define CCRA_IR_REGLIST_H

#include "ir/Register.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace ccra {

class RegList {
public:
  using value_type = VirtReg;
  using iterator = VirtReg *;
  using const_iterator = const VirtReg *;

  /// Registers held without a heap allocation.
  static constexpr std::uint32_t InlineCapacity = 2;

  RegList() noexcept = default;
  RegList(const RegList &Other) : RegList() { append(Other); }
  RegList(RegList &&Other) noexcept : RegList() { take(Other); }
  RegList &operator=(const RegList &Other) {
    if (this != &Other) {
      Size = 0;
      append(Other);
    }
    return *this;
  }
  RegList &operator=(RegList &&Other) noexcept {
    if (this != &Other) {
      release();
      take(Other);
    }
    return *this;
  }
  ~RegList() { release(); }

  std::size_t size() const { return Size; }
  bool empty() const { return Size == 0; }
  /// True while the registers live inline (no heap storage owned).
  bool isInline() const { return Data == Inline; }

  VirtReg &operator[](std::size_t I) {
    assert(I < Size && "register list index out of range");
    return Data[I];
  }
  const VirtReg &operator[](std::size_t I) const {
    assert(I < Size && "register list index out of range");
    return Data[I];
  }

  iterator begin() { return Data; }
  iterator end() { return Data + Size; }
  const_iterator begin() const { return Data; }
  const_iterator end() const { return Data + Size; }

  void push_back(VirtReg R) {
    if (Size == Capacity)
      grow(std::size_t(Capacity) * 2);
    Data[Size++] = R;
  }

  void reserve(std::size_t N) {
    if (N > Capacity)
      grow(N);
  }

  /// Removes [First, Last) and returns the position after the removed run.
  iterator erase(const_iterator First, const_iterator Last) {
    iterator Dest = Data + (First - Data);
    iterator Tail = Data + (Last - Data);
    std::copy(Tail, end(), Dest);
    Size -= static_cast<std::uint32_t>(Tail - Dest);
    return Dest;
  }
  iterator erase(const_iterator Pos) { return erase(Pos, Pos + 1); }

  friend bool operator==(const RegList &A, const RegList &B) {
    return std::equal(A.begin(), A.end(), B.begin(), B.end());
  }

private:
  void grow(std::size_t N) {
    if (N > std::numeric_limits<std::uint32_t>::max())
      throw std::length_error("register list too long");
    VirtReg *Heap = new VirtReg[N];
    std::copy(begin(), end(), Heap);
    release();
    Data = Heap;
    Capacity = static_cast<std::uint32_t>(N);
  }
  void append(const RegList &Other) {
    reserve(Size + Other.size());
    std::copy(Other.begin(), Other.end(), Data + Size);
    Size += Other.Size;
  }
  /// Takes \p Other's registers (its heap block, if any) and leaves it
  /// empty and inline. Expects this list to own no heap block.
  void take(RegList &Other) {
    if (Other.isInline()) {
      std::copy(Other.begin(), Other.end(), Inline);
    } else {
      Data = Other.Data;
      Capacity = Other.Capacity;
      Other.Data = Other.Inline;
      Other.Capacity = InlineCapacity;
    }
    Size = Other.Size;
    Other.Size = 0;
  }
  void release() {
    if (!isInline())
      delete[] Data;
    Data = Inline;
    Capacity = InlineCapacity;
  }

  VirtReg *Data = Inline;
  std::uint32_t Size = 0;
  std::uint32_t Capacity = InlineCapacity;
  VirtReg Inline[InlineCapacity];
};

static_assert(sizeof(RegList) == 24, "RegList stays the size of a vector");

} // namespace ccra

#endif // CCRA_IR_REGLIST_H
