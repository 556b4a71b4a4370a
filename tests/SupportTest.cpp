//===- tests/SupportTest.cpp - support library unit tests -----------------===//

#include "support/BitVector.h"
#include "support/Hash.h"
#include "support/Rng.h"
#include "support/Statistics.h"
#include "support/Table.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

using namespace ccra;

namespace {

// --- hash64 --------------------------------------------------------------

TEST(Hash, GoldenValuesPinTheFunction) {
  // The wire checksum is these values' low 32 bits: a change here is a
  // wire-format change and needs a WireVersion bump.
  EXPECT_EQ(0xd8a310150df90781ull, hash64(""));
  EXPECT_EQ(0xe9e9d1323cace9c3ull, hash64("a"));
  EXPECT_EQ(0x9a028988f85810aeull, hash64("abcdefgh"));
  EXPECT_EQ(0x7b21554f20779235ull, hash64("abcdefghi"));
  EXPECT_EQ(0xf54595e63d89ecf7ull,
            hash64("The quick brown fox jumps over the lazy dog"));
}

TEST(Hash, EqualBytesHashEqualWhereverTheyLive) {
  const std::string A = "module m\nfunc @f (external)\n";
  std::string Padded = "xx" + A;
  EXPECT_EQ(hash64(A), hash64(std::string(A)));
  EXPECT_EQ(hash64(A), hash64(Padded.data() + 2, A.size()))
      << "the hash must not depend on the input's alignment";
  EXPECT_NE(hash64(A), hash64(A + "\n"));
}

TEST(Hash, EveryTailLengthIsCovered) {
  // Each length 0..64 ends in a different tail; every byte of every one
  // must count, and so must the length of an all-zero input.
  for (std::size_t Len = 0; Len <= 64; ++Len) {
    std::string Bytes(Len, '\0');
    for (std::size_t I = 0; I < Len; ++I)
      Bytes[I] = static_cast<char>(I * 37 + Len);
    const std::uint64_t Base = hash64(Bytes);
    for (std::size_t I = 0; I < Len; ++I) {
      std::string Changed = Bytes;
      Changed[I] ^= 0x01;
      EXPECT_NE(Base, hash64(Changed)) << "length " << Len << " byte " << I;
    }
    for (std::size_t Shorter = 0; Shorter < Len; ++Shorter)
      EXPECT_NE(hash64(std::string(Len, '\0')),
                hash64(std::string(Shorter, '\0')))
          << Len << " vs " << Shorter << " zero bytes";
  }
}

// --- BitVector -----------------------------------------------------------

TEST(BitVector, StartsEmpty) {
  BitVector BV(130);
  EXPECT_EQ(BV.size(), 130u);
  EXPECT_TRUE(BV.none());
  EXPECT_FALSE(BV.any());
  EXPECT_EQ(BV.count(), 0u);
}

TEST(BitVector, SetResetTest) {
  BitVector BV(100);
  BV.set(0);
  BV.set(63);
  BV.set(64);
  BV.set(99);
  EXPECT_TRUE(BV.test(0));
  EXPECT_TRUE(BV.test(63));
  EXPECT_TRUE(BV.test(64));
  EXPECT_TRUE(BV.test(99));
  EXPECT_FALSE(BV.test(1));
  EXPECT_EQ(BV.count(), 4u);
  BV.reset(63);
  EXPECT_FALSE(BV.test(63));
  EXPECT_EQ(BV.count(), 3u);
}

TEST(BitVector, InitialValueTrue) {
  BitVector BV(70, true);
  EXPECT_EQ(BV.count(), 70u);
  for (unsigned I = 0; I < 70; ++I)
    EXPECT_TRUE(BV.test(I)) << I;
}

TEST(BitVector, ResizeGrowWithOnes) {
  BitVector BV(10);
  BV.set(3);
  BV.resize(130, true);
  EXPECT_TRUE(BV.test(3));
  EXPECT_FALSE(BV.test(4));
  for (unsigned I = 10; I < 130; ++I)
    EXPECT_TRUE(BV.test(I)) << I;
  EXPECT_EQ(BV.count(), 121u);
}

TEST(BitVector, ResizeShrinkClearsTail) {
  BitVector BV(128, true);
  BV.resize(65);
  EXPECT_EQ(BV.count(), 65u);
  BV.resize(128);
  EXPECT_EQ(BV.count(), 65u); // regrown bits are zero
}

TEST(BitVector, SetAllRespectsSize) {
  BitVector BV(67);
  BV.setAll();
  EXPECT_EQ(BV.count(), 67u);
}

TEST(BitVector, UnionReportsChange) {
  BitVector A(80), B(80);
  B.set(5);
  B.set(70);
  EXPECT_TRUE(A.unionWith(B));
  EXPECT_FALSE(A.unionWith(B)); // second union changes nothing
  EXPECT_TRUE(A.test(5));
  EXPECT_TRUE(A.test(70));
}

TEST(BitVector, IntersectAndSubtract) {
  BitVector A(64), B(64);
  A.set(1);
  A.set(2);
  A.set(3);
  B.set(2);
  B.set(3);
  B.set(4);
  BitVector I = A;
  I.intersectWith(B);
  EXPECT_EQ(I.count(), 2u);
  EXPECT_TRUE(I.test(2));
  EXPECT_TRUE(I.test(3));
  BitVector S = A;
  S.subtract(B);
  EXPECT_EQ(S.count(), 1u);
  EXPECT_TRUE(S.test(1));
}

TEST(BitVector, FindNextAndIteration) {
  BitVector BV(200);
  BV.set(0);
  BV.set(64);
  BV.set(199);
  EXPECT_EQ(BV.findFirst(), 0);
  EXPECT_EQ(BV.findNext(1), 64);
  EXPECT_EQ(BV.findNext(65), 199);
  EXPECT_EQ(BV.findNext(200), -1);

  std::vector<unsigned> Bits;
  for (unsigned Bit : BV)
    Bits.push_back(Bit);
  EXPECT_EQ(Bits, (std::vector<unsigned>{0, 64, 199}));
}

TEST(BitVector, CollectSetBits) {
  BitVector BV(10);
  BV.set(2);
  BV.set(7);
  std::vector<unsigned> Out;
  BV.collectSetBits(Out);
  EXPECT_EQ(Out, (std::vector<unsigned>{2, 7}));
}

TEST(BitVector, Equality) {
  BitVector A(33), B(33);
  A.set(32);
  EXPECT_FALSE(A == B);
  B.set(32);
  EXPECT_TRUE(A == B);
}

// --- Rng -------------------------------------------------------------------

TEST(Rng, Deterministic) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  EXPECT_NE(A.next(), B.next());
}

TEST(Rng, NextBelowInRange) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.nextBelow(13), 13u);
}

TEST(Rng, NextInRangeInclusive) {
  Rng R(9);
  bool SawLow = false, SawHigh = false;
  for (int I = 0; I < 2000; ++I) {
    int64_t V = R.nextInRange(-3, 3);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 3);
    SawLow |= (V == -3);
    SawHigh |= (V == 3);
  }
  EXPECT_TRUE(SawLow);
  EXPECT_TRUE(SawHigh);
}

TEST(Rng, NextDoubleUnit) {
  Rng R(11);
  for (int I = 0; I < 1000; ++I) {
    double V = R.nextDouble();
    EXPECT_GE(V, 0.0);
    EXPECT_LT(V, 1.0);
  }
}

TEST(Rng, ForkIndependent) {
  Rng A(5);
  Rng B = A.fork();
  EXPECT_NE(A.next(), B.next());
}

TEST(Rng, PickCoversElements) {
  Rng R(3);
  std::vector<int> Items = {10, 20, 30};
  bool Seen[3] = {false, false, false};
  for (int I = 0; I < 300; ++I)
    Seen[R.pick(Items) / 10 - 1] = true;
  EXPECT_TRUE(Seen[0] && Seen[1] && Seen[2]);
}

// --- Statistics -------------------------------------------------------------

TEST(Statistics, Mean) {
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Statistics, GeometricMean) {
  EXPECT_NEAR(geometricMean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_NEAR(geometricMean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Statistics, SafeRatio) {
  EXPECT_DOUBLE_EQ(safeRatio(4.0, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(safeRatio(0.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(safeRatio(5.0, 0.0, 99.0), 99.0);
}

// --- TextTable ---------------------------------------------------------------

TEST(TextTable, FormatDouble) {
  EXPECT_EQ(TextTable::formatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(TextTable::formatDouble(2.0, 1), "2.0");
}

TEST(TextTable, FormatCountSeparators) {
  EXPECT_EQ(TextTable::formatCount(0), "0");
  EXPECT_EQ(TextTable::formatCount(999), "999");
  EXPECT_EQ(TextTable::formatCount(1000), "1,000");
  EXPECT_EQ(TextTable::formatCount(120000000), "120,000,000");
  EXPECT_EQ(TextTable::formatCount(-54321), "-54,321");
}

TEST(TextTable, PrintAlignsColumns) {
  TextTable Table;
  Table.setHeader({"name", "value"});
  Table.addRow({"x", "1"});
  Table.addRow({"longer", "12345"});
  std::ostringstream OS;
  Table.print(OS);
  std::string Text = OS.str();
  EXPECT_NE(Text.find("name"), std::string::npos);
  EXPECT_NE(Text.find("longer"), std::string::npos);
  EXPECT_NE(Text.find("-----"), std::string::npos);
  EXPECT_EQ(Table.numRows(), 2u);
}

TEST(TextTable, CsvOutput) {
  TextTable Table;
  Table.setHeader({"a", "b"});
  Table.addRow({"1", "2"});
  std::ostringstream OS;
  Table.printCsv(OS);
  EXPECT_EQ(OS.str(), "a,b\n1,2\n");
}

} // namespace
