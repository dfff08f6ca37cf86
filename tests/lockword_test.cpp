//===- tests/lockword_test.cpp - Lock word encoding tests -----------------===//
//
// Unit and property tests for the 24-bit lock word of paper Figures 1-2,
// including equivalence proofs (by exhaustive-ish parameter sweep) of the
// paper's two fast-path bit tricks against the naive decoded checks.
//
//===----------------------------------------------------------------------===//

#include "core/LockWord.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

using namespace thinlocks;
using namespace thinlocks::lockword;

TEST(LockWord, UnlockedIsAllZeroLockField) {
  uint32_t Word = makeThin(0, 0, 0xAB);
  EXPECT_TRUE(isThin(Word));
  EXPECT_TRUE(isUnlocked(Word));
  EXPECT_EQ(headerBitsOf(Word), 0xABu);
  EXPECT_EQ(Word & LockFieldMask, 0u);
}

TEST(LockWord, ThinRoundTrip) {
  uint32_t Word = makeThin(1234, 56, 0x7F);
  EXPECT_TRUE(isThin(Word));
  EXPECT_FALSE(isFat(Word));
  EXPECT_FALSE(isUnlocked(Word));
  EXPECT_EQ(threadIndexOf(Word), 1234);
  EXPECT_EQ(countOf(Word), 56u);
  EXPECT_EQ(headerBitsOf(Word), 0x7Fu);
}

TEST(LockWord, FatRoundTrip) {
  uint32_t Word = makeFat(654321, 0x01);
  EXPECT_TRUE(isFat(Word));
  EXPECT_FALSE(isThin(Word));
  EXPECT_FALSE(isUnlocked(Word));
  EXPECT_EQ(monitorIndexOf(Word), 654321u);
  EXPECT_EQ(headerBitsOf(Word), 0x01u);
}

TEST(LockWord, ExtremesFit) {
  uint32_t Word = makeThin(MaxThreadIndex, MaxCount, HeaderBitsMask);
  EXPECT_EQ(threadIndexOf(Word), MaxThreadIndex);
  EXPECT_EQ(countOf(Word), MaxCount);
  EXPECT_EQ(headerBitsOf(Word), HeaderBitsMask);

  uint32_t Fat = makeFat(MaxMonitorIndex, HeaderBitsMask);
  EXPECT_EQ(monitorIndexOf(Fat), MaxMonitorIndex);
}

TEST(LockWord, CountUnitIncrementsCountOnly) {
  uint32_t Word = makeThin(77, 3, 0x5A);
  uint32_t Bumped = Word + CountUnit;
  EXPECT_EQ(threadIndexOf(Bumped), 77);
  EXPECT_EQ(countOf(Bumped), 4u);
  EXPECT_EQ(headerBitsOf(Bumped), 0x5Au);
}

TEST(LockWord, ComposeByOrOfShiftedIndex) {
  // §2.3.1: new value = old (header bits) OR (index << 16).
  uint32_t Header = 0x3C;
  uint32_t Shifted = static_cast<uint32_t>(421) << ThreadIndexShift;
  uint32_t Word = Header | Shifted;
  EXPECT_EQ(Word, makeThin(421, 0, 0x3C));
}

TEST(LockWord, FieldsDoNotOverlap) {
  EXPECT_EQ(ShapeBit & ThreadIndexMask, 0u);
  EXPECT_EQ(ShapeBit & CountMask, 0u);
  EXPECT_EQ(ShapeBit & HeaderBitsMask, 0u);
  EXPECT_EQ(ThreadIndexMask & CountMask, 0u);
  EXPECT_EQ(ThreadIndexMask & HeaderBitsMask, 0u);
  EXPECT_EQ(CountMask & HeaderBitsMask, 0u);
  EXPECT_EQ(ShapeBit | ThreadIndexMask | CountMask | HeaderBitsMask,
            0xFFFFFFFFu);
  EXPECT_EQ(MonitorIndexMask, ThreadIndexMask | CountMask);
}

//===----------------------------------------------------------------------===//
// Property sweeps: the XOR tricks match the naive decoded predicates.
//===----------------------------------------------------------------------===//

namespace {

struct SweepParam {
  uint16_t Owner;   // thread index stored in the word (0 = unlocked)
  uint32_t Count;   // count field
  uint32_t Header;  // shared header byte
  uint16_t Caller;  // thread performing the check
};

std::vector<SweepParam> sweepParams() {
  const uint16_t Indices[] = {0, 1, 2, 255, 256, 4097, 32766, 32767};
  const uint32_t Counts[] = {0, 1, 2, 127, 254, 255};
  const uint32_t Headers[] = {0x00, 0x01, 0x80, 0xFF};
  std::vector<SweepParam> Params;
  for (uint16_t Owner : Indices)
    for (uint32_t Count : Counts)
      for (uint32_t Header : Headers)
        for (uint16_t Caller : Indices) {
          if (Owner == 0 && Count != 0)
            continue; // Invariant: unlocked implies count 0.
          if (Caller == 0)
            continue; // Callers are always attached threads.
          // gtest prints every byte of a parameter into its test name, the
          // padding too; zero it so the names are the same in every build.
          SweepParam P;
          std::memset(&P, 0, sizeof(P));
          P.Owner = Owner;
          P.Count = Count;
          P.Header = Header;
          P.Caller = Caller;
          Params.push_back(P);
        }
  return Params;
}

class LockWordSweep : public ::testing::TestWithParam<SweepParam> {};

} // namespace

TEST_P(LockWordSweep, CanNestInlineMatchesNaivePredicate) {
  const SweepParam &P = GetParam();
  uint32_t Word = makeThin(P.Owner, P.Count, P.Header);
  uint32_t Shifted = static_cast<uint32_t>(P.Caller) << ThreadIndexShift;
  bool Naive = P.Owner != 0 && P.Owner == P.Caller && P.Count < MaxCount;
  EXPECT_EQ(canNestInline(Word, Shifted), Naive)
      << "owner=" << P.Owner << " count=" << P.Count
      << " header=" << P.Header << " caller=" << P.Caller;
}

TEST_P(LockWordSweep, SingleHoldCheckMatchesNaivePredicate) {
  const SweepParam &P = GetParam();
  uint32_t Word = makeThin(P.Owner, P.Count, P.Header);
  uint32_t Shifted = static_cast<uint32_t>(P.Caller) << ThreadIndexShift;
  bool Naive = P.Owner != 0 && P.Owner == P.Caller && P.Count == 0;
  EXPECT_EQ(isSingleHoldByOwner(Word, Shifted), Naive);
}

TEST_P(LockWordSweep, OwnershipCheckMatchesNaivePredicate) {
  const SweepParam &P = GetParam();
  uint32_t Word = makeThin(P.Owner, P.Count, P.Header);
  uint32_t Shifted = static_cast<uint32_t>(P.Caller) << ThreadIndexShift;
  bool Naive = P.Owner != 0 && P.Owner == P.Caller;
  EXPECT_EQ(isThinOwnedBy(Word, Shifted), Naive);
}

TEST_P(LockWordSweep, FatWordsNeverPassThinChecks) {
  const SweepParam &P = GetParam();
  // Build a fat word whose monitor index bits mimic the thin encoding of
  // (owner, count) — the shape bit alone must exclude it.
  uint32_t ThinLike = makeThin(P.Owner, P.Count, P.Header);
  uint32_t Word = ThinLike | ShapeBit;
  uint32_t Shifted = static_cast<uint32_t>(P.Caller) << ThreadIndexShift;
  EXPECT_FALSE(canNestInline(Word, Shifted));
  EXPECT_FALSE(isSingleHoldByOwner(Word, Shifted));
  EXPECT_FALSE(isThinOwnedBy(Word, Shifted));
  EXPECT_FALSE(isUnlocked(Word));
}

TEST_P(LockWordSweep, HeaderBitsSurviveEveryTransition) {
  const SweepParam &P = GetParam();
  uint32_t Word = makeThin(P.Owner, P.Count, P.Header);
  EXPECT_EQ(headerBitsOf(Word), P.Header);
  EXPECT_EQ(headerBitsOf(Word + CountUnit), P.Header);
  EXPECT_EQ(headerBitsOf(Word & HeaderBitsMask), P.Header);
  if (P.Owner != 0) {
    uint32_t Fat = makeFat(1, headerBitsOf(Word));
    EXPECT_EQ(headerBitsOf(Fat), P.Header);
  }
}

INSTANTIATE_TEST_SUITE_P(AllFieldCombinations, LockWordSweep,
                         ::testing::ValuesIn(sweepParams()));

//===----------------------------------------------------------------------===//
// Monitor index sweep
//===----------------------------------------------------------------------===//

class MonitorIndexSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(MonitorIndexSweep, FatRoundTripAndHeaderPreservation) {
  uint32_t Index = GetParam();
  for (uint32_t Header : {0u, 0x55u, 0xFFu}) {
    uint32_t Word = makeFat(Index, Header);
    EXPECT_TRUE(isFat(Word));
    EXPECT_EQ(monitorIndexOf(Word), Index);
    EXPECT_EQ(headerBitsOf(Word), Header);
  }
}

INSTANTIATE_TEST_SUITE_P(Indices, MonitorIndexSweep,
                         ::testing::Values(1u, 2u, 1023u, 1024u, 65535u,
                                           65536u, (1u << 23) - 1));
