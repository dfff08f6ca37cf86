//===- tests/support_test.cpp - Support utility tests ---------------------===//

#include "support/Histogram.h"
#include "support/JsonWriter.h"
#include "support/MathExtras.h"
#include "support/SpinWait.h"
#include "support/SplitMix64.h"
#include "support/StatsCounter.h"
#include "support/TableFormatter.h"
#include "support/ThreadStripe.h"
#include "support/Timer.h"
#include "threads/ThreadRegistry.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <set>
#include <thread>
#include <vector>

using namespace thinlocks;

//===----------------------------------------------------------------------===//
// MathExtras
//===----------------------------------------------------------------------===//

TEST(MathExtras, PowerOf2Detection) {
  EXPECT_FALSE(isPowerOf2(0));
  EXPECT_TRUE(isPowerOf2(1));
  EXPECT_TRUE(isPowerOf2(2));
  EXPECT_FALSE(isPowerOf2(3));
  EXPECT_TRUE(isPowerOf2(1ull << 40));
  EXPECT_FALSE(isPowerOf2((1ull << 40) + 1));
}

TEST(MathExtras, NextPowerOf2) {
  EXPECT_EQ(nextPowerOf2(0), 1u);
  EXPECT_EQ(nextPowerOf2(1), 1u);
  EXPECT_EQ(nextPowerOf2(2), 2u);
  EXPECT_EQ(nextPowerOf2(3), 4u);
  EXPECT_EQ(nextPowerOf2(1000), 1024u);
}

TEST(MathExtras, AlignTo) {
  EXPECT_EQ(alignTo(0, 8), 0u);
  EXPECT_EQ(alignTo(1, 8), 8u);
  EXPECT_EQ(alignTo(8, 8), 8u);
  EXPECT_EQ(alignTo(9, 8), 16u);
  EXPECT_EQ(alignTo(17, 16), 32u);
}

TEST(MathExtras, Log2Floor) {
  EXPECT_EQ(log2Floor(1), 0u);
  EXPECT_EQ(log2Floor(2), 1u);
  EXPECT_EQ(log2Floor(3), 1u);
  EXPECT_EQ(log2Floor(1024), 10u);
  EXPECT_EQ(log2Floor(1025), 10u);
}

TEST(MathExtras, ExtractBits) {
  EXPECT_EQ(extractBits(0xABCD1234u, 0, 8), 0x34u);
  EXPECT_EQ(extractBits(0xABCD1234u, 8, 8), 0x12u);
  EXPECT_EQ(extractBits(0xABCD1234u, 16, 16), 0xABCDu);
  EXPECT_EQ(extractBits(0xFFFFFFFFu, 0, 32), 0xFFFFFFFFu);
}

TEST(MathExtras, SaturatingAdd) {
  EXPECT_EQ(saturatingAdd(1, 2), 3u);
  EXPECT_EQ(saturatingAdd(UINT64_MAX, 1), UINT64_MAX);
  EXPECT_EQ(saturatingAdd(UINT64_MAX - 1, 1), UINT64_MAX);
}

//===----------------------------------------------------------------------===//
// SplitMix64
//===----------------------------------------------------------------------===//

TEST(SplitMix64, DeterministicFromSeed) {
  SplitMix64 A(7), B(7);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(SplitMix64, DifferentSeedsDiffer) {
  SplitMix64 A(1), B(2);
  EXPECT_NE(A.next(), B.next());
}

TEST(SplitMix64, BoundedStaysInBounds) {
  SplitMix64 Rng(99);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(Rng.nextBounded(17), 17u);
}

TEST(SplitMix64, BoundedCoversRange) {
  SplitMix64 Rng(3);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 400; ++I)
    Seen.insert(Rng.nextBounded(8));
  EXPECT_EQ(Seen.size(), 8u);
}

TEST(SplitMix64, DoubleInUnitInterval) {
  SplitMix64 Rng(5);
  for (int I = 0; I < 1000; ++I) {
    double V = Rng.nextDouble();
    EXPECT_GE(V, 0.0);
    EXPECT_LT(V, 1.0);
  }
}

TEST(SplitMix64, RewindReplaysOutputs) {
  SplitMix64 Rng(13);
  for (uint64_t K : {uint64_t{1}, uint64_t{5}, uint64_t{64}}) {
    std::vector<uint64_t> Outputs;
    for (uint64_t I = 0; I < K; ++I)
      Outputs.push_back(Rng.next());
    Rng.rewind(K);
    for (uint64_t I = 0; I < K; ++I)
      EXPECT_EQ(Rng.next(), Outputs[I]) << "k=" << K << " output " << I;
  }

  SplitMix64 Still(21), Reference(21);
  Still.next();
  Reference.next();
  Still.rewind(0);
  EXPECT_EQ(Still.next(), Reference.next());

  // Seeded at 0, the state passes through 0 again when rewound past the
  // first output, and the modular subtraction wraps below it.
  SplitMix64 Wrapped(0), Fresh(0);
  const uint64_t First = Fresh.next(), Second = Fresh.next();
  Wrapped.next();
  Wrapped.rewind(1);
  EXPECT_EQ(Wrapped.next(), First);
  Wrapped.rewind(3); // Two steps below state 0.
  SplitMix64 Below(0 - 2 * 0x9e3779b97f4a7c15ull);
  EXPECT_EQ(Wrapped.next(), Below.next());
  EXPECT_EQ(Wrapped.next(), Below.next());
  EXPECT_EQ(Wrapped.next(), First);
  EXPECT_EQ(Wrapped.next(), Second);
}

TEST(SplitMix64, NextBoolRespectsProbabilityRoughly) {
  SplitMix64 Rng(11);
  int Hits = 0;
  for (int I = 0; I < 10000; ++I)
    Hits += Rng.nextBool(0.25) ? 1 : 0;
  EXPECT_GT(Hits, 2000);
  EXPECT_LT(Hits, 3000);
}

//===----------------------------------------------------------------------===//
// LatencyHistogram
//===----------------------------------------------------------------------===//

TEST(LatencyHistogram, EmptyIsAllZeros) {
  LatencyHistogram H;
  EXPECT_TRUE(H.empty());
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), 0u);
  EXPECT_EQ(H.mean(), 0u);
  EXPECT_EQ(H.quantile(0.0), 0u);
  EXPECT_EQ(H.quantile(0.5), 0u);
  EXPECT_EQ(H.quantile(1.0), 0u);
}

TEST(LatencyHistogram, SingleSampleIsEveryQuantile) {
  LatencyHistogram H;
  H.record(12345);
  EXPECT_EQ(H.count(), 1u);
  EXPECT_EQ(H.min(), 12345u);
  EXPECT_EQ(H.max(), 12345u);
  EXPECT_EQ(H.mean(), 12345u);
  for (double Q : {0.0, 0.25, 0.5, 0.99, 0.999, 1.0})
    EXPECT_EQ(H.quantile(Q), 12345u) << "Q=" << Q;
}

TEST(LatencyHistogram, SmallValuesAreExact) {
  // Values below SubBuckets have their own unit-width buckets.
  LatencyHistogram H;
  for (uint64_t V = 0; V < LatencyHistogram::SubBuckets; ++V)
    EXPECT_EQ(LatencyHistogram::bucketOf(V), V);
  H.record(3);
  H.record(7);
  H.record(7);
  H.record(9);
  EXPECT_EQ(H.quantile(0.5), 7u);
  EXPECT_EQ(H.quantile(1.0), 9u);
  EXPECT_EQ(H.quantile(0.0), 3u);
}

TEST(LatencyHistogram, QuantileOrderIsMonotone) {
  LatencyHistogram H;
  SplitMix64 Rng(17);
  for (int I = 0; I < 5000; ++I)
    H.record(Rng.nextBounded(1u << 20));
  uint64_t Prev = 0;
  for (double Q : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    uint64_t Value = H.quantile(Q);
    EXPECT_GE(Value, Prev) << "quantile regressed at Q=" << Q;
    EXPECT_GE(Value, H.min());
    EXPECT_LE(Value, H.max());
    Prev = Value;
  }
}

TEST(LatencyHistogram, QuantileRelativeErrorIsBounded) {
  // Log-linear bucketing promises <= 1/16 relative bucket width: a
  // quantile estimate never overshoots the true value by more than that
  // (estimates report the bucket's high bound).
  LatencyHistogram H;
  for (uint64_t I = 1; I <= 10000; ++I)
    H.record(I);
  for (double Q : {0.5, 0.9, 0.99}) {
    double Exact = Q * 10000;
    double Estimate = static_cast<double>(H.quantile(Q));
    EXPECT_GE(Estimate, Exact * 0.99) << "Q=" << Q;
    EXPECT_LE(Estimate, Exact * 1.08) << "Q=" << Q;
  }
}

TEST(LatencyHistogram, SaturationReportsTrueMax) {
  LatencyHistogram H;
  H.record(100);
  uint64_t Huge = LatencyHistogram::MaxTrackable + 12345;
  H.record(Huge);
  EXPECT_EQ(H.saturatedCount(), 1u);
  // A quantile landing in the saturation bucket must report the real
  // recorded max, not a bucket bound.
  EXPECT_EQ(H.quantile(1.0), Huge);
  EXPECT_EQ(H.quantile(0.999), Huge);
  EXPECT_EQ(H.max(), Huge);
}

TEST(LatencyHistogram, BucketBoundsRoundTrip) {
  for (size_t I = 0; I < LatencyHistogram::NumBuckets; ++I) {
    uint64_t Low = LatencyHistogram::bucketLow(I);
    uint64_t High = LatencyHistogram::bucketHigh(I);
    EXPECT_LE(Low, High);
    EXPECT_EQ(LatencyHistogram::bucketOf(Low), I);
    EXPECT_EQ(LatencyHistogram::bucketOf(High), I);
    if (I > 0) {
      EXPECT_EQ(LatencyHistogram::bucketHigh(I - 1) + 1, Low)
          << "gap or overlap before bucket " << I;
    }
  }
}

TEST(LatencyHistogram, MergeCombinesEverything) {
  LatencyHistogram A, B, Reference;
  SplitMix64 Rng(29);
  for (int I = 0; I < 1000; ++I) {
    uint64_t V = Rng.nextBounded(1u << 24);
    (I % 2 == 0 ? A : B).record(V);
    Reference.record(V);
  }
  A.merge(B);
  EXPECT_EQ(A.count(), Reference.count());
  EXPECT_EQ(A.min(), Reference.min());
  EXPECT_EQ(A.max(), Reference.max());
  EXPECT_EQ(A.mean(), Reference.mean());
  for (double Q : {0.1, 0.5, 0.99})
    EXPECT_EQ(A.quantile(Q), Reference.quantile(Q));
}

TEST(LatencyHistogram, MergeWithEmptyIsIdentityBothWays) {
  LatencyHistogram A, Empty;
  A.record(5);
  A.record(500);
  LatencyHistogram Copy = A;
  A.merge(Empty);
  EXPECT_EQ(A.count(), 2u);
  EXPECT_EQ(A.min(), Copy.min());
  EXPECT_EQ(A.max(), Copy.max());
  Empty.merge(Copy);
  EXPECT_EQ(Empty.count(), 2u);
  EXPECT_EQ(Empty.min(), 5u);
  EXPECT_EQ(Empty.max(), 500u);
}

// Saturated-histogram merge regression (PR-10 satellite).  When the
// merged-in histogram carries saturated samples, the destination must
// preserve the *true* recorded max (not a bucket bound — saturation
// bucket bounds are meaningless), accumulate the saturation count, and
// keep the min from whichever side holds it.
TEST(LatencyHistogram, MergePreservesSaturationTruth) {
  const uint64_t Huge = LatencyHistogram::MaxTrackable + 12345;

  LatencyHistogram A;
  A.record(7);
  A.record(Huge); // A is saturated and owns the true max.
  LatencyHistogram B;
  B.record(100);
  B.record(LatencyHistogram::MaxTrackable + 99); // Saturated, smaller max.

  A.merge(B);
  EXPECT_EQ(A.count(), 4u);
  EXPECT_EQ(A.saturatedCount(), 2u) << "saturation count lost in merge";
  EXPECT_EQ(A.min(), 7u);
  EXPECT_EQ(A.max(), Huge) << "true max clobbered by merged-in bound";
  // The tail quantile lands in the saturation bucket; it must report
  // the surviving true max, exactly as the single-histogram
  // SaturationReportsTrueMax contract requires.
  EXPECT_EQ(A.quantile(1.0), Huge);
  EXPECT_EQ(A.quantile(0.999), Huge);

  // Merging saturated data into an *empty* histogram must adopt the
  // source's max/min wholesale (the Total == 0 branch).
  LatencyHistogram Empty;
  Empty.merge(A);
  EXPECT_EQ(Empty.count(), 4u);
  EXPECT_EQ(Empty.saturatedCount(), 2u);
  EXPECT_EQ(Empty.min(), 7u);
  EXPECT_EQ(Empty.max(), Huge);
  EXPECT_EQ(Empty.quantile(1.0), Huge);

  // And the reverse direction: the side with the *larger* true max
  // merged into the side with the smaller one must win.
  LatencyHistogram C;
  C.record(LatencyHistogram::MaxTrackable + 1);
  C.merge(A);
  EXPECT_EQ(C.saturatedCount(), 3u);
  EXPECT_EQ(C.max(), Huge);
  EXPECT_EQ(C.quantile(1.0), Huge);
}

//===----------------------------------------------------------------------===//
// StatsCounter
//===----------------------------------------------------------------------===//

TEST(StatsCounter, IncrementAddsItsDelta) {
  StatsCounter C;
  EXPECT_EQ(C.value(), 0u);
  C.increment();
  C.increment(41);
  EXPECT_EQ(C.value(), 42u);
}

TEST(StatsCounter, ConcurrentIncrementsAllLand) {
  StatsCounter C;
  constexpr int Threads = 4;
  constexpr int PerThread = 10000;
  std::vector<std::thread> Workers;
  for (int T = 0; T < Threads; ++T)
    Workers.emplace_back([&C] {
      for (int I = 0; I < PerThread; ++I)
        C.increment();
    });
  for (auto &W : Workers)
    W.join();
  EXPECT_EQ(C.value(), static_cast<uint64_t>(Threads) * PerThread);
}

TEST(StatsCounter, AttachedThreadsSumExactlyAcrossStripes) {
  // Attached threads write exclusive (plain-store) stripes; the sum must
  // still be exact because registry indices are unique among live
  // threads.  Mix in unattached threads to race the hashed shared
  // stripes against them.
  StatsCounter C;
  ThreadRegistry Registry;
  constexpr int Threads = 8;
  constexpr int PerThread = 10000;
  std::vector<std::thread> Workers;
  for (int T = 0; T < Threads; ++T)
    Workers.emplace_back([&C, &Registry, T] {
      std::unique_ptr<ScopedThreadAttachment> Attach;
      if (T % 2)
        Attach = std::make_unique<ScopedThreadAttachment>(Registry, "inc");
      for (int I = 0; I < PerThread; ++I)
        C.increment();
    });
  for (auto &W : Workers)
    W.join();
  EXPECT_EQ(C.value(), static_cast<uint64_t>(Threads) * PerThread);
}

TEST(StatsCounter, LargeThreadIndicesShareStripesExactly) {
  // Hold enough attachments live at once to push indices past the
  // exclusive-stripe range; those land in the shared fetch-add region
  // and must still count exactly.
  StatsCounter C;
  ThreadRegistry Registry;
  constexpr uint32_t NumContexts = ThreadStripe::NumExclusive + 8;
  std::vector<ThreadContext> Contexts;
  for (uint32_t I = 0; I < NumContexts; ++I) {
    Contexts.push_back(Registry.attach("wide"));
    ASSERT_TRUE(Contexts.back().isValid());
    C.increment(); // Recorded under the context just attached.
  }
  EXPECT_EQ(C.value(), static_cast<uint64_t>(NumContexts));
  for (auto It = Contexts.rbegin(); It != Contexts.rend(); ++It)
    Registry.detach(*It);
}

TEST(StatsCounter, ValueSumsEveryStripe) {
  StatsCounter C;
  ThreadRegistry Registry;
  // Populate several distinct stripes: attached workers (exclusive
  // slots) and an unattached worker (hashed shared slot).
  std::vector<std::thread> Workers;
  for (int T = 0; T < 4; ++T)
    Workers.emplace_back([&C, &Registry, T] {
      std::unique_ptr<ScopedThreadAttachment> Attach;
      if (T % 2)
        Attach = std::make_unique<ScopedThreadAttachment>(Registry, "rst");
      C.increment(100);
    });
  for (auto &W : Workers)
    W.join();
  EXPECT_EQ(C.value(), 400u);
  C.increment(7);
  EXPECT_EQ(C.value(), 407u);
}

//===----------------------------------------------------------------------===//
// Timer
//===----------------------------------------------------------------------===//

TEST(Timer, MonotonicNanosAdvances) {
  uint64_t A = monotonicNanos();
  uint64_t B = monotonicNanos();
  EXPECT_GE(B, A);
}

TEST(Timer, StopWatchMeasuresSomething) {
  StopWatch Watch;
  volatile uint64_t X = 0;
  for (int I = 0; I < 100000; ++I)
    X = X + 1;
  EXPECT_GT(Watch.elapsedNanos(), 0u);
}

TEST(Timer, MedianElapsedRunsBodyExactly) {
  int Runs = 0;
  medianElapsedNanos(5, [&Runs] { ++Runs; });
  EXPECT_EQ(Runs, 5);
}

//===----------------------------------------------------------------------===//
// SpinWait
//===----------------------------------------------------------------------===//

TEST(SpinWait, BackoffGrowsThenYields) {
  SpinWait Spinner;
  for (int I = 0; I < 10; ++I)
    Spinner.nextRound();
  EXPECT_GT(Spinner.totalSpins(), 10u);
  EXPECT_GT(Spinner.totalYields(), 0u);
}

TEST(SpinWait, NoYieldInEarlyRounds) {
  SpinWait Spinner;
  for (unsigned I = 0; I < SpinWait::YieldThresholdRound; ++I)
    Spinner.nextRound();
  EXPECT_EQ(Spinner.totalYields(), 0u);
}

// The park rung.  nextRound() leaves the sleep to its caller, so these
// walk the ladder without sleeping.

namespace {

/// Runs the pause and yield rounds of the default ladder, \returns the
/// spinner poised at its first park round.
SpinWait spinnerAtParkRung() {
  SpinWait Spinner;
  for (unsigned I = 0; I < SpinWait::ParkThresholdRound; ++I)
    EXPECT_EQ(Spinner.nextRound(), 0u) << "parked early at round " << I;
  return Spinner;
}

} // namespace

TEST(SpinWait, FirstParkLastsMinParkNanos) {
  SpinWait Spinner = spinnerAtParkRung();
  EXPECT_EQ(Spinner.nextRound(), SpinWait::MinParkNanos);
}

TEST(SpinWait, ParkDoublesEachRound) {
  SpinWait Spinner = spinnerAtParkRung();
  unsigned Rounds = 0;
  for (uint64_t Expected = SpinWait::MinParkNanos;
       Expected < SpinWait::MaxParkNanos; Expected *= 2, ++Rounds)
    EXPECT_EQ(Spinner.nextRound(), Expected) << "park round " << Rounds;
  // 50us doubles five times (to 1.6ms) before the next doubling passes
  // the 2ms cap.
  EXPECT_EQ(Rounds, 6u);
}

TEST(SpinWait, ParkSaturatesAtMaxParkNanos) {
  SpinWait Spinner = spinnerAtParkRung();
  uint64_t Park = 0;
  for (int I = 0; I < 6; ++I)
    Park = Spinner.nextRound();
  EXPECT_LT(Park, SpinWait::MaxParkNanos);
  // Far past 64 doublings: still the cap, never a shifted-out zero.
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(Spinner.nextRound(), SpinWait::MaxParkNanos)
        << "park round " << 6 + I;
}

TEST(SpinWait, IsParkingTurnsTrueAfterFirstParkRound) {
  SpinWait Spinner;
  for (unsigned I = 0; I < SpinWait::ParkThresholdRound; ++I) {
    Spinner.nextRound();
    EXPECT_FALSE(Spinner.isParking()) << "after round " << I;
  }
  Spinner.nextRound();
  EXPECT_TRUE(Spinner.isParking());
}

TEST(SpinWait, TotalParksAndYieldsCountRounds) {
  SpinWait Spinner = spinnerAtParkRung();
  EXPECT_EQ(Spinner.totalParks(), 0u);
  EXPECT_EQ(Spinner.totalYields(), SpinWait::ParkThresholdRound -
                                       SpinWait::YieldThresholdRound);
  for (int I = 0; I < 5; ++I)
    Spinner.nextRound();
  EXPECT_EQ(Spinner.totalParks(), 5u);
  // A park round does not also yield.
  EXPECT_EQ(Spinner.totalYields(), SpinWait::ParkThresholdRound -
                                       SpinWait::YieldThresholdRound);
}

//===----------------------------------------------------------------------===//
// TableFormatter
//===----------------------------------------------------------------------===//

TEST(TableFormatter, AlignsColumns) {
  TableFormatter Table({"name", "value"});
  Table.addRow({"a", "1"});
  Table.addRow({"longer", "12345"});
  std::string Out = Table.render();
  EXPECT_NE(Out.find("name   | value"), std::string::npos);
  EXPECT_NE(Out.find("a      |     1"), std::string::npos);
  EXPECT_NE(Out.find("longer | 12345"), std::string::npos);
}

TEST(TableFormatter, FormatWithCommas) {
  EXPECT_EQ(TableFormatter::formatWithCommas(0), "0");
  EXPECT_EQ(TableFormatter::formatWithCommas(999), "999");
  EXPECT_EQ(TableFormatter::formatWithCommas(1000), "1,000");
  EXPECT_EQ(TableFormatter::formatWithCommas(12975639), "12,975,639");
}

TEST(TableFormatter, FormatDouble) {
  EXPECT_EQ(TableFormatter::formatDouble(1.234, 2), "1.23");
  EXPECT_EQ(TableFormatter::formatDouble(22.7, 1), "22.7");
}

TEST(TableFormatter, SeparatorRows) {
  TableFormatter Table({"x"});
  Table.addRow({"1"});
  Table.addSeparator();
  Table.addRow({"2"});
  std::string Out = Table.render();
  // Header separator plus the explicit one.
  size_t First = Out.find("-");
  EXPECT_NE(First, std::string::npos);
}

//===----------------------------------------------------------------------===//
// JsonWriter
//===----------------------------------------------------------------------===//

namespace {

std::string escaped(std::string_view In) {
  std::string Out;
  jsonEscape(In, Out);
  return Out;
}

} // namespace

TEST(JsonWriterTest, EscapesLikeTheTraceEmitterAlwaysHas) {
  // The bytes the Chrome-trace emitter's own escape produced before it
  // shared this one.
  EXPECT_EQ(escaped("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(escaped("a\\b"), "a\\\\b");
  EXPECT_EQ(escaped("line\nnext"), "line\\nnext");
  EXPECT_EQ(escaped("col\tcol"), "col\\tcol");
  EXPECT_EQ(escaped(std::string_view("\0\x01\x1f", 3)),
            "\\u0000\\u0001\\u001f");
  EXPECT_EQ(escaped("\r\b\f"), "\\u000d\\u0008\\u000c");
  // DEL and UTF-8 bytes pass through.
  EXPECT_EQ(escaped("\x7f caf\xc3\xa9"), "\x7f caf\xc3\xa9");
  EXPECT_EQ(JsonWriter().value("a\"b\n").take(), "\"a\\\"b\\n\"");
  EXPECT_EQ(JsonWriter().beginObject().field("k\t", 1).end().take(),
            "{\"k\\t\": 1}");
}

TEST(JsonWriterTest, InlineContainersSeparateWithCommas) {
  std::array<uint64_t, 3> Ticks{3, 0, 1};
  std::string Json = JsonWriter()
                         .beginObject()
                         .field("name", "row")
                         .field("ok", true)
                         .field("off", false)
                         .field("n", -7)
                         .key("ticks")
                         .array(Ticks)
                         .key("nested")
                         .beginObject()
                         .field("a", 1u)
                         .key("empty")
                         .beginArray()
                         .end()
                         .end()
                         .key("none")
                         .beginObject()
                         .end()
                         .end()
                         .take();
  EXPECT_EQ(Json, "{\"name\": \"row\", \"ok\": true, \"off\": false, "
                  "\"n\": -7, \"ticks\": [3, 0, 1], "
                  "\"nested\": {\"a\": 1, \"empty\": []}, \"none\": {}}");
}

TEST(JsonWriterTest, LinesLayoutPutsOneElementPerLine) {
  JsonWriter W;
  W.beginObject(JsonWriter::Layout::Lines).field("schema", "s");
  W.key("rows").beginArray(JsonWriter::Layout::Lines);
  for (int I = 0; I < 2; ++I)
    W.beginObject().field("i", I).field("sq", I * I).end();
  W.end();
  W.key("empty").beginArray(JsonWriter::Layout::Lines).end();
  // Inside an inline container a Lines request stays inline.
  W.key("inline").beginObject();
  W.key("lines").beginArray(JsonWriter::Layout::Lines).value(1).end();
  W.end().end();
  EXPECT_EQ(W.take(), "{\n"
                      "  \"schema\": \"s\",\n"
                      "  \"rows\": [\n"
                      "    {\"i\": 0, \"sq\": 0},\n"
                      "    {\"i\": 1, \"sq\": 1}\n"
                      "  ],\n"
                      "  \"empty\": [],\n"
                      "  \"inline\": {\"lines\": [1]}\n"
                      "}");
}

TEST(JsonWriterTest, IntegersPrintExactlyToTheirLimits) {
  JsonWriter W;
  W.beginArray()
      .value(UINT64_MAX)
      .value(INT64_MIN)
      .value(uint32_t{0})
      .value(static_cast<unsigned short>(65535))
      .end();
  EXPECT_EQ(W.take(),
            "[18446744073709551615, -9223372036854775808, 0, 65535]");
}

TEST(JsonWriterTest, DoublesPrintWithTheirNamedDecimals) {
  JsonWriter W;
  W.beginArray()
      .value(16.9449, 2)
      .value(3136021.66, 1)
      .value(0.0, 4)
      .value(-2.5, 0)
      .value(300.0, 6)
      .value(1e300 * 1e300, 2)
      .value(std::nan(""), 2)
      .end();
  EXPECT_EQ(W.take(),
            "[16.94, 3136021.7, 0.0000, -2, 300.000000, null, null]");
}
