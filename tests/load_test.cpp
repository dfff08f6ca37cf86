//===- tests/load_test.cpp - Soak-harness subsystem tests -----------------===//
//
// Unit coverage for src/load/: the Zipfian popularity sampler, the
// admission-control degradation ladder (driven with synthetic
// PressureSignals — no real tables needed), the chaos schedule's
// determinism, the claimer's TimerLead (fed synthetic lateness streams),
// the session shapes, and short end-to-end runSoak() sanity runs,
// including the benchmark's adaptive configuration and one against a
// deliberately tiny MonitorTable so genuine (not injected) exhaustion
// feeds the ladder.
//
//===----------------------------------------------------------------------===//

#include "core/ProtocolRegistry.h"
#include "heap/Heap.h"
#include "load/AdmissionController.h"
#include "load/SessionWorkload.h"
#include "load/SoakHarness.h"
#include "load/Zipf.h"
#include "obs/ChromeTrace.h"
#include "obs/SloSnapshot.h"
#include "support/Histogram.h"
#include "support/SplitMix64.h"
#include "support/Timer.h"
#include "threads/ThreadRegistry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

using namespace thinlocks;
using namespace thinlocks::load;

//===----------------------------------------------------------------------===//
// ZipfSampler
//===----------------------------------------------------------------------===//

TEST(Zipf, DeterministicFromSeed) {
  ZipfSampler Sampler(64, 0.8);
  SplitMix64 A(42), B(42);
  for (int I = 0; I < 1000; ++I)
    EXPECT_EQ(Sampler.sample(A), Sampler.sample(B));
}

// DESIGN.md §8 promises that an (N, theta, seed) triple draws the same
// ranks in every version, and every convoy and session schedule relies
// on it.  These digests pin the first 1 M sample() ranks at the convoy's
// and the sessions' shape (N = 64, theta 0.8, seed 1), one FNV-1a digest
// per block of 10 000 ranks, as commit 5f1f1b0 drew them.  A change to
// the CDF or the cut-table arithmetic moves them even when sample() and
// sampleBatch() still agree with each other.
TEST(Zipf, SampleKeepsTheRecordedSchedule) {
  constexpr uint64_t Recorded[] = {
      0x0e8b4e0904dabf51ull, 0x2904b3773444cf50ull, 0x534da1a7c1c746afull,
      0xf6694baf060448e8ull, 0xd8ad457ad0322dadull, 0x284c296f4f1d3fc2ull,
      0xa942966c51565b20ull, 0x40ba72902bdc2678ull, 0xe9f093c031cd0255ull,
      0xc8ca751bd76239c8ull, 0x2965fc240b6dbd98ull, 0xade4068a9637c46eull,
      0x92b290dc5bae8883ull, 0x57b9384c19aa8f71ull, 0x3cab58f02716e078ull,
      0xd17bc249589f1543ull, 0x0e96a444cac9c4bcull, 0x4c296128b45a367full,
      0x29ecf445e5022670ull, 0x37e0f422eaa65906ull, 0x42a434a976aea1b4ull,
      0xc0d38b57a629077aull, 0xd7908facb33b6c1eull, 0xd330070f1f749ef5ull,
      0x184bdb4e7cd4b129ull, 0x302b654880945b18ull, 0xc33aabc4780726fbull,
      0xc74ca3fdd4bfe44cull, 0x9de49e7eb030b0d2ull, 0xf9a0961684a88730ull,
      0xf37ae3946a3003a2ull, 0xa3040b8758e38832ull, 0x211e72cb7530e17full,
      0x2782e448828cc417ull, 0xa6e7b668e7a4ea8full, 0x11cee42df59db0d0ull,
      0xae76f5e98d4eddaaull, 0x0a3707b4c5587c52ull, 0x3e08d6e0cdf8fba9ull,
      0xf6d78bcaae299bbdull, 0xa172f05f7063a673ull, 0xe929eed77668a1abull,
      0x291c514ee2d15068ull, 0xc690ca80c4be6368ull, 0x12ee9727cb6a5aa4ull,
      0xd2f03d69b4224a77ull, 0xe53038a06016b4dfull, 0xebc726bd2304e649ull,
      0xd1a0243bc0176a36ull, 0x93585d39f23337e1ull, 0xeec1019cc590ade5ull,
      0x4a29b584f0d56bc2ull, 0xb8ba90a9ec528947ull, 0x5f9df6c3835da8bfull,
      0x078cc0c9c2edcc46ull, 0x31057ee71629032full, 0x78df8272acdd1af3ull,
      0x9cbcdc48687ee688ull, 0x973418efbcedb11bull, 0x1b8b4c09b87a874bull,
      0x10c33c93442a27b3ull, 0x7398ae4a4967e3c9ull, 0xb5ff3f870113feb9ull,
      0xb87dd9cd7676e73aull, 0x81f23a8a9a60a636ull, 0x4651d947a807623bull,
      0xa9974d0ee6065f8dull, 0x54c2b44cfcc7418bull, 0x7c5a1750b30ea5f3ull,
      0x70ff38ca5ef65bb2ull, 0xbf38e789bb4f1025ull, 0x21e182d42d06775full,
      0xa7ed3331f592e4c3ull, 0x6a8aafbdd85f7a32ull, 0xb704fff9af203ac3ull,
      0x5422ce3fbfd806b8ull, 0x4a2ddb78afde9347ull, 0x9dbfb549aae11053ull,
      0x9680c8486ef0a348ull, 0x570c6ff27adc7ae8ull, 0xf56aac25c9751a63ull,
      0x206e269ae037b18cull, 0x0209fa3cb18a7a6dull, 0x794a7b2822926773ull,
      0xe69613e889cf80f6ull, 0xce06273224f7b794ull, 0xde54ecc589a2c160ull,
      0x020a975294f2dba5ull, 0x3185bd2ceb521778ull, 0x3c87e529e0780557ull,
      0x2f612a466e7abcf9ull, 0x6124aa7bef1b2630ull, 0xd43e2809e0d2719dull,
      0xedcc5f016fc2fc50ull, 0x8d0ea3f61ea018ebull, 0xc19884eece217145ull,
      0xe789f9c0cf460167ull, 0x59fca2cc05234980ull, 0x0b18a451dd4633f8ull,
      0x3eca6f785e85ee98ull,
  };
  constexpr int RanksPerBlock = 10'000;
  const ZipfSampler Sampler(64, 0.8);
  SplitMix64 Rng(1);
  for (size_t Block = 0; Block < std::size(Recorded); ++Block) {
    uint64_t Digest = 0xcbf29ce484222325ull;
    for (int I = 0; I < RanksPerBlock; ++I)
      Digest = (Digest ^ Sampler.sample(Rng)) * 0x100000001b3ull;
    ASSERT_EQ(Digest, Recorded[Block])
        << "the first block that differs holds ranks "
        << Block * RanksPerBlock << " to " << (Block + 1) * RanksPerBlock - 1;
  }
}

TEST(Zipf, InRangeAndSkewed) {
  const size_t N = 64;
  ZipfSampler Sampler(N, 0.8);
  EXPECT_EQ(Sampler.universe(), N);
  SplitMix64 Rng(1);
  std::map<size_t, uint64_t> Counts;
  const int Draws = 20000;
  for (int I = 0; I < Draws; ++I) {
    size_t Index = Sampler.sample(Rng);
    ASSERT_LT(Index, N);
    ++Counts[Index];
  }
  // Rank 0 must be drawn far more often than the uniform share, and more
  // often than a mid-pack rank — the whole point of the skew.
  EXPECT_GT(Counts[0], static_cast<uint64_t>(Draws) / N * 3);
  EXPECT_GT(Counts[0], Counts[N / 2] * 2);
}

TEST(Zipf, ThetaZeroIsUniformish) {
  const size_t N = 8;
  ZipfSampler Sampler(N, 0.0);
  SplitMix64 Rng(3);
  std::map<size_t, uint64_t> Counts;
  const int Draws = 16000;
  for (int I = 0; I < Draws; ++I)
    ++Counts[Sampler.sample(Rng)];
  for (size_t I = 0; I < N; ++I) {
    EXPECT_GT(Counts[I], static_cast<uint64_t>(Draws) / N / 2)
        << "rank " << I << " starved under theta=0";
  }
}

TEST(Zipf, SingleObjectUniverse) {
  ZipfSampler Sampler(1, 0.99);
  SplitMix64 Rng(9);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(Sampler.sample(Rng), 0u);
}

// Degenerate-parameter regressions (PR-10 satellite).  theta == 0 must
// be a *two-sided* uniform fallback: no rank starved AND no rank
// favored.  ThetaZeroIsUniformish above only pins the starvation side,
// which would still pass if a CDF bug concentrated mass on rank 0.
TEST(Zipf, ThetaZeroIsUniformBothSides) {
  const size_t N = 8;
  ZipfSampler Sampler(N, 0.0);
  SplitMix64 Rng(11);
  std::map<size_t, uint64_t> Counts;
  const int Draws = 80000;
  for (int I = 0; I < Draws; ++I)
    ++Counts[Sampler.sample(Rng)];
  const uint64_t Expected = static_cast<uint64_t>(Draws) / N;
  for (size_t I = 0; I < N; ++I) {
    // +-10% of the uniform expectation: loose enough for PRNG noise at
    // 10k draws/rank, tight enough to reject any Zipfian concentration
    // (rank 0 under theta=0.8 would collect ~2.9x the uniform share).
    EXPECT_GT(Counts[I], Expected * 9 / 10) << "rank " << I << " starved";
    EXPECT_LT(Counts[I], Expected * 11 / 10) << "rank " << I << " favored";
  }
}

// Reseeding with the same seed must reproduce the exact draw sequence
// in the degenerate corners too — the soak harness's reproducible
// schedule contract does not exempt theta == 0 or N == 1.
TEST(Zipf, DegenerateParamsDeterministicUnderReseeding) {
  ZipfSampler Uniform(16, 0.0);
  std::vector<size_t> First;
  {
    SplitMix64 Rng(77);
    for (int I = 0; I < 500; ++I)
      First.push_back(Uniform.sample(Rng));
  }
  {
    SplitMix64 Rng(77); // Reseeded: identical stream expected.
    for (int I = 0; I < 500; ++I)
      EXPECT_EQ(Uniform.sample(Rng), First[static_cast<size_t>(I)]) << I;
  }

  // N == 1 composed with theta == 0: the CDF is the single entry 1.0;
  // every draw must land on rank 0 regardless of seed.
  ZipfSampler Point(1, 0.0);
  for (uint64_t Seed : {1ull, 42ull, 0xdeadbeefull}) {
    SplitMix64 Rng(Seed);
    for (int I = 0; I < 100; ++I)
      EXPECT_EQ(Point.sample(Rng), 0u);
  }
}

//===----------------------------------------------------------------------===//
// ZipfSampler::rank — the cut-point table changes no draw
//===----------------------------------------------------------------------===//

namespace {

// The normalized CDF, built by the same formula as ZipfSampler's.
std::vector<double> referenceCdf(size_t N, double Theta) {
  std::vector<double> Cdf;
  double Sum = 0;
  for (size_t I = 0; I < N; ++I) {
    Sum += 1.0 / std::pow(static_cast<double>(I + 1), Theta);
    Cdf.push_back(Sum);
  }
  for (double &Value : Cdf)
    Value /= Sum;
  Cdf.back() = 1.0;
  return Cdf;
}

// The rank a search over the whole CDF returns.
size_t fullSearch(const std::vector<double> &Cdf, double U) {
  return static_cast<size_t>(std::lower_bound(Cdf.begin(), Cdf.end(), U) -
                             Cdf.begin());
}

class ZipfRank
    : public ::testing::TestWithParam<std::tuple<size_t, double>> {};

} // namespace

// The indexed search must return exactly the full search's rank.  Probes:
// 1 M seeded draws, through sample() and through sampleBatch() in batches
// of 1 to 16; every cut point J/M, where the table switches buckets;
// every CDF value, where the full search switches ranks; and the doubles
// on either side of each of these.
TEST_P(ZipfRank, MatchesFullSearch) {
  const auto [N, Theta] = GetParam();
  const ZipfSampler Sampler(N, Theta);
  const std::vector<double> Cdf = referenceCdf(N, Theta);

  constexpr size_t Draws = 1'000'000, MaxBatch = 16;
  SplitMix64 Drawn(7), Batched(7), Reference(7);
  size_t DrawMismatches = 0, BatchMismatches = 0;
  size_t Ranks[MaxBatch];
  for (size_t Done = 0, Size = 1; Done < Draws;
       Done += Size, Size = Size % MaxBatch + 1) {
    Size = std::min(Size, Draws - Done);
    Sampler.sampleBatch(Batched, Ranks, Size);
    for (size_t I = 0; I < Size; ++I) {
      const size_t Want = fullSearch(Cdf, Reference.nextDouble());
      DrawMismatches += Sampler.sample(Drawn) != Want;
      BatchMismatches += Ranks[I] != Want;
    }
  }
  EXPECT_EQ(DrawMismatches, 0u);
  EXPECT_EQ(BatchMismatches, 0u);
  EXPECT_EQ(Batched.next(), Drawn.next())
      << "sampleBatch left the PRNG where sample() calls would not";

  size_t Mismatches = 0;
  double FirstMismatch = -1;
  auto probeAround = [&](double Point) {
    for (double U : {std::nextafter(Point, 0.0), Point,
                     std::nextafter(Point, 1.0)}) {
      if (U < 0 || U >= 1)
        continue; // Outside rank()'s domain.
      if (Sampler.rank(U) != fullSearch(Cdf, U) && Mismatches++ == 0)
        FirstMismatch = U;
    }
  };
  const size_t M = std::bit_ceil(std::max<size_t>(1, N / 4)); // As Zipf.h.
  for (size_t J = 0; J <= M; ++J)
    probeAround(static_cast<double>(J) / static_cast<double>(M));
  for (double Value : Cdf)
    probeAround(Value);
  EXPECT_EQ(Mismatches, 0u) << "first at U = " << std::hexfloat
                            << FirstMismatch;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ZipfRank,
    ::testing::Combine(::testing::Values<size_t>(1, 2, 3, 8, 64, 1000,
                                                 1'000'000),
                       ::testing::Values(0.0, 0.5, 0.8, 0.99, 1.0, 1.2)),
    [](const ::testing::TestParamInfo<ZipfRank::ParamType> &Info) {
      char Name[48]; // e.g. N1000_Theta0_99
      std::snprintf(Name, sizeof(Name), "N%zu_Theta%.2f",
                    std::get<0>(Info.param), std::get<1>(Info.param));
      std::string Id(Name);
      std::replace(Id.begin(), Id.end(), '.', '_');
      return Id;
    });

//===----------------------------------------------------------------------===//
// AdmissionController — ladder driven with synthetic pressure
//===----------------------------------------------------------------------===//

namespace {

PressureSignals quiet() { return PressureSignals(); }

} // namespace

TEST(Admission, FirstTickIsBaselineQuiet) {
  AdmissionController Controller;
  // Even a nonzero cumulative counter on the very first tick is the
  // baseline, not a fresh error.
  PressureSignals Signals;
  Signals.MonitorExhaustionEvents = 100;
  Signals.EmergencyInflations = 5;
  EXPECT_EQ(Controller.tick(Signals), DegradationLevel::Normal);
}

TEST(Admission, EscalationPerSignalType) {
  {
    AdmissionController Controller;
    Controller.tick(quiet());
    PressureSignals Signals;
    Signals.EmergencyInflations = 1;
    EXPECT_EQ(Controller.tick(Signals), DegradationLevel::EmergencyOnly);
  }
  {
    AdmissionController Controller;
    Controller.tick(quiet());
    PressureSignals Signals;
    Signals.MonitorExhaustionEvents = 1;
    EXPECT_EQ(Controller.tick(Signals), DegradationLevel::DeferInflation);
  }
  {
    AdmissionController Controller;
    Controller.tick(quiet());
    PressureSignals Signals;
    Signals.RegistryExhaustionEvents = 1;
    EXPECT_EQ(Controller.tick(Signals), DegradationLevel::Shed);
  }
  {
    AdmissionController Controller;
    Controller.tick(quiet());
    PressureSignals Signals;
    Signals.RegistryOccupancy = 0.9; // >= default HighWater 0.85.
    EXPECT_EQ(Controller.tick(Signals), DegradationLevel::Shed);
  }
}

TEST(Admission, EscalationIsImmediateAndNeverSkippedDown) {
  AdmissionController Controller;
  Controller.tick(quiet());
  PressureSignals Signals;
  Signals.EmergencyInflations = 1;
  EXPECT_EQ(Controller.tick(Signals), DegradationLevel::EmergencyOnly);
  // A weaker signal on the next tick must not *lower* the level (only
  // dwell-based recovery may).
  Signals.RegistryExhaustionEvents = 1;
  EXPECT_EQ(Controller.tick(Signals), DegradationLevel::EmergencyOnly);
}

TEST(Admission, RecoveryTakesDwellPerStep) {
  AdmissionLimits Limits;
  Limits.RecoveryDwellTicks = 3;
  AdmissionController Controller(Limits);
  Controller.tick(quiet());
  PressureSignals Pressure;
  Pressure.EmergencyInflations = 1;
  ASSERT_EQ(Controller.tick(Pressure), DegradationLevel::EmergencyOnly);

  // From EmergencyOnly back to Normal: 3 quiet ticks per rung, 3 rungs.
  PressureSignals Calm;
  Calm.EmergencyInflations = 1; // Cumulative counter stays; delta is 0.
  int TicksToNormal = 0;
  while (Controller.level() != DegradationLevel::Normal) {
    Controller.tick(Calm);
    ASSERT_LT(++TicksToNormal, 100) << "ladder never recovered";
  }
  EXPECT_EQ(TicksToNormal, 9);
  EXPECT_EQ(Controller.counters().DeEscalations, 3u);
}

TEST(Admission, NoRecoveryWhileRegistryOccupancyHigh) {
  AdmissionLimits Limits;
  Limits.RecoveryDwellTicks = 2;
  AdmissionController Controller(Limits);
  Controller.tick(quiet());
  PressureSignals Signals;
  Signals.RegistryExhaustionEvents = 1;
  ASSERT_EQ(Controller.tick(Signals), DegradationLevel::Shed);

  // No fresh errors, but occupancy still above LowWater: not quiet.
  Signals.RegistryOccupancy = 0.75; // >= default LowWater 0.70.
  for (int I = 0; I < 20; ++I)
    EXPECT_EQ(Controller.tick(Signals), DegradationLevel::Shed);

  // Occupancy drops; recovery proceeds.
  Signals.RegistryOccupancy = 0.1;
  Controller.tick(Signals);
  EXPECT_EQ(Controller.tick(Signals), DegradationLevel::Normal);
}

TEST(Admission, MonitorOccupancyDoesNotBlockRecovery) {
  // Monitor occupancy is monotone (indices never reused): a permanently
  // high reading must not latch the ladder once the error rate quiets.
  AdmissionLimits Limits;
  Limits.RecoveryDwellTicks = 1;
  AdmissionController Controller(Limits);
  Controller.tick(quiet());
  PressureSignals Signals;
  Signals.MonitorExhaustionEvents = 1;
  Signals.MonitorOccupancy = 0.99;
  ASSERT_EQ(Controller.tick(Signals), DegradationLevel::DeferInflation);
  Controller.tick(Signals); // Quiet delta, occupancy still 0.99.
  EXPECT_EQ(Controller.tick(Signals), DegradationLevel::Normal);
}

TEST(Admission, DecisionsPerLevel) {
  AdmissionLimits Limits;
  Limits.ShedOneIn = 3;
  {
    AdmissionController Controller(Limits);
    // Normal admits everything, heavy or not.
    for (int I = 0; I < 9; ++I)
      EXPECT_EQ(Controller.admit(I % 2 == 0), AdmissionDecision::Admit);
  }
  {
    AdmissionController Controller(Limits);
    Controller.tick(quiet());
    PressureSignals Signals;
    Signals.RegistryExhaustionEvents = 1;
    Controller.tick(Signals);
    // Shed rejects every 3rd arrival (serial 3, 6, ...), admits the rest.
    EXPECT_EQ(Controller.admit(false), AdmissionDecision::Admit);
    EXPECT_EQ(Controller.admit(true), AdmissionDecision::Admit);
    EXPECT_EQ(Controller.admit(false), AdmissionDecision::Shed);
    EXPECT_EQ(Controller.admit(true), AdmissionDecision::Admit);
  }
  {
    AdmissionController Controller(Limits);
    Controller.tick(quiet());
    PressureSignals Signals;
    Signals.MonitorExhaustionEvents = 1;
    Controller.tick(Signals);
    // DeferInflation: heavy defers, light sheds fractionally.
    EXPECT_EQ(Controller.admit(true), AdmissionDecision::Defer);
    EXPECT_EQ(Controller.admit(false), AdmissionDecision::Admit);
    EXPECT_EQ(Controller.admit(false), AdmissionDecision::Shed);
  }
  {
    AdmissionController Controller(Limits);
    Controller.tick(quiet());
    PressureSignals Signals;
    Signals.EmergencyInflations = 1;
    Controller.tick(Signals);
    // EmergencyOnly: heavy refused outright, light runs degraded.
    EXPECT_EQ(Controller.admit(true), AdmissionDecision::Shed);
    EXPECT_EQ(Controller.admit(false), AdmissionDecision::AdmitDegraded);
    EXPECT_EQ(Controller.admit(false), AdmissionDecision::Shed);
    EXPECT_EQ(Controller.admit(false), AdmissionDecision::AdmitDegraded);
  }
}

TEST(Admission, LedgerAccountsEveryDecisionAndTick) {
  AdmissionController Controller;
  Controller.tick(quiet());
  PressureSignals Signals;
  Signals.EmergencyInflations = 1;
  Controller.tick(Signals);
  Controller.admit(true);  // Shed.
  Controller.admit(false); // AdmitDegraded.
  auto Counters = Controller.counters();
  EXPECT_EQ(Counters.Ticks, 2u);
  EXPECT_EQ(Counters.TicksAtLevel[0], 2u); // Both ticks *started* Normal.
  EXPECT_EQ(Counters.Escalations, 1u);
  EXPECT_EQ(Counters.Shed, 1u);
  EXPECT_EQ(Counters.AdmittedDegraded, 1u);
  EXPECT_EQ(Counters.Admitted + Counters.AdmittedDegraded +
                Counters.Deferred + Counters.Shed,
            2u);
}

//===----------------------------------------------------------------------===//
// Chaos schedule
//===----------------------------------------------------------------------===//

TEST(ChaosSchedule, DeterministicAndWellFormed) {
  auto A = buildChaosSchedule(7);
  auto B = buildChaosSchedule(7);
  ASSERT_EQ(A.size(), B.size());
  ASSERT_FALSE(A.empty());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].StartFraction, B[I].StartFraction);
    EXPECT_EQ(A[I].EndFraction, B[I].EndFraction);
    EXPECT_EQ(A[I].PointId, B[I].PointId);
    EXPECT_GE(A[I].StartFraction, 0.0);
    EXPECT_LE(A[I].EndFraction, 1.0);
    EXPECT_LT(A[I].StartFraction, A[I].EndFraction);
  }
  // A different seed jitters the windows.
  auto C = buildChaosSchedule(8);
  bool AnyDiffers = false;
  for (size_t I = 0; I < A.size() && I < C.size(); ++I)
    AnyDiffers |= A[I].StartFraction != C[I].StartFraction;
  EXPECT_TRUE(AnyDiffers);
}

//===----------------------------------------------------------------------===//
// SloSnapshot rendering
//===----------------------------------------------------------------------===//

TEST(SloSnapshot, QuantilesOfHistogram) {
  LatencyHistogram Hist;
  for (uint64_t I = 1; I <= 1000; ++I)
    Hist.record(I);
  auto Quantiles = obs::SloQuantiles::of(Hist);
  EXPECT_EQ(Quantiles.Count, 1000u);
  EXPECT_TRUE(Quantiles.monotone());
  EXPECT_EQ(Quantiles.Max, 1000u);
  EXPECT_GE(Quantiles.P50, 450u);
  EXPECT_LE(Quantiles.P50, 550u);
  EXPECT_GE(Quantiles.P99, 950u);
}

TEST(SloSnapshot, ToJsonContainsContract) {
  obs::SloSnapshot Snapshot;
  Snapshot.DurationSeconds = 1.5;
  Snapshot.SessionsOffered = 10;
  Snapshot.SessionsCompleted = 8;
  Snapshot.SessionsShed = 2;
  Snapshot.FinalLevel = 0;
  std::string Json = Snapshot.toJson();
  EXPECT_NE(Json.find("\"sessions_offered\": 10"), std::string::npos);
  EXPECT_NE(Json.find("\"sessions_shed\": 2"), std::string::npos);
  EXPECT_NE(Json.find("\"acquire\""), std::string::npos);
  EXPECT_NE(Json.find("\"wake\""), std::string::npos);
  EXPECT_NE(Json.find("\"ticks_at_level\""), std::string::npos);
  // Balanced braces (the artifact nests into BENCH_soak.json).
  int Depth = 0;
  for (char C : Json) {
    if (C == '{')
      ++Depth;
    if (C == '}')
      --Depth;
    EXPECT_GE(Depth, 0);
  }
  EXPECT_EQ(Depth, 0);
}

TEST(SloSnapshot, WorstSessionsTraceValidates) {
  std::vector<obs::SessionSpanInfo> Worst;
  obs::SessionSpanInfo Span;
  Span.SessionId = 3;
  Span.WorkerTid = 1;
  Span.ArrivalNanos = 1000;
  Span.StartNanos = 2500;
  Span.EndNanos = 9000;
  Span.MaxAcquireNanos = 800;
  Span.Heavy = true;
  Worst.push_back(Span);
  std::string Json =
      obs::worstSessionsTraceJson({}, Worst, /*Classes=*/nullptr);
  std::string Error;
  EXPECT_TRUE(obs::validateChromeTraceJson(Json, &Error)) << Error;
  EXPECT_NE(Json.find("\"cat\":\"session\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// TimerLead: how a claimer waits for its arrival's instant
//===----------------------------------------------------------------------===//

TEST(TimerLead, SettlesWithinOneStepOfTheStreamMedian) {
  // A skewed lateness stream (ns) like a host timer's: median 60 us,
  // with a long tail.  From below (a new worker) and from the cap, the
  // lead settles at the median and stays within one step of it.
  const uint64_t Stream[] = {53'000, 85'000, 40'000, 258'000, 60'000};
  const uint64_t Median = 60'000;
  const uint64_t Cap = 208'000;
  TimerLead FromZero(Cap);
  TimerLead FromCap(Cap);
  while (FromCap.lead() < Cap)
    FromCap.observe(Cap + 1);
  for (TimerLead *Lead : {&FromZero, &FromCap}) {
    for (int Round = 0; Round < 200; ++Round)
      for (uint64_t Lateness : Stream)
        Lead->observe(Lateness);
    for (int Round = 0; Round < 100; ++Round)
      for (uint64_t Lateness : Stream) {
        Lead->observe(Lateness);
        EXPECT_LE(Lead->lead(), Median + TimerLead::StepNanos);
        EXPECT_GE(Lead->lead(), Median - TimerLead::StepNanos);
      }
  }
}

TEST(TimerLead, StaysWithinZeroAndTheCap) {
  // A cap that is no multiple of the step: the lead still never passes
  // it, a stream above the cap saturates at it, and a stream of zeros
  // walks it back to 0 without wrapping below.
  const uint64_t Cap = 2'500;
  TimerLead Lead(Cap);
  for (int I = 0; I < 10; ++I) {
    Lead.observe(0);
    EXPECT_EQ(Lead.lead(), 0u);
  }
  for (int I = 0; I < 10; ++I) {
    Lead.observe(1'000'000'000);
    EXPECT_LE(Lead.lead(), Cap);
  }
  EXPECT_EQ(Lead.lead(), Cap);
  for (int I = 0; I < 10; ++I) {
    Lead.observe(0);
    EXPECT_LE(Lead.lead(), Cap);
  }
  EXPECT_EQ(Lead.lead(), 0u);

  TimerLead Capless(0);
  Capless.observe(1'000'000);
  EXPECT_EQ(Capless.lead(), 0u);
}

TEST(TimerLead, GapNoLongerThanTheLeadSpinsWithoutSleeping) {
  // A sleep would observe its lateness and move the lead; a spin does
  // not.  An instant already past returns at once.
  const uint64_t Cap = 200'000;
  TimerLead Lead(Cap);
  while (Lead.lead() < Cap)
    Lead.observe(Cap + 1);
  uint64_t Instant = monotonicNanos() + Cap / 4;
  Lead.waitUntil(Instant);
  EXPECT_GE(monotonicNanos(), Instant);
  EXPECT_EQ(Lead.lead(), Cap);
  Lead.waitUntil(monotonicNanos() - 1);
  EXPECT_EQ(Lead.lead(), Cap);
}

TEST(TimerLead, LongerGapSleepsAndLearnsItsLateness) {
  // From a lead of 0 the worker sleeps to the instant itself; the sleep
  // ends past its deadline, so the lead takes one step up, and the
  // wait still returns no earlier than the instant.
  TimerLead Lead(/*CapNanos=*/200'000);
  uint64_t Instant = monotonicNanos() + 2'000'000;
  Lead.waitUntil(Instant);
  EXPECT_GE(monotonicNanos(), Instant);
  EXPECT_EQ(Lead.lead(), TimerLead::StepNanos);
}

//===----------------------------------------------------------------------===//
// runSoak end-to-end (short)
//===----------------------------------------------------------------------===//

TEST(Soak, ShortRunAccountsEverySession) {
  SoakConfig Config;
  Config.ArrivalsPerSecond = 400;
  Config.DurationSeconds = 0.5;
  Config.Workers = 2;
  Config.Seed = 11;
  SoakResult Result = runSoak(Config);
  const obs::SloSnapshot &Slo = Result.Slo;

  EXPECT_GT(Slo.SessionsOffered, 0u);
  EXPECT_GT(Slo.SessionsCompleted, 0u);
  EXPECT_GT(Slo.RequestsCompleted, 0u);
  EXPECT_EQ(Slo.SessionsOffered, Slo.SessionsCompleted + Slo.SessionsShed);
  EXPECT_TRUE(Slo.Acquire.monotone());
  EXPECT_TRUE(Slo.Session.monotone());
  EXPECT_TRUE(Slo.Wake.monotone());
  // Unpressured run: nothing to escalate over, ladder ends Normal.
  EXPECT_EQ(Slo.FinalLevel, 0u);
  EXPECT_FALSE(Result.WorstSessions.empty());
  if (!Result.WorstTraceJson.empty()) {
    std::string Error;
    EXPECT_TRUE(obs::validateChromeTraceJson(Result.WorstTraceJson, &Error))
        << Error;
  }
}

TEST(Soak, DeterministicOfferCountPerSeed) {
  // The arrival schedule is a pure function of the seed, written out
  // here: one SplitMix64 of the seed draws a gap, then the heavy flag,
  // per arrival, up to the first gap past the run.  What each arrival
  // *experiences* is timing-dependent, but the offered count is not,
  // whatever the worker count.
  SoakConfig Config;
  Config.ArrivalsPerSecond = 300;
  Config.DurationSeconds = 0.3;
  Config.Seed = 5;
  SplitMix64 Rng(Config.Seed);
  const double GapScale = 1e9 / Config.ArrivalsPerSecond;
  const double EndNanos =
      static_cast<double>(static_cast<uint64_t>(Config.DurationSeconds * 1e9));
  uint64_t Scheduled = 0;
  for (double Clock = 0;;) {
    Clock += -std::log(1.0 - Rng.nextDouble()) * GapScale;
    if (Clock >= EndNanos)
      break;
    Rng.nextBool(Config.HeavyFraction);
    ++Scheduled;
  }
  ASSERT_GT(Scheduled, 0u);
  for (unsigned Workers : {1u, 2u, 3u}) {
    Config.Workers = Workers;
    SoakResult Result = runSoak(Config);
    EXPECT_EQ(Result.Slo.SessionsOffered, Scheduled) << Workers << " workers";
    EXPECT_EQ(Result.Slo.SessionsOffered,
              Result.Slo.SessionsCompleted + Result.Slo.SessionsShed);
  }
}

TEST(Soak, OneWorkerUnderOverloadShedsTheBacklogPastTheQueueLimit) {
  // Arrivals far faster than one worker serves them: the arrivals due
  // while it works pile up as a backlog, and the bounded queue sheds
  // what does not fit; every offered session is still accounted for.
  SoakConfig Config;
  Config.ArrivalsPerSecond = 200'000;
  Config.DurationSeconds = 0.05;
  Config.Workers = 1;
  Config.Seed = 4;
  SoakResult Result = runSoak(Config);
  const obs::SloSnapshot &Slo = Result.Slo;

  EXPECT_GT(Result.QueueOverflowShed, 0u);
  EXPECT_GT(Slo.SessionsCompleted, 0u);
  EXPECT_EQ(Slo.SessionsOffered, Slo.SessionsCompleted + Slo.SessionsShed);
  EXPECT_TRUE(Slo.Session.monotone());
}

TEST(Soak, SessionsOpenConfigurationTicksTheEngineAndShedsNothing) {
  // The soak configuration the sessions_open benchmark runs: the
  // adaptive engine, quiescent deflation and speculative deflation on.
  SoakConfig Config;
  Config.DurationSeconds = 0.5;
  Config.Workers = 2;
  Config.DeflateWhenQuiescent = true;
  Config.AdaptivePolicy = true;
  Config.Policy.SpeculativeDeflation = true;
  SoakResult Result = runSoak(Config);
  const obs::SloSnapshot &Slo = Result.Slo;

  EXPECT_GT(Slo.SessionsOffered, 0u);
  EXPECT_EQ(Slo.SessionsOffered, Slo.SessionsCompleted + Slo.SessionsShed);
  EXPECT_TRUE(Slo.Acquire.monotone());
  EXPECT_TRUE(Slo.Session.monotone());
  EXPECT_TRUE(Slo.Wake.monotone());
  EXPECT_GT(Result.Policy.Ticks, 0u);
  // The engine publishes no decisions; the ledger fields sessions_open
  // still reports for them read 0.
  EXPECT_EQ(Result.Policy.Promotions, 0u);
  EXPECT_EQ(Result.Policy.Demotions, 0u);
  EXPECT_EQ(Result.Policy.KeepFatDecisions, 0u);
  EXPECT_EQ(Result.Policy.PublishFailures, 0u);
  EXPECT_EQ(Slo.SessionsShed, 0u);
}

TEST(Soak, SessionShapesServeTheirRequestsAndMonitors) {
  // The session shapes DESIGN.md §12 describes, in numbers: a light
  // session serves 24 requests; a heavy one inflates 3 private objects
  // and then serves 10 hot requests; a heavy one admitted degraded
  // serves the 10 without asking for a monitor.
  std::unique_ptr<ProtocolHandle> Handle = createProtocol("ThinLock");
  ASSERT_NE(Handle, nullptr);
  Heap TheHeap;
  ThreadRegistry Registry;
  SessionWorkload Workload(Handle->sync(), TheHeap, Registry,
                           /*HotObjects=*/8, /*ZipfTheta=*/0.8);
  ScopedThreadAttachment Worker(Registry, "worker");
  SplitMix64 Rng(3);
  LatencyHistogram Acquire;

  SessionOutcome Light = Workload.run(Worker.context(), Rng, /*Heavy=*/false,
                                      /*Degraded=*/false, Acquire);
  EXPECT_EQ(Light.Requests, 24u);
  EXPECT_EQ(Light.MonitorsRequested, 0u);

  SessionOutcome Heavy = Workload.run(Worker.context(), Rng, /*Heavy=*/true,
                                      /*Degraded=*/false, Acquire);
  EXPECT_EQ(Heavy.Requests, 13u);
  EXPECT_EQ(Heavy.MonitorsRequested, 3u);
  EXPECT_FALSE(Heavy.AttachFallback);

  SessionOutcome Degraded = Workload.run(Worker.context(), Rng,
                                         /*Heavy=*/true, /*Degraded=*/true,
                                         Acquire);
  EXPECT_EQ(Degraded.Requests, 10u);
  EXPECT_EQ(Degraded.MonitorsRequested, 0u);
}

TEST(Soak, TinyMonitorTableEscalatesOnGenuineExhaustion) {
  SoakConfig Config;
  Config.ArrivalsPerSecond = 500;
  Config.DurationSeconds = 0.6;
  Config.Workers = 2;
  Config.Seed = 23;
  Config.HeavyFraction = 0.8; // Inflation-heavy mix...
  Config.MonitorCapacity = 8; // ...against almost no monitor space.
  SoakResult Result = runSoak(Config);
  const obs::SloSnapshot &Slo = Result.Slo;

  // Genuine exhaustion: typed errors recorded, ladder escalated, and the
  // run still terminates with the accounting identity intact — the
  // graceful-degradation contract, minus any failpoints.
  EXPECT_GT(Slo.MonitorExhaustionEvents + Slo.EmergencyInflations, 0u);
  EXPECT_GT(Result.Admission.Escalations, 0u);
  EXPECT_EQ(Slo.SessionsOffered, Slo.SessionsCompleted + Slo.SessionsShed);
  EXPECT_GT(Slo.SessionsCompleted, 0u);
}
