//===- tests/load_test.cpp - Soak-harness subsystem tests -----------------===//
//
// Unit coverage for src/load/: the Zipfian popularity sampler, the
// admission-control degradation ladder (driven with synthetic
// PressureSignals — no real tables needed), the chaos schedule's
// determinism, the session shapes, and short end-to-end runSoak()
// sanity runs, including the benchmark's adaptive configuration and one
// against a deliberately tiny MonitorTable so genuine (not injected)
// exhaustion feeds the ladder.
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
#include "threads/ThreadRegistry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
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
