//===- tests/txn_test.cpp - Transactional scenario engine -----------------===//
//
// Covers src/txn/ (DESIGN.md §15): the ConflictPolicy strategies
// (NoWait / WaitDie / Validated), the access-set draw, the engine's
// accounting and serializability spot-checks, wait-die ordering
// invariants, the thin-lock Deadlock verdict as a precise abort signal,
// and the no-lost-locks contract on every abort path (ownership-audited,
// under failpoints when compiled in).  Suite names all carry "Txn" so
// the CI TSan job's regex picks the whole file up.
//
//===----------------------------------------------------------------------===//

#include "core/OwnershipAudit.h"
#include "core/ProtocolRegistry.h"
#include "support/FailPoint.h"
#include "support/Timer.h"
#include "txn/TxnEngine.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

using namespace thinlocks;
using namespace thinlocks::txn;

namespace {

// One version/value record per object: a seqlock read, a commit mark
// and a publish each touch a single cache line.
static_assert(sizeof(TxnCell) == 16, "TxnCell is one 16-byte record");
static_assert(alignof(TxnCell) == 16, "a cell never straddles a line");
// The record lives in its object's slots: from a line-aligned first
// object, two objects fill each line and none straddles one.
static_assert(sizeof(Object) + sizeof(TxnCell) == 32,
              "header plus record is 32 bytes");

//===----------------------------------------------------------------------===//
// Pure pieces: names, the wait-die rule, the access draw.
//===----------------------------------------------------------------------===//

TEST(TxnPolicyTest, PolicyNamesRoundTrip) {
  ASSERT_EQ(allConflictPolicies().size(), 3u);
  for (ConflictPolicyKind Kind : allConflictPolicies()) {
    ConflictPolicyKind Parsed;
    ASSERT_TRUE(parseConflictPolicy(conflictPolicyName(Kind), Parsed));
    EXPECT_EQ(Parsed, Kind);
  }
  ConflictPolicyKind Ignored;
  EXPECT_FALSE(parseConflictPolicy("TwoPhaseMagic", Ignored));
  EXPECT_STREQ(conflictPolicyName(ConflictPolicyKind::WaitDie), "WaitDie");
  EXPECT_STREQ(txnStatusName(TxnStatus::AbortedDeadlock), "deadlock");
  EXPECT_FALSE(isAbort(TxnStatus::Committed));
  EXPECT_TRUE(isAbort(TxnStatus::AbortedDie));
}

TEST(TxnPolicyTest, WaitDieDecisionOrdering) {
  // Unstamped holder: in flux, retry.
  EXPECT_EQ(waitDieDecide(5, 0), WaitDieDecision::Retry);
  // Older (smaller timestamp) waits for a younger holder.
  EXPECT_EQ(waitDieDecide(3, 9), WaitDieDecision::Wait);
  // Younger dies to an older holder; ties die (conservative).
  EXPECT_EQ(waitDieDecide(9, 3), WaitDieDecision::Die);
  EXPECT_EQ(waitDieDecide(7, 7), WaitDieDecision::Die);
}

TEST(TxnPolicyTest, DrawAccessDistinctWritesFirst) {
  load::ZipfSampler Popularity(64, 0.8);
  SplitMix64 Rng(42);
  TxnAccess Access;
  for (int Draw = 0; Draw < 200; ++Draw) {
    drawTxnAccess(Popularity, Rng, /*ReadTarget=*/4, /*WriteTarget=*/2,
                  Access);
    ASSERT_EQ(Access.Writes.size(), 2u);
    ASSERT_EQ(Access.Reads.size(), 4u);
    std::vector<size_t> All(Access.Writes);
    All.insert(All.end(), Access.Reads.begin(), Access.Reads.end());
    std::sort(All.begin(), All.end());
    EXPECT_EQ(std::unique(All.begin(), All.end()), All.end())
        << "draw produced a duplicate index";
    for (size_t Idx : All)
      EXPECT_LT(Idx, 64u);
  }
}

TEST(TxnPolicyTest, DrawAccessShedsReadsBeforeWritesOnTinyUniverse) {
  // Universe of 3 < R+W: the 2 writes survive, reads shrink to 1.
  load::ZipfSampler Small(3, 0.8);
  SplitMix64 Rng(7);
  TxnAccess Access;
  drawTxnAccess(Small, Rng, /*ReadTarget=*/4, /*WriteTarget=*/2, Access);
  EXPECT_EQ(Access.Writes.size(), 2u);
  EXPECT_EQ(Access.Reads.size(), 1u);

  // The degenerate single-object universe: one blind write, no reads.
  load::ZipfSampler One(1, 0.0);
  drawTxnAccess(One, Rng, /*ReadTarget=*/4, /*WriteTarget=*/2, Access);
  ASSERT_EQ(Access.Writes.size(), 1u);
  EXPECT_EQ(Access.Writes[0], 0u);
  EXPECT_TRUE(Access.Reads.empty());
}

TEST(TxnPolicyTest, DrawAccessDeterministicPerSeed) {
  load::ZipfSampler Popularity(128, 0.9);
  SplitMix64 RngA(11), RngB(11);
  TxnAccess A, B;
  for (int Draw = 0; Draw < 50; ++Draw) {
    drawTxnAccess(Popularity, RngA, 4, 2, A);
    drawTxnAccess(Popularity, RngB, 4, 2, B);
    EXPECT_EQ(A.Writes, B.Writes);
    EXPECT_EQ(A.Reads, B.Reads);
  }
}

// The reference for drawTxnAccess: the same algorithm with one sample()
// per attempt and no pre-drawn ranks.  Counts the fallback scans it
// makes.
void sequentialDrawTxnAccess(const load::ZipfSampler &Popularity,
                             SplitMix64 &Rng, uint32_t ReadTarget,
                             uint32_t WriteTarget, TxnAccess &Access,
                             uint64_t &FallbackScans) {
  Access.Reads.clear();
  Access.Writes.clear();
  const size_t Universe = Popularity.universe();
  size_t Total = std::min<size_t>(Universe, size_t(ReadTarget) + WriteTarget);
  size_t Writes = std::min<size_t>(WriteTarget, Total);
  auto taken = [&Access](size_t Idx) {
    return std::find(Access.Writes.begin(), Access.Writes.end(), Idx) !=
               Access.Writes.end() ||
           std::find(Access.Reads.begin(), Access.Reads.end(), Idx) !=
               Access.Reads.end();
  };
  auto drawDistinct = [&]() -> size_t {
    for (unsigned Attempt = 0; Attempt < 64; ++Attempt) {
      size_t Idx = Popularity.sample(Rng);
      if (!taken(Idx))
        return Idx;
    }
    ++FallbackScans;
    size_t Start = Rng.nextBounded(Universe);
    for (size_t I = 0; I < Universe; ++I) {
      size_t Idx = (Start + I) % Universe;
      if (!taken(Idx))
        return Idx;
    }
    return 0;
  };
  for (size_t I = 0; I < Writes; ++I)
    Access.Writes.push_back(drawDistinct());
  for (size_t I = Writes; I < Total; ++I)
    Access.Reads.push_back(drawDistinct());
}

// Pre-drawing ranks in a batch must change no draw and no PRNG output:
// every seeded txn schedule depends on it.  The grid covers universes
// smaller than the access set (reads shed), skews that force the
// fallback scan (theta 4 on 6 or 70 objects), and access sets larger
// than the 16-rank batch.
TEST(TxnPolicyTest, DrawAccessMatchesSequentialDraws) {
  struct Shape {
    uint32_t Reads, Writes;
  };
  const Shape Shapes[] = {{4, 2}, {0, 3}, {1, 0}, {20, 4}, {66, 4}};
  uint64_t FallbackScans = 0;
  size_t MostSlots = 0;
  for (size_t N : {size_t(1), size_t(2), size_t(3), size_t(6), size_t(64),
                   size_t(70), size_t(4096), size_t(1'000'000)}) {
    for (double Theta : {0.0, 0.8, 1.2, 4.0}) {
      const load::ZipfSampler Popularity(N, Theta);
      for (const Shape &S : Shapes) {
        SCOPED_TRACE(::testing::Message() << "N=" << N << " theta=" << Theta
                                          << " reads=" << S.Reads
                                          << " writes=" << S.Writes);
        SplitMix64 Rng(N * 31 + S.Reads), RefRng(N * 31 + S.Reads);
        TxnAccess Got, Want;
        for (int Draw = 0; Draw < 100; ++Draw) {
          drawTxnAccess(Popularity, Rng, S.Reads, S.Writes, Got);
          sequentialDrawTxnAccess(Popularity, RefRng, S.Reads, S.Writes, Want,
                                  FallbackScans);
          ASSERT_EQ(Got.Writes, Want.Writes) << "draw " << Draw;
          ASSERT_EQ(Got.Reads, Want.Reads) << "draw " << Draw;
          ASSERT_EQ(Rng.next(), RefRng.next()) << "draw " << Draw;
          MostSlots = std::max(MostSlots, Got.Writes.size() + Got.Reads.size());
        }
      }
    }
  }
  EXPECT_GT(FallbackScans, 0u) << "no case reached the fallback scan";
  EXPECT_GT(MostSlots, 16u) << "no access set outgrew the rank batch";
}

TEST(TxnPolicyTest, StatsRecordAndMergeKeepTheIdentity) {
  TxnStats A;
  A.record(TxnStatus::Committed, 1000);
  A.record(TxnStatus::AbortedBusy, 2000);
  A.record(TxnStatus::AbortedValidation, 3000);
  TxnStats B;
  B.record(TxnStatus::AbortedDie, 500);
  B.record(TxnStatus::AbortedDeadlock, 700);
  B.record(TxnStatus::Committed, 900);
  B.AttachFailures = 1;
  A.merge(B);
  EXPECT_EQ(A.AttachFailures, 1u);
  EXPECT_EQ(A.Started, 6u);
  EXPECT_EQ(A.Committed, 2u);
  EXPECT_EQ(A.AbortedBusy, 1u);
  EXPECT_EQ(A.AbortedDie, 1u);
  EXPECT_EQ(A.AbortedDeadlock, 1u);
  EXPECT_EQ(A.AbortedValidation, 1u);
  EXPECT_EQ(A.aborted(), 4u);
  EXPECT_TRUE(A.identityHolds());
  EXPECT_EQ(A.CommitLatency.count(), 2u);
  EXPECT_EQ(A.AbortLatency.count(), 4u);
  EXPECT_EQ(A.AbortLatency.max(), 3000u);
}

//===----------------------------------------------------------------------===//
// Engine fixture over a thin-lock substrate.
//===----------------------------------------------------------------------===//

class TxnEngineTest : public ::testing::Test {
protected:
  TxnEngineTest()
      : Handle(createProtocol("ThinLock")), Registry(256),
        Main(Registry, "txn-main") {}

  SyncBackend &sync() { return Handle->sync(); }
  const ThreadContext &main() { return Main.context(); }

  std::unique_ptr<ProtocolHandle> Handle;
  ThreadRegistry Registry;
  Heap TheHeap;
  ScopedThreadAttachment Main;
};

TEST_F(TxnEngineTest, TxnAllPoliciesContendedRunKeepsEveryInvariant) {
  for (ConflictPolicyKind Kind : allConflictPolicies()) {
    TxnParams Params;
    Params.HeapObjects = 16;
    Params.ZipfTheta = 0.9;
    Params.Threads = 4;
    Params.TxnsPerThread = 3000;
    Params.ReadSetSize = 3;
    Params.WriteSetSize = 2;
    Params.Seed = 99 + static_cast<uint64_t>(Kind);
    Params.Tuning.WaitNanos = 500'000;
    Params.Tuning.HoldNanos = 2'000; // Force interleaving on 1 CPU.
    Params.AuditEveryTxn = true;
    TxnEngine Engine(sync(), TheHeap, Registry, Kind, Params);
    TxnStats Stats = Engine.run();

    SCOPED_TRACE(conflictPolicyName(Kind));
    EXPECT_EQ(Stats.Started, 4u * 3000u);
    EXPECT_TRUE(Stats.identityHolds());
    EXPECT_GT(Stats.Committed, 0u);
    EXPECT_EQ(Stats.ConsistencyViolations, 0u)
        << "serializability spot-check failed";
    EXPECT_EQ(Stats.LeakedLocks, 0u);
    EXPECT_EQ(Engine.versionSum(), Stats.WritesApplied)
        << "lost or phantom writes";
    EXPECT_EQ(Stats.CommitLatency.count(), Stats.Committed);
    EXPECT_EQ(Stats.AbortLatency.count(), Stats.aborted());
  }
}

TEST_F(TxnEngineTest, TxnSingleObjectUniverseDegeneratesSafely) {
  // The Zipf degenerate corner the engine actually hits: N == 1 means
  // every transaction is one blind write to the same object.
  for (ConflictPolicyKind Kind : allConflictPolicies()) {
    TxnParams Params;
    Params.HeapObjects = 1;
    Params.ZipfTheta = 0.0;
    Params.Threads = 3;
    Params.TxnsPerThread = 1000;
    Params.Tuning.WaitNanos = 500'000;
    TxnEngine Engine(sync(), TheHeap, Registry, Kind, Params);
    TxnStats Stats = Engine.run();
    SCOPED_TRACE(conflictPolicyName(Kind));
    EXPECT_TRUE(Stats.identityHolds());
    EXPECT_GT(Stats.Committed, 0u);
    EXPECT_EQ(Stats.ConsistencyViolations, 0u);
    EXPECT_EQ(Engine.versionSum(), Stats.WritesApplied);
  }
}

TEST_F(TxnEngineTest, TxnOnlyWaitDieAllocatesOwnerStamps) {
  // Only wait-die reads holder stamps, so only its engine allocates them.
  TxnParams Params;
  Params.HeapObjects = 64;
  Params.TxnsPerThread = 500;
  Params.Tuning.WaitNanos = 500'000;
  for (ConflictPolicyKind Kind :
       {ConflictPolicyKind::NoWait, ConflictPolicyKind::Validated}) {
    TxnEngine Engine(sync(), TheHeap, Registry, Kind, Params);
    EXPECT_EQ(Engine.table().OwnerTs, nullptr) << conflictPolicyName(Kind);
  }

  TxnEngine Engine(sync(), TheHeap, Registry, ConflictPolicyKind::WaitDie,
                   Params);
  const TxnTable &Table = Engine.table();
  ASSERT_NE(Table.OwnerTs, nullptr);
  ASSERT_EQ(Table.Size, 64u);
  for (size_t I = 0; I < Table.Size; ++I)
    EXPECT_EQ(Table.OwnerTs[I].load(), 0u) << "stamp " << I;
  // Every release clears its stamp, so a finished run leaves none.
  TxnStats Stats = Engine.run();
  EXPECT_GT(Stats.Committed, 0u);
  for (size_t I = 0; I < Table.Size; ++I)
    EXPECT_EQ(Table.OwnerTs[I].load(), 0u) << "stamp " << I;
}

TEST_F(TxnEngineTest, RecordSharesItsObjectsCacheLine) {
  // An access touches one line: each object's lock word and both words
  // of its record sit in the same 64-byte line.
  TxnParams Params;
  Params.HeapObjects = 4096;
  TxnEngine Engine(sync(), TheHeap, Registry, ConflictPolicyKind::Validated,
                   Params);
  const TxnTable &Table = Engine.table();
  ASSERT_EQ(Table.Size, 4096u);
  auto LineOf = [](const void *Byte) {
    return reinterpret_cast<uintptr_t>(Byte) / 64;
  };
  for (size_t I = 0; I < Table.Size; ++I) {
    const Object *Obj = Table.object(I);
    const TxnCell &Cell = Table.cell(I);
    ASSERT_LT(Obj->classIndex(), TheHeap.classes().size()) << "object " << I;
    ASSERT_EQ(TheHeap.classOf(*Obj).Name, "TxnObj") << "object " << I;
    uintptr_t Line = LineOf(&Obj->lockWord());
    ASSERT_EQ(LineOf(&Cell.Version), Line) << "object " << I;
    ASSERT_EQ(LineOf(reinterpret_cast<const char *>(&Cell.Value + 1) - 1),
              Line)
        << "object " << I;
    ASSERT_EQ(Cell.Version.load(), 0u) << "object " << I;
    ASSERT_EQ(Cell.Value.load(), 0u) << "object " << I;
  }
}

TEST_F(TxnEngineTest, TxnNoWaitAbortsBusyAndReleasesEverything) {
  TxnParams Params;
  Params.HeapObjects = 8;
  TxnEngine Engine(sync(), TheHeap, Registry, ConflictPolicyKind::NoWait,
                   Params);
  Object *Contested = Engine.table().object(0);
  sync().lock(Contested, main());

  std::thread Worker([&] {
    ScopedThreadAttachment Attach(Registry, "nowait-worker");
    const ThreadContext &Me = Attach.context();
    TxnAccess Access;
    Access.Writes = {1, 0}; // Index 1 acquired first, then the conflict.
    Access.Reads = {2};
    TxnScratch Scratch;
    EXPECT_EQ(Engine.policy().execute(Me, 1, Access, Scratch),
              TxnStatus::AbortedBusy);
    // The abort released index 1 (and acquired nothing else).
    for (size_t Idx : {size_t(1), size_t(2)})
      EXPECT_FALSE(sync().holdsLock(Engine.table().object(Idx), Me));
    EXPECT_EQ(Scratch.WritesApplied, 0u);
  });
  Worker.join();
  sync().unlock(Contested, main());
  EXPECT_EQ(Engine.versionSum(), 0u);
}

TEST_F(TxnEngineTest, TxnWaitDieYoungerDiesImmediately) {
  TxnParams Params;
  Params.HeapObjects = 8;
  Params.Tuning.WaitNanos = 50'000'000; // A die must not wait this long.
  TxnEngine Engine(sync(), TheHeap, Registry, ConflictPolicyKind::WaitDie,
                   Params);
  const TxnTable &Table = Engine.table();
  sync().lock(Table.object(0), main());
  Table.OwnerTs[0].store(5, std::memory_order_release); // Older holder.

  std::thread Worker([&] {
    ScopedThreadAttachment Attach(Registry, "waitdie-younger");
    const ThreadContext &Me = Attach.context();
    TxnAccess Access;
    Access.Writes = {0};
    TxnScratch Scratch;
    StopWatch Watch;
    EXPECT_EQ(Engine.policy().execute(Me, /*Ts=*/10, Access, Scratch),
              TxnStatus::AbortedDie);
    // Dying is immediate: no wait rung was taken.
    EXPECT_LT(Watch.elapsedNanos(), 40'000'000u);
    EXPECT_FALSE(sync().holdsLock(Table.object(0), Me));
  });
  Worker.join();
  Table.OwnerTs[0].store(0, std::memory_order_release);
  sync().unlock(Table.object(0), main());
}

TEST_F(TxnEngineTest, TxnWaitDieOlderWaitsAndEventuallyCommits) {
  TxnParams Params;
  Params.HeapObjects = 8;
  Params.Tuning.WaitNanos = 2'000'000;
  Params.Tuning.MaxWaitRounds = 1000;
  TxnEngine Engine(sync(), TheHeap, Registry, ConflictPolicyKind::WaitDie,
                   Params);
  const TxnTable &Table = Engine.table();
  sync().lock(Table.object(0), main());
  Table.OwnerTs[0].store(100, std::memory_order_release); // Younger holder.

  std::atomic<bool> WorkerDone{false};
  std::thread Worker([&] {
    ScopedThreadAttachment Attach(Registry, "waitdie-older");
    const ThreadContext &Me = Attach.context();
    TxnAccess Access;
    Access.Writes = {0};
    TxnScratch Scratch;
    // Older than the holder: waits until the holder releases, then
    // commits (never dies).
    EXPECT_EQ(Engine.policy().execute(Me, /*Ts=*/1, Access, Scratch),
              TxnStatus::Committed);
    EXPECT_EQ(Scratch.WritesApplied, 1u);
    EXPECT_FALSE(sync().holdsLock(Table.object(0), Me));
    WorkerDone.store(true, std::memory_order_release);
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(WorkerDone.load(std::memory_order_acquire));
  Table.OwnerTs[0].store(0, std::memory_order_release);
  sync().unlock(Table.object(0), main());
  Worker.join();
  EXPECT_EQ(Engine.versionSum(), 1u);
}

TEST_F(TxnEngineTest, TxnWaitDieDeadlockVerdictIsPreciseAbort) {
  // Builds a real ABBA cycle through the wait-die *unstamped* window
  // (the one schedule wait-die ordering cannot exclude): a holder that
  // has not yet published its stamp makes the policy wait regardless of
  // age.  On thin locks the PR-1 cycle detector double-confirms the
  // cycle at the wait rung's deadline and tryLockFor returns Deadlock,
  // which the policy maps to the precise AbortedDeadlock — instead of
  // burning the whole timeout budget and guessing AbortedBusy.
  TxnParams Params;
  Params.HeapObjects = 8;
  Params.Tuning.WaitNanos = 50'000'000; // One rung, plenty to confirm.
  TxnEngine Engine(sync(), TheHeap, Registry, ConflictPolicyKind::WaitDie,
                   Params);
  const TxnTable &Table = Engine.table();
  Object *A = Table.object(0);
  Object *B = Table.object(1);

  sync().lock(A, main()); // Main's side of the cycle; no txn stamp.

  std::atomic<uint16_t> WorkerIndex{0};
  std::thread Worker([&] {
    ScopedThreadAttachment Attach(Registry, "deadlock-holder");
    const ThreadContext &Me = Attach.context();
    // Holds B with OwnerTs[1] still 0 — the stamp-in-flight window.
    sync().lock(B, Me);
    WorkerIndex.store(Me.index(), std::memory_order_release);
    // Blocks on A until main aborts and unlocks; completes the cycle.
    EXPECT_EQ(sync().tryLockFor(A, Me, 2'000'000'000),
              TimedLockStatus::Acquired);
    sync().unlock(A, Me);
    sync().unlock(B, Me);
  });

  // Wait until the worker's waits-for edge (blocked on A) is published
  // so the cycle exists before the policy starts its wait rung.
  while (WorkerIndex.load(std::memory_order_acquire) == 0 ||
         Registry.blockedOn(WorkerIndex.load(std::memory_order_acquire)) != A)
    std::this_thread::yield();

  TxnAccess Access;
  Access.Writes = {1};
  TxnScratch Scratch;
  EXPECT_EQ(Engine.policy().execute(main(), /*Ts=*/1, Access, Scratch),
            TxnStatus::AbortedDeadlock);
  EXPECT_FALSE(sync().holdsLock(B, main()));
  EXPECT_EQ(Scratch.WritesApplied, 0u);

  sync().unlock(A, main()); // Break the cycle; the worker drains.
  Worker.join();
}

//===----------------------------------------------------------------------===//
// OCC commit-window observability (the Silo lock-bit check).  Without
// the version lock mark, a commit-locked object looks untouched to a
// concurrent validator, and two transactions with crossing read/write
// sets can both validate and both publish — a write-skew cycle
// committed as "serializable".
//===----------------------------------------------------------------------===//

TEST_F(TxnEngineTest, TxnOccCommitLockMarksVersionsAndAbortRestoresThem) {
  TxnParams Params;
  Params.HeapObjects = 8;
  TxnEngine Engine(sync(), TheHeap, Registry, ConflictPolicyKind::Validated,
                   Params);
  const TxnTable &Table = Engine.table();

  const std::vector<size_t> Writes = {1, 3};
  std::vector<size_t> Acquired;
  ASSERT_TRUE(occLockWriteSet(Table, main(), Writes, Acquired, /*Spins=*/4));
  ASSERT_EQ(Acquired.size(), 2u);
  for (size_t Idx : Writes) {
    EXPECT_TRUE(sync().holdsLock(Table.object(Idx), main()));
    EXPECT_EQ(Table.cell(Idx).Version.load() & 1, 1u)
        << "commit lock not observable in the version word";
  }

  // A validator that snapshotted object 1 before this window opened
  // must now fail, even though the committed version has not moved.
  const std::vector<size_t> Reads = {1};
  const std::vector<uint64_t> Snapshot = {0}; // Pre-window even version.
  EXPECT_FALSE(occValidateReadSet(Table, Reads, Snapshot))
      << "validation cannot see the in-flight commit window";

  occAbortWriteSet(Table, main(), Acquired);
  EXPECT_TRUE(Acquired.empty());
  for (size_t Idx : Writes) {
    EXPECT_FALSE(sync().holdsLock(Table.object(Idx), main()));
    EXPECT_EQ(Table.cell(Idx).Version.load(), 0u)
        << "abort must restore the pre-window version";
  }
  // With the window gone the old snapshot validates again, and no
  // write was published.
  EXPECT_TRUE(occValidateReadSet(Table, Reads, Snapshot));
  EXPECT_EQ(Engine.versionSum(), 0u);
}

TEST_F(TxnEngineTest, TxnOccCrossingCommitWindowsCannotBothCommit) {
  // The write-skew schedule, made deterministic: T1 reads X writes Y,
  // T2 reads Y writes X, both having snapshotted the initial versions
  // before either commit window opened.  Barrier A holds both inside
  // their windows before either validates; barrier B holds both
  // verdicts until both validations ran, so neither side's
  // publish/restore can rescue the other.  Serializability demands at
  // most one side commit; pre-fix (no lock marks) both validations
  // passed against the still-unchanged versions and both published.
  TxnParams Params;
  Params.HeapObjects = 8;
  TxnEngine Engine(sync(), TheHeap, Registry, ConflictPolicyKind::Validated,
                   Params);
  const TxnTable &Table = Engine.table();
  constexpr size_t X = 0, Y = 1;

  std::atomic<unsigned> PhaseA{0}, PhaseB{0};
  auto Await = [](std::atomic<unsigned> &Phase) {
    Phase.fetch_add(1, std::memory_order_acq_rel);
    while (Phase.load(std::memory_order_acquire) < 2)
      std::this_thread::yield();
  };

  bool Committed[2] = {false, false};
  auto RunSide = [&](size_t ReadIdx, size_t WriteIdx, bool &DidCommit) {
    ScopedThreadAttachment Attach(Registry, "occ-skew");
    const ThreadContext &Me = Attach.context();
    ASSERT_TRUE(Me.isValid());
    // The read phase ran before either window opened: both sides hold
    // the initial (even) version-0 snapshot of their read object.
    const std::vector<uint64_t> Snapshot = {0};
    const std::vector<size_t> Writes = {WriteIdx};
    std::vector<size_t> Acquired;
    // Disjoint write sets: both locks must succeed.
    ASSERT_TRUE(occLockWriteSet(Table, Me, Writes, Acquired, /*Spins=*/4));
    Await(PhaseA); // Both commit windows are now open.
    bool Ok = occValidateReadSet(Table, {ReadIdx}, Snapshot);
    Await(PhaseB); // Both validations ran against open windows.
    if (!Ok) {
      occAbortWriteSet(Table, Me, Acquired);
      return;
    }
    // Validated: publish (what applyWrite does) and release.
    TxnCell &Cell = Table.cell(WriteIdx);
    uint64_t Next =
        ((Cell.Version.load(std::memory_order_relaxed) >> 1) + 1) << 1;
    Cell.Value.store(Next, std::memory_order_release);
    Cell.Version.store(Next, std::memory_order_release);
    sync().unlock(Table.object(WriteIdx), Me);
    DidCommit = true;
  };

  std::thread T1([&] { RunSide(X, Y, Committed[0]); });
  std::thread T2([&] { RunSide(Y, X, Committed[1]); });
  T1.join();
  T2.join();

  unsigned Commits = unsigned(Committed[0]) + unsigned(Committed[1]);
  EXPECT_LE(Commits, 1u)
      << "write skew: both crossing commit windows committed";
  // Whatever the outcome, the windows closed cleanly: versions even
  // and the version sum accounts exactly for the committed writes.
  EXPECT_EQ(Table.cell(X).Version.load() & 1, 0u);
  EXPECT_EQ(Table.cell(Y).Version.load() & 1, 0u);
  EXPECT_EQ(Engine.versionSum(), Commits);
}

//===----------------------------------------------------------------------===//
// Abort-path lock hygiene: every abort releases everything, audited
// through core/OwnershipAudit against the real MonitorTable, with the
// inflate-race and spurious-wake failpoints widening the windows when
// the build carries them.
//===----------------------------------------------------------------------===//

TEST_F(TxnEngineTest, TxnAbortPathsLeakNoLocksUnderFailpointStress) {
  if (failpoint::compiledIn()) {
    failpoint::arm(failpoint::Id::ThinLockInflateRace, failpoint::Mode::OneIn,
                   3);
    failpoint::arm(failpoint::Id::ParkSpurious, failpoint::Mode::OneIn, 3);
  }

  for (ConflictPolicyKind Kind :
       {ConflictPolicyKind::NoWait, ConflictPolicyKind::WaitDie,
        ConflictPolicyKind::Validated}) {
    TxnParams Params;
    Params.HeapObjects = 6; // Tiny universe => abort-heavy schedule.
    Params.ZipfTheta = 0.6;
    Params.Threads = 4;
    Params.TxnsPerThread = 800;
    Params.ReadSetSize = 2;
    Params.WriteSetSize = 2;
    Params.Tuning.WaitNanos = 200'000;
    Params.Tuning.MaxWaitRounds = 8;
    // Long enough holds that transactions overlap even on a single
    // timesliced CPU — otherwise the stress never aborts at all.
    Params.Tuning.HoldNanos = 20'000;
    Params.AuditEveryTxn = true;
    TxnEngine Engine(sync(), TheHeap, Registry, Kind, Params);

    // Own the worker threads so each worker's registry index can be
    // ownership-audited against the MonitorTable before it detaches.
    MonitorTable *Monitors = Handle->monitorTable();
    ASSERT_NE(Monitors, nullptr);
    std::vector<TxnStats> PerWorker(Params.Threads);
    std::vector<std::thread> Workers;
    for (unsigned W = 0; W < Params.Threads; ++W) {
      Workers.emplace_back([&, W] {
        ScopedThreadAttachment Attach(Registry, "hygiene-worker");
        const ThreadContext &Me = Attach.context();
        ASSERT_TRUE(Me.isValid());
        PerWorker[W] = Engine.runWorker(Me, W);
        // The heap-wide audit: this index owns no monitor anywhere.
        EXPECT_TRUE(objectsLockedBy(Me.index(), TheHeap, *Monitors).empty())
            << "worker still owns a lock after its last transaction";
      });
    }
    for (std::thread &T : Workers)
      T.join();

    TxnStats Stats;
    for (const TxnStats &S : PerWorker)
      Stats.merge(S);
    SCOPED_TRACE(conflictPolicyName(Kind));
    EXPECT_TRUE(Stats.identityHolds());
    EXPECT_GT(Stats.aborted(), 0u) << "stress produced no aborts to audit";
    EXPECT_EQ(Stats.LeakedLocks, 0u)
        << "a transaction returned while still holding a lock";
    EXPECT_EQ(Stats.ConsistencyViolations, 0u);
    EXPECT_EQ(Engine.versionSum(), Stats.WritesApplied);
  }

  if (failpoint::compiledIn())
    failpoint::disarmAll();
}

//===----------------------------------------------------------------------===//
// The registry-wide grid at test scale: every protocol x every policy
// through the scenario runner (what bench_txn does at full scale).
//===----------------------------------------------------------------------===//

TEST(TxnGridTest, TxnEveryProtocolRunsEveryPolicy) {
  for (const std::string &Protocol : registeredProtocolNames()) {
    for (ConflictPolicyKind Kind : allConflictPolicies()) {
      TxnScenarioConfig Config;
      Config.Protocol = Protocol;
      Config.Policy = Kind;
      Config.Params.HeapObjects = 64;
      Config.Params.Threads = 2;
      Config.Params.TxnsPerThread = 400;
      Config.Params.Tuning.WaitNanos = 500'000;
      Config.Params.AuditEveryTxn = true;
      TxnScenarioResult Result = runTxnScenario(Config);

      SCOPED_TRACE(Protocol + "/" + conflictPolicyName(Kind));
      EXPECT_TRUE(Result.Stats.identityHolds());
      EXPECT_GT(Result.Stats.Committed, 0u);
      EXPECT_EQ(Result.Stats.ConsistencyViolations, 0u);
      EXPECT_EQ(Result.Stats.LeakedLocks, 0u);
      EXPECT_TRUE(Result.IntegrityOk);
      EXPECT_FALSE(Result.ProtocolImpl.empty());
    }
  }
}

} // namespace
