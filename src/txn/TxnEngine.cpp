//===- txn/TxnEngine.cpp - Transactional scenario engine ------------------===//

#include "txn/TxnEngine.h"

#include "core/ProtocolRegistry.h"
#include "support/Fatal.h"
#include "support/Timer.h"

#include <new>
#include <thread>

namespace thinlocks {
namespace txn {

namespace {

/// The TxnObj slots that hold an object's record.
constexpr uint32_t RecordSlots = sizeof(TxnCell) / sizeof(uint64_t);

} // namespace

void TxnStats::record(TxnStatus Status, uint64_t Nanos) {
  ++Started;
  switch (Status) {
  case TxnStatus::Committed:
    ++Committed;
    CommitLatency.record(Nanos);
    return;
  case TxnStatus::AbortedBusy:
    ++AbortedBusy;
    break;
  case TxnStatus::AbortedDie:
    ++AbortedDie;
    break;
  case TxnStatus::AbortedDeadlock:
    ++AbortedDeadlock;
    break;
  case TxnStatus::AbortedValidation:
    ++AbortedValidation;
    break;
  }
  AbortLatency.record(Nanos);
}

void TxnStats::merge(const TxnStats &Other) {
  Started += Other.Started;
  Committed += Other.Committed;
  AbortedBusy += Other.AbortedBusy;
  AbortedDie += Other.AbortedDie;
  AbortedDeadlock += Other.AbortedDeadlock;
  AbortedValidation += Other.AbortedValidation;
  WritesApplied += Other.WritesApplied;
  ConsistencyViolations += Other.ConsistencyViolations;
  LeakedLocks += Other.LeakedLocks;
  AttachFailures += Other.AttachFailures;
  CommitLatency.merge(Other.CommitLatency);
  AbortLatency.merge(Other.AbortLatency);
}

TxnEngine::TxnEngine(SyncBackend &Sync, Heap &TheHeap,
                     ThreadRegistry &Registry, ConflictPolicyKind Kind,
                     const TxnParams &Params)
    : Params(Params), Registry(Registry),
      Popularity(Params.HeapObjects == 0 ? 1 : Params.HeapObjects,
                 Params.ZipfTheta) {
  const size_t Universe = Popularity.universe();
  const ClassInfo &Class =
      TheHeap.classes().registerClass("TxnObj", RecordSlots);
  Table.Sync = &Sync;
  Table.First = TheHeap.allocateArray(Class, Universe);
  Table.Size = Universe;
  // Every record starts at version 0 with value 0, satisfying Value ==
  // Version from the first read; so does every stamp ("unstamped").
  for (size_t I = 0; I < Universe; ++I)
    new (Table.object(I)->slots()) TxnCell;
  if (Kind == ConflictPolicyKind::WaitDie)
    OwnerStamps = std::make_unique<std::atomic<uint64_t>[]>(Universe);
  Table.OwnerTs = OwnerStamps.get();
  Policy = makeConflictPolicy(Kind, Table, Params.Tuning);
}

TxnEngine::~TxnEngine() = default;

TxnStats TxnEngine::runWorker(const ThreadContext &Thread, unsigned WorkerId) {
  TxnStats Stats;
  TxnAccess Access;
  TxnScratch Scratch;
  SplitMix64 Rng(Params.Seed + 0x9e3779b97f4a7c15ull * (WorkerId + 1));
  for (uint64_t T = 0; T < Params.TxnsPerThread; ++T) {
    drawTxnAccess(Popularity, Rng, Params.ReadSetSize, Params.WriteSetSize,
                  Access);
    // Timestamps start at 1 so 0 stays the "unstamped" sentinel.  Only
    // wait-die reads them, so only its engines pay the shared counter.
    uint64_t Ts = Table.OwnerTs
                      ? Clock.fetch_add(1, std::memory_order_relaxed) + 1
                      : 0;
    StopWatch Watch;
    TxnStatus Status = Policy->execute(Thread, Ts, Access, Scratch);
    Stats.record(Status, Watch.elapsedNanos());
    if (Params.AuditEveryTxn) {
      for (const std::vector<size_t> *Set : {&Access.Writes, &Access.Reads})
        for (size_t Idx : *Set)
          if (Table.Sync->holdsLock(Table.object(Idx), Thread))
            ++Stats.LeakedLocks;
    }
  }
  Stats.WritesApplied = Scratch.WritesApplied;
  Stats.ConsistencyViolations = Scratch.ConsistencyViolations;
  return Stats;
}

TxnStats TxnEngine::run() {
  std::vector<TxnStats> PerWorker(Params.Threads);
  std::vector<std::thread> Workers;
  Workers.reserve(Params.Threads);
  for (unsigned W = 0; W < Params.Threads; ++W) {
    Workers.emplace_back([this, &PerWorker, W] {
      ScopedThreadAttachment Attach(Registry, "txn-worker");
      if (!Attach.context().isValid()) {
        // Ran nothing: record the failure so a partially-attached run
        // is visible instead of silently under-reporting throughput.
        PerWorker[W].AttachFailures = 1;
        return;
      }
      PerWorker[W] = runWorker(Attach.context(), W);
    });
  }
  for (std::thread &Worker : Workers)
    Worker.join();
  TxnStats Merged;
  for (const TxnStats &Stats : PerWorker)
    Merged.merge(Stats);
  return Merged;
}

uint64_t TxnEngine::versionSum() const {
  uint64_t Sum = 0;
  for (size_t I = 0; I < Table.Size; ++I)
    Sum += Table.cell(I).Version.load(std::memory_order_acquire) >> 1;
  return Sum;
}

TxnScenarioResult runTxnScenario(const TxnScenarioConfig &Config) {
  std::unique_ptr<ProtocolHandle> Handle =
      createProtocol(Config.Protocol, ProtocolConfig());
  if (!Handle)
    fatalError("txn: unknown protocol '%s' (see core/ProtocolRegistry.h "
               "for the registered names)",
               Config.Protocol.c_str());

  ThreadRegistry Registry(1024);
  Heap TheHeap;
  TxnEngine Engine(Handle->sync(), TheHeap, Registry, Config.Policy,
                   Config.Params);

  TxnScenarioResult Result;
  StopWatch Watch;
  Result.Stats = Engine.run();
  Result.ElapsedNanos = Watch.elapsedNanos();
  Result.ProtocolImpl = Handle->sync().name();
  Result.IntegrityOk = Engine.versionSum() == Result.Stats.WritesApplied;
  return Result;
}

} // namespace txn
} // namespace thinlocks
