//===- txn/TxnEngine.h - Transactional scenario engine ---------*- C++ -*-===//
///
/// \file
/// The transactional scenario engine (DESIGN.md §15): workers run short
/// multi-object transactions — read/write sets drawn Zipfian from a
/// large per-run object universe — over any registered SyncProtocol,
/// with conflicts handled by one of the ConflictPolicy strategies.
/// This is the OLTP-shaped workload class the ROADMAP calls for: at
/// high skew the hot head of the Zipf distribution concentrates
/// conflicts onto a few monitors (inflation/morphing territory) while
/// the long tail keeps millions of objects on the thin fast path.
///
/// The engine allocates the universe as one cache-aligned array of
/// two-slot objects, each holding its own TxnCell of version and
/// mirrored value, so an access touches one line for both the lock word
/// and the record.  It also owns the wait-die stamps (WaitDie engines
/// only) and the accounting.  The protocol and heap substrate are either
/// borrowed (TxnEngine, so tests can inject a ThinLock handle and audit
/// its MonitorTable) or owned per run (runTxnScenario, the bench entry
/// point, which builds the protocol by registry name exactly like the
/// soak harness).
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_TXN_TXNENGINE_H
#define THINLOCKS_TXN_TXNENGINE_H

#include "heap/Heap.h"
#include "support/Histogram.h"
#include "threads/ThreadRegistry.h"
#include "txn/ConflictPolicy.h"

#include <cstdint>
#include <memory>
#include <string>

namespace thinlocks {
namespace txn {

/// Engine sizing.  Defaults are a small contended profile suitable for
/// tests; the bench scales HeapObjects into the millions.
struct TxnParams {
  size_t HeapObjects = 1024;
  double ZipfTheta = 0.8;
  unsigned Threads = 3;
  uint64_t TxnsPerThread = 2000;
  uint32_t ReadSetSize = 4;
  uint32_t WriteSetSize = 2;
  uint64_t Seed = 1;
  PolicyTuning Tuning;
  /// After every transaction, assert the worker holds none of the
  /// accessed monitors (the no-lost-locks contract); violations are
  /// counted, not fatal, so tests can report them.
  bool AuditEveryTxn = false;
};

/// Per-run (or per-worker, pre-merge) accounting.
struct TxnStats {
  uint64_t Started = 0;
  uint64_t Committed = 0;
  uint64_t AbortedBusy = 0;
  uint64_t AbortedDie = 0;
  uint64_t AbortedDeadlock = 0;
  uint64_t AbortedValidation = 0;
  uint64_t WritesApplied = 0;
  uint64_t ConsistencyViolations = 0;
  /// Locks still held after a transaction returned (AuditEveryTxn).
  uint64_t LeakedLocks = 0;
  /// Workers whose registry attachment failed: they ran zero
  /// transactions, so a non-zero count means the run's throughput is
  /// silently under-reported.  Benches and tests pin this at zero.
  uint64_t AttachFailures = 0;
  LatencyHistogram CommitLatency;
  LatencyHistogram AbortLatency;

  uint64_t aborted() const {
    return AbortedBusy + AbortedDie + AbortedDeadlock + AbortedValidation;
  }
  /// The accounting identity every run must satisfy.
  bool identityHolds() const { return Started == Committed + aborted(); }

  void record(TxnStatus Status, uint64_t Nanos);
  void merge(const TxnStats &Other);
};

/// Runs transactions over a borrowed substrate.  The registry, heap,
/// and backend must outlive the engine; the engine allocates its object
/// universe from \p TheHeap at construction.
class TxnEngine {
public:
  TxnEngine(SyncBackend &Sync, Heap &TheHeap, ThreadRegistry &Registry,
            ConflictPolicyKind Kind, const TxnParams &Params);
  ~TxnEngine();

  TxnEngine(const TxnEngine &) = delete;
  TxnEngine &operator=(const TxnEngine &) = delete;

  /// Spawns Params.Threads workers, runs every transaction, merges and
  /// \returns the combined stats.
  TxnStats run();

  /// Runs one worker's full transaction quota on the calling thread
  /// (\p Thread must be attached to the engine's registry).  Exposed so
  /// the hygiene tests can own the threads and audit each worker's
  /// index before detaching.
  TxnStats runWorker(const ThreadContext &Thread, unsigned WorkerId);

  /// Σ per-object commit counts (each committed write bumps its
  /// object's version by one commit).  Equals the merged
  /// Stats.WritesApplied on every correct run.
  uint64_t versionSum() const;

  const TxnTable &table() const { return Table; }
  ConflictPolicy &policy() { return *Policy; }

private:
  TxnParams Params;
  /// Allocated for WaitDie engines only; the other policies never stamp.
  std::unique_ptr<std::atomic<uint64_t>[]> OwnerStamps;
  TxnTable Table;
  ThreadRegistry &Registry;
  load::ZipfSampler Popularity;
  std::unique_ptr<ConflictPolicy> Policy;
  /// Wait-die timestamp authority: unique, monotone per attempt.  Only
  /// WaitDie engines draw from it; the others pass Ts = 0.  It has its
  /// own cache line, so its per-attempt writes do not evict the fields
  /// every draw reads (the sampler, the policy pointer).
  alignas(64) std::atomic<uint64_t> Clock{0};
};

/// Bench-facing wrapper: one cell of the protocol x policy grid.
struct TxnScenarioConfig {
  /// Registry name ("ThinLock", "JDK111", ...); unknown names are a
  /// fatal configuration error, exactly like the soak harness.
  std::string Protocol = "ThinLock";
  ConflictPolicyKind Policy = ConflictPolicyKind::NoWait;
  TxnParams Params;
};

struct TxnScenarioResult {
  TxnStats Stats;
  uint64_t ElapsedNanos = 0;
  /// The protocol's own protocolName() (artifact attribution).
  std::string ProtocolImpl;
  /// versionSum() == WritesApplied held at the end of the run.
  bool IntegrityOk = false;

  double commitsPerSecond() const {
    return ElapsedNanos == 0 ? 0.0
                             : static_cast<double>(Stats.Committed) * 1e9 /
                                   static_cast<double>(ElapsedNanos);
  }
};

/// Builds the named protocol plus a private registry/heap, runs one
/// engine to completion, and \returns the result.
TxnScenarioResult runTxnScenario(const TxnScenarioConfig &Config);

} // namespace txn
} // namespace thinlocks

#endif // THINLOCKS_TXN_TXNENGINE_H
