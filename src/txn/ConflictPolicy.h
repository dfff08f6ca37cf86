//===- txn/ConflictPolicy.h - Transaction conflict strategies --*- C++ -*-===//
///
/// \file
/// Conflict handling for the transactional scenario engine (DESIGN.md
/// §15).  A transaction is a short multi-object critical section: a
/// read set and a write set drawn from a shared object universe, every
/// access mediated by the object's monitor (any registered
/// SyncProtocol, via the type-erased SyncBackend).  Three strategies
/// from the OLTP concurrency-control literature sit behind one
/// interface:
///
///  - NoWait: pessimistic 2PL where every acquire is a tryLock; any
///    conflict aborts immediately.  Deadlock-free by construction and
///    the cheapest abort path, at the cost of aborting on transient
///    conflicts.
///
///  - WaitDie: pessimistic 2PL with timestamp ordering.  An older
///    transaction (smaller timestamp) may *wait* for a younger holder
///    (bounded tryLockFor rungs); a younger transaction conflicting
///    with an older holder *dies* immediately.  Waits-for edges
///    therefore only point older -> younger, so the schedule is
///    deadlock-free when holder timestamps are visible.  The stamp is
///    published *after* the monitor is acquired, so a conflicting
///    reader can catch a transient unstamped window and wait in the
///    forbidden direction; on thin locks the PR-1 cycle detector
///    double-confirms any resulting cycle and tryLockFor returns
///    TimedLockStatus::Deadlock — a precise abort signal rather than a
///    guessed timeout.  Protocols without a waits-for graph degrade to
///    TimedOut and the bounded rungs guarantee progress.
///
///  - Validated: OCC in the Silo style.  Reads run without locks
///    against per-object version words (LSB = write-in-progress,
///    committed versions even); commit locks only the write set (sorted,
///    tryLock — the "short lock-only commit window") and *marks each
///    locked version odd* so the in-flight commit is observable, then
///    re-validates that every read version is unchanged and unlocked
///    (the Silo lock-bit check), then publishes.  Without the mark, two
///    transactions with crossing read/write sets could each lock, each
///    validate against still-unchanged versions, and both publish — a
///    write-skew cycle committed as "serializable".
///
/// Every object's Value mirrors its Version (the two share a TxnCell,
/// which lives in the object's own slots, on the line of its lock word)
/// at publish time, committed under the same monitor/version protocol
/// — so `Value == Version` (and Version even) is a serializability
/// spot-check every strategy can assert on its read path.
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_TXN_CONFLICTPOLICY_H
#define THINLOCKS_TXN_CONFLICTPOLICY_H

#include "core/SyncBackend.h"
#include "heap/Object.h"
#include "load/Zipf.h"
#include "support/SplitMix64.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace thinlocks {
namespace txn {

enum class ConflictPolicyKind : uint8_t { NoWait, WaitDie, Validated };

/// \returns the canonical artifact label ("NoWait", "WaitDie",
/// "Validated").
const char *conflictPolicyName(ConflictPolicyKind Kind);

/// Parses a canonical label; \returns false if \p Name is unknown.
bool parseConflictPolicy(std::string_view Name, ConflictPolicyKind &Out);

/// Every policy, in label order (grid builders iterate this).
const std::vector<ConflictPolicyKind> &allConflictPolicies();

/// Outcome of one transaction attempt.  Aborts are split by cause so
/// the bench can attribute them; an aborted attempt is never retried by
/// the engine (each attempt is one "started" transaction, so
/// `started == committed + aborted` holds per run).
enum class TxnStatus : uint8_t {
  Committed,
  AbortedBusy,       ///< Lock conflict (NoWait) or wait budget spent.
  AbortedDie,        ///< Wait-die: younger lost to an older holder.
  AbortedDeadlock,   ///< The protocol double-confirmed a waits-for
                     ///< cycle (TimedLockStatus::Deadlock; thin locks).
  AbortedValidation, ///< OCC: a read version moved before commit.
};

const char *txnStatusName(TxnStatus Status);
inline bool isAbort(TxnStatus Status) { return Status != TxnStatus::Committed; }

/// One object's transactional record, Silo-style: the version sits next
/// to the value it guards, in the two slots of the object whose monitor
/// guards both.  16 bytes, 16-aligned.  Version follows the
/// seqlock-style protocol described in the file header; Value mirrors it
/// at publish time.
struct alignas(16) TxnCell {
  std::atomic<uint64_t> Version{0};
  std::atomic<uint64_t> Value{0};
};

/// The shared substrate every transaction runs over.  Owned by the
/// engine; policies hold a const view.  The universe is Size objects back
/// to back from First (Heap::allocateArray), each a header followed by
/// its TxnCell, so one 64-byte line holds an object's lock word and its
/// record.  OwnerTs is the wait-die side channel (holder's timestamp, 0 =
/// unstamped/free); it exists only for WaitDie tables and is nullptr
/// otherwise.
struct TxnTable {
  /// Bytes from one universe object to the next.
  static constexpr size_t Stride = sizeof(Object) + sizeof(TxnCell);

  SyncBackend *Sync = nullptr;
  Object *First = nullptr;
  std::atomic<uint64_t> *OwnerTs = nullptr;
  size_t Size = 0;

  Object *object(size_t Idx) const {
    return reinterpret_cast<Object *>(reinterpret_cast<char *>(First) +
                                      Idx * Stride);
  }
  TxnCell &cell(size_t Idx) const {
    return *std::launder(reinterpret_cast<TxnCell *>(object(Idx)->slots()));
  }
};

/// Policy knobs; defaults suit both tests and the bench grid.
struct PolicyTuning {
  /// One wait-die wait rung: a bounded tryLockFor this long.  Long
  /// enough for the thin-lock detector to confirm a cycle at the
  /// deadline, short enough that timeout-degrading protocols retry
  /// promptly.
  int64_t WaitNanos = 2'000'000;
  /// Wait rungs before an older waiter gives up (AbortedBusy): the
  /// progress bound for protocols that can only report TimedOut.
  uint32_t MaxWaitRounds = 64;
  /// OCC: retries for an unstable (locked or moving) read.
  uint32_t MaxReadRetries = 64;
  /// OCC: tryLock attempts per write-set lock in the commit window.
  uint32_t CommitLockSpins = 8;
  /// Yield-spin this long while every lock is held (the transaction's
  /// "work").  Zero for throughput runs; tests raise it so conflicting
  /// schedules actually interleave even on a single timesliced CPU.
  uint64_t HoldNanos = 0;
};

/// One transaction's access sets: distinct indices into TxnTable,
/// reads and writes disjoint.  Buffers are reused across draws.
struct TxnAccess {
  std::vector<size_t> Reads;
  std::vector<size_t> Writes;
};

/// Per-worker scratch + counters; reused across transactions so the
/// per-attempt cost is allocation-free at steady state.
struct TxnScratch {
  std::vector<size_t> Acquired;         ///< 2PL: locks held, in order.
  std::vector<size_t> SortedWrites;     ///< OCC commit-window order.
  std::vector<uint64_t> ReadVersions;   ///< OCC: version per read.
  /// Serializability spot-check failures (Value != Version observed by
  /// a committed read).  Zero on every correct run.
  uint64_t ConsistencyViolations = 0;
  /// Writes actually published; Σ over workers must equal the summed
  /// version counters (TxnEngine::versionSum).
  uint64_t WritesApplied = 0;
};

/// Wait-die conflict verdict for one observed holder stamp.
enum class WaitDieDecision : uint8_t {
  Retry, ///< Holder not stamped yet (transient); try again.
  Wait,  ///< We are older: wait (bounded) for the holder.
  Die,   ///< We are younger: abort now.
};

/// The pure wait-die ordering rule: \p MyTs against the holder's
/// published stamp (\p HolderTs, 0 = unstamped).  Ties die — timestamps
/// are unique in a run, so a tie only arises from a stale read and
/// dying is the conservative (deadlock-free) choice.
inline WaitDieDecision waitDieDecide(uint64_t MyTs, uint64_t HolderTs) {
  if (HolderTs == 0)
    return WaitDieDecision::Retry;
  return MyTs < HolderTs ? WaitDieDecision::Wait : WaitDieDecision::Die;
}

/// Draws one transaction's access sets: up to \p WriteTarget writes and
/// \p ReadTarget reads, all indices distinct, drawn from \p Popularity
/// (writes first, so a tiny universe sheds reads before writes — a
/// 1-object universe degenerates to a single blind write).  Zipfian
/// draws that collide are redrawn; a bounded fallback scan guarantees
/// termination on tiny universes.
void drawTxnAccess(const load::ZipfSampler &Popularity, SplitMix64 &Rng,
                   uint32_t ReadTarget, uint32_t WriteTarget,
                   TxnAccess &Access);

//===----------------------------------------------------------------------===//
// OCC commit-window primitives (Silo-style).  Free functions so the
// serializability regression tests can drive the window's two sides
// against each other deterministically; ValidatedPolicy is the
// production caller.
//===----------------------------------------------------------------------===//

/// Locks every index in \p SortedWrites (ascending order, bounded
/// tryLock spins of \p Spins attempts each) and, under each monitor,
/// sets the object's version lock mark (the odd LSB) so the in-flight
/// commit is observable to concurrent validators and seqlock readers.
/// Acquired indices are appended to \p Acquired.  On any lock failure
/// the locks taken so far are unmarked and released and the function
/// \returns false.
bool occLockWriteSet(const TxnTable &Table, const ThreadContext &Thread,
                     const std::vector<size_t> &SortedWrites,
                     std::vector<size_t> &Acquired, uint32_t Spins);

/// Abort side of the commit window: clears each acquired object's
/// version lock mark (restoring the pre-window even version) and
/// releases the monitors, newest first.  \p Acquired is left empty.
void occAbortWriteSet(const TxnTable &Table, const ThreadContext &Thread,
                      std::vector<size_t> &Acquired);

/// Validates the read set against the snapshot \p ReadVersions: every
/// version must still be exactly its (even) snapshot value.  A moved
/// version is a conflicting committed write; an odd version is a
/// concurrent transaction's commit lock — the Silo lock-bit check that
/// turns a crossing-write-set schedule (T1 reads X writes Y, T2 reads Y
/// writes X) into at least one abort instead of a silently committed
/// write-skew cycle.  Issues a seq_cst fence before the loads so this
/// thread's own lock marks and these validation loads form a
/// store-buffering pair with a concurrent committer's: at least one
/// side must observe the other's marks.
bool occValidateReadSet(const TxnTable &Table, const std::vector<size_t> &Reads,
                        const std::vector<uint64_t> &ReadVersions);

/// One conflict strategy.  Implementations are stateless between calls
/// (all per-attempt state lives in \p Scratch), so a single instance is
/// shared by every worker.
class ConflictPolicy {
public:
  virtual ~ConflictPolicy();

  virtual ConflictPolicyKind kind() const = 0;
  const char *name() const { return conflictPolicyName(kind()); }

  /// Runs one transaction attempt as \p Thread with timestamp \p Ts.
  /// Only WaitDie reads it: the engine issues it unique per attempt for
  /// WaitDie and passes 0 otherwise.  On any return — commit or
  /// abort — every monitor acquired during the attempt has been
  /// released (the no-lost-locks contract the hygiene tests pin).
  virtual TxnStatus execute(const ThreadContext &Thread, uint64_t Ts,
                            const TxnAccess &Access, TxnScratch &Scratch) = 0;
};

std::unique_ptr<ConflictPolicy> makeConflictPolicy(ConflictPolicyKind Kind,
                                                   const TxnTable &Table,
                                                   const PolicyTuning &Tuning);

} // namespace txn
} // namespace thinlocks

#endif // THINLOCKS_TXN_CONFLICTPOLICY_H
