//===- park/ParkingLot.h - Address-keyed queues of parked threads *- C++ -*===//
///
/// \file
/// The shared half of the waiting substrate: a small hashed table of
/// cache-line-padded buckets, each holding an intrusive FIFO of threads
/// parked on some address.  This is the WebKit-ParkingLot / futex shape:
/// the synchronized object stays one word (here: the thin lock word in
/// the object header, exactly as the paper requires) and all queueing
/// state lives off to the side, keyed by the object's address.
///
/// ThinLock's contended slow paths use it to wait for a thin word to
/// change hands: a contender validates "still worth sleeping" under the
/// bucket lock, enqueues its own Parker, and deadline-parks; the
/// inflating releaser publishes the fat word and then unparkAll()s the
/// address, so waiters learn of inflation immediately instead of
/// sleeping out a blind back-off quantum.  (FatLock does *not* route
/// through the lot: once a monitor exists it keeps its own per-monitor
/// FIFO of Parkers, which preserves strict entry order without hashing.)
///
/// Protocol invariants:
///  - A node is enqueued and dequeued only under its bucket mutex, and a
///    waiter returns only after observing (under that mutex) that it has
///    been dequeued or after dequeuing itself on timeout.
///  - Wakers capture the Parker pointer under the bucket mutex but call
///    unpark() after releasing it, so a wake never convoys behind the
///    bucket.  The woken thread may therefore observe "dequeued" via a
///    spurious wake before the token lands; the token then surfaces as
///    one spurious wake at that thread's next park site, which every
///    caller tolerates by re-checking its condition.
///  - The validation callback runs under the bucket mutex and must not
///    block or touch the lot.
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_PARK_PARKINGLOT_H
#define THINLOCKS_PARK_PARKINGLOT_H

#include "park/IntrusiveFifo.h"
#include "park/Parker.h"
#include "support/Mutex.h"

#include <chrono>
#include <cstddef>
#include <cstdint>

namespace thinlocks {

class ParkingLot {
public:
  /// Buckets in the hash table.  Collisions are correctness-neutral (keys
  /// are rechecked under the bucket mutex) and 64 padded buckets keep the
  /// probability of two hot objects sharing a mutex low.
  static constexpr size_t NumBuckets = 64;

  /// Outcome of a park call.
  enum class ParkResult : uint8_t {
    Invalid,  ///< Validation failed under the bucket lock; never slept.
    Unparked, ///< Dequeued by unparkOne/unparkAll.
    TimedOut, ///< Deadline passed.  Usually the waiter dequeued itself;
              ///< if a waker had concurrently captured it, the consumed
              ///< wake was re-issued to the next queued waiter (so an
              ///< unparkOne is never silently lost on a timed-out
              ///< waiter).
  };

  ParkingLot() = default;
  ParkingLot(const ParkingLot &) = delete;
  ParkingLot &operator=(const ParkingLot &) = delete;

  /// The process-wide lot used by the lock layers.
  static ParkingLot &global();

  /// Parks \p Pk (the calling thread's own Parker) on \p Key until a
  /// waker dequeues it or \p Deadline passes.  \p Validate is invoked
  /// under the bucket mutex before enqueueing; returning false aborts
  /// with ParkResult::Invalid and the thread never sleeps.  Spurious
  /// Parker wakes and stale tokens are absorbed internally: the call
  /// returns only on a real dequeue or timeout.
  template <typename ValidateFn>
  ParkResult parkUntil(const void *Key, Parker &Pk, ValidateFn &&Validate,
                       std::chrono::steady_clock::time_point Deadline) {
    auto Thunk = [](void *Ctx) -> bool {
      return (*static_cast<ValidateFn *>(Ctx))();
    };
    return parkImpl(Key, Pk, Thunk, &Validate, /*HasDeadline=*/true, Deadline);
  }

  /// parkUntil() without a deadline: returns only when dequeued.
  template <typename ValidateFn>
  ParkResult park(const void *Key, Parker &Pk, ValidateFn &&Validate) {
    auto Thunk = [](void *Ctx) -> bool {
      return (*static_cast<ValidateFn *>(Ctx))();
    };
    return parkImpl(Key, Pk, Thunk, &Validate, /*HasDeadline=*/false,
                    std::chrono::steady_clock::time_point());
  }

  /// Dequeues and unparks the FIFO-first thread parked on \p Key.
  /// \returns the number of threads woken (0 or 1).
  size_t unparkOne(const void *Key);

  /// Dequeues and unparks every thread parked on \p Key — the
  /// publish-and-wake broadcast a releaser issues after installing a fat
  /// lock word.  \returns the number of threads woken.
  size_t unparkAll(const void *Key);

  /// \returns how many threads are currently parked on \p Key (test and
  /// diagnostics aid; instantaneously stale by the time it returns).
  size_t queuedOn(const void *Key);

  /// \returns the bucket index \p Key hashes to (exposed so tests can
  /// construct deliberate collisions).
  static size_t bucketIndexOf(const void *Key);

private:
  /// One parked thread, stack-allocated inside parkImpl and linked into
  /// its bucket's FIFO.  All fields are guarded by the bucket mutex
  /// (stack nodes cannot carry a per-instance TL_GUARDED_BY; the
  /// REQUIRES annotation on takeFirst and the LockGuard scopes in
  /// ParkingLot.cpp enforce it).
  struct WaitNode {
    Parker *Pk;
    const void *Key;
    WaitNode *Next = nullptr;
    bool Queued = false;
  };

  struct alignas(64) Bucket {
    Mutex Mu;
    IntrusiveFifo<WaitNode> Queue TL_GUARDED_BY(Mu);
  };

  ParkResult parkImpl(const void *Key, Parker &Pk, bool (*Validate)(void *),
                      void *Ctx, bool HasDeadline,
                      std::chrono::steady_clock::time_point Deadline);

  Bucket &bucketFor(const void *Key) { return Buckets[bucketIndexOf(Key)]; }
  /// Dequeues the FIFO-first thread parked on \p Key in \p B and
  /// \returns its Parker for the caller to unpark once B.Mu is dropped,
  /// or null when none is parked there.
  static Parker *takeFirst(Bucket &B, const void *Key) TL_REQUIRES(B.Mu);

  Bucket Buckets[NumBuckets];
};

} // namespace thinlocks

#endif // THINLOCKS_PARK_PARKINGLOT_H
