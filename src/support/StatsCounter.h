//===- support/StatsCounter.h - Striped relaxed event counters -*- C++ -*-===//
///
/// \file
/// Monotonic event counters safe to bump from any thread.  Counters are
/// *striped*: each increment lands in a cache-line-padded slot selected
/// by the caller's ThreadStripe (exclusive per-thread-index slots for
/// attached threads, a small hashed shared region otherwise — see
/// support/ThreadStripe.h), and reads sum the stripes.  Two consequences:
///
///  - concurrent increments from different threads touch different cache
///    lines, so instrumented contention sweeps measure the protocol, not
///    counter-line ping-pong;
///  - an exclusive stripe has a single live writer, so its update is a
///    plain relaxed load/add/store (no locked RMW).  On x86 a locked add
///    is a full fence that serializes the surrounding lock fast path; a
///    plain store overlaps with it.  Shared stripes use fetch-add and
///    remain exact under any collision.
///
/// Counters never synchronize anything — all accesses are relaxed — so
/// they must not perturb the memory-ordering behaviour under measurement.
/// value() is exact once writers are quiescent and a monotonic
/// approximation mid-run.
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_SUPPORT_STATSCOUNTER_H
#define THINLOCKS_SUPPORT_STATSCOUNTER_H

#include "support/Compiler.h"
#include "support/ThreadStripe.h"

#include <array>
#include <atomic>
#include <cstdint>

namespace thinlocks {

/// A monotonically increasing, striped event counter.
class StatsCounter {
public:
  static constexpr uint32_t NumStripes = ThreadStripe::NumSlots;

private:
  struct alignas(64) Stripe {
    std::atomic<uint64_t> Count{0};
  };
  std::array<Stripe, NumStripes> Stripes;

public:
  StatsCounter() = default;
  StatsCounter(const StatsCounter &Other) {
    for (uint32_t I = 0; I < NumStripes; ++I)
      Stripes[I].Count.store(
          Other.Stripes[I].Count.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
  }
  StatsCounter &operator=(const StatsCounter &Other) {
    for (uint32_t I = 0; I < NumStripes; ++I)
      Stripes[I].Count.store(
          Other.Stripes[I].Count.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    return *this;
  }

  TL_ALWAYS_INLINE void increment(uint64_t Delta = 1) {
    // One TLS load and a sign test keep the common (attached, exclusive)
    // path to a plain indexed load/add/store.
    uint32_t Packed = detail::CurrentThreadStripe.Packed;
    if (TL_LIKELY(static_cast<int32_t>(Packed) >= 0)) {
      std::atomic<uint64_t> &Count = Stripes[Packed].Count;
      Count.store(Count.load(std::memory_order_relaxed) + Delta,
                  std::memory_order_relaxed);
      return;
    }
    incrementShared(Packed, Delta);
  }

  uint64_t value() const {
    uint64_t Sum = 0;
    for (const Stripe &S : Stripes)
      Sum += S.Count.load(std::memory_order_relaxed);
    return Sum;
  }

private:
  /// Cold half of increment(): shared (hashed) stripes, and first-use
  /// resolution for threads that never attached.
  void incrementShared(uint32_t Packed, uint64_t Delta) {
    if (TL_UNLIKELY(Packed == ThreadStripe::Uninitialized))
      Packed = (detail::CurrentThreadStripe = detail::fallbackThreadStripe())
                   .Packed;
    Stripes[Packed & ~ThreadStripe::SharedBit].Count.fetch_add(
        Delta, std::memory_order_relaxed);
  }
};

} // namespace thinlocks

#endif // THINLOCKS_SUPPORT_STATSCOUNTER_H
