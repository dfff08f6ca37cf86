//===- park/Parker.cpp - Per-thread blocking primitive --------------------===//

#include "park/Parker.h"

#include "support/FailPoint.h"
#include "support/Timer.h"

#if defined(THINLOCKS_PARKER_FUTEX)
#include <climits>
#include <linux/futex.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>
#endif

namespace thinlocks {

Parker::WakeReason Parker::park() {
  return parkImpl(/*HasDeadline=*/false, std::chrono::steady_clock::time_point());
}

Parker::WakeReason
Parker::parkUntil(std::chrono::steady_clock::time_point Deadline) {
  return parkImpl(/*HasDeadline=*/true, Deadline);
}

Parker::WakeReason Parker::parkFor(int64_t Nanos) {
  return parkUntil(std::chrono::steady_clock::now() +
                   std::chrono::nanoseconds(Nanos));
}

Parker::WakeReason Parker::consumeToken(bool Blocked) {
  // Acquire pairs with the release in unpark(), making the waker's stamp
  // (and everything before its unpark) visible here.
  uint32_t Prev = State.exchange(Empty, std::memory_order_acquire);
  (void)Prev;
  if (Blocked) {
    uint64_t Stamp = UnparkStampNanos.load(std::memory_order_relaxed);
    uint64_t Now = monotonicNanos();
    LastBlockedWakeNanos = (Stamp != 0 && Now > Stamp) ? Now - Stamp : 0;
  } else {
    LastBlockedWakeNanos = 0;
  }
  return WakeReason::Unparked;
}

Parker::WakeReason
Parker::parkImpl(bool HasDeadline,
                 std::chrono::steady_clock::time_point Deadline) {
  // Fast path: a token is already pending; consume it without blocking.
  if (State.load(std::memory_order_relaxed) == Token)
    return consumeToken(/*Blocked=*/false);

  if (TL_FAILPOINT(ParkSpurious))
    return WakeReason::Spurious;

  // Publish the parked state.  If an unpark raced in between the load
  // above and this exchange, we see its token here and return at once.
  uint32_t Prev = State.exchange(Parked, std::memory_order_acquire);
  if (Prev == Token)
    return consumeToken(/*Blocked=*/false);

  BlockedParks++;
  blockWait(HasDeadline, Deadline);

  // Whatever woke us (token, timeout, or kernel-level spurious wake),
  // retire the Parked state.  Seeing Token means a real unpark landed.
  Prev = State.exchange(Empty, std::memory_order_acquire);
  if (Prev == Token) {
    uint64_t Stamp = UnparkStampNanos.load(std::memory_order_relaxed);
    uint64_t Now = monotonicNanos();
    LastBlockedWakeNanos = (Stamp != 0 && Now > Stamp) ? Now - Stamp : 0;
    return WakeReason::Unparked;
  }
  LastBlockedWakeNanos = 0;
  if (HasDeadline && std::chrono::steady_clock::now() >= Deadline)
    return WakeReason::TimedOut;
  return WakeReason::Spurious;
}

void Parker::unpark() {
  // Stamp first; the release exchange below orders it before the token
  // becomes visible to the consuming park().
  UnparkStampNanos.store(monotonicNanos(), std::memory_order_relaxed);
  uint32_t Prev = State.exchange(Token, std::memory_order_release);
  if (Prev != Parked)
    return; // Owner was not blocked; it will consume the token on entry.
#if defined(THINLOCKS_PARKER_FUTEX)
  syscall(SYS_futex, reinterpret_cast<uint32_t *>(&State), FUTEX_WAKE_PRIVATE,
          1, nullptr, nullptr, 0);
#else
  // Take and drop the mutex so the owner cannot miss the wake between its
  // own State check and the Cv wait.
  { std::lock_guard<std::mutex> G(Mutex); }
  Cv.notify_one();
#endif
}

void Parker::reset() {
  State.store(Empty, std::memory_order_relaxed);
  UnparkStampNanos.store(0, std::memory_order_relaxed);
  LastBlockedWakeNanos = 0;
}

void Parker::blockWait(bool HasDeadline,
                       std::chrono::steady_clock::time_point Deadline) {
#if defined(THINLOCKS_PARKER_FUTEX)
  // One futex wait; parkImpl rechecks the state and classifies the wake.
  // EINTR/EAGAIN/ETIMEDOUT all just fall through to that recheck.
  if (!HasDeadline) {
    syscall(SYS_futex, reinterpret_cast<uint32_t *>(&State),
            FUTEX_WAIT_PRIVATE, Parked, nullptr, nullptr, 0);
    return;
  }
  auto Now = std::chrono::steady_clock::now();
  if (Now >= Deadline)
    return;
  auto Left = std::chrono::duration_cast<std::chrono::nanoseconds>(Deadline - Now);
  struct timespec Ts;
  Ts.tv_sec = static_cast<time_t>(Left.count() / 1000000000);
  Ts.tv_nsec = static_cast<long>(Left.count() % 1000000000);
  syscall(SYS_futex, reinterpret_cast<uint32_t *>(&State), FUTEX_WAIT_PRIVATE,
          Parked, &Ts, nullptr, 0);
#else
  std::unique_lock<std::mutex> G(Mutex);
  auto StillParked = [this] {
    return State.load(std::memory_order_relaxed) == Parked;
  };
  if (!HasDeadline) {
    // Bounded wait even without a deadline: a missed notify (impossible
    // given the mutex hand-shake in unpark(), but cheap insurance) turns
    // into a spurious wake instead of a hang.
    Cv.wait_for(G, std::chrono::milliseconds(100), [&] { return !StillParked(); });
  } else {
    Cv.wait_until(G, Deadline, [&] { return !StillParked(); });
  }
#endif
}

} // namespace thinlocks
