//===- bench/bench_wakeup.cpp - Wake-handoff latency and CPU cost ---------===//
//
// Measures the waiting substrate's wake paths head-to-head against a
// std::mutex + std::condition_variable reference implementing the exact
// same protocol, in the same binary and JSON:
//
//   Wakeup_PingPong           — two threads bouncing a turn token through
//                               monitor wait/notify: each iteration is one
//                               directed handoff (notify → wake → reacquire).
//   Wakeup_EntryHandoff       — two threads in lock/unlock lockstep on one
//                               inflated monitor: the entry-queue handoff
//                               (release → FIFO head granted) without the
//                               wait-set round trip.
//   Wakeup_NotifyAllStorm/N   — N waiters on one monitor; an iteration is
//                               one notifyAll broadcast timed (manual time)
//                               from the notifier's lock to the last waiter
//                               reporting awake.
//
// The *_CondvarRef rows are the pre-substrate shape: one condition
// variable, every release/notify a broadcast-and-recheck.  The substrate
// rows should match or beat them on wall time and clearly beat them on
// cpu_ns_per_op (see BenchRusage.h), because a directed unpark wakes one
// thread where a broadcast wakes the herd.  Results feed
// BENCH_contention.json via bench/run_benches.sh.
//
//===----------------------------------------------------------------------===//

#include "core/ThinLock.h"
#include "heap/Heap.h"
#include "threads/ThreadRegistry.h"

#include "BenchRusage.h"

#include "BenchContext.h"

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

using namespace thinlocks;

namespace {

constexpr int StormRepetitions = 5;

/// Shared state for the two-thread benchmarks.  Thread 0 resets it before
/// each run; the google-benchmark start barrier orders the reset before
/// any worker's first iteration, so workers read Obj only inside the loop.
struct WakeupEnv {
  ThreadRegistry Registry;
  std::unique_ptr<Heap> Objects;
  std::unique_ptr<MonitorTable> Monitors;
  std::unique_ptr<ThinLockManager> Locks;
  Object *Obj = nullptr;
  int Turn = 0; // Guarded by the monitor on Obj.

  // Condvar-reference twin of the same protocol.
  std::mutex CvMutex;
  std::condition_variable Cv;
  int CvTurn = 0; // Guarded by CvMutex.

  WakeupEnv() { reset(); }

  void reset() {
    Locks.reset();
    Monitors = std::make_unique<MonitorTable>();
    Locks = std::make_unique<ThinLockManager>(*Monitors);
    Objects = std::make_unique<Heap>();
    const ClassInfo &Class = Objects->classes().registerClass("W", 0);
    Obj = Objects->allocate(Class);
    Turn = 0;
    CvTurn = 0;
  }
};

WakeupEnv &env() {
  static WakeupEnv E;
  return E;
}

/// Two threads pass a turn token through Object.wait/notify; every
/// iteration hands the token (and the monitor) to the other thread.
void Wakeup_PingPong(benchmark::State &State) {
  WakeupEnv &E = env();
  if (State.thread_index() == 0)
    E.reset();
  ScopedThreadAttachment Attach(E.Registry, "pingpong");
  const int Me = State.thread_index();
  const int Other = 1 - Me;
  ScopedCpuSample Cpu;
  for (auto _ : State) {
    Object *Obj = E.Obj;
    E.Locks->lock(Obj, Attach.context());
    while (E.Turn != Me)
      E.Locks->wait(Obj, Attach.context());
    E.Turn = Other;
    E.Locks->notify(Obj, Attach.context());
    E.Locks->unlock(Obj, Attach.context());
  }
  Cpu.report(State);
  State.SetItemsProcessed(State.iterations());
}

/// The identical turn protocol on std::mutex + std::condition_variable.
void Wakeup_PingPong_CondvarRef(benchmark::State &State) {
  WakeupEnv &E = env();
  if (State.thread_index() == 0)
    E.reset();
  const int Me = State.thread_index();
  const int Other = 1 - Me;
  ScopedCpuSample Cpu;
  for (auto _ : State) {
    std::unique_lock<std::mutex> Guard(E.CvMutex);
    while (E.CvTurn != Me)
      E.Cv.wait(Guard);
    E.CvTurn = Other;
    E.Cv.notify_one();
  }
  Cpu.report(State);
  State.SetItemsProcessed(State.iterations());
}

/// Two threads doing lock/unlock on one pre-inflated monitor.  While a
/// contender is queued, the no-barging entry queue forces release →
/// head-granted handoffs; on a uniprocessor the threads also spend whole
/// scheduling quanta running back-to-back uncontended, so this row mixes
/// handoff cost with inflated-monitor enter/exit throughput (compare the
/// MutexRef row, which mixes the same way).
void Wakeup_EntryHandoff(benchmark::State &State) {
  WakeupEnv &E = env();
  ScopedThreadAttachment Attach(E.Registry, "handoff");
  if (State.thread_index() == 0) {
    E.reset();
    // Pre-inflate so the measured path is the monitor handoff, not thin
    // contention spinning.
    E.Locks->lock(E.Obj, Attach.context());
    E.Locks->inflate(E.Obj, Attach.context());
    E.Locks->unlock(E.Obj, Attach.context());
  }
  // A run mixes uncontended enter/exit with FIFO handoffs in a proportion
  // the scheduler picks; blocked parks per iteration say which it was.
  const Parker &Pk = *Attach.context().parker();
  const uint64_t ParksBefore = Pk.blockedParkCount();
  ScopedCpuSample Cpu;
  for (auto _ : State) {
    Object *Obj = E.Obj;
    E.Locks->lock(Obj, Attach.context());
    E.Locks->unlock(Obj, Attach.context());
  }
  Cpu.report(State);
  State.counters["blocked_parks_per_op"] = benchmark::Counter(
      static_cast<double>(Pk.blockedParkCount() - ParksBefore),
      benchmark::Counter::kAvgIterations);
  State.SetItemsProcessed(State.iterations());
}

/// std::mutex twin of Wakeup_EntryHandoff (no FIFO guarantee — this is
/// the raw kernel-arbitrated baseline).
void Wakeup_EntryHandoff_MutexRef(benchmark::State &State) {
  WakeupEnv &E = env();
  if (State.thread_index() == 0)
    E.reset();
  ScopedCpuSample Cpu;
  for (auto _ : State) {
    E.CvMutex.lock();
    E.CvMutex.unlock();
  }
  Cpu.report(State);
  State.SetItemsProcessed(State.iterations());
}

/// N waiters blocked in Object.wait; one iteration is a notifyAll
/// broadcast, manually timed from the notifier taking the monitor until
/// the last waiter has woken, reacquired, and released.
void Wakeup_NotifyAllStorm(benchmark::State &State) {
  const int NumWaiters = static_cast<int>(State.range(0));
  ThreadRegistry Registry;
  MonitorTable Monitors;
  ThinLockManager Locks(Monitors);
  Heap Objects;
  const ClassInfo &Class = Objects.classes().registerClass("W", 0);
  Object *Obj = Objects.allocate(Class);
  ScopedThreadAttachment Main(Registry, "notifier");

  std::atomic<bool> Done{false};
  uint64_t Generation = 0; // Guarded by the monitor.
  std::atomic<int> Woken{0};
  std::vector<std::thread> Waiters;
  Waiters.reserve(NumWaiters);
  for (int I = 0; I < NumWaiters; ++I)
    Waiters.emplace_back([&] {
      ScopedThreadAttachment Attach(Registry, "waiter");
      uint64_t Seen = 0;
      for (;;) {
        Locks.lock(Obj, Attach.context());
        while (!Done.load(std::memory_order_relaxed) && Generation == Seen)
          Locks.wait(Obj, Attach.context());
        Seen = Generation;
        Locks.unlock(Obj, Attach.context());
        if (Done.load(std::memory_order_relaxed))
          return;
        Woken.fetch_add(1, std::memory_order_release);
      }
    });

  ScopedCpuSample Cpu;
  for (auto _ : State) {
    // Off the clock: wait for the full wait set to re-form.
    FatLock *Fat;
    while (!(Fat = Locks.monitorOf(Obj)) ||
           Fat->waitSetSize() != static_cast<uint32_t>(NumWaiters))
      std::this_thread::yield();
    Woken.store(0, std::memory_order_relaxed);
    auto Start = std::chrono::steady_clock::now();
    Locks.lock(Obj, Main.context());
    ++Generation;
    Locks.notifyAll(Obj, Main.context());
    Locks.unlock(Obj, Main.context());
    while (Woken.load(std::memory_order_acquire) != NumWaiters)
      std::this_thread::yield();
    auto End = std::chrono::steady_clock::now();
    State.SetIterationTime(std::chrono::duration<double>(End - Start).count());
  }
  Cpu.report(State);

  Locks.lock(Obj, Main.context());
  Done.store(true, std::memory_order_relaxed);
  Locks.notifyAll(Obj, Main.context());
  Locks.unlock(Obj, Main.context());
  for (auto &T : Waiters)
    T.join();
  State.SetItemsProcessed(State.iterations() * NumWaiters);
}

/// Condvar twin of the storm: same generation protocol on one
/// std::condition_variable, where notify_all is a true herd broadcast.
void Wakeup_NotifyAllStorm_CondvarRef(benchmark::State &State) {
  const int NumWaiters = static_cast<int>(State.range(0));
  std::mutex Mutex;
  std::condition_variable Cv;
  bool Stop = false;      // Guarded by Mutex.
  uint64_t Generation = 0; // Guarded by Mutex.
  std::atomic<int> Waiting{0};
  std::atomic<int> Woken{0};
  std::vector<std::thread> Waiters;
  Waiters.reserve(NumWaiters);
  for (int I = 0; I < NumWaiters; ++I)
    Waiters.emplace_back([&] {
      uint64_t Seen = 0;
      for (;;) {
        std::unique_lock<std::mutex> Guard(Mutex);
        while (!Stop && Generation == Seen) {
          Waiting.fetch_add(1, std::memory_order_release);
          Cv.wait(Guard);
          Waiting.fetch_sub(1, std::memory_order_relaxed);
        }
        Seen = Generation;
        bool Exit = Stop;
        Guard.unlock();
        if (Exit)
          return;
        Woken.fetch_add(1, std::memory_order_release);
      }
    });

  ScopedCpuSample Cpu;
  for (auto _ : State) {
    while (Waiting.load(std::memory_order_acquire) != NumWaiters)
      std::this_thread::yield();
    Woken.store(0, std::memory_order_relaxed);
    auto Start = std::chrono::steady_clock::now();
    {
      std::lock_guard<std::mutex> Guard(Mutex);
      ++Generation;
    }
    Cv.notify_all();
    while (Woken.load(std::memory_order_acquire) != NumWaiters)
      std::this_thread::yield();
    auto End = std::chrono::steady_clock::now();
    State.SetIterationTime(std::chrono::duration<double>(End - Start).count());
  }
  Cpu.report(State);

  {
    std::lock_guard<std::mutex> Guard(Mutex);
    Stop = true;
  }
  Cv.notify_all();
  for (auto &T : Waiters)
    T.join();
  State.SetItemsProcessed(State.iterations() * NumWaiters);
}

BENCHMARK(Wakeup_PingPong)
    ->Threads(2)
    ->Repetitions(StormRepetitions)
    ->ReportAggregatesOnly(true)
    ->UseRealTime();
BENCHMARK(Wakeup_PingPong_CondvarRef)
    ->Threads(2)
    ->Repetitions(StormRepetitions)
    ->ReportAggregatesOnly(true)
    ->UseRealTime();
BENCHMARK(Wakeup_EntryHandoff)
    ->Threads(2)
    ->Repetitions(StormRepetitions)
    ->ReportAggregatesOnly(true)
    ->UseRealTime();
BENCHMARK(Wakeup_EntryHandoff_MutexRef)
    ->Threads(2)
    ->Repetitions(StormRepetitions)
    ->ReportAggregatesOnly(true)
    ->UseRealTime();
BENCHMARK(Wakeup_NotifyAllStorm)
    ->Arg(4)
    ->Arg(8)
    ->Iterations(64)
    ->Repetitions(StormRepetitions)
    ->ReportAggregatesOnly(true)
    ->UseManualTime();
BENCHMARK(Wakeup_NotifyAllStorm_CondvarRef)
    ->Arg(4)
    ->Arg(8)
    ->Iterations(64)
    ->Repetitions(StormRepetitions)
    ->ReportAggregatesOnly(true)
    ->UseManualTime();

} // namespace

BENCHMARK_MAIN();
