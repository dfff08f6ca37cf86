//===- examples/philosophers.cpp - Dining philosophers on thin locks ------===//
//
// Five philosophers, five fork objects, two strategies:
//
//   ordered  — classic deadlock avoidance: always lock the lower-indexed
//              fork first (blocking lock()).
//   polite   — tryLock() the second fork; on failure, put the first one
//              down and back off, so no one ever holds-and-waits.
//
// Either way, the forks are plain heap objects synchronized through the
// thin-lock protocol: watch how many forks end up inflated — only the
// ones that actually experienced contention (the paper's "locality of
// contention" in action).
//
// Build & run:  ./build/examples/philosophers [meals] [strategy]
//               strategy: ordered | polite     (default: both)
//
//===----------------------------------------------------------------------===//

#include "core/ThinLock.h"
#include "heap/Heap.h"
#include "support/SpinWait.h"
#include "threads/ThreadRegistry.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

using namespace thinlocks;

namespace {

constexpr int NumPhilosophers = 5;

struct Table {
  Heap TheHeap;
  ThreadRegistry Registry;
  MonitorTable Monitors;
  LockStats Stats;
  ThinLockManager Locks{Monitors, &Stats};
  std::vector<Object *> Forks;
  std::vector<long> Meals = std::vector<long>(NumPhilosophers, 0);

  Table() {
    const ClassInfo &ForkClass = TheHeap.classes().registerClass("Fork", 0);
    for (int I = 0; I < NumPhilosophers; ++I)
      Forks.push_back(TheHeap.allocate(ForkClass));
  }
};

void runOrdered(Table &T, int Self, long MealsWanted) {
  ScopedThreadAttachment Attachment(T.Registry, "philosopher");
  const ThreadContext &Me = Attachment.context();
  Object *Left = T.Forks[Self];
  Object *Right = T.Forks[(Self + 1) % NumPhilosophers];
  // Total order on forks prevents deadlock.
  Object *First = Left < Right ? Left : Right;
  Object *Second = Left < Right ? Right : Left;

  for (long M = 0; M < MealsWanted; ++M) {
    T.Locks.lock(First, Me);
    T.Locks.lock(Second, Me);
    ++T.Meals[Self]; // "Eating": a short critical section on both forks.
    T.Locks.unlock(Second, Me);
    T.Locks.unlock(First, Me);
  }
}

void runPolite(Table &T, int Self, long MealsWanted) {
  ScopedThreadAttachment Attachment(T.Registry, "philosopher");
  const ThreadContext &Me = Attachment.context();
  Object *Left = T.Forks[Self];
  Object *Right = T.Forks[(Self + 1) % NumPhilosophers];

  for (long M = 0; M < MealsWanted;) {
    T.Locks.lock(Left, Me);
    if (T.Locks.tryLock(Right, Me)) {
      ++T.Meals[Self];
      T.Locks.unlock(Right, Me);
      T.Locks.unlock(Left, Me);
      ++M;
    } else {
      // Put the left fork down and yield: no hold-and-wait, no deadlock.
      T.Locks.unlock(Left, Me);
      std::this_thread::yield();
    }
  }
}

void runStrategy(const char *Name,
                 void (*Strategy)(Table &, int, long), long MealsWanted) {
  Table T;
  std::vector<std::thread> Threads;
  for (int P = 0; P < NumPhilosophers; ++P)
    Threads.emplace_back([&T, P, Strategy, MealsWanted] {
      Strategy(T, P, MealsWanted);
    });
  for (auto &Th : Threads)
    Th.join();

  long Total = 0;
  for (long M : T.Meals)
    Total += M;
  int InflatedForks = 0;
  for (Object *Fork : T.Forks)
    InflatedForks += T.Locks.isInflated(Fork) ? 1 : 0;

  std::printf("%-8s everyone ate (", Name);
  for (int P = 0; P < NumPhilosophers; ++P)
    std::printf("%s%ld", P ? ", " : "", T.Meals[P]);
  std::printf(") = %ld meals\n", Total);
  std::printf("         forks inflated by contention: %d of %d\n",
              InflatedForks, NumPhilosophers);
  LockStats::Snapshot S = T.Stats.snapshot();
  std::printf("         contention inflations: %llu, spin iterations: "
              "%llu\n\n",
              static_cast<unsigned long long>(S.ContentionInflations),
              static_cast<unsigned long long>(S.SpinIterations));
}

} // namespace

int main(int Argc, char **Argv) {
  long MealsWanted = Argc > 1 ? std::atol(Argv[1]) : 2000;
  const char *Strategy = Argc > 2 ? Argv[2] : "both";

  std::printf("%d philosophers, %ld meals each\n\n", NumPhilosophers,
              MealsWanted);
  if (std::strcmp(Strategy, "polite") != 0)
    runStrategy("ordered", runOrdered, MealsWanted);
  if (std::strcmp(Strategy, "ordered") != 0)
    runStrategy("polite", runPolite, MealsWanted);
  return 0;
}
