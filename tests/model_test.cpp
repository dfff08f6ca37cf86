//===- tests/model_test.cpp - Model-based random conformance --------------===//
//
// Property testing against a reference model: a trivially correct
// map<object, hold-depth> per thread.  Random operation sequences (lock,
// unlock, tryLock, checked-unlock on random objects, ownership queries,
// notify, zero-timeout wait) must leave every protocol in exactly the
// state the model predicts, seed after seed.  Instantiated over multiple
// seeds (parameterized) and every protocol family: the thin lock and its
// two variants, the three baselines, and the fissile lock.
//
//===----------------------------------------------------------------------===//

#include "baselines/EagerMonitor.h"
#include "baselines/HotLocks.h"
#include "baselines/MonitorCache.h"
#include "core/ThinLock.h"
#include "heap/Heap.h"
#include "protocols/FissileLock.h"
#include "support/SplitMix64.h"
#include "threads/ThreadRegistry.h"

#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <vector>

using namespace thinlocks;

namespace {

/// The obviously correct reference: what one thread should observe.
class ReferenceModel {
  std::map<const Object *, uint32_t> Depths;

public:
  void lock(const Object *Obj) { ++Depths[Obj]; }

  bool unlockChecked(const Object *Obj) {
    auto It = Depths.find(Obj);
    if (It == Depths.end() || It->second == 0)
      return false;
    if (--It->second == 0)
      Depths.erase(It);
    return true;
  }

  uint32_t depth(const Object *Obj) const {
    auto It = Depths.find(Obj);
    return It == Depths.end() ? 0 : It->second;
  }

  bool holds(const Object *Obj) const { return depth(Obj) > 0; }

  std::vector<std::pair<const Object *, uint32_t>> heldObjects() const {
    return {Depths.begin(), Depths.end()};
  }
};

template <typename Protocol>
void runSingleThreadedModelCheck(Protocol &P, Heap &TheHeap,
                                 ThreadRegistry &Registry, uint64_t Seed) {
  ScopedThreadAttachment Me(Registry);
  const ThreadContext &T = Me.context();
  const ClassInfo &Class =
      TheHeap.classes().registerClass("ModelObj", 0);

  constexpr int NumObjects = 12;
  constexpr int NumOps = 4000;
  std::vector<Object *> Objects;
  for (int I = 0; I < NumObjects; ++I)
    Objects.push_back(TheHeap.allocate(Class));

  ReferenceModel Model;
  SplitMix64 Rng(Seed);

  for (int Op = 0; Op < NumOps; ++Op) {
    Object *Obj = Objects[Rng.nextBounded(NumObjects)];
    switch (Rng.nextBounded(8)) {
    case 0:
    case 1: // lock (weighted: most common op in real traces)
      // Cap depth to stay clear of the 257-hold inflation on purpose
      // sometimes, and cross it other times.
      P.lock(Obj, T);
      Model.lock(Obj);
      break;
    case 2:
    case 3: { // unlockChecked
      bool Expected = Model.unlockChecked(Obj);
      ASSERT_EQ(P.unlockChecked(Obj, T), Expected) << "op " << Op;
      break;
    }
    case 4: { // tryLock where supported (thin lock only)
      if constexpr (requires { P.tryLock(Obj, T); }) {
        // Single-threaded: tryLock must always succeed.
        ASSERT_TRUE(P.tryLock(Obj, T));
        Model.lock(Obj);
      } else {
        P.lock(Obj, T);
        Model.lock(Obj);
      }
      break;
    }
    case 5: // ownership queries
      ASSERT_EQ(P.holdsLock(Obj, T), Model.holds(Obj)) << "op " << Op;
      ASSERT_EQ(P.lockDepth(Obj, T), Model.depth(Obj)) << "op " << Op;
      break;
    case 6: { // notify: Ok iff owned
      NotifyStatus Expected =
          Model.holds(Obj) ? NotifyStatus::Ok : NotifyStatus::NotOwner;
      ASSERT_EQ(P.notify(Obj, T), Expected) << "op " << Op;
      break;
    }
    case 7: { // short timed wait: TimedOut iff owned (nobody notifies)
      if (Model.holds(Obj)) {
        ASSERT_EQ(P.wait(Obj, T, /*TimeoutNanos=*/1000),
                  WaitStatus::TimedOut);
        // Depth must be fully restored.
        ASSERT_EQ(P.lockDepth(Obj, T), Model.depth(Obj));
      } else {
        ASSERT_EQ(P.wait(Obj, T, 0), WaitStatus::NotOwner);
      }
      break;
    }
    }
  }

  // Drain: release everything the model says we hold, verifying depths.
  for (auto [Obj, Depth] : Model.heldObjects()) {
    ASSERT_EQ(P.lockDepth(const_cast<Object *>(Obj), T), Depth);
    for (uint32_t D = 0; D < Depth; ++D)
      ASSERT_TRUE(P.unlockChecked(const_cast<Object *>(Obj), T));
    ASSERT_FALSE(P.holdsLock(const_cast<Object *>(Obj), T));
  }
}

class ModelCheck : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(ModelCheck, ThinLockMatchesReferenceModel) {
  Heap TheHeap;
  ThreadRegistry Registry;
  MonitorTable Monitors;
  ThinLockManager P(Monitors);
  runSingleThreadedModelCheck(P, TheHeap, Registry, GetParam());
}

TEST_P(ModelCheck, ThinLockUPMatchesReferenceModel) {
  Heap TheHeap;
  ThreadRegistry Registry;
  MonitorTable Monitors;
  ThinLockUP P(Monitors);
  runSingleThreadedModelCheck(P, TheHeap, Registry, GetParam());
}

TEST_P(ModelCheck, CasUnlockMatchesReferenceModel) {
  Heap TheHeap;
  ThreadRegistry Registry;
  MonitorTable Monitors;
  ThinLockCasUnlock P(Monitors);
  runSingleThreadedModelCheck(P, TheHeap, Registry, GetParam());
}

TEST_P(ModelCheck, MonitorCacheMatchesReferenceModel) {
  Heap TheHeap;
  ThreadRegistry Registry;
  MonitorCache P(/*PoolSize=*/8); // Small pool: exercise sweeps too.
  runSingleThreadedModelCheck(P, TheHeap, Registry, GetParam());
}

TEST_P(ModelCheck, HotLocksMatchesReferenceModel) {
  Heap TheHeap;
  ThreadRegistry Registry;
  HotLocks P(/*NumHotLocks=*/4, /*PromotionThreshold=*/3,
             /*PoolSize=*/8); // Tiny limits: exercise promotion + overflow.
  runSingleThreadedModelCheck(P, TheHeap, Registry, GetParam());
}

TEST_P(ModelCheck, EagerMonitorMatchesReferenceModel) {
  Heap TheHeap;
  ThreadRegistry Registry;
  EagerMonitor P;
  runSingleThreadedModelCheck(P, TheHeap, Registry, GetParam());
}

TEST_P(ModelCheck, FissileMatchesReferenceModel) {
  Heap TheHeap;
  ThreadRegistry Registry;
  FissileLock P;
  runSingleThreadedModelCheck(P, TheHeap, Registry, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelCheck,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u, 55u, 89u));

//===----------------------------------------------------------------------===//
// Multi-threaded model check: each thread tracks its own holdings; the
// protocol must agree with every thread's local model at every step.
//===----------------------------------------------------------------------===//

namespace {

template <typename Protocol>
void runConcurrentModelCheck(Protocol &P, Heap &TheHeap,
                             ThreadRegistry &Registry, uint64_t Seed) {
  const ClassInfo &Class = TheHeap.classes().registerClass("MT", 0);
  constexpr int NumObjects = 8;
  constexpr int NumThreads = 3;
  constexpr int OpsPerThread = 3000;
  std::vector<Object *> Objects;
  for (int I = 0; I < NumObjects; ++I)
    Objects.push_back(TheHeap.allocate(Class));

  std::atomic<bool> Failed{false};
  std::vector<std::thread> Workers;
  for (int T = 0; T < NumThreads; ++T) {
    Workers.emplace_back([&, T] {
      ScopedThreadAttachment Me(Registry);
      const ThreadContext &Ctx = Me.context();
      SplitMix64 Rng(Seed * 1000 + T);
      // Deadlock-free discipline: hold at most ONE object at a time
      // (nested up to 3 deep), so there is never hold-and-wait across
      // objects.  This is also the dominant pattern in real traces.
      Object *Held = nullptr;
      uint32_t Depth = 0;
      for (int Op = 0; Op < OpsPerThread && !Failed.load(); ++Op) {
        switch (Rng.nextBounded(4)) {
        case 0: // acquire or nest
          if (!Held) {
            Held = Objects[Rng.nextBounded(NumObjects)];
            P.lock(Held, Ctx);
            Depth = 1;
          } else if (Depth < 3) {
            P.lock(Held, Ctx);
            ++Depth;
          }
          break;
        case 1: // release one hold
          if (Held) {
            if (!P.unlockChecked(Held, Ctx))
              Failed.store(true);
            if (--Depth == 0)
              Held = nullptr;
          } else {
            // Not holding anything: a random unlock must fail *unless*
            // another thread's ownership makes it NotOwner anyway —
            // either way unlockChecked must return false for us.
            Object *Obj = Objects[Rng.nextBounded(NumObjects)];
            if (P.unlockChecked(Obj, Ctx))
              Failed.store(true);
          }
          break;
        case 2: // ownership query on the held object
          if (Held && (!P.holdsLock(Held, Ctx) ||
                       P.lockDepth(Held, Ctx) != Depth))
            Failed.store(true);
          break;
        case 3: { // negative query: an object we do not hold
          Object *Obj = Objects[Rng.nextBounded(NumObjects)];
          if (Obj != Held && P.holdsLock(Obj, Ctx))
            Failed.store(true);
          break;
        }
        }
      }
      while (Held && Depth-- > 0)
        P.unlockChecked(Held, Ctx);
    });
  }
  for (auto &W : Workers)
    W.join();
  ASSERT_FALSE(Failed.load());
}

} // namespace

TEST_P(ModelCheck, ConcurrentThinLockMatchesPerThreadModels) {
  Heap TheHeap;
  ThreadRegistry Registry;
  MonitorTable Monitors;
  ThinLockManager P(Monitors);
  runConcurrentModelCheck(P, TheHeap, Registry, GetParam());
}

TEST_P(ModelCheck, ConcurrentMonitorCacheMatchesPerThreadModels) {
  Heap TheHeap;
  ThreadRegistry Registry;
  MonitorCache P(16);
  runConcurrentModelCheck(P, TheHeap, Registry, GetParam());
}

TEST_P(ModelCheck, ConcurrentHotLocksMatchesPerThreadModels) {
  Heap TheHeap;
  ThreadRegistry Registry;
  HotLocks P(4, 3, 16);
  runConcurrentModelCheck(P, TheHeap, Registry, GetParam());
}

TEST_P(ModelCheck, ConcurrentFissileMatchesPerThreadModels) {
  Heap TheHeap;
  ThreadRegistry Registry;
  FissileLock P;
  runConcurrentModelCheck(P, TheHeap, Registry, GetParam());
}

TEST_P(ModelCheck, ConcurrentEagerMonitorMatchesPerThreadModels) {
  Heap TheHeap;
  ThreadRegistry Registry;
  EagerMonitor P;
  runConcurrentModelCheck(P, TheHeap, Registry, GetParam());
}
