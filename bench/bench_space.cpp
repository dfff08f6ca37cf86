//===- bench/bench_space.cpp - The §1 space-time tradeoff -----------------===//
//
// Ablation behind the paper's introduction: "adding one or more
// synchronization words to each object is an unacceptable space-time
// tradeoff" and the conclusion "because fat locks are only created under
// contention, thin locks also result in a significant savings in space
// when there are large numbers of synchronized objects."
//
// The harness synchronizes N distinct objects (single-threaded, a few
// holds each — the common case per Table 1) under four designs and
// reports both axes:
//
//   time   — ns per lock/unlock pair
//   space  — monitor structures allocated, and their approximate bytes
//
// Expected shape: ThinLock allocates ZERO monitors (24 header bits it
// already had); EagerMonitor allocates N monitors; MonitorCache stays
// within its pool but pays sweeps; HotLocks allocates 32 hot monitors
// plus its cache's pool.
//
//===----------------------------------------------------------------------===//

#include "baselines/EagerMonitor.h"
#include "baselines/HotLocks.h"
#include "baselines/MonitorCache.h"
#include "core/ThinLock.h"
#include "heap/Heap.h"
#include "support/TableFormatter.h"
#include "support/Timer.h"
#include "threads/ThreadRegistry.h"

#include <cstdio>
#include <vector>

using namespace thinlocks;

namespace {

constexpr int HoldsPerObject = 4;
constexpr int Rounds = 4;

/// Locks every object \c HoldsPerObject times over \c Rounds passes;
/// \returns elapsed nanos.
template <typename Protocol>
uint64_t churn(Protocol &P, const std::vector<Object *> &Objects,
               const ThreadContext &Me) {
  StopWatch Watch;
  for (int Round = 0; Round < Rounds; ++Round)
    for (Object *Obj : Objects)
      for (int H = 0; H < HoldsPerObject; ++H) {
        P.lock(Obj, Me);
        P.unlock(Obj, Me);
      }
  return Watch.elapsedNanos();
}

std::vector<Object *> makeObjects(Heap &TheHeap, size_t Count) {
  const ClassInfo &Class = TheHeap.classes().registerClass("S", 0);
  std::vector<Object *> Objects;
  Objects.reserve(Count);
  for (size_t I = 0; I < Count; ++I)
    Objects.push_back(TheHeap.allocate(Class));
  return Objects;
}

std::string perPair(uint64_t Nanos, size_t Count) {
  double Ops = static_cast<double>(Count) * HoldsPerObject * Rounds;
  return TableFormatter::formatDouble(Nanos / Ops, 1) + " ns";
}

} // namespace

int main() {
  std::printf("=== Space-time tradeoff (paper §1 / Conclusions) ===\n");
  std::printf("N synchronized objects, %d lock/unlock pairs each, "
              "single-threaded\n\n",
              HoldsPerObject * Rounds);

  for (size_t N : {size_t(1000), size_t(10000), size_t(100000)}) {
    TableFormatter Table({"protocol (N=" + std::to_string(N) + ")",
                          "time/pair", "monitors", "monitor bytes",
                          "bytes/object"});

    {
      Heap TheHeap;
      ThreadRegistry Registry;
      ScopedThreadAttachment Me(Registry);
      auto Objects = makeObjects(TheHeap, N);
      MonitorTable Monitors;
      ThinLockManager Thin(Monitors);
      uint64_t Nanos = churn(Thin, Objects, Me.context());
      uint64_t Count = Monitors.liveMonitorCount();
      Table.addRow({"ThinLock", perPair(Nanos, N),
                    std::to_string(Count),
                    TableFormatter::formatWithCommas(Count *
                                                     sizeof(FatLock)),
                    TableFormatter::formatDouble(
                        double(Count) * sizeof(FatLock) / N, 2)});
    }
    {
      Heap TheHeap;
      ThreadRegistry Registry;
      ScopedThreadAttachment Me(Registry);
      auto Objects = makeObjects(TheHeap, N);
      EagerMonitor Eager;
      uint64_t Nanos = churn(Eager, Objects, Me.context());
      Table.addRow({"EagerMonitor", perPair(Nanos, N),
                    std::to_string(Eager.monitorCount()),
                    TableFormatter::formatWithCommas(
                        Eager.approximateMonitorBytes()),
                    TableFormatter::formatDouble(
                        double(Eager.approximateMonitorBytes()) / N, 2)});
    }
    {
      Heap TheHeap;
      ThreadRegistry Registry;
      ScopedThreadAttachment Me(Registry);
      auto Objects = makeObjects(TheHeap, N);
      MonitorCache Cache(128);
      uint64_t Nanos = churn(Cache, Objects, Me.context());
      MonitorCacheStats Stats = Cache.stats();
      uint64_t Monitors = 128 + Stats.PoolGrowths;
      Table.addRow(
          {"JDK111 (pool 128)", perPair(Nanos, N),
           std::to_string(Monitors),
           TableFormatter::formatWithCommas(Monitors * sizeof(FatLock)),
           TableFormatter::formatDouble(
               double(Monitors) * sizeof(FatLock) / N, 2)});
    }
    {
      Heap TheHeap;
      ThreadRegistry Registry;
      ScopedThreadAttachment Me(Registry);
      auto Objects = makeObjects(TheHeap, N);
      HotLocks Hot(32, 4, 128);
      uint64_t Nanos = churn(Hot, Objects, Me.context());
      uint64_t Monitors = 32 + 128 + Hot.stats().Cache.PoolGrowths;
      Table.addRow(
          {"IBM112 (32 hot)", perPair(Nanos, N), std::to_string(Monitors),
           TableFormatter::formatWithCommas(Monitors * sizeof(FatLock)),
           TableFormatter::formatDouble(
               double(Monitors) * sizeof(FatLock) / N, 2)});
    }
    std::printf("%s\n", Table.render().c_str());
  }

  std::printf("fat lock structure size: %zu bytes; thin locks use 24 bits "
              "of an existing header word (object size unchanged)\n",
              sizeof(FatLock));
  return 0;
}
