//===- bench/bench_fig4.cpp - Reproduce paper Figure 4 --------------------===//
//
// Figure 4: "Performance of locking mechanisms on various micro-benchmark
// tests" — the Table 2 micro-benchmarks (NoSync, Sync, NestedSync,
// MultiSync n, Call, CallSync, NestedCallSync, Threads n) across the
// three implementations: ThinLock, JDK111 (monitor cache), IBM112 (hot
// locks).
//
// Two families:
//  - VM_*: interpreted bytecode on the microjvm (the paper's setting).
//    Label = protocol; arg 0 selects it.
//  - Native_*: direct fast-path kernels (no interpreter), used for the
//    MultiSync working-set sweep and the Threads contention sweep where
//    the protocol cost must dominate.
//
// Expected shape (paper): ThinLock fastest on Sync (3.7x JDK111, 1.8x
// IBM112); NestedSync advantage shrinks vs IBM112; IBM112 cliff at
// MultiSync n > 32; JDK111 degrades when n exceeds the monitor cache;
// ThinLock flat in n; Threads: IBM112 best at small n, ThinLock >=
// JDK111.
//
//===----------------------------------------------------------------------===//

#include "baselines/HotLocks.h"
#include "baselines/MonitorCache.h"
#include "core/ProtocolRegistry.h"
#include "core/ThinLock.h"
#include "heap/Heap.h"
#include "threads/ThreadRegistry.h"
#include "vm/NativeLibrary.h"
#include "vm/VM.h"
#include "workload/MicroBench.h"

#include "BenchContext.h"

#include <benchmark/benchmark.h>

using namespace thinlocks;
using namespace thinlocks::vm;
using namespace thinlocks::workload;

namespace {

//===----------------------------------------------------------------------===//
// VM (interpreted) family — arg 0 indexes registeredProtocolNames():
// 0 = ThinLock, 1 = JDK111, 2 = IBM112.
//===----------------------------------------------------------------------===//

struct VmFixture {
  VM Vm;
  MicroPrograms Programs;
  ScopedThreadAttachment Main;
  Object *Target;

  explicit VmFixture(const std::string &Protocol)
      : Vm(VM::Config{Protocol, {}}), Programs(buildMicroPrograms(Vm)),
        Main(Vm.threads(), "bench"),
        Target(Vm.newInstance(*Programs.BenchKlass)) {}
};

void runVmBenchmark(benchmark::State &State,
                    const Method *MicroPrograms::*Program) {
  const std::string &Protocol =
      registeredProtocolNames().at(static_cast<size_t>(State.range(0)));
  VmFixture Fixture(Protocol);
  constexpr int32_t Inner = 2000;
  for (auto _ : State)
    runMicroProgram(Fixture.Vm, *(Fixture.Programs.*Program), Inner,
                    Fixture.Target, Fixture.Main.context());
  State.SetItemsProcessed(State.iterations() * Inner);
  State.SetLabel(Protocol);
}

void VM_NoSync(benchmark::State &State) {
  runVmBenchmark(State, &MicroPrograms::NoSync);
}
void VM_Sync(benchmark::State &State) {
  runVmBenchmark(State, &MicroPrograms::Sync);
}
void VM_NestedSync(benchmark::State &State) {
  runVmBenchmark(State, &MicroPrograms::NestedSync);
}
void VM_Call(benchmark::State &State) {
  runVmBenchmark(State, &MicroPrograms::Call);
}
void VM_CallSync(benchmark::State &State) {
  runVmBenchmark(State, &MicroPrograms::CallSync);
}
void VM_NestedCallSync(benchmark::State &State) {
  runVmBenchmark(State, &MicroPrograms::NestedCallSync);
}

BENCHMARK(VM_NoSync)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK(VM_Sync)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK(VM_NestedSync)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK(VM_Call)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK(VM_CallSync)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK(VM_NestedCallSync)->Arg(0)->Arg(1)->Arg(2);

//===----------------------------------------------------------------------===//
// Native family
//===----------------------------------------------------------------------===//

struct ThinMaker {
  MonitorTable Monitors;
  ThinLockManager Protocol{Monitors};
  static constexpr const char *Name = "ThinLock";
};
struct CacheMaker {
  MonitorCache Protocol{/*PoolSize=*/128};
  static constexpr const char *Name = "JDK111";
};
struct HotMaker {
  HotLocks Protocol{/*NumHotLocks=*/32, /*PromotionThreshold=*/4,
                    /*PoolSize=*/128};
  static constexpr const char *Name = "IBM112";
};

template <typename Maker> void Native_Sync(benchmark::State &State) {
  Heap TheHeap;
  ThreadRegistry Registry;
  Maker M;
  ScopedThreadAttachment Main(Registry);
  Object *Obj =
      TheHeap.allocate(TheHeap.classes().registerClass("B", 0));
  constexpr uint64_t Inner = 4096;
  for (auto _ : State)
    benchmark::DoNotOptimize(
        runNativeSync(M.Protocol, Obj, Main.context(), Inner));
  State.SetItemsProcessed(State.iterations() * Inner);
  State.SetLabel(Maker::Name);
}

template <typename Maker> void Native_NestedSync(benchmark::State &State) {
  Heap TheHeap;
  ThreadRegistry Registry;
  Maker M;
  ScopedThreadAttachment Main(Registry);
  Object *Obj =
      TheHeap.allocate(TheHeap.classes().registerClass("B", 0));
  constexpr uint64_t Inner = 4096;
  for (auto _ : State)
    benchmark::DoNotOptimize(
        runNativeNestedSync(M.Protocol, Obj, Main.context(), Inner));
  State.SetItemsProcessed(State.iterations() * Inner);
  State.SetLabel(Maker::Name);
}

template <typename Maker> void Native_CallSync(benchmark::State &State) {
  Heap TheHeap;
  ThreadRegistry Registry;
  Maker M;
  ScopedThreadAttachment Main(Registry);
  Object *Obj =
      TheHeap.allocate(TheHeap.classes().registerClass("B", 0));
  constexpr uint64_t Inner = 4096;
  for (auto _ : State)
    benchmark::DoNotOptimize(
        runNativeCallSync(M.Protocol, Obj, Main.context(), Inner));
  State.SetItemsProcessed(State.iterations() * Inner);
  State.SetLabel(Maker::Name);
}

/// MultiSync n: arg 0 = working-set size.  Reports time; items = lock
/// operations, so per-item time exposes the n > pool cliffs.
template <typename Maker> void Native_MultiSync(benchmark::State &State) {
  Heap TheHeap;
  ThreadRegistry Registry;
  Maker M;
  ScopedThreadAttachment Main(Registry);
  const ClassInfo &Class = TheHeap.classes().registerClass("B", 0);
  size_t N = static_cast<size_t>(State.range(0));
  std::vector<Object *> Objects;
  for (size_t I = 0; I < N; ++I)
    Objects.push_back(TheHeap.allocate(Class));
  // Warm up: stabilizes hot-lock promotion and cache state.
  runNativeMultiSync(M.Protocol, Objects, Main.context(), 8);
  for (auto _ : State)
    benchmark::DoNotOptimize(
        runNativeMultiSync(M.Protocol, Objects, Main.context(), 1));
  State.SetItemsProcessed(State.iterations() * N);
  State.SetLabel(Maker::Name);
}

/// Threads n: arg 0 = number of contending threads on one object.
template <typename Maker> void Native_Threads(benchmark::State &State) {
  Heap TheHeap;
  ThreadRegistry Registry;
  Maker M;
  const ClassInfo &Class = TheHeap.classes().registerClass("B", 0);
  Object *Obj = TheHeap.allocate(Class);
  uint32_t NumThreads = static_cast<uint32_t>(State.range(0));
  constexpr uint64_t PerThread = 2000;
  for (auto _ : State)
    benchmark::DoNotOptimize(runNativeThreads(M.Protocol, Obj, Registry,
                                              NumThreads, PerThread));
  State.SetItemsProcessed(State.iterations() * NumThreads * PerThread);
  State.SetLabel(Maker::Name);
}

void Native_NoSync(benchmark::State &State) {
  constexpr uint64_t Inner = 4096;
  for (auto _ : State)
    benchmark::DoNotOptimize(runNativeNoSync(Inner));
  State.SetItemsProcessed(State.iterations() * Inner);
}

BENCHMARK(Native_NoSync);
BENCHMARK_TEMPLATE(Native_Sync, ThinMaker);
BENCHMARK_TEMPLATE(Native_Sync, CacheMaker);
BENCHMARK_TEMPLATE(Native_Sync, HotMaker);
BENCHMARK_TEMPLATE(Native_NestedSync, ThinMaker);
BENCHMARK_TEMPLATE(Native_NestedSync, CacheMaker);
BENCHMARK_TEMPLATE(Native_NestedSync, HotMaker);
BENCHMARK_TEMPLATE(Native_CallSync, ThinMaker);
BENCHMARK_TEMPLATE(Native_CallSync, CacheMaker);
BENCHMARK_TEMPLATE(Native_CallSync, HotMaker);

#define MULTISYNC_ARGS                                                      \
  ->Arg(1)->Arg(4)->Arg(16)->Arg(24)->Arg(32)->Arg(48)->Arg(64)->Arg(128)  \
      ->Arg(256)->Arg(1024)
BENCHMARK_TEMPLATE(Native_MultiSync, ThinMaker) MULTISYNC_ARGS;
BENCHMARK_TEMPLATE(Native_MultiSync, CacheMaker) MULTISYNC_ARGS;
BENCHMARK_TEMPLATE(Native_MultiSync, HotMaker) MULTISYNC_ARGS;

#define THREADS_ARGS ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime()
BENCHMARK_TEMPLATE(Native_Threads, ThinMaker) THREADS_ARGS;
BENCHMARK_TEMPLATE(Native_Threads, CacheMaker) THREADS_ARGS;
BENCHMARK_TEMPLATE(Native_Threads, HotMaker) THREADS_ARGS;

} // namespace

BENCHMARK_MAIN();
