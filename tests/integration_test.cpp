//===- tests/integration_test.cpp - Whole-stack integration ---------------===//
//
// End-to-end scenarios crossing every layer: assembled bytecode ->
// interpreter -> synchronized library classes -> lock-trace
// recording -> characterization -> cross-protocol replay -> statistics.
//
//===----------------------------------------------------------------------===//

#include "baselines/HotLocks.h"
#include "baselines/MonitorCache.h"
#include "core/ThinLock.h"
#include "vm/Assembler.h"
#include "vm/NativeLibrary.h"
#include "vm/VM.h"
#include "workload/MacroReplay.h"
#include "workload/MicroBench.h"
#include "workload/Profiles.h"
#include "workload/Trace.h"

#include <gtest/gtest.h>

using namespace thinlocks;
using namespace thinlocks::vm;
using namespace thinlocks::workload;

TEST(Integration, CompiledExpressionsDriveSynchronizedLibraryWork) {
  // Assemble f(i) = i * i - i, fill a synchronized Vector with f(0..N),
  // then verify sums via synchronized elementAt — all interpreted, all
  // through the thin-lock protocol, fully traced.
  LockStats Stats;
  VM::Config Cfg;
  Cfg.Sync.Stats = &Stats;
  VM Vm(Cfg);
  NativeLibrary Lib(Vm);
  Klass &K = Vm.defineClass("it/App", {});

  LockTrace Trace;
  TracingBackend Tracer(Vm.sync(), Trace);
  Vm.overrideSync(&Tracer);

  Assembler Asm;
  Asm.iload(0).iload(0).imul().iload(0).isub().iret();
  Method &F = Vm.defineMethod(K, "f", MethodTraits{}, /*NumArgs=*/1,
                              /*NumLocals=*/1, Asm.finish());

  ScopedThreadAttachment Main(Vm.threads(), "main");
  Object *Vec = Vm.newInstance(Lib.vectorClass());

  constexpr int N = 50;
  long long Expected = 0;
  for (int I = 0; I < N; ++I) {
    RunResult FR = Vm.call(F, std::vector<Value>{Value::makeInt(I)},
                           Main.context());
    ASSERT_TRUE(FR.ok());
    Expected += FR.Result.asInt();
    RunResult Add =
        Vm.call(Lib.vectorAddElement(),
                std::vector<Value>{Value::makeRef(Vec), FR.Result},
                Main.context());
    ASSERT_TRUE(Add.ok());
  }

  long long Sum = 0;
  for (int I = 0; I < N; ++I) {
    RunResult At = Vm.call(
        Lib.vectorElementAt(),
        std::vector<Value>{Value::makeRef(Vec), Value::makeInt(I)},
        Main.context());
    ASSERT_TRUE(At.ok());
    Sum += At.Result.asInt();
  }
  EXPECT_EQ(Sum, Expected);
  Vm.overrideSync(nullptr);

  // The trace saw one synchronized call per library op, depth 1, on one
  // object, uncontended.
  EXPECT_EQ(Trace.lockOperationCount(), static_cast<uint64_t>(2 * N));
  EXPECT_EQ(Trace.objectCount(), 1u);
  double Mix[4];
  Trace.depthMix(Mix);
  EXPECT_DOUBLE_EQ(Mix[0], 1.0);

  // Stats agree with the trace, and nothing ever inflated.
  EXPECT_EQ(Stats.totalAcquisitions(), Trace.lockOperationCount());
  EXPECT_EQ(Stats.inflations(), 0u);

  // The recorded trace replays cleanly on both baselines.
  {
    Heap FreshHeap;
    ThreadRegistry Registry;
    ScopedThreadAttachment Replayer(Registry);
    MonitorCache Cache(16);
    EXPECT_EQ(replayTrace(Trace, Cache, FreshHeap, Replayer.context())
                  .SkippedEvents,
              0u);
    HotLocks Hot(32, 4, 16);
    EXPECT_EQ(replayTrace(Trace, Hot, FreshHeap, Replayer.context())
                  .SkippedEvents,
              0u);
  }
}

TEST(Integration, ProfileReplayCharacterizationMatchesTraceAnalysis) {
  // Replay a profile through a *traced* thin-lock protocol and check
  // that the trace-side characterization agrees with the replay's own
  // depth accounting.
  const BenchmarkProfile *Profile = findProfile("javac");
  ASSERT_NE(Profile, nullptr);

  Heap TheHeap;
  ThreadRegistry Registry;
  MonitorTable Monitors;
  ThinLockManager Locks(Monitors);
  std::unique_ptr<SyncBackend> Base = makeSyncBackend(Locks);
  LockTrace Trace;
  TracingBackend Tracer(*Base, Trace);
  ScopedThreadAttachment Main(Registry);

  // The replay engine is templated over the protocol concept; the
  // tracing backend is not a SyncProtocol, so trace via a thin adapter.
  struct TracedProtocol {
    TracingBackend &T;
    static const char *protocolName() { return "traced"; }
    void lock(Object *O, const ThreadContext &C) { T.lock(O, C); }
    void unlock(Object *O, const ThreadContext &C) { T.unlock(O, C); }
    bool unlockChecked(Object *O, const ThreadContext &C) {
      return T.unlockChecked(O, C);
    }
    bool tryLock(Object *O, const ThreadContext &C) {
      return T.tryLock(O, C);
    }
    TimedLockStatus tryLockFor(Object *O, const ThreadContext &C,
                               int64_t N) {
      return T.tryLockFor(O, C, N);
    }
    bool holdsLock(Object *O, const ThreadContext &C) const {
      return T.holdsLock(O, C);
    }
    uint32_t lockDepth(Object *O, const ThreadContext &C) const {
      return T.lockDepth(O, C);
    }
    WaitStatus wait(Object *O, const ThreadContext &C, int64_t N) {
      return T.wait(O, C, N);
    }
    NotifyStatus notify(Object *O, const ThreadContext &C) {
      return T.notify(O, C);
    }
    NotifyStatus notifyAll(Object *O, const ThreadContext &C) {
      return T.notifyAll(O, C);
    }
  };
  static_assert(SyncProtocol<TracedProtocol>);
  TracedProtocol Traced{Tracer};

  ReplayConfig Cfg;
  Cfg.ScaleDivisor = 2048;
  Cfg.MinSyncOps = 4000;
  Cfg.MaxSyncOps = 4000;
  Cfg.WorkPerSync = 0;
  ReplayResult Result =
      replayProfile(*Profile, Traced, TheHeap, Main.context(), Cfg);

  EXPECT_EQ(Trace.lockOperationCount(), Result.SyncOperations);
  double Mix[4];
  Trace.depthMix(Mix);
  for (int B = 0; B < 4; ++B)
    EXPECT_NEAR(Mix[B], Result.depthFraction(B), 1e-9) << "bucket " << B;
  // And the mix tracks the profile's Figure 3 row.
  EXPECT_NEAR(Mix[0], Profile->DepthMix[0], 0.05);
}

TEST(Integration, DeflatingVmRunsTheFullMicroSuite) {
  LockStats Stats;
  VM::Config Cfg;
  Cfg.Sync.DeflateWhenQuiescent = true;
  Cfg.Sync.Stats = &Stats;
  VM Vm(Cfg);
  MicroPrograms Programs = buildMicroPrograms(Vm);
  Object *Target = Vm.newInstance(*Programs.BenchKlass);

  // Contended phase inflates; the final release deflates.
  runVmThreadsBenchmark(Vm, Programs, 3, 400, Target);
  ScopedThreadAttachment Main(Vm.threads(), "main");
  // Solo phase afterwards: runs (possibly thin again), state consistent.
  runMicroProgram(Vm, *Programs.Sync, 500, Target, Main.context());
  runMicroProgram(Vm, *Programs.NestedSync, 500, Target, Main.context());
  EXPECT_FALSE(Vm.sync().holdsLock(Target, Main.context()));
  EXPECT_EQ(Stats.totalAcquisitions(), Stats.totalReleases());
}
