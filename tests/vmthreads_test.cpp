//===- tests/vmthreads_test.cpp - Multi-threaded VM execution -------------===//
//
// End-to-end: interpreted bytecode racing on shared objects under every
// registered protocol — the paper's configuration (ThinLock, JDK111,
// IBM112) plus the others the registry lists.
//
//===----------------------------------------------------------------------===//

#include "vm/Assembler.h"
#include "vm/VM.h"
#include "workload/MicroBench.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

using namespace thinlocks;
using namespace thinlocks::vm;
using namespace thinlocks::workload;

namespace {

class VmThreadsTest : public ::testing::TestWithParam<std::string> {
protected:
  std::unique_ptr<VM> Vm;

  void SetUp() override {
    Vm = std::make_unique<VM>(VM::Config{GetParam(), {}});
  }

  /// Asserts that another attached thread can take \p Obj's monitor.  The
  /// bounded wait fails the test instead of hanging it when \p Obj is
  /// still held.
  void expectFreeForAnotherThread(Object *Obj) {
    TimedLockStatus Status = TimedLockStatus::TimedOut;
    std::thread Other([&] {
      ScopedThreadAttachment Attach(Vm->threads(), "other");
      Status = Vm->sync().tryLockFor(
          Obj, Attach.context(),
          std::chrono::nanoseconds(std::chrono::seconds(5)).count());
      if (Status == TimedLockStatus::Acquired)
        Vm->sync().unlock(Obj, Attach.context());
    });
    Other.join();
    EXPECT_EQ(Status, TimedLockStatus::Acquired);
  }
};

MethodTraits synchronizedTraits() {
  MethodTraits Sync;
  Sync.IsSynchronized = true;
  return Sync;
}

} // namespace

TEST_P(VmThreadsTest, SynchronizedFieldIncrementsDoNotRace) {
  // Shared counter object; N VM threads each run
  //   loop iters: synchronized(obj) { obj.count = obj.count + 1 }
  Klass &K = Vm->defineClass("Shared",
                             {FieldInfo{"count", ValueKind::Int, 0}});
  Assembler Asm;
  Asm.countedLoop(2, 0, [](Assembler &A) {
    A.synchronizedOn(1, [](Assembler &B) {
      B.aload(1).aload(1).getField(0).iconst(1).iadd().putField(0);
    });
  });
  // Return a constant: reading the field here, outside the monitor, would
  // race with threads still in the loop.  The host checks it after joining.
  Asm.iconst(0).iret();
  Method &Body = Vm->defineMethod(K, "bump", MethodTraits{}, 2, 3,
                                  Asm.finish());

  Object *Shared = Vm->newInstance(K);
  constexpr int NumThreads = 4;
  constexpr int Iters = 2000;
  std::vector<VM::VMThread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.push_back(Vm->spawn(
        Body, {Value::makeInt(Iters), Value::makeRef(Shared)}));
  for (auto &T : Threads) {
    RunResult R = T.join();
    ASSERT_TRUE(R.ok()) << trapName(R.TrapKind);
  }
  EXPECT_EQ(
      static_cast<int32_t>(static_cast<uint32_t>(Shared->slot(0))),
      NumThreads * Iters);
}

TEST_P(VmThreadsTest, SynchronizedMethodsExcludeEachOther) {
  Klass &K = Vm->defineClass("Shared2",
                             {FieldInfo{"count", ValueKind::Int, 0}});
  MethodTraits Sync;
  Sync.IsSynchronized = true;
  // synchronized bump(this) { this.count++ ; return this.count }
  Assembler Inner;
  Inner.aload(0).aload(0).getField(0).iconst(1).iadd().putField(0);
  Inner.aload(0).getField(0).iret();
  Method &Bump = Vm->defineMethod(K, "bump", Sync, 1, 1, Inner.finish());

  // runner(iters, obj) { loop { obj.bump() } }
  Assembler Runner;
  Runner.countedLoop(2, 0, [&](Assembler &A) {
    A.aload(1).invoke(Bump.Id).pop();
  });
  Runner.iconst(0).iret();
  Method &Run = Vm->defineMethod(K, "runner", MethodTraits{}, 2, 3,
                                 Runner.finish());

  Object *Shared = Vm->newInstance(K);
  constexpr int NumThreads = 3;
  constexpr int Iters = 1500;
  std::vector<VM::VMThread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.push_back(
        Vm->spawn(Run, {Value::makeInt(Iters), Value::makeRef(Shared)}));
  for (auto &T : Threads)
    ASSERT_TRUE(T.join().ok());
  EXPECT_EQ(static_cast<int32_t>(static_cast<uint32_t>(Shared->slot(0))),
            NumThreads * Iters);
}

TEST_P(VmThreadsTest, MicroProgramsRunOnEveryProtocol) {
  MicroPrograms Programs = buildMicroPrograms(*Vm);
  ScopedThreadAttachment Main(Vm->threads(), "main");
  Object *Target = Vm->newInstance(*Programs.BenchKlass);
  runMicroProgram(*Vm, *Programs.NoSync, 500, Target, Main.context());
  runMicroProgram(*Vm, *Programs.Sync, 500, Target, Main.context());
  runMicroProgram(*Vm, *Programs.NestedSync, 500, Target, Main.context());
  runMicroProgram(*Vm, *Programs.MixedSync, 200, Target, Main.context());
  runMicroProgram(*Vm, *Programs.Call, 500, Target, Main.context());
  runMicroProgram(*Vm, *Programs.CallSync, 500, Target, Main.context());
  runMicroProgram(*Vm, *Programs.NestedCallSync, 500, Target,
                  Main.context());
  // After all that, the target must be fully unlocked.
  EXPECT_FALSE(Vm->sync().holdsLock(Target, Main.context()));
}

TEST_P(VmThreadsTest, ThreadsBenchmarkContendsCorrectly) {
  MicroPrograms Programs = buildMicroPrograms(*Vm);
  Object *Target = Vm->newInstance(*Programs.BenchKlass);
  runVmThreadsBenchmark(*Vm, Programs, /*NumThreads=*/4,
                        /*ItersPerThread=*/300, Target);
  ScopedThreadAttachment Main(Vm->threads(), "main");
  EXPECT_FALSE(Vm->sync().holdsLock(Target, Main.context()));
}

//===----------------------------------------------------------------------===//
// Structured locking: a frame exits every monitor it enters, on every
// protocol.
//===----------------------------------------------------------------------===//

TEST_P(VmThreadsTest, TrapInsideSynchronizedBlocksReleasesEveryMonitor) {
  // run(a, b) { synchronized (a) { b.inner(a); } }
  // synchronized inner(this = b, a) { synchronized (a) { 1 / 0; } }
  // The trap unwinds two frames holding a twice and b once.
  Klass &K = Vm->defineClass("Unwound", {});
  Assembler Inner;
  Inner.synchronizedOn(1, [](Assembler &A) {
    A.iconst(1).iconst(0).idiv().pop();
  });
  Method &InnerM = Vm->defineMethod(K, "inner", synchronizedTraits(), 2, 2,
                                    Inner.ret().finish());
  Assembler Outer;
  Outer.synchronizedOn(0, [&](Assembler &A) {
    A.aload(1).aload(0).invoke(InnerM.Id);
  });
  Method &Run =
      Vm->defineMethod(K, "run", MethodTraits{}, 2, 2, Outer.ret().finish());

  Object *A = Vm->newInstance(K);
  Object *B = Vm->newInstance(K);
  ScopedThreadAttachment Main(Vm->threads(), "main");
  RunResult R = Vm->call(
      Run, std::vector<Value>{Value::makeRef(A), Value::makeRef(B)},
      Main.context());
  EXPECT_EQ(R.TrapKind, Trap::DivideByZero) << trapName(R.TrapKind);
  EXPECT_EQ(Vm->sync().lockDepth(A, Main.context()), 0u);
  EXPECT_EQ(Vm->sync().lockDepth(B, Main.context()), 0u);
  expectFreeForAnotherThread(A);
  expectFreeForAnotherThread(B);
}

TEST_P(VmThreadsTest, ReturnHoldingABlockMonitorTrapsAndReleasesIt) {
  // leak(obj) { monitorenter obj; return 7; }
  Klass &K = Vm->defineClass("Leaky", {});
  Assembler Asm;
  Asm.aload(0).monitorEnter().iconst(7).iret();
  Method &Leak =
      Vm->defineMethod(K, "leak", MethodTraits{}, 1, 1, Asm.finish());

  Object *Obj = Vm->newInstance(K);
  ScopedThreadAttachment Main(Vm->threads(), "main");
  RunResult R = Vm->call(Leak, std::vector<Value>{Value::makeRef(Obj)},
                         Main.context());
  EXPECT_EQ(R.TrapKind, Trap::IllegalMonitorState) << trapName(R.TrapKind);
  EXPECT_EQ(Vm->sync().lockDepth(Obj, Main.context()), 0u);
  expectFreeForAnotherThread(Obj);
}

TEST_P(VmThreadsTest, MonitorExitOfAnotherFramesMonitorTraps) {
  Klass &K = Vm->defineClass("Borrower", {});
  // exitIt(obj) { monitorexit obj; return; }
  Assembler ExitIt;
  ExitIt.aload(0).monitorExit().ret();
  Method &ExitPlain =
      Vm->defineMethod(K, "exitIt", MethodTraits{}, 1, 1, ExitIt.finish());
  // The caller's block monitor:
  // run(obj) { synchronized (obj) { exitIt(obj); } }
  Assembler Caller;
  Caller.synchronizedOn(0, [&](Assembler &A) {
    A.aload(0).invoke(ExitPlain.Id);
  });
  Method &Run =
      Vm->defineMethod(K, "run", MethodTraits{}, 1, 1, Caller.ret().finish());
  // The synchronized method's own receiver:
  // synchronized exitOwn(this) { monitorexit this; return; }
  Assembler ExitOwn;
  ExitOwn.aload(0).monitorExit().ret();
  Method &ExitSync = Vm->defineMethod(K, "exitOwn", synchronizedTraits(), 1,
                                      1, ExitOwn.finish());

  ScopedThreadAttachment Main(Vm->threads(), "main");
  for (const Method *M : {&Run, &ExitSync}) {
    Object *Obj = Vm->newInstance(K);
    RunResult R = Vm->call(*M, std::vector<Value>{Value::makeRef(Obj)},
                           Main.context());
    EXPECT_EQ(R.TrapKind, Trap::IllegalMonitorState)
        << M->Name << ": " << trapName(R.TrapKind);
    EXPECT_EQ(Vm->sync().lockDepth(Obj, Main.context()), 0u) << M->Name;
    expectFreeForAnotherThread(Obj);
  }
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, VmThreadsTest,
                         ::testing::ValuesIn(registeredProtocolNames()),
                         [](const ::testing::TestParamInfo<std::string> &I) {
                           return I.param;
                         });

TEST(VmConfigDeathTest, UnknownProtocolNameIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH({ VM Vm(VM::Config{"NoSuchProtocol", {}}); },
               "unknown protocol");
}

//===----------------------------------------------------------------------===//
// Thin-lock specific VM integration
//===----------------------------------------------------------------------===//

namespace {

/// Holds \p Target's monitor from outside the VM while an interpreted
/// thread reaches its first monitorenter, so that thread must take the
/// contention path and inflate; then releases and joins it.
void contendFromOutside(VM &Vm, const MicroPrograms &Programs,
                        Object *Target) {
  ScopedThreadAttachment Main(Vm.threads(), "holder");
  Vm.sync().lock(Target, Main.context());
  VM::VMThread Worker = Vm.spawn(
      *Programs.ThreadBody,
      {vm::Value::makeInt(200), vm::Value::makeRef(Target)});
  // The interpreted thread cannot finish while we hold the lock; give it
  // time to reach the spin loop, then release.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Vm.sync().unlock(Target, Main.context());
  ASSERT_TRUE(Worker.join().ok());
}

} // namespace

TEST(VmThinLockIntegration, LockStatsFlowThroughTheInterpreter) {
  LockStats Stats;
  VM::Config Cfg;
  Cfg.Sync.Stats = &Stats;
  VM Vm(Cfg);
  MicroPrograms Programs = buildMicroPrograms(Vm);
  ScopedThreadAttachment Main(Vm.threads(), "main");
  Object *Target = Vm.newInstance(*Programs.BenchKlass);

  runMicroProgram(Vm, *Programs.Sync, 100, Target, Main.context());
  EXPECT_EQ(Stats.totalAcquisitions(), 100u);
  EXPECT_EQ(Stats.depthBucket(0), 100u); // All first locks.

  runMicroProgram(Vm, *Programs.NestedSync, 100, Target, Main.context());
  // NestedSync: 1 outer + 100 inner (depth 2).
  EXPECT_EQ(Stats.totalAcquisitions(), 201u);
  EXPECT_EQ(Stats.depthBucket(1), 100u);
}

TEST(VmThinLockIntegration, VmThreadsContentionInflatesTarget) {
  LockStats Stats;
  VM::Config Cfg;
  Cfg.Sync.Stats = &Stats;
  VM Vm(Cfg);
  MicroPrograms Programs = buildMicroPrograms(Vm);
  Object *Target = Vm.newInstance(*Programs.BenchKlass);

  ASSERT_NO_FATAL_FAILURE(contendFromOutside(Vm, Programs, Target));
  EXPECT_GE(Stats.contentionInflations(), 1u);
  EXPECT_TRUE(lockword::isFat(Target->lockWord().load()));
}

TEST(VmThinLockIntegration, DeflatingVmReturnsContendedTargetToThin) {
  // The same contention with the deflation switch on: the inflated
  // monitor is retired once the worker's last release leaves it idle.
  LockStats Stats;
  VM::Config Cfg;
  Cfg.Sync.DeflateWhenQuiescent = true;
  Cfg.Sync.Stats = &Stats;
  VM Vm(Cfg);
  MicroPrograms Programs = buildMicroPrograms(Vm);
  Object *Target = Vm.newInstance(*Programs.BenchKlass);

  ASSERT_NO_FATAL_FAILURE(contendFromOutside(Vm, Programs, Target));
  EXPECT_GE(Stats.contentionInflations(), 1u);
  EXPECT_GE(Stats.deflations(), 1u);
  EXPECT_TRUE(lockword::isThin(Target->lockWord().load()));
}

TEST(VmThinLockIntegration, ThinLockVmQuarantinesIndexOfDeadOwner) {
  // A thread that detaches while holding a lock leaves its index in the
  // lock word; the VM's auditor must keep that index out of reuse.
  VM Vm;
  Object *Obj = Vm.newInstance(Vm.defineClass("Held", {}));
  ThreadContext Doomed = Vm.threads().attach("doomed");
  Vm.sync().lock(Obj, Doomed);
  Vm.threads().detach(Doomed);
  EXPECT_EQ(Vm.threads().quarantinedIndexCount(), 1u);
}
