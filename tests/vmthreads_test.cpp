//===- tests/vmthreads_test.cpp - Multi-threaded VM execution -------------===//
//
// End-to-end: interpreted bytecode racing on shared objects under each of
// the three protocols, exactly the configuration the paper benchmarks.
//
//===----------------------------------------------------------------------===//

#include "vm/Assembler.h"
#include "vm/VM.h"
#include "workload/MicroBench.h"

#include <gtest/gtest.h>

using namespace thinlocks;
using namespace thinlocks::vm;
using namespace thinlocks::workload;

namespace {

class VmThreadsTest : public ::testing::TestWithParam<ProtocolKind> {
protected:
  std::unique_ptr<VM> Vm;

  void SetUp() override {
    VM::Config Cfg;
    Cfg.Protocol = GetParam();
    Vm = std::make_unique<VM>(Cfg);
  }
};

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

INSTANTIATE_TEST_SUITE_P(AllProtocols, VmThreadsTest,
                         ::testing::Values(ProtocolKind::ThinLock,
                                           ProtocolKind::MonitorCache,
                                           ProtocolKind::HotLocks,
                                           ProtocolKind::EagerMonitor),
                         [](const ::testing::TestParamInfo<ProtocolKind> &I) {
                           return protocolKindName(I.param);
                         });

//===----------------------------------------------------------------------===//
// Thin-lock specific VM integration
//===----------------------------------------------------------------------===//

TEST(VmThinLockIntegration, LockStatsFlowThroughTheInterpreter) {
  VM::Config Cfg;
  Cfg.Protocol = ProtocolKind::ThinLock;
  Cfg.CollectLockStats = true;
  VM Vm(Cfg);
  MicroPrograms Programs = buildMicroPrograms(Vm);
  ScopedThreadAttachment Main(Vm.threads(), "main");
  Object *Target = Vm.newInstance(*Programs.BenchKlass);

  runMicroProgram(Vm, *Programs.Sync, 100, Target, Main.context());
  LockStats *Stats = Vm.lockStats();
  ASSERT_NE(Stats, nullptr);
  EXPECT_EQ(Stats->totalAcquisitions(), 100u);
  EXPECT_EQ(Stats->depthBucket(0), 100u); // All first locks.

  runMicroProgram(Vm, *Programs.NestedSync, 100, Target, Main.context());
  // NestedSync: 1 outer + 100 inner (depth 2).
  EXPECT_EQ(Stats->totalAcquisitions(), 201u);
  EXPECT_EQ(Stats->depthBucket(1), 100u);
}

TEST(VmThinLockIntegration, VmThreadsContentionInflatesTarget) {
  VM::Config Cfg;
  Cfg.Protocol = ProtocolKind::ThinLock;
  Cfg.CollectLockStats = true;
  VM Vm(Cfg);
  MicroPrograms Programs = buildMicroPrograms(Vm);
  Object *Target = Vm.newInstance(*Programs.BenchKlass);

  // Deterministic contention: hold the target's monitor from outside the
  // VM while an interpreted thread reaches its first monitorenter, so
  // the interpreted thread must take the contention path and inflate.
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

  EXPECT_GE(Vm.lockStats()->contentionInflations(), 1u);
  EXPECT_TRUE(lockword::isFat(Target->lockWord().load()));
}
