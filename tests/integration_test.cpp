//===- tests/integration_test.cpp - Whole-stack integration ---------------===//
//
// End-to-end scenarios crossing every layer: assembled bytecode ->
// interpreter -> synchronized library classes -> protocol -> the
// LockStats census, and every Table 1 profile's replay checked against
// that census.
//
//===----------------------------------------------------------------------===//

#include "core/ThinLock.h"
#include "vm/Assembler.h"
#include "vm/NativeLibrary.h"
#include "vm/VM.h"
#include "workload/MacroReplay.h"
#include "workload/MicroBench.h"
#include "workload/Profiles.h"

#include <gtest/gtest.h>

using namespace thinlocks;
using namespace thinlocks::vm;
using namespace thinlocks::workload;

TEST(Integration, CompiledExpressionsDriveSynchronizedLibraryWork) {
  // Assemble f(i) = i * i - i, fill a synchronized Vector with f(0..N),
  // then verify sums via synchronized elementAt — all interpreted, all
  // through the thin-lock protocol, every lock operation counted.
  LockStats Stats;
  VM::Config Cfg;
  Cfg.Sync.Stats = &Stats;
  VM Vm(Cfg);
  NativeLibrary Lib(Vm);
  Klass &K = Vm.defineClass("it/App", {});

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
    // The host evaluates the same expression as the oracle.
    ASSERT_EQ(FR.Result.asInt(), I * I - I);
    Expected += I * I - I;
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

  // One uncontended first lock per synchronized library call, each
  // released, and nothing ever inflated.
  LockStats::Snapshot S = Stats.snapshot();
  EXPECT_EQ(S.Acquisitions, static_cast<uint64_t>(2 * N));
  EXPECT_EQ(S.DepthBuckets[0], S.Acquisitions);
  EXPECT_EQ(S.Releases, S.Acquisitions);
  EXPECT_EQ(S.inflations(), 0u);
}

namespace {

/// Parameterized by profile name, so test listings show the name.
class ProfileCensus : public ::testing::TestWithParam<const char *> {};

std::vector<const char *> profileNames() {
  std::vector<const char *> Names;
  for (const BenchmarkProfile &P : macroBenchmarkProfiles())
    Names.push_back(P.Name);
  return Names;
}

} // namespace

TEST_P(ProfileCensus, LockStatsMatchTheReplaysDepthCounts) {
  // Replay a Table 1 profile through an instrumented thin-lock protocol:
  // LockStats must count exactly the operations the replay issued, in
  // the Figure 3 buckets the replay put them in.
  const BenchmarkProfile *Found = findProfile(GetParam());
  ASSERT_NE(Found, nullptr);
  const BenchmarkProfile &Profile = *Found;
  Heap TheHeap;
  ThreadRegistry Registry;
  MonitorTable Monitors;
  LockStats Stats;
  ThinLockManager Locks(Monitors, &Stats);
  ScopedThreadAttachment Main(Registry);

  ReplayConfig Cfg;
  Cfg.ScaleDivisor = 2048;
  Cfg.MinSyncOps = 1000;
  Cfg.MaxSyncOps = 20000;
  Cfg.WorkPerSync = 4;
  ReplayResult Result =
      replayProfile(Profile, Locks, TheHeap, Main.context(), Cfg);

  LockStats::Snapshot S = Stats.snapshot();
  for (unsigned B = 0; B < LockStats::NumDepthBuckets; ++B)
    EXPECT_EQ(S.DepthBuckets[B], Result.DepthCounts[B]) << "bucket " << B;
  EXPECT_EQ(S.Acquisitions, Result.SyncOperations);
  EXPECT_EQ(S.Releases, Result.SyncOperations);
  // And the mix tracks the profile's Figure 3 row.
  EXPECT_NEAR(S.depthFraction(0), Profile.DepthMix[0], 0.05);
}

INSTANTIATE_TEST_SUITE_P(Table1, ProfileCensus,
                         ::testing::ValuesIn(profileNames()),
                         [](const ::testing::TestParamInfo<const char *> &I) {
                           return std::string(I.param);
                         });

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
  LockStats::Snapshot S = Stats.snapshot();
  EXPECT_EQ(S.Acquisitions, S.Releases);
}
