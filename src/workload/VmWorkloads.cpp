//===- workload/VmWorkloads.cpp - Workloads run on the microjvm -----------===//
//
// The interpreted halves of workload/MicroBench.h (the Table 2 bytecode
// programs) and workload/MacroReplay.h (replayProfileOnVm).  They sit in
// an object file of their own so that a program calling only the native
// kernels or replayProfile, as perfbench's thinbench does, links no part
// of the VM.
//
//===----------------------------------------------------------------------===//

#include "workload/MacroReplay.h"
#include "workload/MicroBench.h"

#include "vm/Assembler.h"
#include "vm/NativeLibrary.h"
#include "vm/VM.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

using namespace thinlocks;
using namespace thinlocks::workload;
using namespace thinlocks::vm;

namespace {

// Locals layout shared by all (iters, obj) programs:
//   0: iters (int arg)   1: obj (ref arg)   2: loop counter
//   3: accumulated integer variable
constexpr int32_t LocIters = 0;
constexpr int32_t LocObj = 1;
constexpr int32_t LocCounter = 2;
constexpr int32_t LocAccum = 3;

std::vector<Instruction> assembleNoSync() {
  Assembler Asm;
  Asm.iconst(0).istore(LocAccum);
  Asm.countedLoop(LocCounter, LocIters,
                  [](Assembler &A) { A.iinc(LocAccum, 1); });
  return Asm.iload(LocAccum).iret().finish();
}

std::vector<Instruction> assembleSync() {
  Assembler Asm;
  Asm.iconst(0).istore(LocAccum);
  Asm.countedLoop(LocCounter, LocIters, [](Assembler &A) {
    A.synchronizedOn(LocObj,
                     [](Assembler &B) { B.iinc(LocAccum, 1); });
  });
  return Asm.iload(LocAccum).iret().finish();
}

std::vector<Instruction> assembleNestedSync() {
  Assembler Asm;
  Asm.iconst(0).istore(LocAccum);
  Asm.synchronizedOn(LocObj, [](Assembler &Outer) {
    Outer.countedLoop(LocCounter, LocIters, [](Assembler &A) {
      A.synchronizedOn(LocObj,
                       [](Assembler &B) { B.iinc(LocAccum, 1); });
    });
  });
  return Asm.iload(LocAccum).iret().finish();
}

std::vector<Instruction> assembleMixedSync() {
  Assembler Asm;
  Asm.iconst(0).istore(LocAccum);
  Asm.countedLoop(LocCounter, LocIters, [](Assembler &A) {
    A.synchronizedOn(LocObj, [](Assembler &B) {
      B.synchronizedOn(LocObj, [](Assembler &C) {
        C.synchronizedOn(LocObj,
                         [](Assembler &D) { D.iinc(LocAccum, 1); });
      });
    });
  });
  return Asm.iload(LocAccum).iret().finish();
}

// Callee body for Call/CallSync: int bump(this, x) { return x + 1; }.
// Locals: 0 = this, 1 = x.
std::vector<Instruction> assembleBump() {
  Assembler Asm;
  return Asm.iload(1).iconst(1).iadd().iret().finish();
}

// Caller loop: accum = bump(obj, accum) each iteration.
std::vector<Instruction> assembleCallLoop(uint32_t CalleeId) {
  Assembler Asm;
  Asm.iconst(0).istore(LocAccum);
  Asm.countedLoop(LocCounter, LocIters, [CalleeId](Assembler &A) {
    A.aload(LocObj).iload(LocAccum).invoke(CalleeId).istore(LocAccum);
  });
  return Asm.iload(LocAccum).iret().finish();
}

// NestedCallSync: obj is locked around the whole CallSync loop.
std::vector<Instruction> assembleNestedCallLoop(uint32_t CalleeId) {
  Assembler Asm;
  Asm.iconst(0).istore(LocAccum);
  Asm.synchronizedOn(LocObj, [CalleeId](Assembler &Outer) {
    Outer.countedLoop(LocCounter, LocIters, [CalleeId](Assembler &A) {
      A.aload(LocObj).iload(LocAccum).invoke(CalleeId).istore(LocAccum);
    });
  });
  return Asm.iload(LocAccum).iret().finish();
}

} // namespace

MicroPrograms workload::buildMicroPrograms(VM &Vm) {
  MicroPrograms Programs;
  Programs.BenchKlass = &Vm.defineClass(
      "bench/Target", {FieldInfo{"counter", ValueKind::Int, 0},
                       FieldInfo{"target", ValueKind::Ref, 0}});

  MethodTraits Plain;
  MethodTraits Sync;
  Sync.IsSynchronized = true;

  Klass &K = *Programs.BenchKlass;
  // All loop programs take (iters:int, obj:ref) and use 4 locals.
  Programs.NoSync = &Vm.defineMethod(K, "noSync", Plain, 2, 4,
                                     assembleNoSync());
  Programs.Sync = &Vm.defineMethod(K, "sync", Plain, 2, 4, assembleSync());
  Programs.NestedSync =
      &Vm.defineMethod(K, "nestedSync", Plain, 2, 4, assembleNestedSync());
  Programs.MixedSync =
      &Vm.defineMethod(K, "mixedSync", Plain, 2, 4, assembleMixedSync());

  const Method &BumpPlain =
      Vm.defineMethod(K, "bump", Plain, 2, 2, assembleBump());
  const Method &BumpSync =
      Vm.defineMethod(K, "bumpSync", Sync, 2, 2, assembleBump());

  Programs.Call = &Vm.defineMethod(K, "call", Plain, 2, 4,
                                   assembleCallLoop(BumpPlain.Id));
  Programs.CallSync = &Vm.defineMethod(K, "callSync", Plain, 2, 4,
                                       assembleCallLoop(BumpSync.Id));
  Programs.NestedCallSync = &Vm.defineMethod(
      K, "nestedCallSync", Plain, 2, 4, assembleNestedCallLoop(BumpSync.Id));

  // Threads-n body: identical to Sync; separate method so per-thread
  // frames never share bytecode-level state.
  Programs.ThreadBody =
      &Vm.defineMethod(K, "threadBody", Plain, 2, 4, assembleSync());
  return Programs;
}

void workload::runMicroProgram(VM &Vm, const Method &M, int32_t Iterations,
                               Object *Target,
                               const ThreadContext &Thread) {
  Value Args[2] = {Value::makeInt(Iterations), Value::makeRef(Target)};
  RunResult Result = Vm.call(M, Args, Thread);
  if (!Result.ok()) {
    std::fprintf(stderr, "micro program '%s' trapped: %s\n",
                 M.Name.c_str(), trapName(Result.TrapKind));
    std::abort();
  }
  assert(Result.Result.isInt() &&
         Result.Result.asInt() >= Iterations &&
         "benchmark loop lost increments");
}

void workload::runVmThreadsBenchmark(VM &Vm, const MicroPrograms &Programs,
                                     uint32_t NumThreads,
                                     int32_t ItersPerThread,
                                     Object *Target) {
  std::vector<VM::VMThread> Threads;
  Threads.reserve(NumThreads);
  for (uint32_t T = 0; T < NumThreads; ++T)
    Threads.push_back(Vm.spawn(*Programs.ThreadBody,
                               {Value::makeInt(ItersPerThread),
                                Value::makeRef(Target)}));
  for (VM::VMThread &Thread : Threads) {
    RunResult Result = Thread.join();
    if (!Result.ok()) {
      std::fprintf(stderr, "threads benchmark trapped: %s\n",
                   trapName(Result.TrapKind));
      std::abort();
    }
  }
}

ReplayResult workload::replayProfileOnVm(vm::VM &Vm,
                                         vm::NativeLibrary &Library,
                                         const BenchmarkProfile &Profile,
                                         const ThreadContext &Thread,
                                         const ReplayConfig &Cfg) {
  using vm::RunResult;
  using vm::Value;

  ReplayResult Result;
  SplitMix64 Rng(Cfg.Seed ^ Profile.SyncOperations ^ 0x5ca1ab1eu);

  uint64_t SyncOps = Profile.SyncOperations / Cfg.ScaleDivisor;
  if (SyncOps < Cfg.MinSyncOps)
    SyncOps = Cfg.MinSyncOps;
  if (Cfg.MaxSyncOps != 0 && SyncOps > Cfg.MaxSyncOps)
    SyncOps = Cfg.MaxSyncOps;

  uint64_t SyncObjects = Profile.SynchronizedObjects / Cfg.ScaleDivisor;
  if (SyncObjects == 0)
    SyncObjects = 1;
  // Keep VM replays bounded; they carry interpreter overhead per op.
  if (SyncObjects > 4096)
    SyncObjects = 4096;

  vm::Klass &PlainKlass = *Vm.findClass("java/lang/Class");

  auto checkedCall = [&](const vm::Method &M,
                         std::initializer_list<Value> Args) {
    std::vector<Value> ArgVec(Args);
    RunResult R = Vm.call(M, ArgVec, Thread);
    if (!R.ok()) {
      std::fprintf(stderr, "VM replay: %s trapped with %s\n",
                   M.Name.c_str(), vm::trapName(R.TrapKind));
      std::abort();
    }
    return R.Result;
  };

  StopWatch Watch;

  // Population: a mix of Vectors, Hashtables and BitSets (the paper's
  // motivating thread-safe classes), pre-populated so reads succeed.
  std::vector<Object *> Population;
  Population.reserve(SyncObjects);
  for (uint64_t I = 0; I < SyncObjects; ++I) {
    Object *Obj = nullptr;
    switch (I % 3) {
    case 0:
      Obj = Vm.newInstance(Library.vectorClass());
      for (int32_t E = 0; E < 4; ++E)
        checkedCall(Library.vectorAddElement(),
                    {Value::makeRef(Obj), Value::makeInt(E * 7)});
      break;
    case 1:
      Obj = Vm.newInstance(Library.hashtableClass());
      for (int32_t K = 0; K < 4; ++K)
        checkedCall(Library.hashtablePut(),
                    {Value::makeRef(Obj), Value::makeInt(K),
                     Value::makeInt(K * 3)});
      break;
    case 2:
      Obj = Vm.newInstance(Library.bitSetClass());
      checkedCall(Library.bitSetSet(),
                  {Value::makeRef(Obj), Value::makeInt(5)});
      break;
    }
    Population.push_back(Obj);
  }
  Result.SynchronizedObjects = SyncObjects;
  Result.ObjectsCreated = SyncObjects;

  uint64_t PlainObjects = Profile.ObjectsCreated / Cfg.ScaleDivisor;
  PlainObjects = PlainObjects > SyncObjects ? PlainObjects - SyncObjects : 0;
  double PlainPerOp = SyncOps == 0 ? 0.0
                                   : static_cast<double>(PlainObjects) /
                                         static_cast<double>(SyncOps);
  double PlainDebt = 0.0;
  uint32_t WorkAccumulator = static_cast<uint32_t>(Cfg.Seed);

  uint64_t OpsDone = 0;
  while (OpsDone < SyncOps) {
    size_t Index = sampleObjectIndex(Population.size(), Rng);
    Object *Obj = Population[Index];
    uint64_t Consumed = 0;

    if (Rng.nextBool(Profile.LibraryFraction)) {
      // One synchronized library call (depth 1).
      switch (Index % 3) {
      case 0:
        checkedCall(Library.vectorElementAt(),
                    {Value::makeRef(Obj),
                     Value::makeInt(static_cast<int32_t>(Rng.nextBounded(4)))});
        break;
      case 1:
        checkedCall(Library.hashtableGet(),
                    {Value::makeRef(Obj),
                     Value::makeInt(static_cast<int32_t>(Rng.nextBounded(4)))});
        break;
      case 2:
        checkedCall(
            Library.bitSetGet(),
            {Value::makeRef(Obj),
             Value::makeInt(static_cast<int32_t>(Rng.nextBounded(64)))});
        break;
      }
      ++Result.DepthCounts[0];
      Consumed = 1;
      WorkAccumulator = replayWork(WorkAccumulator, Cfg.WorkPerSync);
    } else {
      uint32_t Depth = sampleSequenceDepth(Profile, Rng.nextDouble());
      if (Depth > SyncOps - OpsDone)
        Depth = static_cast<uint32_t>(SyncOps - OpsDone);
      if (Depth == 0)
        Depth = 1;
      for (uint32_t D = 0; D < Depth; ++D) {
        Vm.sync().lock(Obj, Thread);
        ++Result.DepthCounts[D >= 3 ? 3 : D];
        WorkAccumulator = replayWork(WorkAccumulator, Cfg.WorkPerSync);
      }
      for (uint32_t D = 0; D < Depth; ++D)
        Vm.sync().unlock(Obj, Thread);
      Consumed = Depth;
    }
    OpsDone += Consumed;

    PlainDebt += PlainPerOp * static_cast<double>(Consumed);
    while (PlainDebt >= 1.0) {
      Vm.newInstance(PlainKlass);
      ++Result.ObjectsCreated;
      PlainDebt -= 1.0;
    }
  }

  Result.SyncOperations = OpsDone;
  Result.ElapsedNanos = Watch.elapsedNanos();
  (void)WorkAccumulator;
  return Result;
}
