//===- workload/MicroBench.h - Table 2 micro-benchmarks --------*- C++ -*-===//
///
/// \file
/// The paper's Table 2 micro-benchmarks in two flavours:
///
/// 1. *Bytecode* programs (buildMicroPrograms) that run on the microjvm,
///    matching the paper's interpreted-JDK setting: "Each benchmark runs
///    a tight loop ... inside the loop an integer variable is
///    incremented."  NoSync / Sync / NestedSync / MixedSync and the
///    Call / CallSync / NestedCallSync family are all here.
///
/// 2. *Native* kernels (templates over any SyncProtocol) that call the
///    locking fast paths directly with no interpretation overhead.  The
///    MultiSync-n working-set sweep and the Threads-n contention sweep
///    use these so the protocol cost dominates the measurement; they are
///    also what bench_fastpath uses to measure the bare per-operation
///    cost the paper quotes in instructions.
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_WORKLOAD_MICROBENCH_H
#define THINLOCKS_WORKLOAD_MICROBENCH_H

#include "core/LockProtocol.h"
#include "heap/Heap.h"
#include "support/Compiler.h"
#include "threads/ThreadRegistry.h"

#include <cstdint>
#include <thread>
#include <vector>

namespace thinlocks {

namespace vm {
class VM;
class Klass;
struct Method;
} // namespace vm

namespace workload {

//===----------------------------------------------------------------------===//
// Bytecode flavour
//===----------------------------------------------------------------------===//

/// Handles to the assembled Table 2 programs on one VM.
struct MicroPrograms {
  /// Shared benchmark class; `counter` int field, `target` ref field.
  vm::Klass *BenchKlass = nullptr;

  /// NoSync(iters): tight loop, integer increment.  Reference benchmark.
  const vm::Method *NoSync = nullptr;
  /// Sync(iters, obj): loop around synchronized(obj){ counter++ }.
  const vm::Method *Sync = nullptr;
  /// NestedSync(iters, obj): obj locked outside the loop, then the same
  /// loop as Sync, so every iteration is a nested (depth 2) lock.
  const vm::Method *NestedSync = nullptr;
  /// MixedSync(iters, obj): three nested locks per iteration (Figure 6).
  const vm::Method *MixedSync = nullptr;
  /// Call(iters, obj): loop calling an empty non-synchronized method.
  const vm::Method *Call = nullptr;
  /// CallSync(iters, obj): loop calling a synchronized method.
  const vm::Method *CallSync = nullptr;
  /// NestedCallSync(iters, obj): obj locked outside the loop, then the
  /// CallSync loop.
  const vm::Method *NestedCallSync = nullptr;
  /// ThreadBody(iters, obj): the per-thread loop of the Threads-n
  /// benchmark (same body as Sync).
  const vm::Method *ThreadBody = nullptr;
};

/// Assembles all Table 2 programs into \p Vm.  Call once per VM, before
/// spawning VM threads.
MicroPrograms buildMicroPrograms(vm::VM &Vm);

/// Runs program \p M with (iters, obj) arguments on the calling thread.
/// Aborts on a trap (micro-benchmarks are trap-free by construction).
void runMicroProgram(vm::VM &Vm, const vm::Method &M, int32_t Iterations,
                     Object *Target, const ThreadContext &Thread);

/// Runs the Threads-n benchmark: \p NumThreads VM threads each execute
/// ThreadBody(itersPerThread, obj) against the *same* object.
void runVmThreadsBenchmark(vm::VM &Vm, const MicroPrograms &Programs,
                           uint32_t NumThreads, int32_t ItersPerThread,
                           Object *Target);

//===----------------------------------------------------------------------===//
// Native flavour
//===----------------------------------------------------------------------===//

/// Opaque data sink preventing dead-code elimination of kernel loops.
uint64_t consumeValue(uint64_t Value);

/// NoSync reference: \p Iterations integer increments.
uint64_t runNativeNoSync(uint64_t Iterations);

/// Sync: lock/increment/unlock an initially unlocked object.
template <SyncProtocol P>
uint64_t runNativeSync(P &Protocol, Object *Obj,
                       const ThreadContext &Thread, uint64_t Iterations) {
  uint64_t Counter = 0;
  for (uint64_t I = 0; I < Iterations; ++I) {
    Protocol.lock(Obj, Thread);
    ++Counter;
    Protocol.unlock(Obj, Thread);
  }
  return consumeValue(Counter);
}

/// NestedSync: the object is locked once outside the loop.
template <SyncProtocol P>
uint64_t runNativeNestedSync(P &Protocol, Object *Obj,
                             const ThreadContext &Thread,
                             uint64_t Iterations) {
  uint64_t Counter = 0;
  Protocol.lock(Obj, Thread);
  for (uint64_t I = 0; I < Iterations; ++I) {
    Protocol.lock(Obj, Thread);
    ++Counter;
    Protocol.unlock(Obj, Thread);
  }
  Protocol.unlock(Obj, Thread);
  return consumeValue(Counter);
}

/// MixedSync: three nested lock/unlock pairs per iteration (Figure 6).
template <SyncProtocol P>
uint64_t runNativeMixedSync(P &Protocol, Object *Obj,
                            const ThreadContext &Thread,
                            uint64_t Iterations) {
  uint64_t Counter = 0;
  for (uint64_t I = 0; I < Iterations; ++I) {
    Protocol.lock(Obj, Thread);
    Protocol.lock(Obj, Thread);
    Protocol.lock(Obj, Thread);
    ++Counter;
    Protocol.unlock(Obj, Thread);
    Protocol.unlock(Obj, Thread);
    Protocol.unlock(Obj, Thread);
  }
  return consumeValue(Counter);
}

/// MultiSync n: every iteration synchronizes each of \p Objects once —
/// a locking working set of size n (Figure 4's IBM112/JDK111 cliffs).
template <SyncProtocol P>
uint64_t runNativeMultiSync(P &Protocol, const std::vector<Object *> &Objects,
                            const ThreadContext &Thread,
                            uint64_t Iterations) {
  uint64_t Counter = 0;
  for (uint64_t I = 0; I < Iterations; ++I) {
    for (Object *Obj : Objects) {
      Protocol.lock(Obj, Thread);
      ++Counter;
      Protocol.unlock(Obj, Thread);
    }
  }
  return consumeValue(Counter);
}

/// Threads n: \p NumThreads OS threads each lock/unlock the same object
/// \p ItersPerThread times (initial locking under contention).
template <SyncProtocol P>
uint64_t runNativeThreads(P &Protocol, Object *Obj, ThreadRegistry &Registry,
                          uint32_t NumThreads, uint64_t ItersPerThread) {
  std::vector<std::thread> Workers;
  Workers.reserve(NumThreads);
  for (uint32_t T = 0; T < NumThreads; ++T) {
    Workers.emplace_back([&Protocol, Obj, &Registry, ItersPerThread] {
      ScopedThreadAttachment Attachment(Registry);
      uint64_t Local = 0;
      for (uint64_t I = 0; I < ItersPerThread; ++I) {
        Protocol.lock(Obj, Attachment.context());
        ++Local;
        Protocol.unlock(Obj, Attachment.context());
      }
      consumeValue(Local);
    });
  }
  for (std::thread &Worker : Workers)
    Worker.join();
  return static_cast<uint64_t>(NumThreads) * ItersPerThread;
}

/// Call / CallSync / NestedCallSync use out-of-line callees to model the
/// method-invocation overhead the paper notes reduces CallSync speedups.
uint64_t callPlain(uint64_t Counter);

template <SyncProtocol P>
TL_NOINLINE uint64_t callSynchronized(P &Protocol, Object *Obj,
                                      const ThreadContext &Thread,
                                      uint64_t Counter) {
  Protocol.lock(Obj, Thread);
  ++Counter;
  Protocol.unlock(Obj, Thread);
  return Counter;
}

uint64_t runNativeCall(uint64_t Iterations);

template <SyncProtocol P>
uint64_t runNativeCallSync(P &Protocol, Object *Obj,
                           const ThreadContext &Thread,
                           uint64_t Iterations) {
  uint64_t Counter = 0;
  for (uint64_t I = 0; I < Iterations; ++I)
    Counter = callSynchronized(Protocol, Obj, Thread, Counter);
  return consumeValue(Counter);
}

template <SyncProtocol P>
uint64_t runNativeNestedCallSync(P &Protocol, Object *Obj,
                                 const ThreadContext &Thread,
                                 uint64_t Iterations) {
  Protocol.lock(Obj, Thread);
  uint64_t Counter = 0;
  for (uint64_t I = 0; I < Iterations; ++I)
    Counter = callSynchronized(Protocol, Obj, Thread, Counter);
  Protocol.unlock(Obj, Thread);
  return consumeValue(Counter);
}

} // namespace workload
} // namespace thinlocks

#endif // THINLOCKS_WORKLOAD_MICROBENCH_H
