//===- vm/VM.h - The microjvm runtime --------------------------*- C++ -*-===//
///
/// \file
/// The microjvm: heap + thread registry + a pluggable synchronization
/// protocol + class/method tables + an interpreter entry point.  It is
/// the substrate standing in for the paper's JDK 1.1.2: all Table 2
/// micro-benchmarks and the macro-workload replays execute as interpreted
/// bytecode on top of any registered protocol (core/ProtocolRegistry.h),
/// chosen by name — ThinLock (the paper's contribution), MonitorCache
/// ("JDK111"), HotLocks ("IBM112"), or any other the registry lists.
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_VM_VM_H
#define THINLOCKS_VM_VM_H

#include "core/ProtocolRegistry.h"
#include "heap/Heap.h"
#include "threads/ThreadRegistry.h"
#include "vm/Klass.h"
#include "vm/Method.h"

#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

namespace thinlocks {
namespace vm {

/// Result of executing a method: a trap (or None) plus the return value.
struct RunResult {
  Trap TrapKind = Trap::None;
  Value Result;

  bool ok() const { return TrapKind == Trap::None; }
};

/// The runtime.  Definition (defineClass / defineMethod /
/// defineNativeMethod) must complete before any VM thread is spawned:
/// lookup paths (methodById, klassForObject, ...) are deliberately
/// lock-free and rely on the tables being frozen during execution.
/// Definition itself is internally locked, and thread creation provides
/// the happens-before edge that publishes the tables to spawned threads.
class VM {
public:
  struct Config {
    /// Registry name of the synchronization protocol; an unregistered
    /// name is fatal.
    std::string Protocol = DefaultProtocolName;
    /// Substrate knobs for the protocol (deflation, stats sink, monitor
    /// capacity); protocols without the notion ignore them.
    ProtocolConfig Sync;
  };

  /// Constructs a VM with default configuration (thin locks).
  VM();
  explicit VM(const Config &Cfg);
  ~VM();

  VM(const VM &) = delete;
  VM &operator=(const VM &) = delete;

  Heap &heap() { return TheHeap; }
  ThreadRegistry &threads() { return Registry; }
  SyncBackend &sync() { return SyncOverride ? *SyncOverride : *Builtin; }

  /// Routes all interpreter synchronization through \p External (e.g. a
  /// workload::TracingBackend wrapping sync()) instead of the built-in
  /// backend; pass nullptr to restore.  Not owning; the override must
  /// outlive execution.  Install before spawning VM threads.
  void overrideSync(SyncBackend *External) { SyncOverride = External; }

  // --- Definition ---------------------------------------------------------

  /// Defines a class with the given fields (slots assigned in order).
  Klass &defineClass(std::string Name, std::vector<FieldInfo> Fields);

  /// Defines a bytecode method.  \p NumArgs includes the receiver for
  /// instance methods.
  Method &defineMethod(Klass &Owner, std::string Name, MethodTraits Traits,
                       uint16_t NumArgs, uint16_t NumLocals,
                       std::vector<Instruction> Code);

  /// Defines a native method.  \p ReturnsValue controls whether the
  /// interpreter pushes the native's result.
  Method &defineNativeMethod(Klass &Owner, std::string Name,
                             MethodTraits Traits, uint16_t NumArgs,
                             bool ReturnsValue, NativeFn Fn);

  /// \returns the method with id \p Id, or nullptr.
  const Method *methodById(uint32_t Id) const;

  /// \returns true if native method \p Id produces a value the
  /// interpreter should push.  Bytecode methods signal this through
  /// their return opcode instead.
  bool nativeReturnsValue(uint32_t Id) const;

  /// \returns the class named \p Name, or nullptr.
  Klass *findClass(const std::string &Name);

  /// \returns the Klass for a heap object (objects are only created via
  /// newInstance, so this always succeeds).
  Klass *klassForObject(const Object *Obj) const;

  /// \returns the Klass whose heap class index is \p HeapIndex, or
  /// nullptr if out of range.
  Klass *klassAtHeapIndex(uint32_t HeapIndex) const;

  // --- Execution ------------------------------------------------------------

  /// Allocates an instance of \p K.
  Object *newInstance(const Klass &K);

  /// Runs \p M with \p Args on the calling thread, which must be
  /// attached as \p Thread.
  RunResult call(const Method &M, std::span<const Value> Args,
                 const ThreadContext &Thread);

  /// Runs \p M on a fresh OS thread (attached to this VM's registry).
  /// Join the returned handle to collect the result.
  class VMThread {
    friend class VM;
    std::thread Worker;
    std::unique_ptr<RunResult> Slot;

  public:
    VMThread() = default;
    VMThread(VMThread &&) = default;
    VMThread &operator=(VMThread &&) = default;

    /// Blocks until the thread finishes; \returns its result.
    RunResult join();
  };

  VMThread spawn(const Method &M, std::vector<Value> Args,
                 std::string ThreadName = std::string());

private:
  // `ReturnsValue` lives beside Method in a parallel flag array because
  // only natives need it (bytecode methods decide via their return op).
  struct MethodRecord {
    std::unique_ptr<Method> M;
    bool ReturnsValue = false;
  };
  friend class Interpreter;

  Heap TheHeap;
  ThreadRegistry Registry;
  std::unique_ptr<ProtocolHandle> Handle;
  /// Handle->sync(), cached so an interpreted monitor op is one virtual
  /// call.
  SyncBackend *Builtin = nullptr;
  SyncBackend *SyncOverride = nullptr;

  mutable std::mutex DefMutex;
  std::vector<std::unique_ptr<Klass>> Klasses;
  std::vector<MethodRecord> Methods;
  /// Heap class index -> Klass* (dense; all classes go through
  /// defineClass).
  std::vector<Klass *> KlassByHeapIndex;
};

} // namespace vm
} // namespace thinlocks

#endif // THINLOCKS_VM_VM_H
