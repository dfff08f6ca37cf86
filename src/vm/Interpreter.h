//===- vm/Interpreter.h - microjvm bytecode interpreter --------*- C++ -*-===//
///
/// \file
/// A switch-dispatch bytecode interpreter with an explicit frame stack.
/// monitorenter/monitorexit and synchronized-method entry/exit route
/// through the VM's pluggable SyncBackend, so the exact same bytecode
/// measures the ThinLock, JDK111, and IBM112 protocols — matching the
/// paper's methodology of swapping the locking implementation underneath
/// an otherwise identical interpreted JDK.
///
/// The interpreter is the microjvm's only bytecode check, made on the path
/// a program takes.  It traps BadBytecode for stack underflow, int/ref
/// confusion, out-of-range locals, branch targets and class ids, empty
/// code and falling off the end; UnknownMethod for an unknown method id;
/// and IllegalMonitorState for a break of structured locking (JVM spec
/// §2.11.10), on which the thin-lock owner discipline rests: a frame exits
/// every monitor it enters, by monitorexit before it returns or by the
/// trap unwind.  Unlike a JVM verifier, it does not bound the operand
/// stack or require equal stack depths where paths merge.
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_VM_INTERPRETER_H
#define THINLOCKS_VM_INTERPRETER_H

#include "threads/ThreadContext.h"
#include "vm/Method.h"
#include "vm/VM.h"
#include "vm/Value.h"

#include <cstdint>
#include <span>
#include <vector>

namespace thinlocks {
namespace vm {

/// One interpreter activation.  Cheap to construct; VM::call makes one
/// per top-level invocation.
class Interpreter {
public:
  /// \param MaxFrames call-depth limit (StackOverflow trap beyond it).
  Interpreter(VM &Vm, const ThreadContext &Thread, size_t MaxFrames = 2048);

  Interpreter(const Interpreter &) = delete;
  Interpreter &operator=(const Interpreter &) = delete;

  /// Executes \p M with \p Args to completion (return or trap).
  RunResult run(const Method &M, std::span<const Value> Args);

  /// \returns total bytecodes executed by this activation (for tests and
  /// the interpretation-overhead measurements behind Figure 6's NOP row).
  uint64_t instructionsExecuted() const { return InstructionCount; }

private:
  struct Frame {
    const Method *M = nullptr;
    uint32_t Pc = 0;
    size_t LocalsBase = 0;
    size_t StackBase = 0;
    /// This frame's block monitors are Monitors[MonitorsBase, end) while
    /// it is the innermost frame.
    size_t MonitorsBase = 0;
    /// Object locked on entry for synchronized methods (null otherwise).
    Object *SyncObject = nullptr;
  };

  // Frame management.  pushFrame locks the sync object of synchronized
  // methods; the return opcodes unlock it.
  Trap pushFrame(const Method &M, std::span<const Value> Args);

  // Trap unwinding: releases, frame by frame from the innermost, the
  // frame's block monitors (innermost entry first), then its
  // synchronized-method monitor — the JVM's implicit handlers around
  // synchronized blocks and methods.
  RunResult unwindWith(Trap T);

  // Operand stack helpers (runtime-checked: the microjvm has no verifier).
  bool push(Value V);
  bool pop(Value &V);
  bool popInt(int32_t &V);
  bool popRef(Object *&V);

  VM &Vm;
  const ThreadContext &Thread;
  size_t MaxFrames;
  std::vector<Frame> Frames;
  std::vector<Value> Locals;
  std::vector<Value> Stack;
  /// The objects each frame's monitorenters locked and its monitorexits
  /// have not yet released, in entry order (one record per entry, so a
  /// re-entered object appears once per entry).  A monitorexit of an
  /// object its frame has no record of, and a return that leaves a
  /// record, trap IllegalMonitorState.
  std::vector<Object *> Monitors;
  uint64_t InstructionCount = 0;
};

} // namespace vm
} // namespace thinlocks

#endif // THINLOCKS_VM_INTERPRETER_H
