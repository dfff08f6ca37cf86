//===- vm/Assembler.h - Fluent bytecode builder ----------------*- C++ -*-===//
///
/// \file
/// A small assembler for microjvm methods: fluent emission with forward
/// label references and a structured helper for synchronized() blocks.
/// The micro-benchmarks of paper Table 2 are written with this builder
/// (see workload/MicroBench.cpp), so the bytecode shape — loop around a
/// monitorenter/monitorexit pair around an integer increment — matches
/// what javac produced for the paper's Java sources.
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_VM_ASSEMBLER_H
#define THINLOCKS_VM_ASSEMBLER_H

#include "vm/Bytecode.h"

#include <cstdint>
#include <functional>
#include <vector>

namespace thinlocks {
namespace vm {

/// Builds an instruction vector with label resolution.
class Assembler {
public:
  /// Opaque label handle.
  class Label {
    friend class Assembler;
    int32_t Id = -1;

  public:
    Label() = default;
  };

  Assembler() = default;

  /// Creates an unbound label usable as a jump target before binding.
  Label newLabel();

  /// Binds \p L to the next emitted instruction's index.
  Assembler &bind(Label L);

  // --- Straight-line instructions ---------------------------------------
  Assembler &nop();
  Assembler &iconst(int32_t Value);
  Assembler &aconstNull();
  Assembler &iload(int32_t Local);
  Assembler &istore(int32_t Local);
  Assembler &aload(int32_t Local);
  Assembler &astore(int32_t Local);
  Assembler &iinc(int32_t Local, int32_t Delta);
  Assembler &iadd();
  Assembler &isub();
  Assembler &imul();
  Assembler &idiv();
  Assembler &irem();
  Assembler &ineg();
  Assembler &dup();
  Assembler &pop();
  Assembler &swap();
  Assembler &newObject(int32_t ClassIndex);
  Assembler &getField(int32_t Slot);
  Assembler &putField(int32_t Slot);
  Assembler &monitorEnter();
  Assembler &monitorExit();
  Assembler &invoke(uint32_t MethodId);
  Assembler &ret();
  Assembler &iret();
  Assembler &aret();

  // --- Branches ----------------------------------------------------------
  Assembler &jmp(Label Target);
  Assembler &ifIcmpLt(Label Target);
  Assembler &ifIcmpGe(Label Target);
  Assembler &ifeq(Label Target);
  Assembler &ifne(Label Target);
  Assembler &ifNull(Label Target);

  // --- Structured helpers --------------------------------------------------

  /// Emits a `synchronized (locals[RefLocal]) { Body }` region: aload +
  /// monitorenter, the body, aload + monitorexit.  (The microjvm has no
  /// exception handlers: a trap unwinds the whole activation, and the
  /// interpreter's unwind releases the monitor that javac's handler
  /// would.)
  Assembler &synchronizedOn(int32_t RefLocal,
                            const std::function<void(Assembler &)> &Body);

  /// Emits `for (locals[CounterLocal] = 0; counter < locals[LimitLocal];
  /// ++counter) { Body }`.
  Assembler &countedLoop(int32_t CounterLocal, int32_t LimitLocal,
                         const std::function<void(Assembler &)> &Body);

  /// Resolves all label references and \returns the finished code.
  /// Asserts that every referenced label was bound.
  std::vector<Instruction> finish();

  /// \returns the index the next instruction will occupy.
  size_t nextIndex() const { return Code.size(); }

private:
  Assembler &emit(Opcode Op, int32_t A = 0, int32_t B = 0);
  Assembler &emitBranch(Opcode Op, Label Target);

  struct LabelState {
    int32_t Target = -1;
    std::vector<size_t> Fixups;
  };

  std::vector<Instruction> Code;
  std::vector<LabelState> Labels;
  bool Finished = false;
};

} // namespace vm
} // namespace thinlocks

#endif // THINLOCKS_VM_ASSEMBLER_H
