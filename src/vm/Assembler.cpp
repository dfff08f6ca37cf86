//===- vm/Assembler.cpp - Fluent bytecode builder -------------------------===//

#include "vm/Assembler.h"

#include <cassert>

using namespace thinlocks;
using namespace thinlocks::vm;

Assembler::Label Assembler::newLabel() {
  Label L;
  L.Id = static_cast<int32_t>(Labels.size());
  Labels.emplace_back();
  return L;
}

Assembler &Assembler::bind(Label L) {
  assert(L.Id >= 0 && static_cast<size_t>(L.Id) < Labels.size() &&
         "binding an unknown label");
  LabelState &State = Labels[L.Id];
  assert(State.Target < 0 && "label bound twice");
  State.Target = static_cast<int32_t>(Code.size());
  return *this;
}

Assembler &Assembler::emit(Opcode Op, int32_t A, int32_t B) {
  assert(!Finished && "emitting into a finished assembler");
  Code.push_back(Instruction{Op, A, B});
  return *this;
}

Assembler &Assembler::emitBranch(Opcode Op, Label Target) {
  assert(Target.Id >= 0 && static_cast<size_t>(Target.Id) < Labels.size() &&
         "branch to an unknown label");
  size_t Index = Code.size();
  emit(Op, /*A=*/-1);
  Labels[Target.Id].Fixups.push_back(Index);
  return *this;
}

Assembler &Assembler::nop() { return emit(Opcode::Nop); }
Assembler &Assembler::iconst(int32_t Value) {
  return emit(Opcode::Iconst, Value);
}
Assembler &Assembler::aconstNull() { return emit(Opcode::AconstNull); }
Assembler &Assembler::iload(int32_t Local) {
  return emit(Opcode::Iload, Local);
}
Assembler &Assembler::istore(int32_t Local) {
  return emit(Opcode::Istore, Local);
}
Assembler &Assembler::aload(int32_t Local) {
  return emit(Opcode::Aload, Local);
}
Assembler &Assembler::astore(int32_t Local) {
  return emit(Opcode::Astore, Local);
}
Assembler &Assembler::iinc(int32_t Local, int32_t Delta) {
  return emit(Opcode::Iinc, Local, Delta);
}
Assembler &Assembler::iadd() { return emit(Opcode::Iadd); }
Assembler &Assembler::isub() { return emit(Opcode::Isub); }
Assembler &Assembler::imul() { return emit(Opcode::Imul); }
Assembler &Assembler::idiv() { return emit(Opcode::Idiv); }
Assembler &Assembler::irem() { return emit(Opcode::Irem); }
Assembler &Assembler::ineg() { return emit(Opcode::Ineg); }
Assembler &Assembler::dup() { return emit(Opcode::Dup); }
Assembler &Assembler::pop() { return emit(Opcode::Pop); }
Assembler &Assembler::swap() { return emit(Opcode::Swap); }
Assembler &Assembler::newObject(int32_t ClassIndex) {
  return emit(Opcode::New, ClassIndex);
}
Assembler &Assembler::getField(int32_t Slot) {
  return emit(Opcode::GetField, Slot);
}
Assembler &Assembler::putField(int32_t Slot) {
  return emit(Opcode::PutField, Slot);
}
Assembler &Assembler::monitorEnter() { return emit(Opcode::MonitorEnter); }
Assembler &Assembler::monitorExit() { return emit(Opcode::MonitorExit); }
Assembler &Assembler::invoke(uint32_t MethodId) {
  return emit(Opcode::Invoke, static_cast<int32_t>(MethodId));
}
Assembler &Assembler::ret() { return emit(Opcode::Return); }
Assembler &Assembler::iret() { return emit(Opcode::Ireturn); }
Assembler &Assembler::aret() { return emit(Opcode::Areturn); }

Assembler &Assembler::jmp(Label Target) {
  return emitBranch(Opcode::Goto, Target);
}
Assembler &Assembler::ifIcmpLt(Label Target) {
  return emitBranch(Opcode::IfIcmpLt, Target);
}
Assembler &Assembler::ifIcmpGe(Label Target) {
  return emitBranch(Opcode::IfIcmpGe, Target);
}
Assembler &Assembler::ifeq(Label Target) {
  return emitBranch(Opcode::Ifeq, Target);
}
Assembler &Assembler::ifne(Label Target) {
  return emitBranch(Opcode::Ifne, Target);
}
Assembler &Assembler::ifNull(Label Target) {
  return emitBranch(Opcode::IfNull, Target);
}

Assembler &
Assembler::synchronizedOn(int32_t RefLocal,
                          const std::function<void(Assembler &)> &Body) {
  aload(RefLocal);
  monitorEnter();
  Body(*this);
  aload(RefLocal);
  monitorExit();
  return *this;
}

Assembler &
Assembler::countedLoop(int32_t CounterLocal, int32_t LimitLocal,
                       const std::function<void(Assembler &)> &Body) {
  Label Head = newLabel();
  Label Done = newLabel();
  iconst(0);
  istore(CounterLocal);
  bind(Head);
  iload(CounterLocal);
  iload(LimitLocal);
  ifIcmpGe(Done);
  Body(*this);
  iinc(CounterLocal, 1);
  jmp(Head);
  bind(Done);
  return *this;
}

std::vector<Instruction> Assembler::finish() {
  assert(!Finished && "finish() called twice");
  for (const LabelState &State : Labels) {
    if (State.Fixups.empty())
      continue;
    assert(State.Target >= 0 && "branch to an unbound label");
    for (size_t Fixup : State.Fixups)
      Code[Fixup].A = State.Target;
  }
  Finished = true;
  return std::move(Code);
}
