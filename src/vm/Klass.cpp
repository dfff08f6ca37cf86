//===- vm/Klass.cpp - microjvm class metadata -----------------------------===//

#include "vm/Klass.h"

#include "vm/Method.h"

#include <cassert>

using namespace thinlocks;
using namespace thinlocks::vm;

ValueKind Klass::fieldKind(uint32_t Slot) const {
  assert(Slot < Fields.size() && "field slot out of range");
  return Fields[Slot].Kind;
}

const char *vm::opcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::Nop:
    return "nop";
  case Opcode::Iconst:
    return "iconst";
  case Opcode::AconstNull:
    return "aconst_null";
  case Opcode::Iload:
    return "iload";
  case Opcode::Istore:
    return "istore";
  case Opcode::Aload:
    return "aload";
  case Opcode::Astore:
    return "astore";
  case Opcode::Iinc:
    return "iinc";
  case Opcode::Iadd:
    return "iadd";
  case Opcode::Isub:
    return "isub";
  case Opcode::Imul:
    return "imul";
  case Opcode::Idiv:
    return "idiv";
  case Opcode::Irem:
    return "irem";
  case Opcode::Ineg:
    return "ineg";
  case Opcode::Dup:
    return "dup";
  case Opcode::Pop:
    return "pop";
  case Opcode::Swap:
    return "swap";
  case Opcode::Goto:
    return "goto";
  case Opcode::IfIcmpLt:
    return "if_icmplt";
  case Opcode::IfIcmpGe:
    return "if_icmpge";
  case Opcode::Ifeq:
    return "ifeq";
  case Opcode::Ifne:
    return "ifne";
  case Opcode::IfNull:
    return "ifnull";
  case Opcode::New:
    return "new";
  case Opcode::GetField:
    return "getfield";
  case Opcode::PutField:
    return "putfield";
  case Opcode::MonitorEnter:
    return "monitorenter";
  case Opcode::MonitorExit:
    return "monitorexit";
  case Opcode::Invoke:
    return "invoke";
  case Opcode::Return:
    return "return";
  case Opcode::Ireturn:
    return "ireturn";
  case Opcode::Areturn:
    return "areturn";
  }
  return "<bad opcode>";
}

const char *vm::trapName(Trap T) {
  switch (T) {
  case Trap::None:
    return "none";
  case Trap::NullPointer:
    return "NullPointerException";
  case Trap::DivideByZero:
    return "ArithmeticException";
  case Trap::IllegalMonitorState:
    return "IllegalMonitorStateException";
  case Trap::StackOverflow:
    return "StackOverflowError";
  case Trap::UnknownMethod:
    return "NoSuchMethodError";
  case Trap::BadBytecode:
    return "VerifyError";
  case Trap::IndexOutOfBounds:
    return "IndexOutOfBoundsException";
  case Trap::ThreadExhausted:
    return "OutOfMemoryError: unable to create native thread";
  }
  return "<bad trap>";
}
