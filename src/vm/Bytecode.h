//===- vm/Bytecode.h - microjvm instruction set ----------------*- C++ -*-===//
///
/// \file
/// The instruction set of the microjvm, the bytecode interpreter substrate
/// standing in for the paper's interpreted JDK 1.1.2.  All of the paper's
/// measurements run on an interpreter, and both micro-benchmark families
/// (synchronized() blocks compiled to monitorenter/monitorexit, and calls
/// to synchronized methods) are representable directly:
///
///   Table 2's Sync      -> loop { MonitorEnter; Iinc; MonitorExit }
///   Table 2's CallSync  -> loop { Invoke <synchronized method> }
///
/// Instructions are a fixed-width (opcode, A, B) triple; jump targets are
/// absolute instruction indices resolved by the Assembler.
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_VM_BYTECODE_H
#define THINLOCKS_VM_BYTECODE_H

#include <cstdint>

namespace thinlocks {
namespace vm {

/// microjvm opcodes.  Stack effects are noted as [before] -> [after].
enum class Opcode : uint8_t {
  Nop,        ///< [] -> []
  Iconst,     ///< [] -> [A]
  AconstNull, ///< [] -> [null]
  Iload,      ///< [] -> [locals[A]]         (int local)
  Istore,     ///< [v] -> []                 (locals[A] = v)
  Aload,      ///< [] -> [locals[A]]         (ref local)
  Astore,     ///< [r] -> []                 (locals[A] = r)
  Iinc,       ///< [] -> []                  (locals[A] += B)
  Iadd,       ///< [a b] -> [a+b]
  Isub,       ///< [a b] -> [a-b]
  Imul,       ///< [a b] -> [a*b]
  Idiv,       ///< [a b] -> [a/b]            (traps on b == 0)
  Irem,       ///< [a b] -> [a%b]            (traps on b == 0)
  Ineg,       ///< [a] -> [-a]
  Dup,        ///< [v] -> [v v]
  Pop,        ///< [v] -> []
  Swap,       ///< [a b] -> [b a]
  Goto,       ///< [] -> []                  (pc = A)
  IfIcmpLt,   ///< [a b] -> []               (pc = A if a < b)
  IfIcmpGe,   ///< [a b] -> []               (pc = A if a >= b)
  Ifeq,       ///< [a] -> []                 (pc = A if a == 0)
  Ifne,       ///< [a] -> []                 (pc = A if a != 0)
  IfNull,     ///< [r] -> []                 (pc = A if r == null)
  New,        ///< [] -> [ref]               (instance of class id A)
  GetField,   ///< [r] -> [r.field[A]]
  PutField,   ///< [r v] -> []               (r.field[A] = v)
  MonitorEnter, ///< [r] -> []               (lock r; traps on null)
  MonitorExit,  ///< [r] -> []               (unlock r; traps if not owner)
  Invoke,     ///< [args...] -> [result?]    (call method id A)
  Return,     ///< [] -> caller              (void return)
  Ireturn,    ///< [v] -> caller             (int return)
  Areturn,    ///< [r] -> caller             (ref return)
};

/// \returns a printable mnemonic for \p Op.
const char *opcodeName(Opcode Op);

/// One fixed-width instruction.
struct Instruction {
  Opcode Op = Opcode::Nop;
  int32_t A = 0;
  int32_t B = 0;
};

} // namespace vm
} // namespace thinlocks

#endif // THINLOCKS_VM_BYTECODE_H
