//===- vm/Interpreter.cpp - microjvm bytecode interpreter -----------------===//

#include "vm/Interpreter.h"

#include "vm/Klass.h"

#include <cassert>

using namespace thinlocks;
using namespace thinlocks::vm;

Interpreter::Interpreter(VM &Vm, const ThreadContext &Thread,
                         size_t MaxFrames)
    : Vm(Vm), Thread(Thread), MaxFrames(MaxFrames) {
  Frames.reserve(16);
  Locals.reserve(64);
  Stack.reserve(64);
}

bool Interpreter::push(Value V) {
  Stack.push_back(V);
  return true;
}

bool Interpreter::pop(Value &V) {
  if (Frames.empty() || Stack.size() <= Frames.back().StackBase)
    return false;
  V = Stack.back();
  Stack.pop_back();
  return true;
}

bool Interpreter::popInt(int32_t &V) {
  Value Tmp;
  if (!pop(Tmp) || !Tmp.isInt())
    return false;
  V = Tmp.asInt();
  return true;
}

bool Interpreter::popRef(Object *&V) {
  Value Tmp;
  if (!pop(Tmp) || !Tmp.isRef())
    return false;
  V = Tmp.asRef();
  return true;
}

Trap Interpreter::pushFrame(const Method &M, std::span<const Value> Args) {
  assert(!M.Traits.IsNative && "native methods have no frames");
  if (Frames.size() >= MaxFrames)
    return Trap::StackOverflow;
  if (Args.size() != M.NumArgs)
    return Trap::BadBytecode;

  Object *SyncObject = nullptr;
  if (M.Traits.IsSynchronized) {
    if (M.Traits.IsStatic) {
      SyncObject = M.Owner->classObject();
    } else {
      if (Args.empty() || !Args[0].isRef() || !Args[0].asRef())
        return Trap::NullPointer;
      SyncObject = Args[0].asRef();
    }
    Vm.sync().lock(SyncObject, Thread);
  }

  Frame F;
  F.M = &M;
  F.Pc = 0;
  F.LocalsBase = Locals.size();
  F.SyncObject = SyncObject;
  Locals.resize(F.LocalsBase + M.NumLocals);
  for (size_t I = 0; I < Args.size(); ++I)
    Locals[F.LocalsBase + I] = Args[I];
  F.StackBase = Stack.size();
  F.MonitorsBase = Monitors.size();
  Frames.push_back(F);
  return Trap::None;
}

RunResult Interpreter::unwindWith(Trap T) {
  // Release every monitor held by unwound frames, mirroring the JVM's
  // implicit exception handlers around synchronized blocks and methods.
  for (size_t I = Frames.size(); I-- > 0;) {
    Frame &F = Frames[I];
    for (; Monitors.size() > F.MonitorsBase; Monitors.pop_back())
      (void)Vm.sync().unlockChecked(Monitors.back(), Thread);
    if (F.SyncObject)
      (void)Vm.sync().unlockChecked(F.SyncObject, Thread);
  }
  Frames.clear();
  Locals.clear();
  Stack.clear();
  RunResult Result;
  Result.TrapKind = T;
  return Result;
}

RunResult Interpreter::run(const Method &M, std::span<const Value> Args) {
  assert(Thread.isValid() && "interpreting with an unattached thread");

  // Top-level native invocation (used by tests; Invoke handles the
  // common nested case with the same sequence).
  if (M.Traits.IsNative) {
    RunResult Result;
    Object *Sync = nullptr;
    if (M.Traits.IsSynchronized) {
      if (M.Traits.IsStatic) {
        Sync = M.Owner->classObject();
      } else if (Args.empty() || !Args[0].isRef() || !Args[0].asRef()) {
        Result.TrapKind = Trap::NullPointer;
        return Result;
      } else {
        Sync = Args[0].asRef();
      }
      Vm.sync().lock(Sync, Thread);
    }
    std::vector<Value> ArgCopy(Args.begin(), Args.end());
    Result.TrapKind = M.Native(Vm, Thread, ArgCopy, Result.Result);
    if (Sync && !Vm.sync().unlockChecked(Sync, Thread) &&
        Result.TrapKind == Trap::None)
      Result.TrapKind = Trap::IllegalMonitorState;
    return Result;
  }

  if (Trap T = pushFrame(M, Args); T != Trap::None)
    return unwindWith(T);

  for (;;) {
    Frame &F = Frames.back();
    if (F.Pc >= F.M->Code.size())
      return unwindWith(Trap::BadBytecode); // Fell off the end.
    const Instruction Inst = F.M->Code[F.Pc++];
    ++InstructionCount;

    switch (Inst.Op) {
    case Opcode::Nop:
      break;

    case Opcode::Iconst:
      push(Value::makeInt(Inst.A));
      break;

    case Opcode::AconstNull:
      push(Value::null());
      break;

    case Opcode::Iload:
    case Opcode::Aload: {
      if (Inst.A < 0 || Inst.A >= F.M->NumLocals)
        return unwindWith(Trap::BadBytecode);
      Value V = Locals[F.LocalsBase + Inst.A];
      bool WantInt = Inst.Op == Opcode::Iload;
      if (V.isInt() != WantInt)
        return unwindWith(Trap::BadBytecode);
      push(V);
      break;
    }

    case Opcode::Istore:
    case Opcode::Astore: {
      if (Inst.A < 0 || Inst.A >= F.M->NumLocals)
        return unwindWith(Trap::BadBytecode);
      Value V;
      if (!pop(V))
        return unwindWith(Trap::BadBytecode);
      bool WantInt = Inst.Op == Opcode::Istore;
      if (V.isInt() != WantInt)
        return unwindWith(Trap::BadBytecode);
      Locals[F.LocalsBase + Inst.A] = V;
      break;
    }

    case Opcode::Iinc: {
      if (Inst.A < 0 || Inst.A >= F.M->NumLocals)
        return unwindWith(Trap::BadBytecode);
      Value &Slot = Locals[F.LocalsBase + Inst.A];
      if (!Slot.isInt())
        return unwindWith(Trap::BadBytecode);
      Slot = Value::makeInt(Slot.asInt() + Inst.B);
      break;
    }

    case Opcode::Iadd:
    case Opcode::Isub:
    case Opcode::Imul:
    case Opcode::Idiv:
    case Opcode::Irem: {
      int32_t B, A;
      if (!popInt(B) || !popInt(A))
        return unwindWith(Trap::BadBytecode);
      int32_t R = 0;
      switch (Inst.Op) {
      case Opcode::Iadd:
        R = static_cast<int32_t>(static_cast<uint32_t>(A) +
                                 static_cast<uint32_t>(B));
        break;
      case Opcode::Isub:
        R = static_cast<int32_t>(static_cast<uint32_t>(A) -
                                 static_cast<uint32_t>(B));
        break;
      case Opcode::Imul:
        R = static_cast<int32_t>(static_cast<uint32_t>(A) *
                                 static_cast<uint32_t>(B));
        break;
      case Opcode::Idiv:
        if (B == 0)
          return unwindWith(Trap::DivideByZero);
        R = (A == INT32_MIN && B == -1) ? INT32_MIN : A / B;
        break;
      case Opcode::Irem:
        if (B == 0)
          return unwindWith(Trap::DivideByZero);
        R = (A == INT32_MIN && B == -1) ? 0 : A % B;
        break;
      default:
        tlUnreachable("arith dispatch");
      }
      push(Value::makeInt(R));
      break;
    }

    case Opcode::Ineg: {
      int32_t A;
      if (!popInt(A))
        return unwindWith(Trap::BadBytecode);
      push(Value::makeInt(static_cast<int32_t>(-static_cast<uint32_t>(A))));
      break;
    }

    case Opcode::Dup: {
      Value V;
      if (!pop(V))
        return unwindWith(Trap::BadBytecode);
      push(V);
      push(V);
      break;
    }

    case Opcode::Pop: {
      Value V;
      if (!pop(V))
        return unwindWith(Trap::BadBytecode);
      break;
    }

    case Opcode::Swap: {
      Value B, A;
      if (!pop(B) || !pop(A))
        return unwindWith(Trap::BadBytecode);
      push(B);
      push(A);
      break;
    }

    case Opcode::Goto:
      F.Pc = static_cast<uint32_t>(Inst.A);
      break;

    case Opcode::IfIcmpLt:
    case Opcode::IfIcmpGe: {
      int32_t B, A;
      if (!popInt(B) || !popInt(A))
        return unwindWith(Trap::BadBytecode);
      bool Taken = (Inst.Op == Opcode::IfIcmpLt) ? (A < B) : (A >= B);
      if (Taken)
        F.Pc = static_cast<uint32_t>(Inst.A);
      break;
    }

    case Opcode::Ifeq:
    case Opcode::Ifne: {
      int32_t A;
      if (!popInt(A))
        return unwindWith(Trap::BadBytecode);
      bool Taken = (Inst.Op == Opcode::Ifeq) ? (A == 0) : (A != 0);
      if (Taken)
        F.Pc = static_cast<uint32_t>(Inst.A);
      break;
    }

    case Opcode::IfNull: {
      Object *Ref;
      if (!popRef(Ref))
        return unwindWith(Trap::BadBytecode);
      if (!Ref)
        F.Pc = static_cast<uint32_t>(Inst.A);
      break;
    }

    case Opcode::New: {
      Klass *K = Vm.klassAtHeapIndex(static_cast<uint32_t>(Inst.A));
      if (!K)
        return unwindWith(Trap::BadBytecode);
      push(Value::makeRef(Vm.newInstance(*K)));
      break;
    }

    case Opcode::GetField: {
      Object *Ref;
      if (!popRef(Ref))
        return unwindWith(Trap::BadBytecode);
      if (!Ref)
        return unwindWith(Trap::NullPointer);
      Klass *K = Vm.klassForObject(Ref);
      if (Inst.A < 0 ||
          static_cast<size_t>(Inst.A) >= K->fields().size())
        return unwindWith(Trap::BadBytecode);
      uint32_t Slot = static_cast<uint32_t>(Inst.A);
      push(Value::decode(Ref->slot(Slot), K->fieldKind(Slot)));
      break;
    }

    case Opcode::PutField: {
      Value V;
      Object *Ref;
      if (!pop(V) || !popRef(Ref))
        return unwindWith(Trap::BadBytecode);
      if (!Ref)
        return unwindWith(Trap::NullPointer);
      Klass *K = Vm.klassForObject(Ref);
      if (Inst.A < 0 ||
          static_cast<size_t>(Inst.A) >= K->fields().size())
        return unwindWith(Trap::BadBytecode);
      uint32_t Slot = static_cast<uint32_t>(Inst.A);
      ValueKind Kind = K->fieldKind(Slot);
      if (V.isInt() != (Kind == ValueKind::Int))
        return unwindWith(Trap::BadBytecode);
      Ref->setSlot(Slot, V.encode(Kind));
      break;
    }

    case Opcode::MonitorEnter: {
      Object *Ref;
      if (!popRef(Ref))
        return unwindWith(Trap::BadBytecode);
      if (!Ref)
        return unwindWith(Trap::NullPointer);
      Vm.sync().lock(Ref, Thread);
      Monitors.push_back(Ref);
      break;
    }

    case Opcode::MonitorExit: {
      Object *Ref;
      if (!popRef(Ref))
        return unwindWith(Trap::BadBytecode);
      if (!Ref)
        return unwindWith(Trap::NullPointer);
      // Find this frame's innermost entry of Ref; exits need not nest.
      size_t Entry = Monitors.size();
      while (Entry > F.MonitorsBase && Monitors[Entry - 1] != Ref)
        --Entry;
      if (Entry == F.MonitorsBase)
        return unwindWith(Trap::IllegalMonitorState);
      Monitors.erase(Monitors.begin() + (Entry - 1));
      if (!Vm.sync().unlockChecked(Ref, Thread))
        return unwindWith(Trap::IllegalMonitorState);
      break;
    }

    case Opcode::Invoke: {
      const Method *Callee = Vm.methodById(static_cast<uint32_t>(Inst.A));
      if (!Callee)
        return unwindWith(Trap::UnknownMethod);
      if (Stack.size() - F.StackBase < Callee->NumArgs)
        return unwindWith(Trap::BadBytecode);
      std::span<Value> CallArgs(Stack.data() + Stack.size() -
                                    Callee->NumArgs,
                                Callee->NumArgs);

      if (Callee->Traits.IsNative) {
        Object *Sync = nullptr;
        if (Callee->Traits.IsSynchronized) {
          if (Callee->Traits.IsStatic) {
            Sync = Callee->Owner->classObject();
          } else if (!CallArgs[0].isRef() || !CallArgs[0].asRef()) {
            return unwindWith(Trap::NullPointer);
          } else {
            Sync = CallArgs[0].asRef();
          }
          Vm.sync().lock(Sync, Thread);
        }
        Value Result;
        Trap T = Callee->Native(Vm, Thread, CallArgs, Result);
        if (Sync && !Vm.sync().unlockChecked(Sync, Thread) &&
            T == Trap::None)
          T = Trap::IllegalMonitorState;
        if (T != Trap::None)
          return unwindWith(T);
        Stack.resize(Stack.size() - Callee->NumArgs);
        if (Vm.nativeReturnsValue(Callee->Id))
          push(Result);
        break;
      }

      // Bytecode callee: copy args into the new frame's locals, then
      // pop them.  pushFrame copies before we shrink, so the span stays
      // valid.
      Trap T = pushFrame(*Callee, CallArgs);
      if (T != Trap::None)
        return unwindWith(T);
      // The new frame's StackBase must sit below the popped arguments.
      Stack.resize(Stack.size() - Callee->NumArgs);
      Frames.back().StackBase = Stack.size();
      break;
    }

    case Opcode::Return:
    case Opcode::Ireturn:
    case Opcode::Areturn: {
      Value Result;
      bool HasResult = Inst.Op != Opcode::Return;
      if (HasResult) {
        if (!pop(Result))
          return unwindWith(Trap::BadBytecode);
        bool WantInt = Inst.Op == Opcode::Ireturn;
        if (Result.isInt() != WantInt)
          return unwindWith(Trap::BadBytecode);
      }
      Frame Finished = Frames.back();
      if (Monitors.size() > Finished.MonitorsBase)
        return unwindWith(Trap::IllegalMonitorState);
      if (Finished.SyncObject &&
          !Vm.sync().unlockChecked(Finished.SyncObject, Thread))
        return unwindWith(Trap::IllegalMonitorState);
      Stack.resize(Finished.StackBase);
      Locals.resize(Finished.LocalsBase);
      Frames.pop_back();
      if (Frames.empty()) {
        RunResult Done;
        Done.Result = Result;
        return Done;
      }
      if (HasResult)
        push(Result);
      break;
    }
    }
  }
}
