//===- vm/Verifier.cpp - Static bytecode verification ---------------------===//

#include "vm/Verifier.h"

#include "vm/VM.h"

#include <cassert>
#include <deque>
#include <vector>

using namespace thinlocks;
using namespace thinlocks::vm;

namespace {

/// Three-point type lattice.  Unknown = "statically untracked" (method
/// arguments, field loads, mixed merges); uses of Unknown values remain
/// dynamically checked by the interpreter.
enum class AbstractType : uint8_t { Unknown, Int, Ref };

bool intCompatible(AbstractType T) { return T != AbstractType::Ref; }
bool refCompatible(AbstractType T) { return T != AbstractType::Int; }

AbstractType mergeTypes(AbstractType A, AbstractType B) {
  return A == B ? A : AbstractType::Unknown;
}

/// Abstract machine state at one program point.
struct AbsState {
  std::vector<AbstractType> Locals;
  std::vector<AbstractType> Stack;
  uint32_t MonitorDepth = 0;
  bool Reached = false;
};

/// What a callee does to the caller's stack.
struct CalleeEffect {
  bool PushesValue = false;
  AbstractType ValueType = AbstractType::Unknown;
  bool Inconsistent = false; // Mixes void and value returns.
};

CalleeEffect calleeEffect(const VM &Vm, const Method &Callee) {
  CalleeEffect Effect;
  if (Callee.Traits.IsNative) {
    Effect.PushesValue = Vm.nativeReturnsValue(Callee.Id);
    return Effect;
  }
  bool HasVoid = false, HasInt = false, HasRef = false;
  for (const Instruction &I : Callee.Code) {
    if (I.Op == Opcode::Return)
      HasVoid = true;
    else if (I.Op == Opcode::Ireturn)
      HasInt = true;
    else if (I.Op == Opcode::Areturn)
      HasRef = true;
  }
  Effect.PushesValue = HasInt || HasRef;
  Effect.Inconsistent = HasVoid && Effect.PushesValue;
  if (HasInt && !HasRef)
    Effect.ValueType = AbstractType::Int;
  else if (HasRef && !HasInt)
    Effect.ValueType = AbstractType::Ref;
  return Effect;
}

/// The per-method dataflow engine.
class MethodVerifier {
  const VM &Vm;
  const Method &M;
  uint32_t MaxStackDepth;
  std::vector<AbsState> InStates;
  std::deque<uint32_t> Worklist;
  std::optional<VerifyError> Error;

public:
  MethodVerifier(const VM &Vm, const Method &M, uint32_t MaxStackDepth)
      : Vm(Vm), M(M), MaxStackDepth(MaxStackDepth) {}

  std::optional<VerifyError> run() {
    if (M.Code.empty())
      return VerifyError{0, "method has no code"};

    InStates.resize(M.Code.size());
    AbsState Entry;
    Entry.Locals.assign(M.NumLocals, AbstractType::Unknown);
    Entry.Reached = true;
    InStates[0] = Entry;
    Worklist.push_back(0);

    while (!Worklist.empty() && !Error) {
      uint32_t Pc = Worklist.front();
      Worklist.pop_front();
      step(Pc);
    }
    return Error;
  }

private:
  void fail(uint32_t Pc, std::string Message) {
    if (!Error)
      Error = VerifyError{Pc, std::move(Message)};
  }

  bool pop(AbsState &S, uint32_t Pc, AbstractType &Out) {
    if (S.Stack.empty()) {
      fail(Pc, "operand stack underflow");
      return false;
    }
    Out = S.Stack.back();
    S.Stack.pop_back();
    return true;
  }

  bool popInt(AbsState &S, uint32_t Pc) {
    AbstractType T;
    if (!pop(S, Pc, T))
      return false;
    if (!intCompatible(T)) {
      fail(Pc, "expected an int on the stack, found a reference");
      return false;
    }
    return true;
  }

  bool popRef(AbsState &S, uint32_t Pc) {
    AbstractType T;
    if (!pop(S, Pc, T))
      return false;
    if (!refCompatible(T)) {
      fail(Pc, "expected a reference on the stack, found an int");
      return false;
    }
    return true;
  }

  bool push(AbsState &S, uint32_t Pc, AbstractType T) {
    if (S.Stack.size() >= MaxStackDepth) {
      fail(Pc, "operand stack exceeds the verifier's depth bound");
      return false;
    }
    S.Stack.push_back(T);
    return true;
  }

  bool checkLocal(uint32_t Pc, int32_t Index) {
    if (Index < 0 || Index >= M.NumLocals) {
      fail(Pc, "local variable index out of range");
      return false;
    }
    return true;
  }

  /// Flows \p S into \p Target, merging and re-enqueueing on change.
  void flowTo(uint32_t Pc, int32_t Target, const AbsState &S) {
    if (Target < 0 || static_cast<size_t>(Target) >= M.Code.size()) {
      fail(Pc, "branch target out of range");
      return;
    }
    AbsState &In = InStates[Target];
    if (!In.Reached) {
      In = S;
      In.Reached = true;
      Worklist.push_back(Target);
      return;
    }
    if (In.Stack.size() != S.Stack.size()) {
      fail(Pc, "inconsistent operand stack depth at merge point");
      return;
    }
    if (In.MonitorDepth != S.MonitorDepth) {
      fail(Pc, "inconsistent monitor nesting depth at merge point "
               "(unstructured locking)");
      return;
    }
    bool Changed = false;
    for (size_t I = 0; I < In.Stack.size(); ++I) {
      AbstractType Merged = mergeTypes(In.Stack[I], S.Stack[I]);
      if (Merged != In.Stack[I]) {
        In.Stack[I] = Merged;
        Changed = true;
      }
    }
    for (size_t I = 0; I < In.Locals.size(); ++I) {
      AbstractType Merged = mergeTypes(In.Locals[I], S.Locals[I]);
      if (Merged != In.Locals[I]) {
        In.Locals[I] = Merged;
        Changed = true;
      }
    }
    if (Changed)
      Worklist.push_back(Target);
  }

  void fallThrough(uint32_t Pc, const AbsState &S) {
    if (Pc + 1 >= M.Code.size()) {
      fail(Pc, "control flow falls off the end of the code");
      return;
    }
    flowTo(Pc, static_cast<int32_t>(Pc + 1), S);
  }

  void checkReturn(uint32_t Pc, const AbsState &S) {
    if (S.MonitorDepth != 0)
      fail(Pc, "return while still holding a block-structured monitor");
  }

  void step(uint32_t Pc) {
    AbsState S = InStates[Pc]; // Work on a copy.
    const Instruction &I = M.Code[Pc];

    switch (I.Op) {
    case Opcode::Nop:
    case Opcode::Yield:
      fallThrough(Pc, S);
      break;

    case Opcode::Iconst:
      if (push(S, Pc, AbstractType::Int))
        fallThrough(Pc, S);
      break;

    case Opcode::AconstNull:
      if (push(S, Pc, AbstractType::Ref))
        fallThrough(Pc, S);
      break;

    case Opcode::Iload:
      if (!checkLocal(Pc, I.A))
        break;
      if (!intCompatible(S.Locals[I.A])) {
        fail(Pc, "iload of a reference-typed local");
        break;
      }
      S.Locals[I.A] = AbstractType::Int;
      if (push(S, Pc, AbstractType::Int))
        fallThrough(Pc, S);
      break;

    case Opcode::Aload:
      if (!checkLocal(Pc, I.A))
        break;
      if (!refCompatible(S.Locals[I.A])) {
        fail(Pc, "aload of an int-typed local");
        break;
      }
      S.Locals[I.A] = AbstractType::Ref;
      if (push(S, Pc, AbstractType::Ref))
        fallThrough(Pc, S);
      break;

    case Opcode::Istore:
      if (!checkLocal(Pc, I.A) || !popInt(S, Pc))
        break;
      S.Locals[I.A] = AbstractType::Int;
      fallThrough(Pc, S);
      break;

    case Opcode::Astore:
      if (!checkLocal(Pc, I.A) || !popRef(S, Pc))
        break;
      S.Locals[I.A] = AbstractType::Ref;
      fallThrough(Pc, S);
      break;

    case Opcode::Iinc:
      if (!checkLocal(Pc, I.A))
        break;
      if (!intCompatible(S.Locals[I.A])) {
        fail(Pc, "iinc of a reference-typed local");
        break;
      }
      S.Locals[I.A] = AbstractType::Int;
      fallThrough(Pc, S);
      break;

    case Opcode::Iadd:
    case Opcode::Isub:
    case Opcode::Imul:
    case Opcode::Idiv:
    case Opcode::Irem:
      if (!popInt(S, Pc) || !popInt(S, Pc))
        break;
      if (push(S, Pc, AbstractType::Int))
        fallThrough(Pc, S);
      break;

    case Opcode::Ineg:
      if (!popInt(S, Pc))
        break;
      if (push(S, Pc, AbstractType::Int))
        fallThrough(Pc, S);
      break;

    case Opcode::Dup: {
      AbstractType T{};
      if (!pop(S, Pc, T))
        break;
      if (push(S, Pc, T) && push(S, Pc, T))
        fallThrough(Pc, S);
      break;
    }

    case Opcode::Pop: {
      AbstractType T;
      if (pop(S, Pc, T))
        fallThrough(Pc, S);
      break;
    }

    case Opcode::Swap: {
      AbstractType B{}, A{};
      if (!pop(S, Pc, B) || !pop(S, Pc, A))
        break;
      if (push(S, Pc, B) && push(S, Pc, A))
        fallThrough(Pc, S);
      break;
    }

    case Opcode::Goto:
      flowTo(Pc, I.A, S);
      break;

    case Opcode::IfIcmpLt:
    case Opcode::IfIcmpGe:
    case Opcode::IfIcmpEq:
    case Opcode::IfIcmpNe:
      if (!popInt(S, Pc) || !popInt(S, Pc))
        break;
      flowTo(Pc, I.A, S);
      fallThrough(Pc, S);
      break;

    case Opcode::Ifeq:
    case Opcode::Ifne:
      if (!popInt(S, Pc))
        break;
      flowTo(Pc, I.A, S);
      fallThrough(Pc, S);
      break;

    case Opcode::IfNull:
    case Opcode::IfNonNull:
      if (!popRef(S, Pc))
        break;
      flowTo(Pc, I.A, S);
      fallThrough(Pc, S);
      break;

    case Opcode::New:
      if (!Vm.klassAtHeapIndex(static_cast<uint32_t>(I.A))) {
        fail(Pc, "new of an unknown class index");
        break;
      }
      if (push(S, Pc, AbstractType::Ref))
        fallThrough(Pc, S);
      break;

    case Opcode::GetField:
      if (!popRef(S, Pc))
        break;
      // The field's declared kind depends on the runtime class; the
      // interpreter checks it.  Statically: Unknown.
      if (push(S, Pc, AbstractType::Unknown))
        fallThrough(Pc, S);
      break;

    case Opcode::PutField: {
      AbstractType V;
      if (!pop(S, Pc, V) || !popRef(S, Pc))
        break;
      fallThrough(Pc, S);
      break;
    }

    case Opcode::MonitorEnter:
      if (!popRef(S, Pc))
        break;
      ++S.MonitorDepth;
      fallThrough(Pc, S);
      break;

    case Opcode::MonitorExit:
      if (!popRef(S, Pc))
        break;
      if (S.MonitorDepth == 0) {
        fail(Pc, "monitorexit without a matching block-structured "
                 "monitorenter");
        break;
      }
      --S.MonitorDepth;
      fallThrough(Pc, S);
      break;

    case Opcode::Invoke: {
      const Method *Callee = Vm.methodById(static_cast<uint32_t>(I.A));
      if (!Callee) {
        fail(Pc, "invoke of an unknown method id");
        break;
      }
      if (S.Stack.size() < Callee->NumArgs) {
        fail(Pc, "operand stack underflow at invoke");
        break;
      }
      CalleeEffect Effect = calleeEffect(Vm, *Callee);
      if (Effect.Inconsistent) {
        fail(Pc, "callee '" + Callee->Name +
                     "' mixes void and value returns");
        break;
      }
      // Receiver of a synchronized instance method must look like a ref.
      if (Callee->Traits.IsSynchronized && !Callee->Traits.IsStatic &&
          Callee->NumArgs > 0) {
        AbstractType Receiver = S.Stack[S.Stack.size() - Callee->NumArgs];
        if (!refCompatible(Receiver)) {
          fail(Pc, "int passed as the receiver of a synchronized method");
          break;
        }
      }
      S.Stack.resize(S.Stack.size() - Callee->NumArgs);
      if (Effect.PushesValue && !push(S, Pc, Effect.ValueType))
        break;
      fallThrough(Pc, S);
      break;
    }

    case Opcode::Return:
      checkReturn(Pc, S);
      break;

    case Opcode::Ireturn:
      if (!popInt(S, Pc))
        break;
      checkReturn(Pc, S);
      break;

    case Opcode::Areturn:
      if (!popRef(S, Pc))
        break;
      checkReturn(Pc, S);
      break;
    }
  }
};

} // namespace

Verifier::Verifier(const VM &Vm, uint32_t MaxStackDepth)
    : Vm(Vm), MaxStackDepth(MaxStackDepth) {}

std::optional<VerifyError> Verifier::verify(const Method &M) const {
  if (M.Traits.IsNative)
    return std::nullopt;
  MethodVerifier Engine(Vm, M, MaxStackDepth);
  return Engine.run();
}

std::optional<VerifyError> Verifier::verifyAll() const {
  for (uint32_t Id = 0;; ++Id) {
    const Method *M = Vm.methodById(Id);
    if (!M)
      return std::nullopt;
    if (auto Err = verify(*M)) {
      Err->Message = "in method '" + M->Name + "': " + Err->Message;
      return Err;
    }
  }
}
