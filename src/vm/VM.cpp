//===- vm/VM.cpp - The microjvm runtime -----------------------------------===//

#include "vm/VM.h"

#include "core/OwnershipAudit.h"
#include "support/Fatal.h"
#include "vm/Interpreter.h"

#include <cassert>

using namespace thinlocks;
using namespace thinlocks::vm;

VM::VM() : VM(Config()) {}

VM::VM(const Config &Cfg) : Handle(createProtocol(Cfg.Protocol, Cfg.Sync)) {
  if (!Handle)
    fatalError("vm: unknown protocol '%s' (see core/ProtocolRegistry.h for "
               "the registered names)",
               Cfg.Protocol.c_str());
  Builtin = &Handle->sync();
  // Thread-index recycling safety: detach() quarantines any index a live
  // lock word still encodes (a thread that died holding a lock), so the
  // next spawn cannot impersonate the stale owner.  The auditor reads
  // lock words through the MonitorTable, so only protocols with one get
  // it.
  if (MonitorTable *Monitors = Handle->monitorTable())
    Registry.setIndexAuditor(makeLockWordAuditor(TheHeap, *Monitors));

  // Class objects are instances of the primordial "java/lang/Class".
  defineClass("java/lang/Class", {});
}

VM::~VM() = default;

Klass &VM::defineClass(std::string Name, std::vector<FieldInfo> Fields) {
  std::lock_guard<std::mutex> Guard(DefMutex);
  auto K = std::make_unique<Klass>();
  K->Name = std::move(Name);
  K->Fields = std::move(Fields);
  for (uint32_t Slot = 0; Slot < K->Fields.size(); ++Slot)
    K->Fields[Slot].Slot = Slot;
  K->HeapClass = &TheHeap.classes().registerClass(
      K->Name, static_cast<uint32_t>(K->Fields.size()));

  assert(K->HeapClass->Index == KlassByHeapIndex.size() &&
         "all heap classes must come from defineClass");
  KlassByHeapIndex.push_back(K.get());

  // The very first class defined is java/lang/Class itself; its class
  // object is an instance of itself.
  const ClassInfo &ClassKlassInfo =
      KlassByHeapIndex[0]->HeapClass ? *KlassByHeapIndex[0]->HeapClass
                                     : *K->HeapClass;
  K->ClassObj = TheHeap.allocate(ClassKlassInfo);

  Klasses.push_back(std::move(K));
  return *Klasses.back();
}

Method &VM::defineMethod(Klass &Owner, std::string Name, MethodTraits Traits,
                         uint16_t NumArgs, uint16_t NumLocals,
                         std::vector<Instruction> Code) {
  assert(NumLocals >= NumArgs && "locals must cover the arguments");
  assert(!Traits.IsNative && "use defineNativeMethod for natives");
  std::lock_guard<std::mutex> Guard(DefMutex);
  MethodRecord Record;
  Record.M = std::make_unique<Method>();
  Method &M = *Record.M;
  M.Id = static_cast<uint32_t>(Methods.size());
  M.Name = std::move(Name);
  M.Owner = &Owner;
  M.Traits = Traits;
  M.NumArgs = NumArgs;
  M.NumLocals = NumLocals;
  M.Code = std::move(Code);
  Methods.push_back(std::move(Record));
  return M;
}

Method &VM::defineNativeMethod(Klass &Owner, std::string Name,
                               MethodTraits Traits, uint16_t NumArgs,
                               bool ReturnsValue, NativeFn Fn) {
  std::lock_guard<std::mutex> Guard(DefMutex);
  MethodRecord Record;
  Record.ReturnsValue = ReturnsValue;
  Record.M = std::make_unique<Method>();
  Method &M = *Record.M;
  M.Id = static_cast<uint32_t>(Methods.size());
  M.Name = std::move(Name);
  M.Owner = &Owner;
  M.Traits = Traits;
  M.Traits.IsNative = true;
  M.NumArgs = NumArgs;
  M.NumLocals = NumArgs;
  M.Native = std::move(Fn);
  Methods.push_back(std::move(Record));
  return M;
}

const Method *VM::methodById(uint32_t Id) const {
  if (Id >= Methods.size())
    return nullptr;
  return Methods[Id].M.get();
}

bool VM::nativeReturnsValue(uint32_t Id) const {
  assert(Id < Methods.size() && "bad method id");
  return Methods[Id].ReturnsValue;
}

Klass *VM::findClass(const std::string &Name) {
  for (auto &K : Klasses)
    if (K->Name == Name)
      return K.get();
  return nullptr;
}

Klass *VM::klassForObject(const Object *Obj) const {
  assert(Obj->classIndex() < KlassByHeapIndex.size() &&
         "object from a foreign heap");
  return KlassByHeapIndex[Obj->classIndex()];
}

Klass *VM::klassAtHeapIndex(uint32_t HeapIndex) const {
  if (HeapIndex >= KlassByHeapIndex.size())
    return nullptr;
  return KlassByHeapIndex[HeapIndex];
}

Object *VM::newInstance(const Klass &K) {
  return TheHeap.allocate(K.heapClass());
}

RunResult VM::call(const Method &M, std::span<const Value> Args,
                   const ThreadContext &Thread) {
  Interpreter Interp(*this, Thread);
  return Interp.run(M, Args);
}

RunResult VM::VMThread::join() {
  assert(Worker.joinable() && "joining a thread twice or a moved handle");
  Worker.join();
  return *Slot;
}

VM::VMThread VM::spawn(const Method &M, std::vector<Value> Args,
                       std::string ThreadName) {
  VMThread Handle;
  Handle.Slot = std::make_unique<RunResult>();
  RunResult *Slot = Handle.Slot.get();
  Handle.Worker = std::thread([this, &M, Args = std::move(Args),
                               Name = std::move(ThreadName), Slot]() {
    ScopedThreadAttachment Attachment(Registry, Name);
    if (!Attachment.context().isValid()) {
      // Registry index space exhausted: surface a typed trap instead of
      // running bytecode with a context every lock op would reject.
      Slot->TrapKind = Trap::ThreadExhausted;
      return;
    }
    *Slot = call(M, Args, Attachment.context());
  });
  return Handle;
}
