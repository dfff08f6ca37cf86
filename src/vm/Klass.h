//===- vm/Klass.h - microjvm class metadata --------------------*- C++ -*-===//
///
/// \file
/// VM-level class metadata layered over the heap's ClassInfo: named,
/// typed fields and a method list.  Every Klass owns a *class object* on
/// the heap, which is what static synchronized methods lock (mirroring
/// Java's Class-object locking).
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_VM_KLASS_H
#define THINLOCKS_VM_KLASS_H

#include "heap/ClassInfo.h"
#include "heap/Object.h"
#include "vm/Value.h"

#include <cstdint>
#include <string>
#include <vector>

namespace thinlocks {
namespace vm {

/// A declared instance field.
struct FieldInfo {
  std::string Name;
  ValueKind Kind = ValueKind::Int;
  uint32_t Slot = 0;
};

/// VM class: fields, methods, and the backing heap class.
class Klass {
  friend class VM;

  std::string Name;
  const ClassInfo *HeapClass = nullptr;
  Object *ClassObj = nullptr;
  std::vector<FieldInfo> Fields;

public:
  const std::string &name() const { return Name; }

  /// \returns the heap-level class descriptor.
  const ClassInfo &heapClass() const { return *HeapClass; }

  /// \returns the class object locked by static synchronized methods.
  Object *classObject() const { return ClassObj; }

  const std::vector<FieldInfo> &fields() const { return Fields; }

  /// \returns the declared kind of the field in \p Slot.
  ValueKind fieldKind(uint32_t Slot) const;
};

} // namespace vm
} // namespace thinlocks

#endif // THINLOCKS_VM_KLASS_H
