//===- vm/NativeLibrary.h - Thread-safe library classes --------*- C++ -*-===//
///
/// \file
/// The thread-safe standard-library classes whose synchronized methods
/// are the paper's motivation: "the most commonly used public methods of
/// standard utility classes like Vector and Hashtable are synchronized.
/// When these classes are used by single-threaded programs ... there is
/// substantial performance degradation" (§1).  The paper's §3.4 analysis
/// leans on them directly: javalex's time is dominated by the
/// synchronized Vector.elementAt, and jax's by BitSet.get, which is *not*
/// synchronized but executes a synchronized block internally.  Both
/// patterns are reproduced here.
///
/// Classes installed:
///   java/util/Vector       addElement/elementAt/size/removeAllElements,
///                          all synchronized
///   java/util/Hashtable    put/get/size/containsKey, all synchronized
///   java/util/BitSet       set/clear synchronized; get unsynchronized
///                          but entering a synchronized block inside
///   java/lang/StringBuffer append/length, synchronized
///   java/lang/Thread       yield (static)
///
/// Element storage is native-side, keyed by object identity; the object's
/// own monitor (held by the synchronized method machinery) protects the
/// per-object contents, so the locking protocol under test is what makes
/// these classes thread-safe — exactly as in the JDK.
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_VM_NATIVELIBRARY_H
#define THINLOCKS_VM_NATIVELIBRARY_H

#include "vm/VM.h"

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace thinlocks {
namespace vm {

/// Installs and backs the thread-safe library classes for one VM.  Must
/// outlive every use of the classes it defines.
class NativeLibrary {
public:
  explicit NativeLibrary(VM &Vm);

  NativeLibrary(const NativeLibrary &) = delete;
  NativeLibrary &operator=(const NativeLibrary &) = delete;

  Klass &vectorClass() { return *VectorKlass; }
  Klass &hashtableClass() { return *HashtableKlass; }
  Klass &bitSetClass() { return *BitSetKlass; }
  Klass &stringBufferClass() { return *StringBufferKlass; }

  // Named method accessors used by workloads (never nullptr).
  const Method &vectorAddElement() const { return *VecAdd; }
  const Method &vectorElementAt() const { return *VecAt; }
  const Method &vectorSize() const { return *VecSize; }
  const Method &vectorRemoveAll() const { return *VecClear; }
  const Method &hashtablePut() const { return *HashPut; }
  const Method &hashtableGet() const { return *HashGet; }
  const Method &hashtableSize() const { return *HashSize; }
  const Method &hashtableContainsKey() const { return *HashHas; }
  const Method &bitSetSet() const { return *BitsSet; }
  const Method &bitSetClear() const { return *BitsClear; }
  const Method &bitSetGet() const { return *BitsGet; }
  const Method &stringBufferAppend() const { return *SbAppend; }
  const Method &stringBufferLength() const { return *SbLength; }
  const Method &threadYield() const { return *Yield; }

private:
  struct VectorData {
    std::vector<Value> Elements;
  };
  struct HashtableData {
    std::unordered_map<int32_t, Value> Entries;
  };
  struct BitSetData {
    std::vector<uint64_t> Words;
  };
  struct StringBufferData {
    std::vector<int32_t> Chars;
  };

  // Fetches (creating on demand) the native backing store for \p Obj.
  // The map mutex guards only the map structure; per-object contents are
  // protected by the object's monitor, which every caller holds.
  VectorData &vectorData(const Object *Obj);
  HashtableData &hashtableData(const Object *Obj);
  BitSetData &bitSetData(const Object *Obj);
  StringBufferData &stringBufferData(const Object *Obj);

  void installVector(VM &Vm);
  void installHashtable(VM &Vm);
  void installBitSet(VM &Vm);
  void installStringBuffer(VM &Vm);
  void installThread(VM &Vm);

  std::mutex MapMutex;
  std::unordered_map<const Object *, std::unique_ptr<VectorData>> Vectors;
  std::unordered_map<const Object *, std::unique_ptr<HashtableData>>
      Hashtables;
  std::unordered_map<const Object *, std::unique_ptr<BitSetData>> BitSets;
  std::unordered_map<const Object *, std::unique_ptr<StringBufferData>>
      StringBuffers;

  Klass *VectorKlass = nullptr;
  Klass *HashtableKlass = nullptr;
  Klass *BitSetKlass = nullptr;
  Klass *StringBufferKlass = nullptr;
  Klass *ThreadKlass = nullptr;

  const Method *VecAdd = nullptr;
  const Method *VecAt = nullptr;
  const Method *VecSize = nullptr;
  const Method *VecClear = nullptr;
  const Method *HashPut = nullptr;
  const Method *HashGet = nullptr;
  const Method *HashSize = nullptr;
  const Method *HashHas = nullptr;
  const Method *BitsSet = nullptr;
  const Method *BitsClear = nullptr;
  const Method *BitsGet = nullptr;
  const Method *SbAppend = nullptr;
  const Method *SbLength = nullptr;
  const Method *Yield = nullptr;
};

} // namespace vm
} // namespace thinlocks

#endif // THINLOCKS_VM_NATIVELIBRARY_H
