//===- heap/ClassInfo.h - Runtime class descriptors ------------*- C++ -*-===//
///
/// \file
/// Minimal runtime class metadata for heap objects.  A class is a name
/// plus a field-slot count; objects store a compact class *index* in their
/// header (the paper keeps a class pointer in the header and notes that
/// converting it to a class index is the only way to shrink the header
/// further — our header words are 32-bit, so we use the index form).
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_HEAP_CLASSINFO_H
#define THINLOCKS_HEAP_CLASSINFO_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace thinlocks {

/// Immutable description of one runtime class.
struct ClassInfo {
  /// Index into the owning ClassRegistry; stored in object headers.
  uint32_t Index = 0;
  std::string Name;
  /// Number of 64-bit field slots in instances of this class.
  uint32_t SlotCount = 0;
};

/// Interns ClassInfo records and maps header class indices back to them.
///
/// Registration and lookup by index both take the registry mutex; the
/// returned ClassInfo is immutable and lives as long as the registry.
/// Class indices fit in 24 bits (they share a header word with 8 bits of
/// flags).
class ClassRegistry {
public:
  static constexpr uint32_t MaxClassIndex = (1u << 24) - 1;

  ClassRegistry();

  ClassRegistry(const ClassRegistry &) = delete;
  ClassRegistry &operator=(const ClassRegistry &) = delete;

  /// Registers a new class.  Names need not be unique (anonymous workload
  /// classes reuse names); every call mints a fresh index.
  const ClassInfo &registerClass(std::string Name, uint32_t SlotCount);

  /// \returns the class for \p Index; asserts that the index is live.
  const ClassInfo &classAt(uint32_t Index) const;

  /// \returns the number of registered classes.
  uint32_t size() const;

private:
  mutable std::mutex Mutex;
  std::vector<std::unique_ptr<ClassInfo>> Classes;
};

} // namespace thinlocks

#endif // THINLOCKS_HEAP_CLASSINFO_H
