//===- baselines/ObjectTable.h - Sharded object side table -----*- C++ -*-===//
///
/// \file
/// The side table that keeps per-object lock state outside the object, so
/// the header stays untouched: 16 shards, each a mutex-guarded map from an
/// object's address to a record the table owns.  A record is made on the
/// object's first findOrCreate and lives as long as the table, so a
/// pointer to it stays valid without a pin.  EagerMonitor keeps its
/// monitors here and the Fissile lock its cells.
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_BASELINES_OBJECTTABLE_H
#define THINLOCKS_BASELINES_OBJECTTABLE_H

#include "heap/Object.h"
#include "support/Mutex.h"

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>

namespace thinlocks {

template <typename Record> class ObjectTable {
public:
  /// \returns \p Obj's record, or nullptr if it has none.
  Record *find(const Object *Obj) const {
    const Shard &S = Shards[shardOf(Obj)];
    LockGuard Guard(S.Mu);
    auto It = S.Map.find(Obj);
    return It == S.Map.end() ? nullptr : It->second.get();
  }

  /// \returns \p Obj's record, making it on first use.
  Record &findOrCreate(const Object *Obj) {
    Shard &S = Shards[shardOf(Obj)];
    LockGuard Guard(S.Mu);
    std::unique_ptr<Record> &Slot = S.Map[Obj];
    if (!Slot)
      Slot = std::make_unique<Record>();
    return *Slot;
  }

  /// \returns how many records exist (== objects ever given one).
  uint64_t size() const {
    uint64_t Count = 0;
    for (const Shard &S : Shards) {
      LockGuard Guard(S.Mu);
      Count += S.Map.size();
    }
    return Count;
  }

private:
  static constexpr size_t NumShards = 16;

  struct Shard {
    mutable Mutex Mu;
    std::unordered_map<const Object *, std::unique_ptr<Record>>
        Map TL_GUARDED_BY(Mu);
  };

  static size_t shardOf(const Object *Obj) {
    // Mix the address; objects are 16-byte aligned, so drop the low bits.
    // The top 4 bits of the product pick one of the 16 shards.
    uintptr_t Address = reinterpret_cast<uintptr_t>(Obj);
    return (Address >> 4) * 0x9e3779b97f4a7c15ull >> 60;
  }

  std::array<Shard, NumShards> Shards;
};

} // namespace thinlocks

#endif // THINLOCKS_BASELINES_OBJECTTABLE_H
