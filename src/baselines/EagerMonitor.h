//===- baselines/EagerMonitor.h - Monitor-per-object strawman --*- C++ -*-===//
///
/// \file
/// The design the paper's introduction rules out: "One way to speed up
/// synchronization is to dedicate a portion of each object as a lock.
/// Unfortunately ... adding one or more synchronization words to each
/// object is an unacceptable space-time tradeoff" (§1).
///
/// This baseline gives every synchronized object its own permanent
/// heavy-weight monitor on first use, held in a sharded side table (the
/// object layout itself cannot grow — that is the constraint).  It is
/// reasonably fast (no global cache lock, no reclamation sweeps) but its
/// space grows with the number of objects ever synchronized, never
/// shrinking — the axis the space-accounting benchmark (bench_space)
/// compares against thin locks, which need a monitor only after
/// inflation.
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_BASELINES_EAGERMONITOR_H
#define THINLOCKS_BASELINES_EAGERMONITOR_H

#include "baselines/MonitorOps.h"
#include "baselines/ObjectTable.h"
#include "core/LockProtocol.h"
#include "fatlock/FatLock.h"
#include "heap/Object.h"

#include <cstdint>

namespace thinlocks {

/// Monitor-per-object baseline with a sharded object->monitor side table.
class EagerMonitor : public MonitorOps<EagerMonitor> {
public:
  EagerMonitor() = default;

  EagerMonitor(const EagerMonitor &) = delete;
  EagerMonitor &operator=(const EagerMonitor &) = delete;

  static const char *protocolName() { return "EagerMonitor"; }

  /// \returns how many monitors exist (== objects ever synchronized).
  uint64_t monitorCount() const { return Monitors.size(); }

  /// \returns a lower bound on the side-table bytes consumed, for the
  /// space comparison in bench_space.
  uint64_t approximateMonitorBytes() const {
    // FatLock itself plus one hash-map node (pointer pair + bucket link).
    return monitorCount() *
           (sizeof(FatLock) + sizeof(void *) * 2 + sizeof(const Object *));
  }

private:
  friend class MonitorOps<EagerMonitor>;

  /// Eager monitors are permanent, so a resolved one needs no pin.
  struct Ref {
    FatLock *Lock;
  };
  Ref resolveMonitor(Object *Obj, Lookup How) {
    return {How == Lookup::Acquire ? &Monitors.findOrCreate(Obj)
                                   : Monitors.find(Obj)};
  }
  void releaseMonitor(const Ref &) {}

  ObjectTable<FatLock> Monitors;
};

static_assert(SyncProtocol<EagerMonitor>,
              "EagerMonitor must satisfy the protocol concept");

} // namespace thinlocks

#endif // THINLOCKS_BASELINES_EAGERMONITOR_H
