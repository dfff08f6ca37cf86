//===- core/ProtocolRegistry.h - Name -> protocol factory ------*- C++ -*-===//
///
/// \file
/// Runtime selection of a synchronization protocol by name.  Two faces:
///
///  - createProtocol(Name): a factory returning a ProtocolHandle that
///    owns the protocol instance *and* its substrate (the thin-lock
///    manager needs a MonitorTable; the side-table protocols are
///    self-contained) behind the type-erased SyncBackend.  This is what
///    the soak harness and bench_soak use, keyed by --protocol.
///
///  - withProtocol(Name, Config, Callback): compile-time dispatch — the
///    callback is instantiated once per registered protocol type and
///    invoked with the *concrete* protocol reference, so templated
///    workloads (workload/MicroBench.h, workload/MacroReplay.h) run with
///    zero virtual-dispatch noise.  bench_matrix builds its grid this
///    way.
///
/// The protocol list lives in one X-macro; adding a protocol means one
/// new line here plus a ProtocolMaker specialization if it needs a
/// substrate (see DESIGN.md §14).  Registry names are canonical artifact
/// labels: the thin-lock manager registers as "ThinLock" even though its
/// concept-level protocolName() reports the active fast-path policy
/// ("Dynamic").
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_CORE_PROTOCOLREGISTRY_H
#define THINLOCKS_CORE_PROTOCOLREGISTRY_H

#include "baselines/EagerMonitor.h"
#include "baselines/HotLocks.h"
#include "baselines/MonitorCache.h"
#include "core/SyncBackend.h"
#include "core/ThinLock.h"
#include "fatlock/MonitorTable.h"
#include "protocols/FissileLock.h"

#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

/// X-macro over every registered protocol: X(ConcreteType, "Name").
#define THINLOCKS_FOR_EACH_PROTOCOL(X)                                         \
  X(ThinLockManager, "ThinLock")                                               \
  X(MonitorCache, "JDK111")                                                    \
  X(HotLocks, "IBM112")                                                        \
  X(EagerMonitor, "EagerMonitor")                                              \
  X(FissileLock, "Fissile")

namespace thinlocks {

/// The default protocol (the paper's contribution).
inline constexpr const char *DefaultProtocolName = "ThinLock";

/// Substrate knobs a factory-built protocol may honor.  Protocols
/// without the corresponding notion ignore a knob (only ThinLock has a
/// MonitorTable, deflation, or a LockStats sink).
struct ProtocolConfig {
  /// MonitorTable capacity; 0 = the table's full default capacity.
  uint32_t MonitorCapacity = 0;
  /// Retire fat locks at quiescence (Tasuki deflation).
  bool DeflateWhenQuiescent = false;
  /// Optional instrumentation sink; must outlive the handle.
  LockStats *Stats = nullptr;
};

/// Owns one protocol instance plus whatever substrate it needs, and
/// exposes it type-erased.  The capability accessors return null for
/// protocols without that substrate; callers gate on them instead of on
/// the protocol name.
class ProtocolHandle {
public:
  virtual ~ProtocolHandle();

  /// The canonical registry name ("ThinLock", "JDK111", ...).
  virtual const char *name() const = 0;
  virtual SyncBackend &sync() = 0;
  /// Non-null only for protocols backed by the shared MonitorTable
  /// (pressure signals for admission control).
  virtual MonitorTable *monitorTable() { return nullptr; }
  /// Non-null only for the thin-lock manager (adaptive-policy wiring).
  virtual ThinLockManager *thinLocks() { return nullptr; }
};

/// Builds one protocol type plus its substrate.  The primary template
/// covers self-contained protocols; ThinLockManager specializes to own
/// its MonitorTable.
template <typename P> struct ProtocolMaker {
  P Protocol;
  explicit ProtocolMaker(const ProtocolConfig &) {}
};

template <> struct ProtocolMaker<ThinLockManager> {
  MonitorTable Monitors;
  ThinLockManager Protocol;
  explicit ProtocolMaker(const ProtocolConfig &Config)
      : Monitors(Config.MonitorCapacity ? Config.MonitorCapacity
                                        : MonitorTable::MaxMonitorIndex),
        Protocol(Monitors, Config.Stats,
                 Config.DeflateWhenQuiescent ? DeflationPolicy::WhenQuiescent
                                             : DeflationPolicy::Never) {}
};

/// The concrete handle: maker + adapter, one instantiation per protocol.
template <typename P> class TypedProtocolHandle final : public ProtocolHandle {
  const char *RegistryName;
  ProtocolMaker<P> Maker;
  SyncBackendAdapter<P> Backend;

public:
  TypedProtocolHandle(const char *RegistryName, const ProtocolConfig &Config)
      : RegistryName(RegistryName), Maker(Config), Backend(Maker.Protocol) {}

  const char *name() const override { return RegistryName; }
  SyncBackend &sync() override { return Backend; }
  MonitorTable *monitorTable() override {
    if constexpr (std::is_same_v<P, ThinLockManager>)
      return &Maker.Monitors;
    else
      return nullptr;
  }
  ThinLockManager *thinLocks() override {
    if constexpr (std::is_same_v<P, ThinLockManager>)
      return &Maker.Protocol;
    else
      return nullptr;
  }

  P &protocol() { return Maker.Protocol; }
};

/// \returns a handle for the named protocol, or nullptr if \p Name is
/// not registered.
std::unique_ptr<ProtocolHandle> createProtocol(std::string_view Name,
                                               const ProtocolConfig &Config =
                                                   ProtocolConfig());

/// \returns every registered protocol name, in registry order.
const std::vector<std::string> &registeredProtocolNames();

/// \returns true if \p Name is a registered protocol name.
bool isRegisteredProtocol(std::string_view Name);

/// Compile-time dispatch: invokes \p Callback(ConcreteProtocol &,
/// ProtocolHandle &) with the concrete type for \p Name.  \returns false
/// (without invoking) if \p Name is not registered.
template <typename Fn>
bool withProtocol(std::string_view Name, const ProtocolConfig &Config,
                  Fn &&Callback) {
#define THINLOCKS_PROTOCOL_CASE(Type, RegistryName)                            \
  if (Name == RegistryName) {                                                  \
    TypedProtocolHandle<Type> Handle(RegistryName, Config);                    \
    Callback(Handle.protocol(), static_cast<ProtocolHandle &>(Handle));        \
    return true;                                                               \
  }
  THINLOCKS_FOR_EACH_PROTOCOL(THINLOCKS_PROTOCOL_CASE)
#undef THINLOCKS_PROTOCOL_CASE
  return false;
}

} // namespace thinlocks

#endif // THINLOCKS_CORE_PROTOCOLREGISTRY_H
