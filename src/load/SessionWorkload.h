//===- load/SessionWorkload.h - Session-scoped soak workload ---*- C++ -*-===//
///
/// \file
/// The unit of work the soak harness admits: a *session* — a short burst
/// of lock-protected requests against a Zipfian-skewed set of shared hot
/// objects, optionally preceded by the "expensive tenant" behaviors that
/// consume the substrate's finite resources (an ephemeral ThreadRegistry
/// attach, wait-timeout and hint inflations that each allocate a
/// monitor).  Two session shapes:
///
///  - *light*: thin-lock-dominated — lock/think/unlock on hot objects
///    with occasional recursive nesting.  Never allocates a monitor.
///  - *heavy* (inflation-heavy): additionally attaches an ephemeral
///    registry context (so `threadregistry.exhausted` surfaces
///    AttachError::Exhausted as a live admission signal), allocates
///    private objects, and inflates them via Object.wait timeouts and
///    explicit hints (so `monitortable.exhausted` surfaces allocate()
///    failures and emergency inflations).
///
/// A heavy session *admitted degraded* (AdmissionDecision::AdmitDegraded)
/// runs its light shape instead: same request count, no operation that
/// can allocate a monitor — the EmergencyOnly rung's contract.
///
/// Acquire latencies are recorded inline (StopWatch around each lock())
/// into the caller's per-worker LatencyHistogram; nothing here is
/// shared, so the recording cost is a few nanoseconds and no cache-line
/// traffic.
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_LOAD_SESSIONWORKLOAD_H
#define THINLOCKS_LOAD_SESSIONWORKLOAD_H

#include "core/SyncBackend.h"
#include "threads/ThreadRegistry.h"
#include "load/Zipf.h"
#include "support/Histogram.h"
#include "support/SplitMix64.h"

#include <cstdint>
#include <vector>

namespace thinlocks {

class Heap;
class ClassInfo;

namespace load {

/// What one session did.
struct SessionOutcome {
  uint32_t Requests = 0;
  uint64_t MaxAcquireNanos = 0;
  /// Heavy only: the ephemeral attach hit AttachError::Exhausted and the
  /// session fell back to the worker's identity (degraded but served).
  bool AttachFallback = false;
  /// Monitors this session asked the table for (wait + hint inflations).
  uint32_t MonitorsRequested = 0;
};

/// Executes sessions against one lock protocol + heap + registry.  The
/// protocol is consumed through the type-erased SyncBackend seam, so the
/// soak runs identically over ThinLock, the baselines, or Fissile; the
/// only protocol-specific notion (explicit inflation hints in heavy
/// sessions) degrades portably via SyncBackend::inflateHint.  The shared
/// hot-object set is allocated at construction; run() is called
/// concurrently from attached worker threads.
class SessionWorkload {
public:
  SessionWorkload(SyncBackend &Sync, Heap &TheHeap,
                  ThreadRegistry &Registry, size_t HotObjects,
                  double ZipfTheta);

  SessionWorkload(const SessionWorkload &) = delete;
  SessionWorkload &operator=(const SessionWorkload &) = delete;

  /// Runs one session on the calling thread.  \p Worker must be a valid
  /// context attached to the workload's registry.  \p Degraded elides
  /// every monitor-allocating operation (heavy sessions become light).
  /// Acquire latencies are recorded into \p AcquireHist.
  SessionOutcome run(const ThreadContext &Worker, SplitMix64 &Rng,
                     bool Heavy, bool Degraded,
                     LatencyHistogram &AcquireHist);

  const ZipfSampler &zipf() const { return Popularity; }

private:
  /// One timed lock/think/unlock request on a Zipf-chosen hot object.
  void lightRequest(const ThreadContext &Ctx, SplitMix64 &Rng,
                    SessionOutcome &Out, LatencyHistogram &AcquireHist);

  SyncBackend &Sync;
  Heap &TheHeap;
  ThreadRegistry &Registry;
  ZipfSampler Popularity;
  const ClassInfo *HotClass = nullptr;
  const ClassInfo *PrivateClass = nullptr;
  std::vector<Object *> Hot;
  /// Shared wait/notify rendezvous (see RendezvousTimeoutNanos in
  /// SessionWorkload.cpp).
  Object *Rendezvous = nullptr;
};

} // namespace load
} // namespace thinlocks

#endif // THINLOCKS_LOAD_SESSIONWORKLOAD_H
