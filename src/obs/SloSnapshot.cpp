//===- obs/SloSnapshot.cpp - Service-level-objective snapshot -------------===//

#include "obs/SloSnapshot.h"

#include "obs/ChromeTrace.h"
#include "support/JsonWriter.h"

#include <algorithm>

using namespace thinlocks;
using namespace thinlocks::obs;

SloQuantiles SloQuantiles::of(const LatencyHistogram &Hist) {
  SloQuantiles Q;
  Q.Count = Hist.count();
  Q.P50 = Hist.quantile(0.50);
  Q.P99 = Hist.quantile(0.99);
  Q.P999 = Hist.quantile(0.999);
  Q.Max = Hist.max();
  Q.Mean = Hist.mean();
  return Q;
}

namespace {

void writeQuantiles(JsonWriter &W, const char *Key, const SloQuantiles &Q) {
  W.key(Key)
      .beginObject()
      .field("count", Q.Count)
      .field("p50_ns", Q.P50)
      .field("p99_ns", Q.P99)
      .field("p999_ns", Q.P999)
      .field("max_ns", Q.Max)
      .field("mean_ns", Q.Mean)
      .end();
}

} // namespace

void SloSnapshot::writeJson(JsonWriter &W) const {
  W.beginObject(JsonWriter::Layout::Lines)
      .field("protocol", Protocol)
      .field("duration_s", DurationSeconds, 4);
  writeQuantiles(W, "acquire", Acquire);
  writeQuantiles(W, "session", Session);
  writeQuantiles(W, "dispatch", Dispatch);
  writeQuantiles(W, "wake", Wake);
  W.field("sessions_offered", SessionsOffered)
      .field("sessions_completed", SessionsCompleted)
      .field("sessions_shed", SessionsShed)
      .field("sessions_deferred", SessionsDeferred)
      .field("sessions_degraded", SessionsDegraded)
      .field("requests_completed", RequestsCompleted)
      .field("sessions_per_s", SessionsPerSecond, 4)
      .field("requests_per_s", RequestsPerSecond, 4)
      .field("shed_rate", ShedRate, 4)
      .field("monitor_exhaustion_events", MonitorExhaustionEvents)
      .field("registry_exhaustion_events", RegistryExhaustionEvents)
      .field("emergency_inflations", EmergencyInflations);
  W.key("ticks_at_level").array(TicksAtLevel);
  W.field("level_transitions", LevelTransitions)
      .field("final_level", FinalLevel)
      .end();
}

std::string SloSnapshot::toJson() const {
  JsonWriter W;
  writeJson(W);
  return W.take();
}

std::string obs::worstSessionsTraceJson(
    const std::vector<LockEvent> &Events,
    const std::vector<SessionSpanInfo> &Worst, const ClassRegistry *Classes,
    const std::string &Protocol) {
  std::vector<TraceSpan> Spans;
  Spans.reserve(Worst.size());
  for (const SessionSpanInfo &S : Worst) {
    TraceSpan Span;
    Span.Name = "session#" + std::to_string(S.SessionId);
    Span.Tid = S.WorkerTid;
    Span.StartNanos = S.ArrivalNanos;
    Span.EndNanos = std::max(S.EndNanos, S.ArrivalNanos);
    if (!Protocol.empty())
      Span.Args.emplace_back("protocol", Protocol);
    Span.Args.emplace_back("kind", S.Heavy ? "heavy" : "light");
    if (S.Degraded)
      Span.Args.emplace_back("degraded", "true");
    uint64_t QueueWait =
        S.StartNanos >= S.ArrivalNanos ? S.StartNanos - S.ArrivalNanos : 0;
    Span.Args.emplace_back("queue_wait_us", std::to_string(QueueWait / 1000));
    Span.Args.emplace_back("max_acquire_us",
                           std::to_string(S.MaxAcquireNanos / 1000));
    Spans.push_back(std::move(Span));
  }

  // Keep only lock events that overlap some worst-session window: the
  // artifact stays proportional to the tail, not to the run length.
  std::vector<LockEvent> Kept;
  for (const LockEvent &E : Events) {
    uint64_t Start = startNanosOf(E);
    uint64_t End = E.TimeNanos;
    for (const SessionSpanInfo &S : Worst) {
      if (End >= S.ArrivalNanos && Start <= std::max(S.EndNanos,
                                                     S.ArrivalNanos)) {
        Kept.push_back(E);
        break;
      }
    }
  }
  return toChromeTraceJson(Kept, Spans, Classes);
}
