//===- obs/SloSnapshot.cpp - Service-level-objective snapshot -------------===//

#include "obs/SloSnapshot.h"

#include "obs/ChromeTrace.h"

#include <algorithm>
#include <cstdio>

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

void appendKv(std::string &Out, const char *Key, uint64_t Value,
              bool Comma = true) {
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "    \"%s\": %llu%s\n", Key,
                static_cast<unsigned long long>(Value), Comma ? "," : "");
  Out += Buf;
}

void appendKv(std::string &Out, const char *Key, double Value,
              bool Comma = true) {
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "    \"%s\": %.4f%s\n", Key, Value,
                Comma ? "," : "");
  Out += Buf;
}

/// String values come from the protocol registry (identifier-shaped), so
/// no escaping is needed.
void appendKv(std::string &Out, const char *Key, const std::string &Value,
              bool Comma = true) {
  Out += "    \"";
  Out += Key;
  Out += "\": \"";
  Out += Value;
  Out += Comma ? "\",\n" : "\"\n";
}

void appendQuantiles(std::string &Out, const char *Key,
                     const SloQuantiles &Q) {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "    \"%s\": {\"count\": %llu, \"p50_ns\": %llu, "
                "\"p99_ns\": %llu, \"p999_ns\": %llu, \"max_ns\": %llu, "
                "\"mean_ns\": %llu},\n",
                Key, static_cast<unsigned long long>(Q.Count),
                static_cast<unsigned long long>(Q.P50),
                static_cast<unsigned long long>(Q.P99),
                static_cast<unsigned long long>(Q.P999),
                static_cast<unsigned long long>(Q.Max),
                static_cast<unsigned long long>(Q.Mean));
  Out += Buf;
}

} // namespace

std::string SloSnapshot::toJson() const {
  std::string Out = "{\n";
  appendKv(Out, "protocol", Protocol);
  appendKv(Out, "duration_s", DurationSeconds);
  appendQuantiles(Out, "acquire", Acquire);
  appendQuantiles(Out, "session", Session);
  appendQuantiles(Out, "wake", Wake);
  appendKv(Out, "sessions_offered", SessionsOffered);
  appendKv(Out, "sessions_completed", SessionsCompleted);
  appendKv(Out, "sessions_shed", SessionsShed);
  appendKv(Out, "sessions_deferred", SessionsDeferred);
  appendKv(Out, "sessions_degraded", SessionsDegraded);
  appendKv(Out, "requests_completed", RequestsCompleted);
  appendKv(Out, "sessions_per_s", SessionsPerSecond);
  appendKv(Out, "requests_per_s", RequestsPerSecond);
  appendKv(Out, "shed_rate", ShedRate);
  appendKv(Out, "monitor_exhaustion_events", MonitorExhaustionEvents);
  appendKv(Out, "registry_exhaustion_events", RegistryExhaustionEvents);
  appendKv(Out, "emergency_inflations", EmergencyInflations);
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "    \"ticks_at_level\": [%llu, %llu, %llu, %llu],\n",
                static_cast<unsigned long long>(TicksAtLevel[0]),
                static_cast<unsigned long long>(TicksAtLevel[1]),
                static_cast<unsigned long long>(TicksAtLevel[2]),
                static_cast<unsigned long long>(TicksAtLevel[3]));
  Out += Buf;
  appendKv(Out, "level_transitions", LevelTransitions);
  appendKv(Out, "final_level", static_cast<uint64_t>(FinalLevel),
           /*Comma=*/false);
  Out += "}\n";
  return Out;
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
