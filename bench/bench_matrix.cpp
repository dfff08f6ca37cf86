//===- bench/bench_matrix.cpp - Cross-protocol benchmark matrix -----------===//
//
// Runs every registered synchronization protocol (core/ProtocolRegistry.h)
// through the same workload battery and publishes the grid as one JSON
// artifact (BENCH_matrix.json via run_benches.sh BENCH_MATRIX=1):
//
//   uncontended_pair   lock/unlock pairs on one unshared object — the
//                      fast-path cost Table 2 quotes.
//   multisync_64/512   the Figure 4 working-set sweep: every iteration
//                      synchronizes each of n distinct objects once, so
//                      per-object state (header bits vs. side tables)
//                      dominates.
//   zipf_convoy        threads hammering a Zipf(0.8)-skewed hot set —
//                      contention concentrated on a few objects, the
//                      soak harness's popularity shape.
//   macro_javac        the replayed javac locking profile (Table 1
//                      characterization) at a fixed op target.
//
// The grid is built with withProtocol(): each cell runs against the
// *concrete* protocol type, so the measured loops compile exactly like
// the per-protocol benchmarks (no virtual dispatch in the timed region).
// Every row carries both the registry name and the protocol's own
// protocolName() so artifacts stay attributable when the thin-lock
// manager reports its active policy ("Dynamic") rather than "ThinLock".
//
// Self-checking like bench_soak: at least 4 protocols x 3 workloads,
// every row labeled and non-empty, or the binary exits non-zero.
//
// Usage:
//   bench_matrix [--smoke] [--out BENCH_matrix.json]
//
//===----------------------------------------------------------------------===//

#include "BenchArtifact.h"

#include "core/ProtocolRegistry.h"
#include "heap/Heap.h"
#include "load/Zipf.h"
#include "support/SplitMix64.h"
#include "support/Timer.h"
#include "threads/ThreadRegistry.h"
#include "workload/MacroReplay.h"
#include "workload/MicroBench.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace thinlocks;
using namespace thinlocks::bench;
using namespace thinlocks::workload;

namespace {

struct Options {
  bool Smoke = false;
  const char *Out = "BENCH_matrix.json";
};

/// Iteration budget per workload; --smoke shrinks everything for CI.
struct Sizes {
  uint64_t PairIters = 2'000'000;
  uint64_t MultiIters = 2'000; ///< Times the whole working set.
  unsigned ConvoyThreads = 4;
  uint64_t ConvoyOpsPerThread = 20'000;
  size_t ConvoyHotObjects = 64;
  uint64_t MacroTargetOps = 200'000;
};

struct Row {
  std::string Protocol;     ///< Registry name ("ThinLock", ...).
  std::string ProtocolImpl; ///< The protocol's own protocolName().
  std::string Workload;
  uint64_t Ops = 0;
  uint64_t ElapsedNanos = 0;

  double nsPerOp() const {
    return Ops == 0 ? 0.0
                    : static_cast<double>(ElapsedNanos) /
                          static_cast<double>(Ops);
  }
};

/// Zipf convoy: \p Threads registry-attached threads each performing
/// \p OpsPerThread lock/work/unlock operations on a Zipf(0.8)-skewed set
/// of \p HotCount shared objects.  \returns total elapsed nanos.
template <SyncProtocol P>
uint64_t runZipfConvoy(P &Protocol, ThreadRegistry &Registry, Heap &TheHeap,
                       unsigned Threads, uint64_t OpsPerThread,
                       size_t HotCount) {
  const ClassInfo &Class =
      TheHeap.classes().registerClass("MatrixHot", /*SlotCount=*/1);
  std::vector<Object *> Hot;
  Hot.reserve(HotCount);
  for (size_t I = 0; I < HotCount; ++I)
    Hot.push_back(TheHeap.allocate(Class));
  load::ZipfSampler Popularity(HotCount, 0.8);

  // Start gate so the convoy actually overlaps (see MacroReplay.h's
  // contended variant) instead of running serialized short loops.
  std::atomic<bool> Go{false};
  std::vector<std::thread> Workers;
  Workers.reserve(Threads);
  for (unsigned T = 0; T < Threads; ++T) {
    Workers.emplace_back(
        [&Protocol, &Registry, &Popularity, &Hot, &Go, OpsPerThread, T] {
          ScopedThreadAttachment Attach(Registry, "convoy");
          const ThreadContext &Me = Attach.context();
          if (!Me.isValid())
            return;
          SplitMix64 Rng(0x5eed + T);
          uint32_t Acc = T + 1;
          while (!Go.load(std::memory_order_acquire))
            std::this_thread::yield();
          for (uint64_t I = 0; I < OpsPerThread; ++I) {
            Object *Obj = Hot[Popularity.sample(Rng)];
            Protocol.lock(Obj, Me);
            Acc = replayWork(Acc, 16);
            Protocol.unlock(Obj, Me);
          }
          consumeValue(Acc);
        });
  }
  StopWatch Watch;
  Go.store(true, std::memory_order_release);
  for (std::thread &Worker : Workers)
    Worker.join();
  return Watch.elapsedNanos();
}

/// Runs the full workload battery against one concrete protocol.
template <SyncProtocol P>
void runBattery(P &Protocol, const std::string &Name, const Sizes &S,
                std::vector<Row> &Rows) {
  ThreadRegistry Registry(1024);
  Heap TheHeap;
  ScopedThreadAttachment Main(Registry, "matrix-main");
  const ThreadContext &Me = Main.context();

  auto addRow = [&](const char *Workload, uint64_t Ops, uint64_t Nanos) {
    Row R;
    R.Protocol = Name;
    R.ProtocolImpl = Protocol.protocolName();
    R.Workload = Workload;
    R.Ops = Ops;
    R.ElapsedNanos = Nanos;
    Rows.push_back(R);
    std::printf("  %-12s %-16s ops=%-9llu %8.1f ns/op\n", Name.c_str(),
                Workload, static_cast<unsigned long long>(Ops), R.nsPerOp());
  };

  const ClassInfo &Class =
      TheHeap.classes().registerClass("MatrixBench", /*SlotCount=*/1);

  {
    Object *Obj = TheHeap.allocate(Class);
    StopWatch Watch;
    runNativeSync(Protocol, Obj, Me, S.PairIters);
    addRow("uncontended_pair", S.PairIters, Watch.elapsedNanos());
  }

  for (size_t SetSize : {size_t(64), size_t(512)}) {
    std::vector<Object *> Objects;
    Objects.reserve(SetSize);
    for (size_t I = 0; I < SetSize; ++I)
      Objects.push_back(TheHeap.allocate(Class));
    std::string Workload = "multisync_" + std::to_string(SetSize);
    StopWatch Watch;
    runNativeMultiSync(Protocol, Objects, Me, S.MultiIters);
    addRow(Workload.c_str(), S.MultiIters * SetSize, Watch.elapsedNanos());
  }

  {
    uint64_t Nanos =
        runZipfConvoy(Protocol, Registry, TheHeap, S.ConvoyThreads,
                      S.ConvoyOpsPerThread, S.ConvoyHotObjects);
    addRow("zipf_convoy",
           static_cast<uint64_t>(S.ConvoyThreads) * S.ConvoyOpsPerThread,
           Nanos);
  }

  {
    const BenchmarkProfile *Profile = findProfile("javac");
    check(Profile != nullptr, "javac profile missing");
    if (Profile) {
      ReplayConfig Cfg =
          scaledConfigFor(*Profile, S.MacroTargetOps, /*WorkPerSync=*/24);
      ReplayResult Result = replayProfile(*Profile, Protocol, TheHeap, Me, Cfg);
      addRow("macro_javac", Result.SyncOperations, Result.ElapsedNanos);
    }
  }
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--smoke") == 0)
      Opts.Smoke = true;
    else if (std::strcmp(Argv[I], "--out") == 0 && I + 1 < Argc)
      Opts.Out = Argv[++I];
    else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out PATH]\n", Argv[0]);
      return 2;
    }
  }

  Sizes S;
  if (Opts.Smoke) {
    S.PairIters = 200'000;
    S.MultiIters = 200;
    S.ConvoyOpsPerThread = 4'000;
    S.MacroTargetOps = 20'000;
  }

  const std::vector<std::string> &Protocols = registeredProtocolNames();
  std::vector<Row> Rows;
  for (const std::string &Name : Protocols) {
    std::printf("bench_matrix: protocol %s\n", Name.c_str());
    bool Ran = withProtocol(
        Name, ProtocolConfig(),
        [&](auto &Protocol, ProtocolHandle &) {
          runBattery(Protocol, Name, S, Rows);
        });
    check(Ran, "registered protocol failed to instantiate");
  }

  // Workload list, in first-seen order.
  std::vector<std::string> Workloads;
  for (const Row &R : Rows)
    if (std::find(Workloads.begin(), Workloads.end(), R.Workload) ==
        Workloads.end())
      Workloads.push_back(R.Workload);

  // --- Self-checks -------------------------------------------------------
  check(Protocols.size() >= 4, "matrix needs at least 4 protocols");
  check(Workloads.size() >= 3, "matrix needs at least 3 workloads");
  check(Rows.size() == Protocols.size() * Workloads.size(),
        "grid is not complete (some protocol skipped a workload)");
  for (const Row &R : Rows) {
    check(!R.Protocol.empty() && !R.ProtocolImpl.empty(),
          "row missing its protocol label");
    check(R.Ops > 0, "row measured zero operations");
  }

  JsonWriter Doc = beginArtifact("thinlocks-bench-matrix-v1");
  Doc.key("protocols").array(Protocols);
  Doc.key("workloads").array(Workloads);
  Doc.key("rows").beginArray(JsonWriter::Layout::Lines);
  for (const Row &R : Rows)
    Doc.beginObject()
        .field("protocol", R.Protocol)
        .field("protocol_impl", R.ProtocolImpl)
        .field("workload", R.Workload)
        .field("ops", R.Ops)
        .field("elapsed_ns", R.ElapsedNanos)
        .field("ns_per_op", R.nsPerOp(), 2)
        .end();
  Doc.end();
  if (!writeArtifact(Opts.Out, Doc))
    return 1;
  return exitStatus("bench_matrix");
}
