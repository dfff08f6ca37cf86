//===- bench/bench_txn.cpp - Transactional scenario grid ------------------===//
//
// Runs the transactional scenario engine (src/txn/, DESIGN.md §15) over
// every registered protocol x every conflict policy and publishes the
// grid as one JSON artifact (BENCH_txn.json via run_benches.sh
// BENCH_TXN=1):
//
//   NoWait      tryLock 2PL, abort on any conflict
//   WaitDie     timestamp-ordered 2PL over tryLockFor; on thin locks
//               the cycle detector's Deadlock verdict is a precise
//               abort signal
//   Validated   OCC reads + short lock-only commit window
//
// Each cell draws Zipf(0.8) read/write sets from a large per-run object
// universe, so the hot head concentrates conflicts onto a few monitors
// (inflation/morphing territory) while the tail stays thin.  Rows carry
// commit/abort counts split by cause, commit throughput, and the
// abort-latency p99.
//
// Self-checking like bench_matrix: the grid must cover all 5 protocols
// x 3 policies, every cell must satisfy `started == committed +
// aborted`, commit at least once, and report zero serializability
// violations, or the binary exits non-zero.
//
// Usage:
//   bench_txn [--smoke] [--out BENCH_txn.json]
//
//===----------------------------------------------------------------------===//

#include "BenchArtifact.h"

#include "core/ProtocolRegistry.h"
#include "txn/TxnEngine.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace thinlocks;
using namespace thinlocks::bench;
using namespace thinlocks::txn;

namespace {

struct Options {
  bool Smoke = false;
  const char *Out = "BENCH_txn.json";
};

/// Grid sizing; --smoke shrinks everything for CI.
struct Sizes {
  size_t HeapObjects = 1'000'000;
  unsigned Threads = 4;
  uint64_t TxnsPerThread = 50'000;
  uint32_t ReadSetSize = 4;
  uint32_t WriteSetSize = 2;
  double ZipfTheta = 0.8;
};

struct Cell {
  std::string Protocol;
  std::string ProtocolImpl;
  std::string Policy;
  TxnStats Stats;
  uint64_t ElapsedNanos = 0;
  double CommitsPerSec = 0;
  bool IntegrityOk = false;
};

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
    S.HeapObjects = 4096;
    S.Threads = 3;
    S.TxnsPerThread = 1500;
  }

  const std::vector<std::string> &Protocols = registeredProtocolNames();
  std::vector<std::string> Policies;
  for (ConflictPolicyKind Kind : allConflictPolicies())
    Policies.push_back(conflictPolicyName(Kind));

  std::vector<Cell> Cells;
  for (const std::string &Name : Protocols) {
    for (ConflictPolicyKind Kind : allConflictPolicies()) {
      TxnScenarioConfig Config;
      Config.Protocol = Name;
      Config.Policy = Kind;
      Config.Params.HeapObjects = S.HeapObjects;
      Config.Params.ZipfTheta = S.ZipfTheta;
      Config.Params.Threads = S.Threads;
      Config.Params.TxnsPerThread = S.TxnsPerThread;
      Config.Params.ReadSetSize = S.ReadSetSize;
      Config.Params.WriteSetSize = S.WriteSetSize;
      Config.Params.Seed = 0x7a11 + Cells.size();
      TxnScenarioResult Result = runTxnScenario(Config);

      Cell C;
      C.Protocol = Name;
      C.ProtocolImpl = Result.ProtocolImpl;
      C.Policy = conflictPolicyName(Kind);
      C.Stats = Result.Stats;
      C.ElapsedNanos = Result.ElapsedNanos;
      C.CommitsPerSec = Result.commitsPerSecond();
      C.IntegrityOk = Result.IntegrityOk;
      std::printf("  %-12s %-10s committed=%-8llu aborted=%-7llu "
                  "%10.0f commits/s  abort_p99=%lluns\n",
                  C.Protocol.c_str(), C.Policy.c_str(),
                  static_cast<unsigned long long>(C.Stats.Committed),
                  static_cast<unsigned long long>(C.Stats.aborted()),
                  C.CommitsPerSec,
                  static_cast<unsigned long long>(
                      C.Stats.AbortLatency.quantile(0.99)));
      Cells.push_back(std::move(C));
    }
  }

  // --- Self-checks -------------------------------------------------------
  check(Protocols.size() >= 5, "grid needs all 5 registered protocols");
  check(Policies.size() == 3, "grid needs all 3 conflict policies");
  check(Cells.size() == Protocols.size() * Policies.size(),
        "grid is not complete (some protocol skipped a policy)");
  for (const Cell &C : Cells) {
    check(!C.Protocol.empty() && !C.ProtocolImpl.empty() && !C.Policy.empty(),
          "cell missing its labels");
    check(C.Stats.identityHolds(),
          "accounting identity started == committed + aborted violated");
    check(C.Stats.Committed > 0, "cell committed zero transactions");
    check(C.Stats.ConsistencyViolations == 0,
          "serializability spot-check failed (value != version)");
    check(C.IntegrityOk,
          "version-sum integrity violated (lost or phantom writes)");
    check(C.Stats.LeakedLocks == 0, "aborted transaction leaked a lock");
    check(C.Stats.AttachFailures == 0,
          "a worker failed to attach (throughput under-reported)");
  }

  JsonWriter Doc = beginArtifact("thinlocks-bench-txn-v1");
  Doc.key("protocols").array(Protocols);
  Doc.key("policies").array(Policies);
  Doc.key("rows").beginArray(JsonWriter::Layout::Lines);
  for (const Cell &C : Cells) {
    Doc.beginObject()
        .field("protocol", C.Protocol)
        .field("protocol_impl", C.ProtocolImpl)
        .field("policy", C.Policy)
        .field("started", C.Stats.Started)
        .field("committed", C.Stats.Committed)
        .field("aborted", C.Stats.aborted());
    Doc.key("aborts")
        .beginObject()
        .field("busy", C.Stats.AbortedBusy)
        .field("die", C.Stats.AbortedDie)
        .field("deadlock", C.Stats.AbortedDeadlock)
        .field("validation", C.Stats.AbortedValidation)
        .end();
    Doc.field("commits_per_sec", C.CommitsPerSec, 1)
        .field("abort_p99_ns", C.Stats.AbortLatency.quantile(0.99))
        .field("commit_p99_ns", C.Stats.CommitLatency.quantile(0.99))
        .field("consistency_violations", C.Stats.ConsistencyViolations)
        .field("attach_failures", C.Stats.AttachFailures)
        .field("elapsed_ns", C.ElapsedNanos)
        .end();
  }
  Doc.end();
  if (!writeArtifact(Opts.Out, Doc))
    return 1;
  return exitStatus("bench_txn");
}
