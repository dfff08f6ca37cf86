//===- examples/wordcount.cpp - The single-threaded synchronization tax ---===//
//
// The paper's motivating scenario (§1): "Even single-threaded
// applications may spend up to half their time performing useless
// synchronization due to the thread-safe nature of the Java libraries."
//
// This example is such an application: a word-frequency counter written
// against the microjvm's thread-safe library classes.  Every put/get on
// the Hashtable and every addElement/elementAt on the Vector is a
// synchronized method — all pure overhead in a single-threaded run.
// The same interpreted program runs on each protocol; a separate
// ThinLock pass counts its lock operations into a LockStats and
// characterizes them (Table 1 / Figure 3 style).  Exits 1 unless every
// counted operation was an uncontended thin acquire with its release.
//
// Build & run:  ./build/examples/wordcount [words]
//
//===----------------------------------------------------------------------===//

#include "core/LockStats.h"
#include "support/SplitMix64.h"
#include "support/Timer.h"
#include "vm/NativeLibrary.h"
#include "vm/VM.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

using namespace thinlocks;
using namespace thinlocks::vm;

namespace {

/// The program synchronizes on exactly the two library objects it
/// creates: the Hashtable of counts and the Vector of distinct words.
constexpr unsigned SynchronizedObjects = 2;

/// Runs the word count: draws `Words` word-ids from a skewed
/// distribution (a Zipf-ish vocabulary, like real text), counts them in
/// a Hashtable, and keeps the distinct words in a Vector.  Returns the
/// elapsed nanos; when \p Stats is non-null, the protocol counts every
/// lock operation into it.
uint64_t runWordCount(const char *Protocol, int32_t Words,
                      LockStats *Stats) {
  VM::Config Cfg{Protocol, {}};
  Cfg.Sync.Stats = Stats;
  VM Vm(Cfg);
  NativeLibrary Lib(Vm);

  ScopedThreadAttachment Main(Vm.threads(), "main");
  const ThreadContext &Me = Main.context();
  Object *Counts = Vm.newInstance(Lib.hashtableClass());
  Object *Distinct = Vm.newInstance(Lib.vectorClass());

  auto call = [&](const Method &M, std::initializer_list<Value> Args) {
    std::vector<Value> ArgVec(Args);
    RunResult R = Vm.call(M, ArgVec, Me);
    if (!R.ok()) {
      std::fprintf(stderr, "wordcount trapped: %s\n",
                   trapName(R.TrapKind));
      std::exit(1);
    }
    return R.Result;
  };

  SplitMix64 Rng(2718281828u);
  StopWatch Watch;
  for (int32_t I = 0; I < Words; ++I) {
    // Skewed vocabulary: square a uniform draw over 1000 word ids.
    double U = Rng.nextDouble();
    int32_t WordId = static_cast<int32_t>(U * U * 1000.0);

    Value Old = call(Lib.hashtableGet(),
                     {Value::makeRef(Counts), Value::makeInt(WordId)});
    int32_t Count = Old.isRef() ? 0 : Old.asInt(); // null = unseen.
    if (Count == 0)
      call(Lib.vectorAddElement(),
           {Value::makeRef(Distinct), Value::makeInt(WordId)});
    call(Lib.hashtablePut(), {Value::makeRef(Counts),
                              Value::makeInt(WordId),
                              Value::makeInt(Count + 1)});
  }
  int32_t DistinctWords =
      call(Lib.vectorSize(), {Value::makeRef(Distinct)}).asInt();
  uint64_t Nanos = Watch.elapsedNanos();

  std::printf("  %-10s %8.2f ms   (%d distinct words)\n",
              Protocol, Nanos / 1e6, DistinctWords);
  return Nanos;
}

} // namespace

int main(int Argc, char **Argv) {
  int32_t Words = Argc > 1 ? std::atoi(Argv[1]) : 20000;
  std::printf("word-count of %d words through synchronized Hashtable + "
              "Vector (single thread)\n\n",
              Words);

  uint64_t Jdk = runWordCount("JDK111", Words, nullptr);
  uint64_t Ibm = runWordCount("IBM112", Words, nullptr);
  uint64_t Thin = runWordCount("ThinLock", Words, nullptr);

  std::printf("\nspeedup of thin locks over JDK111: %.2fx   over IBM112: "
              "%.2fx\n",
              double(Jdk) / Thin, double(Ibm) / Thin);

  // Separate untimed pass with the counters attached, so no timed run
  // pays for them.
  LockStats Stats;
  std::printf("\ncounting pass for characterization:\n");
  runWordCount("ThinLock", Words, &Stats);
  LockStats::Snapshot S = Stats.snapshot();

  std::printf("\nlock characterization:\n");
  std::printf("  synchronized objects: %u\n", SynchronizedObjects);
  std::printf("  lock operations:      %llu\n",
              static_cast<unsigned long long>(S.Acquisitions));
  std::printf("  locks / object:       %.1f\n",
              double(S.Acquisitions) / SynchronizedObjects);
  std::printf("  depth mix:            first %.1f%%, second %.1f%%, "
              "third %.1f%%, fourth+ %.1f%%\n",
              S.depthFraction(0) * 100, S.depthFraction(1) * 100,
              S.depthFraction(2) * 100, S.depthFraction(3) * 100);
  if (S.Releases != S.Acquisitions || S.inflations() != 0 ||
      S.FatPath != 0) {
    std::fprintf(stderr,
                 "wordcount: not every lock operation was uncontended: "
                 "%llu acquisitions, %llu releases, %llu inflations, "
                 "%llu fat-path acquires\n",
                 static_cast<unsigned long long>(S.Acquisitions),
                 static_cast<unsigned long long>(S.Releases),
                 static_cast<unsigned long long>(S.inflations()),
                 static_cast<unsigned long long>(S.FatPath));
    return 1;
  }
  std::printf("\nevery one of those %llu lock operations was uncontended "
              "— the single-threaded tax the paper removes.\n",
              static_cast<unsigned long long>(S.Acquisitions));
  return 0;
}
