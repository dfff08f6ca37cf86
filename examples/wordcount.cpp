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
// The same interpreted program runs on each protocol; a lock trace is
// recorded and characterized (Table 1 / Figure 3 style).
//
// Build & run:  ./build/examples/wordcount [words]
//
//===----------------------------------------------------------------------===//

#include "support/SplitMix64.h"
#include "support/Timer.h"
#include "vm/NativeLibrary.h"
#include "vm/VM.h"
#include "workload/Trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

using namespace thinlocks;
using namespace thinlocks::vm;
using namespace thinlocks::workload;

namespace {

/// Runs the word count: draws `Words` word-ids from a skewed
/// distribution (a Zipf-ish vocabulary, like real text), counts them in
/// a Hashtable, and keeps the distinct words in a Vector.  Returns the
/// elapsed nanos; optionally records the lock trace.
uint64_t runWordCount(const char *Protocol, int32_t Words,
                      LockTrace *TraceOut) {
  VM Vm(VM::Config{Protocol, {}});
  NativeLibrary Lib(Vm);

  std::unique_ptr<TracingBackend> Tracer;
  if (TraceOut) {
    Tracer = std::make_unique<TracingBackend>(Vm.sync(), *TraceOut);
    Vm.overrideSync(Tracer.get());
  }

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

  Vm.overrideSync(nullptr);
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

  // Separate untimed pass with the recorder attached (recording costs a
  // mutex + append per operation, so it must never share a timed run).
  LockTrace Trace;
  std::printf("\nrecording pass for characterization:\n");
  runWordCount("ThinLock", Words, &Trace);

  std::printf("\nlock-trace characterization:\n");
  std::printf("  synchronized objects: %u\n", Trace.objectCount());
  std::printf("  lock operations:      %llu\n",
              static_cast<unsigned long long>(Trace.lockOperationCount()));
  std::printf("  locks / object:       %.1f\n", Trace.locksPerObject());
  double Mix[4];
  Trace.depthMix(Mix);
  std::printf("  depth mix:            first %.1f%%, second %.1f%%, "
              "third %.1f%%, fourth+ %.1f%%\n",
              Mix[0] * 100, Mix[1] * 100, Mix[2] * 100, Mix[3] * 100);
  std::printf("\nevery one of those %llu lock operations was uncontended "
              "— the single-threaded tax the paper removes.\n",
              static_cast<unsigned long long>(Trace.lockOperationCount()));
  return 0;
}
