//===- examples/vm_demo.cpp - Interpreted Java-style workload -------------===//
//
// Assembles a small "program" for the microjvm — synchronized blocks,
// synchronized method calls, and thread-safe Vector usage — and runs it
// on all three synchronization protocols, timing each.  This is the
// paper's experimental setup in miniature: identical interpreted
// bytecode, different locking underneath.
//
// Build & run:  ./build/examples/vm_demo [iterations]
//
//===----------------------------------------------------------------------===//

#include "support/Timer.h"
#include "vm/Assembler.h"
#include "vm/NativeLibrary.h"
#include "vm/VM.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

using namespace thinlocks;
using namespace thinlocks::vm;

namespace {

// program(iters, vector): for i in 0..iters: v.addElement(i); then sums
// the first `iters` elements with elementAt inside a synchronized block.
uint64_t runDemo(const char *Protocol, int32_t Iterations) {
  VM Vm(VM::Config{Protocol, {}});
  NativeLibrary Lib(Vm);

  Klass &App = Vm.defineClass("demo/App", {});

  // Phase 1: fill a Vector through its synchronized addElement.
  Assembler Fill;
  Fill.countedLoop(2, 0, [&](Assembler &A) {
    A.aload(1).iload(2).invoke(Lib.vectorAddElement().Id);
  });
  Fill.iconst(0).iret();
  Method &FillM = Vm.defineMethod(App, "fill", MethodTraits{}, 2, 3,
                                  Fill.finish());

  // Phase 2: sum = 0; for i: synchronized(v) { } ; sum += v.elementAt(i).
  Assembler Sum;
  Sum.iconst(0).istore(3);
  Sum.countedLoop(2, 0, [&](Assembler &A) {
    A.synchronizedOn(1, [](Assembler &) {});
    A.aload(1).iload(2).invoke(Lib.vectorElementAt().Id);
    A.iload(3).iadd().istore(3);
  });
  Sum.iload(3).iret();
  Method &SumM = Vm.defineMethod(App, "sum", MethodTraits{}, 2, 4,
                                 Sum.finish());

  ScopedThreadAttachment Main(Vm.threads(), "main");
  Object *Vec = Vm.newInstance(Lib.vectorClass());
  Value Args[2] = {Value::makeInt(Iterations), Value::makeRef(Vec)};

  StopWatch Watch;
  RunResult FillR = Vm.call(FillM, Args, Main.context());
  RunResult SumR = Vm.call(SumM, Args, Main.context());
  uint64_t Nanos = Watch.elapsedNanos();

  if (!FillR.ok() || !SumR.ok()) {
    std::fprintf(stderr, "demo trapped!\n");
    std::exit(1);
  }
  long long Expected =
      static_cast<long long>(Iterations) * (Iterations - 1) / 2;
  if (SumR.Result.asInt() !=
      static_cast<int32_t>(static_cast<uint32_t>(Expected))) {
    std::fprintf(stderr, "checksum mismatch!\n");
    std::exit(1);
  }
  return Nanos;
}

} // namespace

int main(int Argc, char **Argv) {
  int32_t Iterations = Argc > 1 ? std::atoi(Argv[1]) : 30000;

  std::printf("microjvm demo: %d synchronized Vector ops + %d "
              "synchronized blocks per protocol\n\n",
              2 * Iterations, Iterations);

  const char *const Protocols[] = {"JDK111", "IBM112", "ThinLock"};
  uint64_t Baseline = 0;
  for (const char *P : Protocols) {
    // Median of 3 runs, timing only the interpreted phases (VM setup is
    // excluded inside runDemo).
    uint64_t Samples[3];
    for (uint64_t &S : Samples)
      S = runDemo(P, Iterations);
    std::sort(std::begin(Samples), std::end(Samples));
    uint64_t Nanos = Samples[1];
    if (!Baseline) // JDK111 runs first.
      Baseline = Nanos;
    std::printf("  %-10s %8.2f ms   speedup vs JDK111: %.2fx\n", P,
                Nanos / 1e6,
                Baseline ? static_cast<double>(Baseline) / Nanos : 1.0);
  }
  return 0;
}
