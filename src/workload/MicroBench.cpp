//===- workload/MicroBench.cpp - Table 2 micro-benchmarks -----------------===//

#include "workload/MicroBench.h"

#include <atomic>

using namespace thinlocks;
using namespace thinlocks::workload;

namespace {
std::atomic<uint64_t> Sink{0};
} // namespace

uint64_t workload::consumeValue(uint64_t Value) {
  Sink.store(Value, std::memory_order_relaxed);
  return Value;
}

uint64_t workload::runNativeNoSync(uint64_t Iterations) {
  uint64_t Counter = 0;
  for (uint64_t I = 0; I < Iterations; ++I) {
    ++Counter;
    // Defeat loop-collapse: the compiler must not turn the reference
    // loop into a single add.
    asm volatile("" : "+r"(Counter));
  }
  return consumeValue(Counter);
}

TL_NOINLINE uint64_t workload::callPlain(uint64_t Counter) {
  return Counter + 1;
}

uint64_t workload::runNativeCall(uint64_t Iterations) {
  uint64_t Counter = 0;
  for (uint64_t I = 0; I < Iterations; ++I)
    Counter = callPlain(Counter);
  return consumeValue(Counter);
}
