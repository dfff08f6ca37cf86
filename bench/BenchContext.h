//===- bench/BenchContext.h - Build-type context for bench JSON -*- C++ -*-===//
///
/// \file
/// Stamps every google-benchmark JSON document with a
/// `thinlocks_build_type` context field ("release" iff this translation
/// unit was compiled with NDEBUG, i.e. the `bench` preset).
///
/// Why not the library's own `library_build_type` field: that string is
/// compiled into libbenchmark itself, so a distro-packaged shared
/// library reports the *library's* build type (typically "debug") no
/// matter how the benchmark binaries were compiled.  The bench gate
/// (tools/bench_gate.py) therefore keys on this custom field instead —
/// it reflects the flags of the code actually being measured.
///
/// Include this header in every BENCHMARK_MAIN() translation unit.  The
/// registrar runs from a static initializer, which is safe:
/// AddCustomContext lazily allocates the global context map, and
/// duplicate registration cannot happen because each binary has exactly
/// one BENCHMARK_MAIN TU.
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_BENCH_BENCHCONTEXT_H
#define THINLOCKS_BENCH_BENCHCONTEXT_H

#include "BenchArtifact.h"

#include <benchmark/benchmark.h>

namespace {

struct ThinlocksBenchContextRegistrar {
  ThinlocksBenchContextRegistrar() {
    benchmark::AddCustomContext("thinlocks_build_type",
                                thinlocks::bench::BuildType);
  }
};

const ThinlocksBenchContextRegistrar RegisterThinlocksBuildType;

} // namespace

#endif // THINLOCKS_BENCH_BENCHCONTEXT_H
