//===- bench/BenchArtifact.h - What the artifact drivers share -*- C++ -*-===//
///
/// \file
/// The scaffold of the drivers that write BENCH artifacts (bench_matrix,
/// bench_txn, bench_soak, macro_trace): the build-type stamp, the
/// self-check ledger and the checked file write.  An artifact document
/// opens with beginArtifact(), which stamps `schema`, `build_type` and
/// the host's `nproc`; tools/bench_gate.py refuses to publish a timing
/// artifact whose build_type is not "release" (DESIGN.md §16).
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_BENCH_BENCHARTIFACT_H
#define THINLOCKS_BENCH_BENCHARTIFACT_H

#include "support/JsonWriter.h"

#include <cstdio>
#include <fstream>
#include <string_view>
#include <thread>

namespace thinlocks::bench {

/// "release" iff this translation unit was compiled with NDEBUG, i.e. by
/// the bench preset.
#ifdef NDEBUG
inline constexpr const char *BuildType = "release";
#else
inline constexpr const char *BuildType = "debug";
#endif

/// Failed self-checks so far; check() reports and counts them.
inline int Failures = 0;

inline void check(bool Ok, const char *What) {
  if (Ok)
    return;
  std::fprintf(stderr, "FAIL: %s\n", What);
  ++Failures;
}

/// Prints \p Tool's self-check verdict.  \returns its exit status.
inline int exitStatus(const char *Tool) {
  if (Failures != 0) {
    std::fprintf(stderr, "%s: %d self-check(s) failed\n", Tool, Failures);
    return 1;
  }
  std::printf("%s: all self-checks passed\n", Tool);
  return 0;
}

/// \returns an artifact document: an object with a key per line, stamped
/// with \p Schema, BuildType and the CPUs the host offers (what the
/// google-benchmark files record as num_cpus).  Close it with
/// writeArtifact().
inline JsonWriter beginArtifact(const char *Schema) {
  JsonWriter Doc;
  Doc.beginObject(JsonWriter::Layout::Lines)
      .field("schema", Schema)
      .field("build_type", BuildType)
      .field("nproc", std::thread::hardware_concurrency());
  return Doc;
}

/// Writes \p Bytes to \p Path and checks that every byte reached it.
/// \returns false, after saying so on stderr, when it did not.
inline bool writeFile(const char *Path, std::string_view Bytes) {
  std::ofstream File(Path, std::ios::binary | std::ios::trunc);
  if (!File || !File.write(Bytes.data(), Bytes.size()) || !File.flush()) {
    std::fprintf(stderr, "error: cannot write %s\n", Path);
    return false;
  }
  std::printf("wrote %s (%zu bytes)\n", Path, Bytes.size());
  return true;
}

/// Closes \p Doc, opened by beginArtifact(), and writes it to \p Path.
inline bool writeArtifact(const char *Path, JsonWriter &Doc) {
  return writeFile(Path, Doc.end().take() + "\n");
}

} // namespace thinlocks::bench

#endif // THINLOCKS_BENCH_BENCHARTIFACT_H
