//===- load/Zipf.h - Zipfian popularity sampler ----------------*- C++ -*-===//
///
/// \file
/// A seeded Zipf(theta) sampler over a fixed universe of N items.  The
/// soak harness uses it to pick which shared objects a session touches,
/// the txn engine to draw read and write sets, and the benchmarks to pick
/// convoy targets.  The paper's locking characterization (§3.1) found
/// synchronization concentrating on a handful of hot objects; a Zipfian
/// popularity curve reproduces that concentration deliberately, so the
/// load exercises a few inflated hot monitors plus a long thin-locked
/// tail instead of a uniform spray that would keep everything thin.
///
/// Implementation: the normalized CDF (item i has weight 1/(i+1)^theta)
/// is precomputed once; a draw is one PRNG double U and the first rank
/// whose CDF value is >= U.  A cut-point table (Chen & Asau's indexed
/// search) narrows that search to one bucket of the CDF, and returns the
/// same rank as a search over the whole CDF for every U, so a given
/// (N, theta, seed) triple yields the same sequence either way — the
/// reproducible-schedule contract of the soak harness, the txn engine
/// and the benchmarks.
///
/// At N = 1 M the two tables are 9 MB, so a draw's cut-point load and
/// its CDF-bucket load are usually cache misses, one waiting on the
/// other.  sampleBatch() resolves several draws together: it starts
/// every draw's cut-point load, then every draw's bucket load, and only
/// then searches, so the misses of different draws overlap.  It returns
/// the ranks, and leaves the PRNG in the state, that the same number of
/// sample() calls would.
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_LOAD_ZIPF_H
#define THINLOCKS_LOAD_ZIPF_H

#include "support/Compiler.h"
#include "support/SplitMix64.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace thinlocks {
namespace load {

/// Samples ranks in [0, N) with Zipfian skew.  Rank 0 is the hottest.
class ZipfSampler {
public:
  /// \param N universe size (must be >= 1).
  /// \param Theta skew exponent: 0 is uniform; ~0.8-1.0 matches the
  /// hot-object concentration measured in real lock traces.
  ZipfSampler(size_t N, double Theta) {
    assert(N >= 1 && "empty universe");
    assert(N - 1 <= UINT32_MAX && "cut points store ranks as uint32_t");
    Cdf.reserve(N);
    double Sum = 0;
    for (size_t I = 0; I < N; ++I) {
      Sum += 1.0 / std::pow(static_cast<double>(I + 1), Theta);
      Cdf.push_back(Sum);
    }
    for (double &Value : Cdf)
      Value /= Sum;
    Cdf.back() = 1.0; // Exact, despite rounding.

    // Cut[J] is the first rank whose CDF value is >= J/M, for J in
    // [0, M].  M is a power of two, so Step, J*Step and U*M are exact
    // doubles and each bucket [J/M, (J+1)/M) is exactly the U that
    // rank() maps to J.
    const size_t M = std::bit_ceil(std::max<size_t>(1, N / 4));
    Scale = static_cast<double>(M);
    const double Step = 1.0 / Scale;
    Cut.resize(M + 1);
    size_t Rank = 0;
    for (size_t J = 0; J <= M; ++J) {
      while (Cdf[Rank] < static_cast<double>(J) * Step)
        ++Rank;
      Cut[J] = static_cast<uint32_t>(Rank);
    }
  }

  size_t universe() const { return Cdf.size(); }

  /// \returns the next rank drawn from \p Rng.
  size_t sample(SplitMix64 &Rng) const { return rank(Rng.nextDouble()); }

  /// Draws \p Count ranks from \p Rng into \p Ranks.  Contract: the
  /// ranks, in order, and the state \p Rng is left in are exactly those
  /// of \p Count sample() calls.  Only the memory access order differs:
  /// within each block of BatchBlock draws, every cut-point load is
  /// issued before any CDF-bucket load, and every bucket load before
  /// any search.
  void sampleBatch(SplitMix64 &Rng, size_t *Ranks, size_t Count) const {
    double U[BatchBlock]; // Unzeroed: zeroing compiles to a slow rep stosq.
    for (size_t Base = 0; Base < Count; Base += BatchBlock) {
      const size_t Block = std::min(BatchBlock, Count - Base);
      for (size_t I = 0; I < Block; ++I) {
        U[I] = Rng.nextDouble();
        TL_PREFETCH(&Cut[bucketOf(U[I])], /*ForWrite=*/0);
      }
      for (size_t I = 0; I < Block; ++I)
        TL_PREFETCH(&Cdf[Cut[bucketOf(U[I])]], /*ForWrite=*/0);
      for (size_t I = 0; I < Block; ++I)
        Ranks[Base + I] = rank(U[I]);
    }
  }

  /// \returns the first rank whose CDF value is >= \p U.
  ///
  /// J = floor(U*M) puts U in [J/M, (J+1)/M), so that rank lies in
  /// [Cut[J], Cut[J+1]]; the search returns Cut[J+1] when every CDF value
  /// before it is < U.
  size_t rank(double U) const {
    assert(U >= 0 && U < 1 && "rank() takes U in [0, 1)");
    const size_t J = bucketOf(U);
    const auto First = Cdf.begin() + Cut[J];
    const auto Last = Cdf.begin() + Cut[J + 1];
    return static_cast<size_t>(std::lower_bound(First, Last, U) -
                               Cdf.begin());
  }

private:
  /// Draws whose loads sampleBatch() overlaps: enough to keep a core's
  /// outstanding-miss slots busy, few enough that the prefetched lines
  /// are still in L1 when the searches run.
  static constexpr size_t BatchBlock = 16;

  /// \returns J = floor(U*M), the bucket [J/M, (J+1)/M) that holds \p U.
  size_t bucketOf(double U) const { return static_cast<size_t>(U * Scale); }

  std::vector<double> Cdf;
  std::vector<uint32_t> Cut;
  double Scale = 1; // M, the number of buckets.
};

} // namespace load
} // namespace thinlocks

#endif // THINLOCKS_LOAD_ZIPF_H
