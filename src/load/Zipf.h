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
/// search) narrows that search to one bucket of the CDF.  Within it,
/// rank() counts without a branch how many of one line of eight CDF
/// values are below U, and searches on only for the few draws whose
/// rank lies past that line.  It returns the same rank as a search over
/// the whole CDF for every U, so a given (N, theta, seed) triple yields
/// the same sequence either way — the reproducible-schedule contract of
/// the soak harness, the txn engine and the benchmarks.  The CDF carries
/// seven trailing 1.0 entries so that a window starting at its last
/// ranks stays inside the allocation.
///
/// At N = 1 M the two tables are 9 MB, so a draw's cut-point load and
/// its CDF-window load are usually cache misses, one waiting on the
/// other.  sampleBatch() resolves several draws together: it starts
/// every draw's cut-point load, then both lines of every draw's window,
/// and only then counts, so the misses of different draws overlap.  It
/// returns the ranks, and leaves the PRNG in the state, that the same
/// number of sample() calls would.
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
    Cdf.reserve(N + WindowPad); // Padding too: growing would copy the CDF.
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
    // Above every U, so a window that runs past rank N - 1 counts none
    // of them.
    Cdf.insert(Cdf.end(), WindowPad, 1.0);
  }

  size_t universe() const { return Cdf.size() - WindowPad; }

  /// \returns the next rank drawn from \p Rng.
  size_t sample(SplitMix64 &Rng) const { return rank(Rng.nextDouble()); }

  /// Draws \p Count ranks from \p Rng into \p Ranks.  Contract: the
  /// ranks, in order, and the state \p Rng is left in are exactly those
  /// of \p Count sample() calls.  Only the memory access order differs:
  /// within each block of BatchBlock draws, every cut-point load is
  /// issued before any CDF-window load, and every window load before
  /// any count.
  void sampleBatch(SplitMix64 &Rng, size_t *Ranks, size_t Count) const {
    double U[BatchBlock]; // Unzeroed: zeroing compiles to a slow rep stosq.
    for (size_t Base = 0; Base < Count; Base += BatchBlock) {
      const size_t Block = std::min(BatchBlock, Count - Base);
      for (size_t I = 0; I < Block; ++I) {
        U[I] = Rng.nextDouble();
        TL_PREFETCH(&Cut[bucketOf(U[I])], /*ForWrite=*/0);
      }
      for (size_t I = 0; I < Block; ++I) {
        // A window is one line's worth of doubles, usually across two.
        const double *Window = &Cdf[Cut[bucketOf(U[I])]];
        TL_PREFETCH(Window, /*ForWrite=*/0);
        TL_PREFETCH(Window + WindowSize - 1, /*ForWrite=*/0);
      }
      for (size_t I = 0; I < Block; ++I)
        Ranks[Base + I] = rank(U[I]);
    }
  }

  /// \returns the first rank whose CDF value is >= \p U.
  ///
  /// J = floor(U*M) puts U in [J/M, (J+1)/M), so that rank lies in
  /// [Cut[J], Cut[J+1]]: every value before Cut[J] is < J/M <= U, and
  /// every value from Cut[J+1] on is >= (J+1)/M > U.  The CDF values
  /// below U form a prefix, so counting them among the WindowSize
  /// values from Cut[J] gives the rank whenever the count stops short
  /// of WindowSize; the padding is 1.0 > U and is never counted.  Only
  /// a full count (4-7% of draws) searches on, from Cut[J] + WindowSize
  /// to Cut[J+1], which it returns when every value before it is < U.
  size_t rank(double U) const {
    assert(U >= 0 && U < 1 && "rank() takes U in [0, 1)");
    const size_t J = bucketOf(U);
    const size_t First = Cut[J];
    const double *Window = Cdf.data() + First;
    size_t Below = 0;
    for (size_t I = 0; I < WindowSize; ++I)
      Below += Window[I] < U; // No branch: a compare and an add each.
    if (TL_LIKELY(Below < WindowSize))
      return First + Below;
    const double *Last = Cdf.data() + Cut[J + 1];
    return static_cast<size_t>(
        std::lower_bound(Window + WindowSize, Last, U) - Cdf.data());
  }

private:
  /// Draws whose loads sampleBatch() overlaps: enough to keep a core's
  /// outstanding-miss slots busy, few enough that the prefetched lines
  /// are still in L1 when rank() runs.
  static constexpr size_t BatchBlock = 16;

  /// CDF values rank() counts before it searches: one 64-byte line of
  /// doubles.  Windows of 4 and 16 were slower.
  static constexpr size_t WindowSize = 8;

  /// Trailing 1.0 entries that keep a window from Cdf[N - 1] in bounds.
  static constexpr size_t WindowPad = WindowSize - 1;

  /// \returns J = floor(U*M), the bucket [J/M, (J+1)/M) that holds \p U.
  size_t bucketOf(double U) const { return static_cast<size_t>(U * Scale); }

  std::vector<double> Cdf;
  std::vector<uint32_t> Cut;
  double Scale = 1; // M, the number of buckets.
};

} // namespace load
} // namespace thinlocks

#endif // THINLOCKS_LOAD_ZIPF_H
