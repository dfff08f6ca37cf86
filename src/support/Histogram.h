//===- support/Histogram.h - Latency histogram -----------------*- C++ -*-===//
///
/// \file
/// One histogram shape, LatencyHistogram: a log-linear (HDR-style) value
/// histogram for the SLO quantiles the sustained-load harness reports
/// (p50/p99/p999 acquire latency, time-to-wake).  Log-linear bucketing
/// keeps the relative quantile error bounded (~6% with 16 sub-buckets
/// per power of two) across nine decades of nanoseconds in a few KB of
/// counters, so each worker thread records into its own private
/// histogram and the harness merge()s them at snapshot time — no shared
/// cache line is written on the measurement path.  (The paper's Figure
/// 3 nesting buckets live in LockStats' own depth array.)
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_SUPPORT_HISTOGRAM_H
#define THINLOCKS_SUPPORT_HISTOGRAM_H

#include "support/MathExtras.h"

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>

namespace thinlocks {

/// Log-linear value histogram with quantile queries (see file header).
/// Values are unsigned (nanoseconds in every current use).  Values up to
/// MaxTrackable land in a bucket whose width is at most 1/16th of the
/// value; larger values saturate into a dedicated final bucket.  The
/// exact min and max ever recorded are kept separately, and quantiles
/// are clamped to [min, max], so the edge cases are crisp:
///
///  - empty histogram: quantile() is 0, min()/max()/mean() are 0;
///  - single sample: every quantile returns exactly that sample;
///  - saturating bucket: a quantile landing in it reports the true
///    recorded max, never the (meaningless) bucket lower bound.
///
/// Not internally synchronized: record into per-thread instances and
/// combine with merge().
class LatencyHistogram {
public:
  /// Sub-bucket resolution: 2^4 = 16 linear sub-buckets per power of
  /// two, i.e. at most 6.25% relative bucket width.
  static constexpr unsigned SubBucketBits = 4;
  static constexpr unsigned SubBuckets = 1u << SubBucketBits;
  /// Largest exactly-bucketed value: 2^38 ns is ~4.6 minutes, far past
  /// any latency an SLO report distinguishes.  Everything above
  /// saturates.
  static constexpr unsigned MaxTrackableLog2 = 38;
  static constexpr uint64_t MaxTrackable =
      (1ull << MaxTrackableLog2) - 1;
  /// Buckets: values 0..SubBuckets-1 exact, then one 16-sub-bucket block
  /// per power of two up to MaxTrackableLog2, then the saturation
  /// bucket.
  static constexpr size_t NumBuckets =
      (MaxTrackableLog2 - SubBucketBits + 1) * SubBuckets;
  static constexpr size_t SaturationBucket = NumBuckets;

  void record(uint64_t Value) {
    ++Counts[bucketOf(Value)];
    ++Total;
    Sum = saturatingAdd(Sum, Value);
    if (Total == 1) {
      Minimum = Value;
      Maximum = Value;
    } else {
      if (Value < Minimum)
        Minimum = Value;
      if (Value > Maximum)
        Maximum = Value;
    }
  }

  uint64_t count() const { return Total; }
  bool empty() const { return Total == 0; }
  uint64_t min() const { return Total == 0 ? 0 : Minimum; }
  uint64_t max() const { return Total == 0 ? 0 : Maximum; }
  uint64_t mean() const { return Total == 0 ? 0 : Sum / Total; }
  /// \returns how many recorded values exceeded MaxTrackable.
  uint64_t saturatedCount() const { return Counts[SaturationBucket]; }

  /// \returns an estimate of the \p Q quantile (0 <= Q <= 1) of the
  /// recorded values: the highest value equivalent to the bucket holding
  /// the rank-⌈Q·count⌉ sample, clamped to [min, max].  0 when empty.
  uint64_t quantile(double Q) const {
    if (Total == 0)
      return 0;
    if (Q <= 0.0)
      return Minimum;
    if (Q >= 1.0)
      return Maximum;
    // ceil(Q * Total) without floating-point edge surprises at Q
    // slightly below 1: clamp into [1, Total].
    uint64_t Rank = static_cast<uint64_t>(Q * static_cast<double>(Total));
    if (static_cast<double>(Rank) < Q * static_cast<double>(Total))
      ++Rank;
    if (Rank == 0)
      Rank = 1;
    if (Rank > Total)
      Rank = Total;
    uint64_t Seen = 0;
    for (size_t I = 0; I <= SaturationBucket; ++I) {
      Seen += Counts[I];
      if (Seen >= Rank) {
        if (I == SaturationBucket)
          return Maximum; // Bucket bounds are meaningless past the cap.
        uint64_t High = bucketHigh(I);
        if (High > Maximum)
          High = Maximum;
        if (High < Minimum)
          High = Minimum;
        return High;
      }
    }
    return Maximum; // Unreachable: Seen reaches Total >= Rank.
  }

  /// Accumulates \p Other into this histogram (per-thread SLO histograms
  /// combine at snapshot time).
  void merge(const LatencyHistogram &Other) {
    if (Other.Total == 0)
      return;
    for (size_t I = 0; I <= SaturationBucket; ++I)
      Counts[I] += Other.Counts[I];
    Sum = saturatingAdd(Sum, Other.Sum);
    if (Total == 0 || Other.Minimum < Minimum)
      Minimum = Other.Minimum;
    if (Total == 0 || Other.Maximum > Maximum)
      Maximum = Other.Maximum;
    Total += Other.Total;
  }

  void reset() { *this = LatencyHistogram(); }

  /// \returns the bucket index for \p Value (exposed for tests).
  static constexpr size_t bucketOf(uint64_t Value) {
    if (Value < SubBuckets)
      return static_cast<size_t>(Value);
    if (Value > MaxTrackable)
      return SaturationBucket;
    unsigned Exp = log2Floor(Value);
    unsigned Block = Exp - SubBucketBits + 1;
    uint64_t Sub = (Value >> (Exp - SubBucketBits)) - SubBuckets;
    return static_cast<size_t>(Block) * SubBuckets +
           static_cast<size_t>(Sub);
  }

  /// \returns the smallest value mapping to bucket \p Index.
  static constexpr uint64_t bucketLow(size_t Index) {
    assert(Index < NumBuckets && "no bounds for the saturation bucket");
    if (Index < SubBuckets)
      return Index;
    uint64_t Block = Index >> SubBucketBits;
    uint64_t Sub = Index & (SubBuckets - 1);
    return (SubBuckets + Sub) << (Block - 1);
  }

  /// \returns the largest value mapping to bucket \p Index.
  static constexpr uint64_t bucketHigh(size_t Index) {
    assert(Index < NumBuckets && "no bounds for the saturation bucket");
    if (Index < SubBuckets)
      return Index;
    uint64_t Block = Index >> SubBucketBits;
    return bucketLow(Index) + (1ull << (Block - 1)) - 1;
  }

private:
  std::array<uint64_t, NumBuckets + 1> Counts{};
  uint64_t Total = 0;
  uint64_t Sum = 0;
  uint64_t Minimum = 0;
  uint64_t Maximum = 0;
};

} // namespace thinlocks

#endif // THINLOCKS_SUPPORT_HISTOGRAM_H
