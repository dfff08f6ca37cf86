//===- support/SplitMix64.h - Deterministic PRNG ---------------*- C++ -*-===//
///
/// \file
/// SplitMix64 pseudo-random generator (Steele, Lea & Flood, OOPSLA 2014
/// update function).  Used by the synthetic workloads so that every
/// benchmark and test run is exactly reproducible from its seed.
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_SUPPORT_SPLITMIX64_H
#define THINLOCKS_SUPPORT_SPLITMIX64_H

#include <cassert>
#include <cstdint>

namespace thinlocks {

/// A tiny, fast, deterministic 64-bit PRNG.
class SplitMix64 {
  /// What every next() adds to the state.
  static constexpr uint64_t Gamma = 0x9e3779b97f4a7c15ull;

  uint64_t State;

public:
  explicit SplitMix64(uint64_t Seed = Gamma) : State(Seed) {}

  /// \returns the next raw 64-bit value.
  uint64_t next() {
    State += Gamma;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }

  /// \returns a uniform value in [0, Bound).  \p Bound must be nonzero.
  uint64_t nextBounded(uint64_t Bound) {
    assert(Bound != 0 && "bound must be nonzero");
    // Multiply-shift reduction (Lemire); bias is negligible for our use.
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(next()) * Bound) >> 64);
  }

  /// \returns a uniform double in [0, 1).
  double nextDouble() {
    return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// \returns true with probability \p P.
  bool nextBool(double P) { return nextDouble() < P; }

  /// Steps back over the last \p Count outputs, so that the next \p Count
  /// next() calls repeat them.  Exact: the state is a counter that each
  /// output advances by Gamma, modulo 2^64.
  void rewind(uint64_t Count) { State -= Count * Gamma; }
};

} // namespace thinlocks

#endif // THINLOCKS_SUPPORT_SPLITMIX64_H
