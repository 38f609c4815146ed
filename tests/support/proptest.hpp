#pragma once
// Minimal property-based testing harness for the gtest suite.
//
// The differential/property layer (property_differential_test.cpp,
// simd_differential_test.cpp) checks universal invariants over RANDOM
// configurations, not hand-picked examples. rapidcheck is the
// fully-featured engine for that style and tests/CMakeLists.txt wires it
// in when available (FLIP_HAVE_RAPIDCHECK) — but it cannot be a hard
// dependency: offline builders have no FetchContent network and no system
// package. This header is the dependency-free engine that runs everywhere:
// a deterministic per-iteration generator plus a check() driver that stops
// at the first failing configuration and prints enough to replay it.
//
// Determinism contract: iteration i of a named property always sees the
// same generator stream (seeded from (suite seed, i)), so a failure
// message's iteration number IS the reproducer — no shrinking, but every
// case is replayable, which matters more for differential tests whose
// "counterexample" is a whole scenario config.

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <sstream>
#include <string>

#include "util/rng.hpp"

namespace flip::proptest {

/// Per-iteration random value source: a thin convenience layer over the
/// counter stream of trial `iteration` under master seed `suite_seed`;
/// every draw helper is exact over its range (uniform_index is Lemire's
/// unbiased method).
class Gen {
 public:
  Gen(std::uint64_t suite_seed, std::uint64_t iteration) noexcept
      : rng_(trial_stream_key(suite_seed, iteration)) {}

  std::uint64_t u64() { return rng_(); }

  /// Uniform in [0, n). Precondition: n > 0.
  std::uint64_t index(std::uint64_t n) { return uniform_index(rng_, n); }

  /// Uniform in [lo, hi] (inclusive).
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi) {
    return lo + index(hi - lo + 1);
  }

  /// Uniform double in [lo, hi).
  double real(double lo, double hi) {
    return lo + uniform_unit(rng_) * (hi - lo);
  }

  /// True with probability p.
  bool chance(double p) { return bernoulli(rng_, p); }

  /// One element of a non-empty list.
  template <typename T>
  T pick(std::initializer_list<T> options) {
    auto it = options.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(index(options.size())));
    return *it;
  }

  template <typename Container>
  const typename Container::value_type& pick_from(const Container& c) {
    return c[static_cast<std::size_t>(index(c.size()))];
  }

 private:
  CounterRng rng_;
};

/// Runs `property(gen, iteration)` for `iterations` deterministic cases.
/// Stops at the first iteration that records a gtest failure, after
/// labeling it with the property name and iteration number (the replay
/// coordinates). The property reports failures with the usual
/// EXPECT_*/ASSERT_* macros.
template <typename Property>
void check(const char* name, int iterations, std::uint64_t suite_seed,
           Property&& property) {
  for (int i = 0; i < iterations; ++i) {
    std::ostringstream label;
    label << name << " [iteration " << i << ", suite_seed 0x" << std::hex
          << suite_seed << "]";
    SCOPED_TRACE(label.str());
    property(Gen(suite_seed, static_cast<std::uint64_t>(i)), i);
    if (::testing::Test::HasFailure()) return;  // first counterexample only
  }
}

}  // namespace flip::proptest
