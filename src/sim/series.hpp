#pragma once
// Analysis of the (round, value) probe series recorded in Metrics: the
// convergence time. Answers questions like "at which round did 99% of the
// flock know the alert?" without re-running a simulation.

#include <optional>
#include <span>

#include "sim/metrics.hpp"

namespace flip {

/// First probe round at which the series reaches `threshold` (value >=
/// threshold) and never drops below it again. nullopt if that never
/// happens. This is the right notion of "convergence time" for noisy
/// series that can touch a level transiently.
std::optional<Round> stable_crossing(std::span<const Sample> series,
                                     double threshold);

}  // namespace flip
