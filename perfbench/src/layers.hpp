#pragma once
// Per-layer probes: each layer of the library is timed and counted from
// outside, around calls into its public functions, at the cell shape of
// the workload being traced. Every probe records a span named after its
// layer.

#include <cstdint>
#include <vector>

#include "probe.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Runs every layer probe at `shape` and returns the per-layer metrics in
/// the order perfbench/metrics.json lists them. `daemon_mix` selects the
/// daemon's own request mix and client count for the net.service probe;
/// other workloads serve their shape's cell from one client. Output
/// mismatches of the service probe are added to `stats`.
[[nodiscard]] std::vector<Metric> measure_layers(const Shape& shape,
                                                 std::uint64_t seed,
                                                 bool daemon_mix,
                                                 OpStats& stats);

}  // namespace perfbench
