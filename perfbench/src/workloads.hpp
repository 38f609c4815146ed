#pragma once
// The benchmark workloads. Each one is a fixture with a repeatable set-up,
// a timed closed loop of operations, and an output check that runs after
// the timed region. An operation is the unit a user waits for: a streamed
// sweep cell (sweep_mc), one request (daemon_mix).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/trial.hpp"

namespace perfbench {

/// The cell shape a workload runs; the layer probes measure at this shape.
struct Shape {
  std::string scenario;
  std::size_t n = 0;
  double eps = 0.0;
  std::size_t shards = 1;
  std::size_t threads = 1;  ///< Monte-Carlo workers per cell
};

/// What one timed loop produced.
struct OpStats {
  std::vector<double> latency_ms;  ///< one entry per operation, in order
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t failed = 0;         ///< operations that failed a check
  /// Checked operations outside latency_ms (the traced run's service
  /// probe requests); they count as attempted.
  std::uint64_t extra_attempts = 0;
  std::vector<std::string> errors;  ///< first few failure descriptions
  /// Workload-specific side counts, printed as report lines.
  std::vector<std::pair<std::string, double>> extra;

  void fail(std::string why);
};

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual Shape shape() const = 0;
  /// Builds the fixture from scratch (repeated; the last one is used).
  virtual void setup() = 0;
  /// Runs operations back to back until `seconds` have passed. Records
  /// spans when the process tracer is on. `salt` separates the inputs of
  /// several loops in one process.
  virtual OpStats run(double seconds, std::uint64_t salt) = 0;
  /// Checks the outputs of a finished loop (outside the timed region);
  /// every miss is added to stats.failed.
  virtual void check(OpStats& stats) = 0;
};

/// The registry TrialFn of `shape`'s cell at `shards`.
[[nodiscard]] flip::TrialFn make_trial_fn(const Shape& shape,
                                          std::size_t shards);

/// nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

}  // namespace perfbench
