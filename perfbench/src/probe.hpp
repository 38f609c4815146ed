#pragma once
// Measurement primitives shared by every perfbench workload and layer probe:
// clocks, the counting allocator switch, the percentile rule, outcome
// digests and the in-memory span tracer. Everything here times the library
// from OUTSIDE, around calls into it; nothing reaches into the program.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "sim/trial.hpp"

namespace perfbench {

// --- clocks ----------------------------------------------------------------

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double ms_since(Clock::time_point start) {
  return seconds_between(start, Clock::now()) * 1e3;
}
[[nodiscard]] std::uint64_t now_ns();
/// CPU time of the whole process (every thread), in seconds.
[[nodiscard]] double process_cpu_seconds();
/// Peak resident set size of the process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

// --- counting allocator ----------------------------------------------------
// The benchmark binary replaces the global operator new (probe.cpp) with a
// malloc passthrough that counts allocations only while a window is open.
// Closed — the state of every end-to-end run — it costs one relaxed atomic
// load per allocation.

/// Counts every heap allocation (all threads) made while it is alive.
class AllocWindow {
 public:
  AllocWindow();
  ~AllocWindow();
  AllocWindow(const AllocWindow&) = delete;
  AllocWindow& operator=(const AllocWindow&) = delete;
  [[nodiscard]] std::uint64_t count() const;

 private:
  std::uint64_t start_;
};

// --- percentiles -----------------------------------------------------------

/// Nearest-rank percentile (p in [0, 100]) of unsorted samples; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> samples, double p);
[[nodiscard]] inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}
/// Samples strictly above the nearest-rank p-th percentile of n samples.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);
/// The reporting rule for tails: the highest of p99.9 / p99 / p90 / p50
/// that has at least 10 samples beyond it; 0 when even p50 has fewer.
[[nodiscard]] double tail_percentile(std::size_t n);

// --- seeds -----------------------------------------------------------------

/// Stream `stream` of the workload seed (splitmix64 finalizer): the one way
/// every workload turns --seed into its inputs.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream);

// --- outcome checks --------------------------------------------------------

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
/// FNV-1a of `bytes`, continuing from `h`.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes,
                                  std::uint64_t h = kFnvOffset);
/// Order-sensitive hash of every deterministic field of one trial outcome.
[[nodiscard]] std::uint64_t outcome_digest(const flip::TrialOutcome& o);
/// Message conservation: every sent message was delivered, dropped or
/// erased.
[[nodiscard]] bool conserves(const flip::TrialOutcome& o);

// --- spans -----------------------------------------------------------------

/// One timed call. `parent` indexes the enclosing span of the same thread
/// (-1 at top level); `id` is the trial, cell or request number.
struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t id = 0;
};

/// In-memory span store. Off by default: begin() then returns -1 and
/// records nothing. Spans are written out once, at exit.
class Tracer {
 public:
  void enable(bool on);
  [[nodiscard]] std::int64_t begin(const char* name, std::uint64_t id);
  void end(std::int64_t index);
  [[nodiscard]] std::vector<Span> spans() const;
  /// One JSON object per line; false when the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  bool on_ = false;
};

[[nodiscard]] Tracer& tracer();

/// RAII span on the process tracer.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, std::uint64_t id = 0)
      : index_(tracer().begin(name, id)) {}
  ~ScopedSpan() { tracer().end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::int64_t index_;
};

/// Self time of every span: its duration minus the union of the intervals
/// its direct children cover (clipped to the span).
[[nodiscard]] std::vector<std::uint64_t> self_times_ns(
    const std::vector<Span>& spans);

// --- results ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

}  // namespace perfbench
