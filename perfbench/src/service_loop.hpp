#pragma once
// Closed-loop clients for the sweep daemon, shared by the daemon_mix
// workload and the net.service layer probe: client threads each send their
// next request only after the previous answer arrived, drawing requests
// from a seeded fixed-share deck. Answer digests are kept and checked
// against the in-process CLI path after the loop.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cli/wire.hpp"
#include "probe.hpp"
#include "workloads.hpp"

namespace perfbench {

enum class RequestKind { kTiny, kMajority, kSurrogate, kInvalid };

struct MixedRequest {
  RequestKind kind = RequestKind::kTiny;
  flip::cli::SweepRequest request;
};

/// daemon_mix's request variants for a seed, all on the server's shared
/// pool: tiny exact sweeps (broadcast_small n=256, 8 trials, the size of
/// the CI daemon smoke's request), majority n=1024 (4 trials), a surrogate
/// broadcast grid up to n=1e9, and requests the CLI rejects.
[[nodiscard]] std::vector<MixedRequest> daemon_variants(std::uint64_t seed);
/// The fixed shares: 40 slots of variant indices (20 tiny, 4 majority,
/// 10 surrogate, 6 invalid), shuffled per pass by each client. They are
/// sized, not taken from measured traffic. With two closed-loop clients a
/// request waits for the other client's request, so its latency is about
/// the sum of two service times. Tiny and surrogate requests cost about the
/// same, so their pairs make one cluster that holds p50 in its middle;
/// a majority request costs about six tiny ones, and the pairs it is part
/// of (about a fifth of all requests) hold p90 in their middle. Tiny and
/// majority requests take about two fifths of the runner's time each,
/// surrogate sweeps about a sixth.
[[nodiscard]] std::vector<std::size_t> daemon_deck();

struct RequestRecord {
  std::size_t variant = 0;
  double latency_ms = 0.0;
  double first_frame_ms = 0.0;  ///< time to the first point frame
  std::string error;            ///< the client's exception text, if any
  /// Point lines received and the digest of their timing-stripped bytes:
  /// kept instead of the lines so that memory does not grow with the
  /// number of requests served.
  std::size_t lines = 0;
  std::uint64_t lines_digest = kFnvOffset;
};

struct ServiceLoop {
  std::vector<RequestRecord> records;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

[[nodiscard]] ServiceLoop run_service_loop(
    std::uint16_t port, const std::vector<MixedRequest>& variants,
    const std::vector<std::size_t>& deck, std::size_t clients,
    double seconds, std::uint64_t seed);

/// What the CLI path answers for a request, in process: the point lines
/// with the timing fields stripped, or the rejection text. Also times the
/// in-process stages a served request goes through.
struct Expected {
  std::size_t lines = 0;
  std::uint64_t lines_digest = kFnvOffset;
  std::string error;
  double parse_resolve_us = 0.0;
  double run_sweep_ms = 0.0;
  double point_line_us = 0.0;
};
[[nodiscard]] Expected expected_answer(const flip::cli::SweepRequest& request);

/// A point line up to its first nondeterministic field (trial_seconds).
[[nodiscard]] std::string_view strip_timing(std::string_view line);

/// The text SweepClient throws for a server `error` frame.
[[nodiscard]] std::string client_error_text(const std::string& reject);

/// Compares every record with its variant's expected answer; each miss
/// (wrong lines, wrong or missing rejection, busy refusal) fails one op.
/// Returns the number of busy refusals.
std::size_t check_service_loop(const ServiceLoop& loop,
                               const std::vector<Expected>& expected,
                               OpStats& stats);

}  // namespace perfbench
