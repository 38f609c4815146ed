#pragma once
// Interaction-graph layer: WHO an agent's push can reach. The paper's model
// is uniform pull-free push over the complete graph — every scenario before
// this layer sampled recipients as uniform_index(n-1). The topologies here
// relax that to sparse families while keeping the repo-wide determinism
// contract intact:
//
//  * complete    — the existing behavior. The identity path: recipient
//                  draws are bit-for-bit the draws the engines always made,
//                  so every committed golden vector and benchmark baseline
//                  still holds.
//  * ring        — k-regular circulant: agent a's out-neighbors are
//                  a +- 1 .. a +- k/2 (mod n). Diameter n/k: the locality
//                  stress case.
//  * grid        — 2-D torus, Chebyshev radius rho: all (dx, dy) != (0, 0)
//                  with |dx|, |dy| <= rho, degree (2 rho + 1)^2 - 1. n is
//                  factored as rows x cols (rows = the largest divisor of n
//                  at most sqrt(n)); agents are row-major.
//  * smallworld  — directed Watts-Strogatz over the k-ring: each of an
//                  agent's k ring edges is independently rewired (with
//                  probability rewire_prob) to a uniform non-self target,
//                  once per trial. Out-degree stays exactly k; rewired
//                  targets may duplicate (standard directed WS).
//  * dynamic     — the small-world rewiring redrawn EVERY ROUND: the graph
//                  itself churns under the protocol.
//
// Determinism: a neighbor set is a pure function of (trial key, round,
// agent) through the RngPurpose::kTopology counter lane. Edge j of agent a
// reads its own stream CounterRng(topo_round_key, a * kTopologyEdgeStride
// + j) — random access to any edge without replaying edges 0..j-1, and no
// dependence on any other agent's draws — so the classic Engine, the
// sharded BatchEngine, and every thread/shard count see the identical
// graph. Static kinds key the lane by the kTopologyStaticRound sentinel
// (one graph per trial); dynamic keys it by the round.
//
// The engines consume this through two calls on the route hot path:
// draw_bound() — the range of the recipient index draw (degree, or n-1 on
// the complete graph: the ONE bound the single-shard and sharded routes
// share) — and recipient(), which maps the drawn index to an agent id.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "net/message.hpp"
#include "util/rng.hpp"

namespace flip {

enum class TopologyKind : std::uint8_t {
  kComplete = 0,
  kRing = 1,
  kGrid = 2,
  kSmallWorld = 3,
  kDynamic = 4,
};

[[nodiscard]] constexpr std::string_view topology_kind_name(
    TopologyKind kind) noexcept {
  switch (kind) {
    case TopologyKind::kRing:
      return "ring";
    case TopologyKind::kGrid:
      return "grid";
    case TopologyKind::kSmallWorld:
      return "smallworld";
    case TopologyKind::kDynamic:
      return "dynamic";
    case TopologyKind::kComplete:
      break;
  }
  return "complete";
}

/// Per-edge stream stride inside the kTopology lane: edge j of agent a is
/// the stream (topo key, a * stride + j). Also the degree ceiling for the
/// rewired kinds — validate() enforces k <= stride so streams of distinct
/// (agent, edge) pairs can never collide.
inline constexpr std::uint64_t kTopologyEdgeStride = 64;

/// The pseudo-round keying the STATIC kinds' rewire draws (smallworld draws
/// its graph once per trial). Far above any real round, so the static graph
/// stream can never collide with a dynamic per-round stream; the kChurn
/// lane uses the same sentinel value safely because the purpose bits of
/// round_stream_key differ.
inline constexpr std::uint64_t kTopologyStaticRound = (~std::uint64_t{0}) >> 3;

/// What the user asks for: n-independent parameters of a graph family.
/// n-dependent validation (k <= n-2, grid factorization) happens in
/// ResolvedTopology::resolve once the population size is known.
struct TopologySpec {
  TopologyKind kind = TopologyKind::kComplete;
  /// Out-degree of ring / smallworld / dynamic. Must be even (ring offsets
  /// come in +-pairs) and, for the rewired kinds, <= kTopologyEdgeStride.
  std::size_t k = 8;
  /// Chebyshev radius of the grid kind; degree (2*radius + 1)^2 - 1.
  std::size_t radius = 1;
  /// Per-edge rewire probability of smallworld / dynamic.
  double rewire_prob = 0.1;

  [[nodiscard]] bool complete() const noexcept {
    return kind == TopologyKind::kComplete;
  }

  /// Throws std::invalid_argument on n-independent violations: odd or
  /// too-small k, zero radius, rewire_prob outside [0, 1].
  void validate() const;

  /// "complete", "ring(k=8)", "grid(r=2)", "smallworld(k=8 p=0.1)",
  /// "dynamic(k=8 p=0.1)". Comma-free, so it embeds into CSV cells
  /// unquoted, like the schedule/churn describe() strings.
  [[nodiscard]] std::string describe() const;

  /// Parses a CLI spec:
  ///   complete
  ///   ring[:K]                 k-regular ring (default k = 8)
  ///   grid[:RADIUS]            2-D torus, Chebyshev radius (default 1)
  ///   smallworld[:K[:PROB]]    Watts-Strogatz (defaults k = 8, p = 0.1)
  ///   dynamic[:K[:PROB]]       per-round rewiring (same defaults)
  /// Throws std::invalid_argument (message names the offending piece).
  static TopologySpec parse(std::string_view spec);

  friend bool operator==(const TopologySpec&,
                         const TopologySpec&) noexcept = default;
};

/// A TopologySpec bound to a population size: the object the engines'
/// route phases consult. resolve() performs the n-dependent validation and
/// precomputes the grid factorization; everything after that is branch-lean
/// inline arithmetic on the per-message path.
class ResolvedTopology {
 public:
  /// Default: the complete graph over n = 2 (the smallest population any
  /// engine accepts). Exists so engines can hold one by value.
  ResolvedTopology() = default;

  /// Binds `spec` to population `n`. Throws std::invalid_argument with an
  /// actionable message when the family does not fit the population:
  /// k > n - 2, or no grid factorization with both sides >= 2*radius + 1.
  static ResolvedTopology resolve(const TopologySpec& spec, std::size_t n);

  [[nodiscard]] TopologyKind kind() const noexcept { return spec_.kind; }
  [[nodiscard]] const TopologySpec& spec() const noexcept { return spec_; }
  [[nodiscard]] bool complete() const noexcept { return spec_.complete(); }
  /// True when the graph is redrawn every round (the dynamic kind).
  [[nodiscard]] bool dynamic_rewire() const noexcept {
    return spec_.kind == TopologyKind::kDynamic;
  }
  /// True when neighbor lookups read the kTopology lane (the rewired
  /// kinds); ring/grid/complete are pure arithmetic and ignore the key.
  [[nodiscard]] bool keyed() const noexcept {
    return spec_.kind == TopologyKind::kSmallWorld || dynamic_rewire();
  }

  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  /// Out-degree of every agent (degree-uniform by construction);
  /// n - 1 on the complete graph.
  [[nodiscard]] std::uint64_t degree() const noexcept { return degree_; }
  /// The range of the per-message recipient index draw — the single bound
  /// the single-shard and sharded route paths share. Equals degree().
  [[nodiscard]] std::uint64_t draw_bound() const noexcept { return degree_; }
  /// Grid factorization (rows * cols == n, row-major agent layout);
  /// meaningful for the grid kind only.
  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  /// The kTopology-lane key the rewired kinds read in round `r`: per-round
  /// for dynamic, the kTopologyStaticRound sentinel (one graph per trial)
  /// for smallworld. Callers hoist this out of the per-message loop, like
  /// the route/channel round keys.
  [[nodiscard]] StreamKey round_key(const StreamKey& trial_key,
                                    std::uint64_t r) const noexcept {
    return round_stream_key(trial_key, RngPurpose::kTopology,
                            dynamic_rewire() ? r : kTopologyStaticRound);
  }

  /// Out-neighbor j (0 <= j < degree()) of agent `a`. Pure function of
  /// (topo_key, a, j); never returns `a` itself. `topo_key` is read by the
  /// rewired kinds only.
  [[nodiscard]] AgentId neighbor(const StreamKey& topo_key, AgentId a,
                                 std::uint64_t j) const {
    switch (spec_.kind) {
      case TopologyKind::kRing:
        return ring_neighbor(a, j);
      case TopologyKind::kGrid:
        return grid_neighbor(a, j);
      case TopologyKind::kSmallWorld:
      case TopologyKind::kDynamic: {
        // Edge j's own stream: one bernoulli(rewire_prob) coin as an
        // integer compare, then, on rewire, one uniform draw over the n-1
        // non-self targets. bernoulli draws no coin at p >= 1, so neither
        // does this: at p = 1 the target is word 1 of the stream.
        CounterRng erng(topo_key,
                        static_cast<std::uint64_t>(a) * kTopologyEdgeStride +
                            j);
        if (rewire_threshold_ == kBernoulliAlways ||
            (erng() >> 11) < rewire_threshold_) {
          auto t = static_cast<AgentId>(uniform_index(erng, n_ - 1));
          t += (t >= a);
          return t;
        }
        return ring_neighbor(a, j);
      }
      case TopologyKind::kComplete:
        break;
    }
    // Complete: index j enumerates the n-1 other agents directly.
    auto t = static_cast<AgentId>(j);
    t += (t >= a);
    return t;
  }

  /// One recipient draw for sender `a`: uniform over its out-neighbors.
  /// On the complete graph this is EXACTLY the historical formula
  /// (uniform_index(rng, n-1) + self-skip) — same words consumed, same
  /// recipient — so the identity path costs nothing and changes nothing.
  template <typename Rng>
  [[nodiscard]] AgentId recipient(Rng& rng, const StreamKey& topo_key,
                                  AgentId a) const {
    const std::uint64_t j = uniform_index(rng, degree_);
    if (spec_.kind == TopologyKind::kComplete) {
      auto t = static_cast<AgentId>(j);
      t += (t >= a);
      return t;
    }
    return neighbor(topo_key, a, j);
  }

 private:
  [[nodiscard]] AgentId ring_neighbor(AgentId a, std::uint64_t j) const {
    // Offsets +1..+k/2 then -1..-k/2; k <= n-2 keeps all k distinct and
    // non-self (resolve() enforces it). Both candidates are computed and
    // one selected by mask arithmetic: j is a uniform draw, so a branch on
    // j < half would mispredict half the time, and GCC compiles a ternary
    // here to exactly that branch. Both candidates lie in [0, 2n).
    const std::uint64_t half = static_cast<std::uint64_t>(spec_.k) / 2;
    const std::uint64_t forward = a + j + 1;
    const std::uint64_t backward = a + n_ + half - j - 1;  // off j - half + 1
    const std::uint64_t back = std::uint64_t{0} - (j >= half);
    const std::uint64_t base = (forward & ~back) | (backward & back);
    const std::uint64_t wrap = std::uint64_t{0} - (base >= n_);
    return static_cast<AgentId>(base - (n_ & wrap));
  }

  [[nodiscard]] AgentId grid_neighbor(AgentId a, std::uint64_t j) const {
    // Row-major enumeration of the (2r+1)^2 Chebyshev window with the
    // center skipped: jj = j, shifted past the (0,0) cell.
    const std::uint64_t w = 2 * static_cast<std::uint64_t>(spec_.radius) + 1;
    const std::uint64_t center = (w * w - 1) / 2;
    const std::uint64_t jj = j + (j >= center);
    const std::uint64_t dy = jj / w;  // 0..2r; row offset dy - r
    const std::uint64_t dx = jj % w;
    const std::uint64_t row = a / cols_;
    const std::uint64_t col = a % cols_;
    // rows_/cols_ >= w (resolve() enforces it), so adding (rows_ - r + dy)
    // stays within one modulus reduction of the torus.
    const std::uint64_t r2 =
        (row + rows_ + dy - spec_.radius) % rows_;
    const std::uint64_t c2 =
        (col + cols_ + dx - spec_.radius) % cols_;
    return static_cast<AgentId>(r2 * cols_ + c2);
  }

  TopologySpec spec_{};
  std::size_t n_ = 2;
  std::uint64_t degree_ = 1;  // complete over n = 2
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  /// bernoulli_threshold(rewire_prob) of the rewired kinds (resolve()).
  std::uint64_t rewire_threshold_ = 0;
};

}  // namespace flip
