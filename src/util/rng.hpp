#pragma once
// Deterministic random number generation for reproducible simulation trials.
//
// One generator family serves the whole repo: CounterRng, a stateless,
// counter-based stream (Stafford's Mix13 finalizer over a 128-bit derived
// key), keyed by (master_seed, trial, round, agent, purpose). Because a draw
// is a pure function of its key and word index — never of how many draws
// other agents made — results are bit-identical across engine substrates,
// thread counts, shard counts and delivery orders. Every random event of
// the model belongs to one agent in one round (a sender's recipient choice,
// a recipient's noise, a protocol's per-agent coin), and each is drawn from
// that agent's stream of that round under its RngPurpose lane.

#include <cstdint>
#include <limits>

namespace flip {

// Stafford's Mix13 multipliers, named so tests/rng_test.cpp can pin them
// next to the golden vectors of the chain they feed.
inline constexpr std::uint64_t kMix13MulA = 0xbf58476d1ce4e5b9ULL;
inline constexpr std::uint64_t kMix13MulB = 0x94d049bb133111ebULL;

/// Stafford's Mix13 finalizer (the output function of splitmix): a strong
/// 64-bit bijection. All counter-based keys and words funnel through this.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * kMix13MulA;
  z = (z ^ (z >> 27)) * kMix13MulB;
  return z ^ (z >> 31);
}

inline constexpr std::uint64_t kGoldenGamma = 0x9e3779b97f4a7c15ULL;

/// A 128-bit derived key naming one random stream. Keys are values: copy
/// them freely, store them in configs, derive subkeys without touching the
/// parent. The golden-vector tests in tests/rng_test.cpp pin the whole
/// derivation chain, so the contract cannot drift across platforms.
struct StreamKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend constexpr bool operator==(const StreamKey&,
                                   const StreamKey&) noexcept = default;
};

/// Folds a (a, b) pair of words into `k`, yielding an unrelated subkey.
/// Distinct (a, b) pairs give decorrelated subkeys of the same parent.
[[nodiscard]] constexpr StreamKey derive_key(const StreamKey& k,
                                             std::uint64_t a,
                                             std::uint64_t b = 0) noexcept {
  const std::uint64_t hi = mix64(k.hi ^ mix64(a + kGoldenGamma));
  const std::uint64_t lo = mix64(k.lo ^ mix64(b + 2 * kGoldenGamma) ^ hi);
  return StreamKey{hi, lo};
}

/// The root key of one trial: everything random inside trial `trial` of
/// master seed `master_seed` derives from this.
[[nodiscard]] constexpr StreamKey trial_stream_key(
    std::uint64_t master_seed, std::uint64_t trial) noexcept {
  return derive_key(
      StreamKey{mix64(master_seed), mix64(master_seed + kGoldenGamma)}, trial,
      0x747269616cULL);  // "trial"
}

/// What a per-agent stream is FOR. Distinct purposes of the same
/// (trial, round, agent) are independent streams, so adding a draw to one
/// code path can never shift the draws of another.
enum class RngPurpose : std::uint64_t {
  kRoute = 0,     ///< sender side: recipient choice + acceptance priority
  kChannel = 1,   ///< recipient side: noise applied to the accepted message
  kProtocol = 2,  ///< recipient side: protocol-internal per-round draws
  kSubset = 3,    ///< phase-end per-agent draws (Stage II majority subset)
  kSetup = 4,     ///< per-agent scenario setup (desync wake offsets)
  kChurn = 5,     ///< per-agent join/sleep/wake transitions (environment)
  kEnvironment = 6,  ///< round-scoped environment draws (noise-burst lottery)
  // round_stream_key packs the purpose into 3 bits next to the round;
  // kTopology takes the last free value — the lane space is now full, and
  // widening the packing would change every committed golden vector.
  kTopology = 7,  ///< interaction-graph edges (small-world/dynamic rewiring)
};

/// The key shared by every agent's `purpose` stream in round `round`.
/// Engines hoist this out of their per-message loops; the per-agent
/// derivation that remains is two mixes.
[[nodiscard]] constexpr StreamKey round_stream_key(const StreamKey& trial_key,
                                                   RngPurpose purpose,
                                                   std::uint64_t round) noexcept {
  return derive_key(trial_key,
                    (round << 3) | static_cast<std::uint64_t>(purpose), round);
}

/// Stateless counter-based generator: word i of a stream is
/// mix64((s0 + (i+1)*gamma) ^ s1) — a pure function of (key, i). Draws have
/// no serial dependency on any other agent's draws, which is what makes
/// results independent of execution order, and no loop-carried state chain,
/// which is what lets the hot loops pipeline them.
/// Satisfies std::uniform_random_bit_generator.
class CounterRng {
 public:
  using result_type = std::uint64_t;

  /// The stream named by `key` exactly (equals the agent-0 stream of the
  /// same key; purposes keep such streams from ever sharing a key).
  explicit constexpr CounterRng(const StreamKey& key) noexcept
      : s0_(key.hi), s1_(key.lo) {}

  /// Agent `agent`'s stream under a round key — the per-message fast path,
  /// so derivation is two multiplies, no finalizer: the agent perturbs
  /// BOTH state words by independent odd multipliers, which keeps distinct
  /// agents' streams from being shifted copies of each other (the xor mask
  /// differs), and every emitted word still passes through mix64.
  constexpr CounterRng(const StreamKey& round_key, std::uint64_t agent) noexcept
      : s0_(round_key.hi + agent * kGoldenGamma),
        s1_(round_key.lo ^ (agent * kMix13MulA)) {}

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() noexcept {
    return mix64((s0_ += kGoldenGamma) ^ s1_);
  }

 private:
  std::uint64_t s0_;
  std::uint64_t s1_;
};

// The draw primitives below are defined inline: they sit on the engine's
// per-message path (recipient choice, acceptance priority, channel flip),
// and an out-of-line definition would put a call boundary inside the hot
// loop of every simulation.

/// Uniform integer in [0, n). Unbiased (Lemire's rejection method).
/// Precondition: n > 0.
inline std::uint64_t uniform_index(CounterRng& rng, std::uint64_t n) {
  std::uint64_t x = rng();
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
  auto low = static_cast<std::uint64_t>(m);
  if (low < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (low < threshold) {
      x = rng();
      m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

/// Uniform double in [0, 1) with 53 random bits.
inline double uniform_unit(CounterRng& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

/// True with probability p (clamped to [0,1]).
inline bool bernoulli(CounterRng& rng, double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform_unit(rng) < p;
}

/// The bernoulli_threshold of every p >= 1: each 53-bit draw is below it.
inline constexpr std::uint64_t kBernoulliAlways = std::uint64_t{1} << 53;

/// The exact integer form of bernoulli: for k = rng() >> 11,
/// uniform_unit(rng) < p iff k * 2^-53 < p iff k < ceil(p * 2^53), and
/// scaling p by 2^53 is exact. p <= 0 and NaN give 0 (never fires), p >= 1
/// gives kBernoulliAlways. Hoist it out of a loop whose p is fixed and the
/// per-draw coin is one compare, with no branch on its outcome. Unlike
/// bernoulli, a caller comparing against it consumes the word even when
/// p <= 0 or p >= 1; that matters only when the stream is read again.
[[nodiscard]] inline std::uint64_t bernoulli_threshold(double p) noexcept {
  if (!(p > 0.0)) return 0;
  if (p >= 1.0) return kBernoulliAlways;
  const double scaled = p * 0x1.0p53;
  const auto whole = static_cast<std::uint64_t>(scaled);  // truncates
  return whole + (static_cast<double>(whole) != scaled);
}

/// Hypergeometric draw: picks `take` items uniformly without replacement
/// from `total` items of which `ones` are marked, and returns how many
/// marked items were picked. Used by the Stage II rule ("a uniformly random
/// subset of exactly m_i/2 samples") without materializing the samples.
/// Preconditions: ones <= total, take <= total.
///
/// Sequential draw: the i-th pick is marked with probability ones_left/left.
/// Exact and O(take). The hit test is computed branchlessly: its outcome is
/// a ~fair coin, so a conditional branch would mispredict every other draw —
/// and Stage II phase ends perform about one of these draws per two
/// delivered messages.
inline std::uint64_t hypergeometric_ones(CounterRng& rng,
                                         std::uint64_t total,
                                         std::uint64_t ones,
                                         std::uint64_t take) {
  std::uint64_t ones_left = ones;
  std::uint64_t left = total;
  std::uint64_t picked = 0;
  for (std::uint64_t i = 0; i < take; ++i) {
    const std::uint64_t hit = uniform_index(rng, left) < ones_left ? 1 : 0;
    picked += hit;
    ones_left -= hit;
    --left;
  }
  return picked;
}

}  // namespace flip
