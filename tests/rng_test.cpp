#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "core/environment.hpp"  // kChurnInitRound
#include "core/topology.hpp"     // kTopologyStaticRound, kTopologyEdgeStride
#include "sim/batch_engine.hpp"  // detail::bsc_flip_threshold
#include "simd/simd.hpp"

namespace flip {
namespace {

TEST(UniformIndexTest, StaysInRange) {
  CounterRng rng(trial_stream_key(1, 0));
  for (std::uint64_t n : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(uniform_index(rng, n), n);
    }
  }
}

TEST(UniformIndexTest, CoversAllValues) {
  CounterRng rng(trial_stream_key(2, 0));
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(uniform_index(rng, 7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(UniformIndexTest, ApproximatelyUniform) {
  CounterRng rng(trial_stream_key(3, 0));
  constexpr std::uint64_t kBuckets = 10;
  constexpr int kDraws = 100000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[uniform_index(rng, kBuckets)];
  for (std::uint64_t b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(counts[b], kDraws / kBuckets, 500)
        << "bucket " << b << " count " << counts[b];
  }
}

TEST(BernoulliTest, EdgeProbabilities) {
  CounterRng rng(trial_stream_key(4, 0));
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(bernoulli(rng, 0.0));
    EXPECT_TRUE(bernoulli(rng, 1.0));
    EXPECT_FALSE(bernoulli(rng, -0.5));
    EXPECT_TRUE(bernoulli(rng, 1.5));
  }
}

// bernoulli_threshold is bernoulli's integer form, decision for decision:
// on identical copies of each agent's stream, `bernoulli(a, p)` and
// `(b() >> 11) < bernoulli_threshold(p)` agree for every p, including the
// clamped ends, the smallest subnormal, the largest double below 1 and NaN.
TEST(BernoulliTest, IntegerThresholdAgreesWordForWord) {
  const StreamKey rk =
      round_stream_key(trial_stream_key(0xb17, 3), RngPurpose::kChurn, 9);
  for (const double p :
       {-0.5, 0.0, std::numeric_limits<double>::denorm_min(), 1e-300, 0.005,
        0.1, 0.3, 0.5, std::nextafter(1.0, 0.0), 1.0, 1.5,
        std::numeric_limits<double>::quiet_NaN()}) {
    const std::uint64_t threshold = bernoulli_threshold(p);
    int fired = 0;
    for (std::uint64_t agent = 0; agent < 100000; ++agent) {
      CounterRng a(rk, agent);
      CounterRng b = a;
      const bool coin = bernoulli(a, p);
      ASSERT_EQ(coin, (b() >> 11) < threshold) << "p=" << p << " agent "
                                               << agent;
      fired += coin;
    }
    if (p >= 1.0) {
      EXPECT_EQ(fired, 100000) << p;
    }
    if (!(p >= 1e-300)) {
      EXPECT_EQ(fired, 0) << p;
    }
  }
  EXPECT_EQ(bernoulli_threshold(0.0), 0u);
  EXPECT_EQ(bernoulli_threshold(std::numeric_limits<double>::quiet_NaN()),
            0u);
  EXPECT_EQ(bernoulli_threshold(1.0), std::uint64_t{1} << 53);
  EXPECT_EQ(bernoulli_threshold(0.25), std::uint64_t{1} << 51);
  EXPECT_EQ(bernoulli_threshold(std::nextafter(1.0, 0.0)),
            (std::uint64_t{1} << 53) - 1);
  EXPECT_EQ(bernoulli_threshold(std::numeric_limits<double>::denorm_min()),
            1u);
}

// The BSC flip threshold is the bernoulli threshold of the flip
// probability, and both equal ceil((0.5 - eps) * 2^53), the threshold the
// committed BSC outcomes were produced with.
TEST(BernoulliTest, BscFlipThresholdIsTheBernoulliThreshold) {
  std::vector<double> epss = {0.001, 0.01, 0.1, 0.2, 0.25, 0.3, 0.4, 0.499};
  for (int i = 1; i <= 500; ++i) epss.push_back(0.5 * i / 501.0);
  for (const double eps : epss) {
    EXPECT_EQ(detail::bsc_flip_threshold(eps), bernoulli_threshold(0.5 - eps))
        << eps;
    EXPECT_EQ(bernoulli_threshold(0.5 - eps),
              static_cast<std::uint64_t>(std::ceil((0.5 - eps) * 0x1.0p53)))
        << eps;
  }
}

TEST(BernoulliTest, MatchesProbability) {
  CounterRng rng(trial_stream_key(5, 0));
  constexpr int kDraws = 200000;
  int hits = 0;
  for (int i = 0; i < kDraws; ++i) {
    if (bernoulli(rng, 0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.01);
}

TEST(UniformUnitTest, InHalfOpenUnitInterval) {
  CounterRng rng(trial_stream_key(6, 0));
  double sum = 0.0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    const double x = uniform_unit(rng);
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / kDraws, 0.5, 0.01);
}


TEST(HypergeometricTest, DegenerateCases) {
  CounterRng rng(trial_stream_key(7, 0));
  EXPECT_EQ(hypergeometric_ones(rng, 10, 0, 5), 0u);
  EXPECT_EQ(hypergeometric_ones(rng, 10, 10, 5), 5u);
  EXPECT_EQ(hypergeometric_ones(rng, 10, 4, 0), 0u);
  EXPECT_EQ(hypergeometric_ones(rng, 10, 4, 10), 4u);  // take everything
}

TEST(HypergeometricTest, StaysInSupport) {
  CounterRng rng(trial_stream_key(8, 0));
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t picked = hypergeometric_ones(rng, 20, 7, 9);
    EXPECT_LE(picked, 7u);
    // At least max(0, take - (total - ones)) = max(0, 9 - 13) = 0.
  }
}

TEST(HypergeometricTest, MatchesExactDistribution) {
  // total=10, ones=4, take=5: P[X=k] = C(4,k) C(6,5-k) / C(10,5).
  constexpr std::uint64_t kTotal = 10, kOnes = 4, kTake = 5;
  constexpr int kDraws = 200000;
  CounterRng rng(trial_stream_key(9, 0));
  std::vector<int> counts(kOnes + 1, 0);
  for (int i = 0; i < kDraws; ++i) {
    ++counts[hypergeometric_ones(rng, kTotal, kOnes, kTake)];
  }
  const double c10_5 = 252.0;
  const double expected[] = {6.0 / c10_5, 60.0 / c10_5, 120.0 / c10_5,
                             60.0 / c10_5, 6.0 / c10_5};
  for (std::uint64_t k = 0; k <= kOnes; ++k) {
    const double freq = static_cast<double>(counts[k]) / kDraws;
    EXPECT_NEAR(freq, expected[k], 0.005) << "k=" << k;
  }
}

TEST(HypergeometricTest, MeanMatchesTakeTimesFraction) {
  CounterRng rng(trial_stream_key(10, 0));
  double sum = 0.0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    sum += static_cast<double>(hypergeometric_ones(rng, 101, 60, 51));
  }
  // E[X] = take * ones / total = 51 * 60 / 101.
  EXPECT_NEAR(sum / kDraws, 51.0 * 60.0 / 101.0, 0.05);
}

// --- Counter-based streams: the repo-wide determinism contract ----------
//
// The golden vectors below pin the ENTIRE key-derivation chain
// (trial_stream_key -> round_stream_key -> per-agent CounterRng words) to
// fixed 64-bit values, independently recomputed from the spec. They are
// the contract: if any of these change, every committed experiment result,
// golden expectation, and cross-machine reproduction silently changes with
// them. Never "fix" these constants to match new code — fix the code.

// The RngPurpose lane space is pinned HERE, next to the goldens that hold
// each lane's derivation: round_stream_key packs the purpose into 3 bits,
// so a new lane is a packing-contract change and cannot land without new
// golden vectors in this file plus a bump of this marker (which
// tools/flip_lint.py cross-checks against the enum in src/util/rng.hpp).
// flip-lint: rng-lane-count=8
TEST(CounterRngTest, RngPurposeLaneSpaceIsPinned) {
  EXPECT_EQ(static_cast<std::uint64_t>(RngPurpose::kTopology), 7u);
  // 3 purpose bits -> at most 8 lanes; kTopology took the last free value.
  static_assert(static_cast<std::uint64_t>(RngPurpose::kTopology) < 8);
}

TEST(CounterRngTest, TrialKeyGoldenVectors) {
  constexpr StreamKey k0 = trial_stream_key(0x5eed, 0);
  EXPECT_EQ(k0.hi, 0x3b2089626aaae50fULL);
  EXPECT_EQ(k0.lo, 0x70e6eb387a151b18ULL);
  constexpr StreamKey k1 = trial_stream_key(0x5eed, 1);
  EXPECT_EQ(k1.hi, 0x2701594847187a80ULL);
  EXPECT_EQ(k1.lo, 0x41f0e1b3f98b60d7ULL);
  constexpr StreamKey kz = trial_stream_key(0, 0);
  EXPECT_EQ(kz.hi, 0x48218226ff3cd4bfULL);
  EXPECT_EQ(kz.lo, 0x9a312237eb697547ULL);
}

TEST(CounterRngTest, RoundKeyGoldenVectors) {
  constexpr StreamKey tk = trial_stream_key(0x5eed, 0);
  constexpr StreamKey route0 = round_stream_key(tk, RngPurpose::kRoute, 0);
  EXPECT_EQ(route0.hi, 0x928b9913dc43a464ULL);
  EXPECT_EQ(route0.lo, 0x01e90ff5ae211549ULL);
  constexpr StreamKey chan3 = round_stream_key(tk, RngPurpose::kChannel, 3);
  EXPECT_EQ(chan3.hi, 0x86031506ca216a51ULL);
  EXPECT_EQ(chan3.lo, 0x5c8a751d71188ac8ULL);
}

TEST(CounterRngTest, StreamWordsGoldenVectors) {
  const StreamKey tk = trial_stream_key(0x5eed, 0);
  CounterRng direct(tk);
  EXPECT_EQ(direct(), 0x0d7b166f03730cafULL);
  EXPECT_EQ(direct(), 0xa9d9a259bf32f1b3ULL);
  EXPECT_EQ(direct(), 0xb31258a210d6b0d0ULL);

  const StreamKey route0 = round_stream_key(tk, RngPurpose::kRoute, 0);
  CounterRng agent7(route0, 7);
  EXPECT_EQ(agent7(), 0x05acb3a6bae47b75ULL);
  EXPECT_EQ(agent7(), 0xc1772bfe3acef3a2ULL);
  EXPECT_EQ(agent7(), 0x87c51a99ce295c1cULL);
  CounterRng agent0(route0, 0);
  EXPECT_EQ(agent0(), 0x56efcb7b055c4ab2ULL);
  EXPECT_EQ(agent0(), 0x0984c24ab7843827ULL);

  const StreamKey chan3 = round_stream_key(tk, RngPurpose::kChannel, 3);
  CounterRng chan7(chan3, 7);
  EXPECT_EQ(chan7(), 0x799516a71222f412ULL);
  EXPECT_EQ(chan7(), 0xf523f4737dfcc3b4ULL);
}

// The environment lanes added for the dynamic scenarios: churn transitions
// (kChurn, including the kChurnInitRound start-asleep lottery) and the
// round-scoped burst lottery (kEnvironment). Pinned like the lanes above —
// a drift here silently re-randomizes every dynamic scenario.
TEST(CounterRngTest, EnvironmentKeyGoldenVectors) {
  constexpr StreamKey tk = trial_stream_key(0x5eed, 0);

  constexpr StreamKey churn2 = round_stream_key(tk, RngPurpose::kChurn, 2);
  EXPECT_EQ(churn2.hi, 0x32122a7be3cf45c4ULL);
  EXPECT_EQ(churn2.lo, 0x7a36a865058e22ddULL);
  CounterRng churn_agent5(churn2, 5);
  EXPECT_EQ(churn_agent5(), 0x37f1c872641c487aULL);
  EXPECT_EQ(churn_agent5(), 0x2f095ab025908896ULL);

  constexpr StreamKey env0 =
      round_stream_key(tk, RngPurpose::kEnvironment, 0);
  EXPECT_EQ(env0.hi, 0xa216ddc2ebf33696ULL);
  EXPECT_EQ(env0.lo, 0xab776e33a8921a5fULL);
  CounterRng lottery(env0, 0);
  EXPECT_EQ(lottery(), 0xc1e2b32e037f0696ULL);
  EXPECT_EQ(lottery(), 0x8fd8e212e6b236adULL);

  constexpr StreamKey init =
      round_stream_key(tk, RngPurpose::kChurn, kChurnInitRound);
  EXPECT_EQ(init.hi, 0xbd61fc3cd2dc15ddULL);
  EXPECT_EQ(init.lo, 0x541cca4b1052a55eULL);
  CounterRng init_agent3(init, 3);
  EXPECT_EQ(init_agent3(), 0x111d6d3f27aea08eULL);
}

// The topology lane added for the interaction-graph layer: per-round keys
// for the dynamic rewiring, the kTopologyStaticRound sentinel for the
// once-per-trial small-world graph, and the per-edge streams (edge j of
// agent a = counter a * kTopologyEdgeStride + j). Pinned like the other
// lanes — a drift here silently rewires every sparse-topology scenario.
TEST(CounterRngTest, TopologyKeyGoldenVectors) {
  constexpr StreamKey tk = trial_stream_key(0x5eed, 0);

  // Dynamic rewiring: round-keyed like route/channel.
  constexpr StreamKey topo0 =
      round_stream_key(tk, RngPurpose::kTopology, 0);
  EXPECT_EQ(topo0.hi, 0xe5df7ff6742246adULL);
  EXPECT_EQ(topo0.lo, 0xb08e0c312951eb27ULL);
  CounterRng dyn_edge0(topo0, 0);
  EXPECT_EQ(dyn_edge0(), 0x29b8a8509aa0a57aULL);

  // Static small-world graph: keyed by the sentinel pseudo-round.
  constexpr StreamKey stat =
      round_stream_key(tk, RngPurpose::kTopology, kTopologyStaticRound);
  EXPECT_EQ(stat.hi, 0x54098e77fd434322ULL);
  EXPECT_EQ(stat.lo, 0x434ee3bc5fc7e947ULL);
  CounterRng edge(stat, 3 * kTopologyEdgeStride + 5);  // agent 3, edge 5
  EXPECT_EQ(edge(), 0x905a59037b6fccb6ULL);
  EXPECT_EQ(edge(), 0x551624062dfb78dfULL);

  // kChurnInitRound and kTopologyStaticRound share the same sentinel
  // VALUE; the 3 purpose bits must still keep the lanes apart (the churn
  // key here is the one pinned in EnvironmentKeyGoldenVectors).
  static_assert(kChurnInitRound == kTopologyStaticRound);
  constexpr StreamKey churn_stat =
      round_stream_key(tk, RngPurpose::kChurn, kTopologyStaticRound);
  EXPECT_EQ(churn_stat.hi, 0xbd61fc3cd2dc15ddULL);
  EXPECT_NE(stat.hi, churn_stat.hi);
  EXPECT_NE(stat.lo, churn_stat.lo);
}

TEST(CounterRngTest, StreamsAreStatelessAndReplayable) {
  const StreamKey tk = trial_stream_key(123, 45);
  const StreamKey rk = round_stream_key(tk, RngPurpose::kProtocol, 678);
  CounterRng a(rk, 9);
  CounterRng b(rk, 9);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a(), b());
}

TEST(CounterRngTest, PurposesAndAgentsAndRoundsSeparateStreams) {
  const StreamKey tk = trial_stream_key(7, 0);
  const StreamKey route = round_stream_key(tk, RngPurpose::kRoute, 5);
  const StreamKey chan = round_stream_key(tk, RngPurpose::kChannel, 5);
  const StreamKey later = round_stream_key(tk, RngPurpose::kRoute, 6);
  CounterRng by_route(route, 3);
  CounterRng by_chan(chan, 3);
  CounterRng by_round(later, 3);
  CounterRng by_agent(route, 4);
  const std::uint64_t w = by_route();
  EXPECT_NE(w, by_chan());
  EXPECT_NE(w, by_round());
  EXPECT_NE(w, by_agent());

  // The environment and topology lanes are their own streams too.
  const StreamKey churn = round_stream_key(tk, RngPurpose::kChurn, 5);
  const StreamKey env = round_stream_key(tk, RngPurpose::kEnvironment, 5);
  const StreamKey topo = round_stream_key(tk, RngPurpose::kTopology, 5);
  CounterRng by_churn(churn, 3);
  CounterRng by_env(env, 3);
  CounterRng by_topo(topo, 3);
  EXPECT_NE(w, by_churn());
  EXPECT_NE(w, by_env());
  EXPECT_NE(w, by_topo());
}

TEST(CounterRngTest, WordsAreApproximatelyUniform) {
  // Coarse sanity on the keyed words: across agents (the axis the engines
  // scale along), bit frequencies and the mean must look uniform.
  const StreamKey rk =
      round_stream_key(trial_stream_key(0xabc, 3), RngPurpose::kRoute, 17);
  constexpr int kAgents = 200000;
  double mean = 0.0;
  int high_bit = 0;
  int low_bit = 0;
  for (int a = 0; a < kAgents; ++a) {
    CounterRng rng(rk, static_cast<std::uint64_t>(a));
    const std::uint64_t w = rng();
    mean += static_cast<double>(w >> 11) * 0x1.0p-53;
    high_bit += (w >> 63) & 1;
    low_bit += w & 1;
  }
  EXPECT_NEAR(mean / kAgents, 0.5, 0.005);
  EXPECT_NEAR(static_cast<double>(high_bit) / kAgents, 0.5, 0.01);
  EXPECT_NEAR(static_cast<double>(low_bit) / kAgents, 0.5, 0.01);
}

// --- Block-kernel chain ------------------------------------------------
//
// Pin the Mix13 constants AND the full blocked route/flip chain (key ->
// per-agent draws -> Lemire index -> self-skip -> acceptance word /
// threshold compare) through the src/simd/ block kernels, which replay the
// draws of the engine's route and deliver loops. Like the vectors above:
// never "fix" these constants — fix the code.

TEST(CounterRngTest, Mix13ConstantsArePinned) {
  EXPECT_EQ(kMix13MulA, 0xbf58476d1ce4e5b9ULL);
  EXPECT_EQ(kMix13MulB, 0x94d049bb133111ebULL);
  EXPECT_EQ(kGoldenGamma, 0x9e3779b97f4a7c15ULL);
  // mix64 is exactly the Mix13 finalizer over these constants; reference
  // value from the published splitmix64 implementation (first output of
  // seed 0 is mix64(kGoldenGamma)).
  EXPECT_EQ(mix64(kGoldenGamma), 0xe220a8397b1dcdafULL);
}

TEST(CounterRngTest, SimdRouteBlockGoldenVectors) {
  const StreamKey tk = trial_stream_key(0x5eed, 0);
  const StreamKey route0 = round_stream_key(tk, RngPurpose::kRoute, 0);
  // Mixed plain/kSendBit entries; n - 1 = 100.
  const std::uint32_t entries[6] = {0u,   7u,                 0x8000'0003u,
                                    100u, 0x8000'0000u | 55u, 12u};
  std::uint32_t to[6];
  std::uint64_t word[6];
  simd::active().route_block(route0.hi, route0.lo, entries, 6, 100, to,
                             word);
  const std::uint32_t to_golden[6] = {34u, 2u, 78u, 86u, 59u, 36u};
  const std::uint64_t word_golden[6] = {
      0x0984c24a00000000ULL, 0xc1772bfe00000007ULL, 0x7466f88880000003ULL,
      0xfb0acc6a00000064ULL, 0xc0f86f3c80000037ULL, 0x9dbac9b00000000cULL};
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(to[i], to_golden[i]) << "lane " << i;
    EXPECT_EQ(word[i], word_golden[i]) << "lane " << i;
  }
  // Cross-check against the per-agent stream vectors pinned above: agent
  // 7's acceptance priority is the top half of its SECOND stream word.
  EXPECT_EQ(word[1] >> 32, 0xc1772bfe3acef3a2ULL >> 32);
}

TEST(CounterRngTest, SimdFlipBlockGoldenVectors) {
  const StreamKey tk = trial_stream_key(0x5eed, 0);
  const StreamKey chan3 = round_stream_key(tk, RngPurpose::kChannel, 3);
  const std::uint32_t recipients[6] = {0u, 1u, 7u, 100u, 4095u, 65535u};
  std::uint8_t flips[6];
  // threshold = 2^51, i.e. a BSC at eps = 0.25 (flip prob 1/4 over 2^53).
  simd::active().flip_block(chan3.hi, chan3.lo, recipients, 6,
                            std::uint64_t{1} << 51, flips);
  const std::uint8_t golden[6] = {0, 0, 0, 1, 0, 0};
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(flips[i], golden[i]) << "recipient " << recipients[i];
  }
  // Agent 7's first kChannel word is pinned above as 0x799516a71222f412;
  // its top 53 bits are far above the eps = 0.25 threshold, so no flip.
  EXPECT_EQ(flips[2], (0x799516a71222f412ULL >> 11) < (1ULL << 51) ? 1 : 0);
}

TEST(CounterRngTest, DrawPrimitivesAcceptCounterStreams) {
  // Spot-check distributional sanity of uniform_index / bernoulli across
  // agents' streams (each agent's first words), not within one stream.
  const StreamKey rk =
      round_stream_key(trial_stream_key(1, 2), RngPurpose::kSubset, 3);
  constexpr int kAgents = 100000;
  std::vector<int> histogram(7, 0);
  int heads = 0;
  for (int a = 0; a < kAgents; ++a) {
    CounterRng rng(rk, static_cast<std::uint64_t>(a));
    ++histogram[uniform_index(rng, 7)];
    heads += bernoulli(rng, 0.3) ? 1 : 0;
  }
  for (int v = 0; v < 7; ++v) {
    EXPECT_NEAR(static_cast<double>(histogram[v]) / kAgents, 1.0 / 7.0, 0.01)
        << "v=" << v;
  }
  EXPECT_NEAR(static_cast<double>(heads) / kAgents, 0.3, 0.01);
}

}  // namespace
}  // namespace flip
