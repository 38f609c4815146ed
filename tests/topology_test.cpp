// Unit suite for the interaction-graph layer (src/core/topology.*): the
// parse grammar and its error messages, spec validation, n-dependent
// resolution (degree, grid factorization), and the neighbor/recipient
// arithmetic itself. The properties pinned here — neighbors in range and
// never self, determinism in (key, agent, edge), smallworld at p = 0
// degenerating to the ring, the complete-graph recipient() consuming
// exactly the historical words — are what the engine-level differential
// suites lean on one layer up.

#include "core/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/proptest.hpp"
#include "util/rng.hpp"

namespace flip {
namespace {

/// Runs `fn`, expecting std::invalid_argument whose message contains every
/// given fragment — the error-message contract is part of the CLI surface.
template <typename Fn>
void expect_invalid(Fn fn, const std::vector<std::string>& fragments) {
  try {
    fn();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    for (const std::string& fragment : fragments) {
      EXPECT_NE(what.find(fragment), std::string::npos)
          << "message '" << what << "' lacks '" << fragment << "'";
    }
  }
}

TEST(TopologySpecTest, ParseGrammarCoversEveryFamilyAndDefault) {
  EXPECT_EQ(TopologySpec::parse("complete"), TopologySpec{});

  const TopologySpec ring = TopologySpec::parse("ring");
  EXPECT_EQ(ring.kind, TopologyKind::kRing);
  EXPECT_EQ(ring.k, 8u);
  EXPECT_EQ(TopologySpec::parse("ring:4").k, 4u);

  const TopologySpec grid = TopologySpec::parse("grid");
  EXPECT_EQ(grid.kind, TopologyKind::kGrid);
  EXPECT_EQ(grid.radius, 1u);
  EXPECT_EQ(TopologySpec::parse("grid:2").radius, 2u);

  const TopologySpec sw = TopologySpec::parse("smallworld");
  EXPECT_EQ(sw.kind, TopologyKind::kSmallWorld);
  EXPECT_EQ(sw.k, 8u);
  EXPECT_DOUBLE_EQ(sw.rewire_prob, 0.1);
  const TopologySpec sw2 = TopologySpec::parse("smallworld:6:0.25");
  EXPECT_EQ(sw2.k, 6u);
  EXPECT_DOUBLE_EQ(sw2.rewire_prob, 0.25);

  const TopologySpec dyn = TopologySpec::parse("dynamic:4:0.5");
  EXPECT_EQ(dyn.kind, TopologyKind::kDynamic);
  EXPECT_EQ(dyn.k, 4u);
  EXPECT_DOUBLE_EQ(dyn.rewire_prob, 0.5);
}

TEST(TopologySpecTest, ParseRejectsMalformedSpecs) {
  expect_invalid([] { TopologySpec::parse("torus"); },
                 {"unknown topology kind", "torus"});
  expect_invalid([] { TopologySpec::parse("complete:1"); },
                 {"complete takes no parameters"});
  expect_invalid([] { TopologySpec::parse("ring:8:2"); },
                 {"ring takes at most one parameter"});
  expect_invalid([] { TopologySpec::parse("grid:1:1"); },
                 {"grid takes at most one parameter"});
  expect_invalid([] { TopologySpec::parse("dynamic:8:0.1:x"); },
                 {"rewired topologies take at most K:PROB"});
  expect_invalid([] { TopologySpec::parse("ring:eight"); },
                 {"not a count", "eight"});
  expect_invalid([] { TopologySpec::parse("smallworld:8:often"); },
                 {"not a number", "often"});
  // Parse also validates: grammar-legal but semantically bad parameters
  // fail right there, not later at resolve time.
  expect_invalid([] { TopologySpec::parse("ring:7"); },
                 {"ring", "even", "got 7"});
  expect_invalid([] { TopologySpec::parse("ring:0"); }, {"ring", "even"});
  expect_invalid([] { TopologySpec::parse("grid:0"); },
                 {"grid radius must be >= 1"});
  expect_invalid([] { TopologySpec::parse("smallworld:66"); },
                 {"smallworld", "<= 64", "got 66"});
  expect_invalid([] { TopologySpec::parse("dynamic:8:1.5"); },
                 {"dynamic", "rewire probability", "[0, 1]"});
}

// Hand-seeded hostile grammar (fuzz_topology explores around these; the
// named cases stay as permanent regression anchors regardless of fuzz
// findings). Every one must throw std::invalid_argument — no other
// exception type, no acceptance.
TEST(TopologySpecTest, HostileGrammarIsRejectedWithInvalidArgument) {
  const char* hostile[] = {
      "",                       // empty spec
      ":",                      // bare separator
      "ring:",                  // trailing colon, empty count
      "ring:4:",                // trailing colon after a valid count
      "RING:4",                 // case matters: kinds are lowercase tokens
      " ring",                  // leading whitespace is not trimmed
      "ring :4",                // embedded whitespace
      "ring:+4",                // from_chars takes no sign on counts
      "ring:-4",
      "ring: 4",
      "ring:4x",                // trailing junk after the number
      "ring:18446744073709551616",   // 2^64: count overflow
      "smallworld:8:1e999",     // double overflow
      "smallworld:8:nan",       // NaN must not sneak past the [0, 1] check
      "smallworld:8:-0.0001",
      "dynamic:8:inf",
      "complete:",              // complete takes no parameters, even empty
      "grid:1:1:1",
  };
  for (const char* spec : hostile) {
    EXPECT_THROW(TopologySpec::parse(spec), std::invalid_argument)
        << "accepted: '" << spec << "'";
  }
}

TEST(TopologySpecTest, DescribeStringsAreStableAndCommaFree) {
  EXPECT_EQ(TopologySpec::parse("complete").describe(), "complete");
  EXPECT_EQ(TopologySpec::parse("ring:8").describe(), "ring(k=8)");
  EXPECT_EQ(TopologySpec::parse("grid:2").describe(), "grid(r=2)");
  EXPECT_EQ(TopologySpec::parse("smallworld:8:0.1").describe(),
            "smallworld(k=8 p=0.1)");
  EXPECT_EQ(TopologySpec::parse("dynamic:4:0.5").describe(),
            "dynamic(k=4 p=0.5)");
  // describe() embeds into CSV cells unquoted.
  for (const char* spec :
       {"complete", "ring:8", "grid:2", "smallworld:8:0.1", "dynamic:4:0.5"}) {
    EXPECT_EQ(TopologySpec::parse(spec).describe().find(','),
              std::string::npos)
        << spec;
  }
}

TEST(ResolvedTopologyTest, CompleteResolvesToDegreeNMinusOne) {
  const ResolvedTopology topo =
      ResolvedTopology::resolve(TopologySpec{}, 1000);
  EXPECT_TRUE(topo.complete());
  EXPECT_FALSE(topo.keyed());
  EXPECT_FALSE(topo.dynamic_rewire());
  EXPECT_EQ(topo.degree(), 999u);
  EXPECT_EQ(topo.draw_bound(), 999u);
}

TEST(ResolvedTopologyTest, ResolveRejectsFamiliesThatDoNotFitN) {
  expect_invalid(
      [] { ResolvedTopology::resolve(TopologySpec::parse("ring:8"), 8); },
      {"ring(k=8)", "n >= k + 2 = 10", "got n = 8"});
  expect_invalid(
      [] { ResolvedTopology::resolve(TopologySpec::parse("grid:2"), 127); },
      {"grid(r=2)", "127 factors as 1 x 127", ">= 2*radius + 1 = 5",
       "e.g. n = 25"});
  expect_invalid(
      [] { ResolvedTopology::resolve(TopologySpec{}, 1); },
      {"complete", "n >= 2", "got 1"});
  // Boundary: n = k + 2 is the smallest legal ring.
  EXPECT_EQ(
      ResolvedTopology::resolve(TopologySpec::parse("ring:8"), 10).degree(),
      8u);
}

TEST(ResolvedTopologyTest, GridFactorizationPicksTheMostSquareShape) {
  using Shape = std::pair<std::size_t, std::size_t>;
  const auto shape = [](std::size_t n) {
    const ResolvedTopology topo =
        ResolvedTopology::resolve(TopologySpec::parse("grid:2"), n);
    EXPECT_EQ(topo.rows() * topo.cols(), n);
    EXPECT_EQ(topo.degree(), 24u);  // (2*2+1)^2 - 1
    return std::make_pair(topo.rows(), topo.cols());
  };
  EXPECT_EQ(shape(64), Shape(8, 8));
  EXPECT_EQ(shape(100), Shape(10, 10));
  EXPECT_EQ(shape(128), Shape(8, 16));
  EXPECT_EQ(shape(144), Shape(12, 12));
}

TEST(ResolvedTopologyTest, RoundKeyIsStaticForSmallworldPerRoundForDynamic) {
  const StreamKey tk = trial_stream_key(0x5eed, 0);
  const ResolvedTopology sw =
      ResolvedTopology::resolve(TopologySpec::parse("smallworld"), 64);
  const ResolvedTopology dyn =
      ResolvedTopology::resolve(TopologySpec::parse("dynamic"), 64);
  EXPECT_EQ(sw.round_key(tk, 0), sw.round_key(tk, 17));
  EXPECT_NE(dyn.round_key(tk, 0), dyn.round_key(tk, 17));
  // The static sentinel keys the same lane value the dynamic kind would
  // only reach at an unreachable round number.
  EXPECT_EQ(sw.round_key(tk, 0), dyn.round_key(tk, kTopologyStaticRound));
}

// The hand-checkable grid case: n = 25 resolves to a 5x5 torus, and the
// interior agent 12 (row 2, col 2) has exactly the 8 surrounding cells as
// radius-1 neighbors.
TEST(ResolvedTopologyTest, GridSmallCaseMatchesHandEnumeration) {
  const ResolvedTopology topo =
      ResolvedTopology::resolve(TopologySpec::parse("grid:1"), 25);
  ASSERT_EQ(topo.degree(), 8u);
  const StreamKey unused{};
  std::set<AgentId> got;
  for (std::uint64_t j = 0; j < topo.degree(); ++j) {
    got.insert(topo.neighbor(unused, 12, j));
  }
  const std::set<AgentId> want{6, 7, 8, 11, 13, 16, 17, 18};
  EXPECT_EQ(got, want);
  // Torus wraparound: agent 0's window reaches the far edges.
  got.clear();
  for (std::uint64_t j = 0; j < topo.degree(); ++j) {
    got.insert(topo.neighbor(unused, 0, j));
  }
  const std::set<AgentId> corner{24, 20, 21, 4, 1, 9, 5, 6};
  EXPECT_EQ(got, corner);
}

// The identity-path contract: on the complete graph, recipient() IS the
// historical formula — the same uniform_index(n-1) draw, the same self-skip
// — consuming the same RNG words, so every pre-topology golden still holds.
TEST(ResolvedTopologyTest, CompleteRecipientMatchesHistoricalFormula) {
  const ResolvedTopology topo = ResolvedTopology::resolve(TopologySpec{}, 97);
  const StreamKey tk = trial_stream_key(0xabcdef, 3);
  const StreamKey rkey = round_stream_key(tk, RngPurpose::kRoute, 5);
  const StreamKey topo_key = topo.round_key(tk, 5);
  for (AgentId sender : {AgentId{0}, AgentId{42}, AgentId{96}}) {
    CounterRng through_topo(rkey, sender);
    CounterRng historical(rkey, sender);
    for (int draw = 0; draw < 16; ++draw) {
      const AgentId got = topo.recipient(through_topo, topo_key, sender);
      auto want = static_cast<AgentId>(uniform_index(historical, 96));
      want += (want >= sender);
      ASSERT_EQ(got, want) << "sender " << sender << " draw " << draw;
    }
    // Same words consumed: the streams stay in lockstep afterwards.
    EXPECT_EQ(through_topo(), historical()) << "sender " << sender;
  }
}

// Core neighbor invariants, over random families, sizes, agents and edges:
// every neighbor is in [0, n), never the agent itself, and is a pure
// function of (key, agent, edge index).
TEST(ResolvedTopologyTest, NeighborsAreInRangeNonSelfAndDeterministic) {
  proptest::check(
      "topology_neighbors", 200, 0x70b0, [&](proptest::Gen gen, int) {
        TopologySpec spec;
        switch (gen.range(0, 4)) {
          case 0:
            spec = TopologySpec::parse("ring");
            spec.k = 2 * static_cast<std::size_t>(gen.range(1, 8));
            break;
          case 1:
            spec = TopologySpec::parse("grid");
            spec.radius = static_cast<std::size_t>(gen.range(1, 2));
            break;
          case 2:
            spec = TopologySpec::parse("smallworld");
            spec.k = 2 * static_cast<std::size_t>(gen.range(1, 8));
            spec.rewire_prob = gen.real(0.0, 1.0);
            break;
          case 3:
            spec = TopologySpec::parse("dynamic");
            spec.k = 2 * static_cast<std::size_t>(gen.range(1, 8));
            spec.rewire_prob = gen.real(0.0, 1.0);
            break;
          default:
            spec = TopologySpec{};
            break;
        }
        const std::size_t n = spec.kind == TopologyKind::kGrid
                                  ? gen.pick({std::uint64_t{64},
                                              std::uint64_t{100},
                                              std::uint64_t{144}})
                                  : gen.range(spec.k + 2, 300);
        const ResolvedTopology topo = ResolvedTopology::resolve(spec, n);
        const StreamKey tk = trial_stream_key(gen.u64(), gen.index(8));
        const StreamKey key = topo.round_key(tk, gen.index(50));
        for (int probe = 0; probe < 8; ++probe) {
          const auto a = static_cast<AgentId>(gen.index(n));
          const std::uint64_t j = gen.index(topo.degree());
          const AgentId t = topo.neighbor(key, a, j);
          ASSERT_LT(t, n) << spec.describe();
          ASSERT_NE(t, a) << spec.describe() << " agent " << a << " edge "
                          << j;
          ASSERT_EQ(t, topo.neighbor(key, a, j))
              << spec.describe() << ": neighbor not deterministic";
        }
      });
}

// The arithmetic families are simple graphs: an agent's k (or (2r+1)^2 - 1)
// out-neighbors are pairwise distinct.
TEST(ResolvedTopologyTest, RingAndGridNeighborsArePairwiseDistinct) {
  proptest::check(
      "topology_distinct", 100, 0xd157, [&](proptest::Gen gen, int) {
        const bool grid = gen.chance(0.5);
        TopologySpec spec =
            TopologySpec::parse(grid ? "grid" : "ring");
        std::size_t n = 0;
        if (grid) {
          spec.radius = static_cast<std::size_t>(gen.range(1, 2));
          n = gen.pick({std::uint64_t{64}, std::uint64_t{100},
                        std::uint64_t{256}});
        } else {
          spec.k = 2 * static_cast<std::size_t>(gen.range(1, 10));
          n = gen.range(spec.k + 2, 200);
        }
        const ResolvedTopology topo = ResolvedTopology::resolve(spec, n);
        const StreamKey unused{};
        const auto a = static_cast<AgentId>(gen.index(n));
        std::set<AgentId> seen;
        for (std::uint64_t j = 0; j < topo.degree(); ++j) {
          seen.insert(topo.neighbor(unused, a, j));
        }
        ASSERT_EQ(seen.size(), topo.degree())
            << spec.describe() << " n=" << n << " agent " << a;
      });
}

// Watts-Strogatz at rewire probability 0 never rewires: it IS the k-ring,
// edge for edge — and still burns the same decision draw, so the p = 0
// graph is the ring under the rewired kinds' key discipline.
TEST(ResolvedTopologyTest, SmallworldAtProbabilityZeroIsTheRing) {
  TopologySpec sw_spec = TopologySpec::parse("smallworld:8:0");
  const ResolvedTopology sw = ResolvedTopology::resolve(sw_spec, 120);
  const ResolvedTopology ring =
      ResolvedTopology::resolve(TopologySpec::parse("ring:8"), 120);
  const StreamKey tk = trial_stream_key(0x5eed, 0);
  const StreamKey key = sw.round_key(tk, 0);
  for (AgentId a = 0; a < 120; ++a) {
    for (std::uint64_t j = 0; j < 8; ++j) {
      ASSERT_EQ(sw.neighbor(key, a, j), ring.neighbor(key, a, j))
          << "agent " << a << " edge " << j;
    }
  }
}

/// The rewired kinds' edge rule, replayed from the draw primitives: one
/// bernoulli coin on edge j's own stream, then on rewire a uniform non-self
/// target, else the ring offset (+1..+k/2, then -1..-k/2).
AgentId replay_rewired_neighbor(const StreamKey& key, std::uint64_t n,
                                std::uint64_t k, double p, AgentId a,
                                std::uint64_t j) {
  CounterRng erng(key, static_cast<std::uint64_t>(a) * kTopologyEdgeStride +
                           j);
  if (bernoulli(erng, p)) {
    auto t = static_cast<AgentId>(uniform_index(erng, n - 1));
    t += (t >= a);
    return t;
  }
  const std::uint64_t half = k / 2;
  const std::uint64_t off = j < half ? j + 1 : j - half + 1;
  const std::uint64_t base = j < half ? a + off : a + n - off;
  return static_cast<AgentId>(base >= n ? base - n : base);
}

// Every edge of the rewired kinds is the replay above, at the rewire
// probabilities where the coin never fires, sometimes fires, almost always
// fires and is skipped. bernoulli draws no word at p >= 1, so at p = 1 the
// target is word 1 of the edge stream, not word 2.
TEST(ResolvedTopologyTest, RewiredNeighborReplaysTheEdgeStream) {
  constexpr std::uint64_t kN = 64;
  constexpr std::uint64_t kK = 8;
  const StreamKey tk = trial_stream_key(0x5eed, 2);
  for (const char* kind : {"smallworld", "dynamic"}) {
    for (const double p : {0.0, 0.1, 0.999, 1.0}) {
      TopologySpec spec = TopologySpec::parse(kind);
      spec.k = kK;
      spec.rewire_prob = p;
      const ResolvedTopology topo = ResolvedTopology::resolve(spec, kN);
      for (const std::uint64_t r : {0, 1}) {
        const StreamKey key = topo.round_key(tk, r);
        for (AgentId a = 0; a < kN; ++a) {
          for (std::uint64_t j = 0; j < kK; ++j) {
            const AgentId got = topo.neighbor(key, a, j);
            ASSERT_EQ(got, replay_rewired_neighbor(key, kN, kK, p, a, j))
                << kind << " p=" << p << " round " << r << " agent " << a
                << " edge " << j;
            if (p == 1.0) {
              CounterRng fresh(key, a * kTopologyEdgeStride + j);
              auto t = static_cast<AgentId>(uniform_index(fresh, kN - 1));
              t += (t >= a);
              ASSERT_EQ(got, t) << kind << " agent " << a << " edge " << j;
            }
          }
        }
      }
    }
  }
}

// Dynamic rewiring actually changes the graph between rounds (at p = 0.5
// over 64 agents x 8 edges, an unchanged graph would be a probability
// ~2^-256 event), while the static kinds see one fixed graph per trial.
TEST(ResolvedTopologyTest, DynamicGraphChangesAcrossRoundsStaticDoesNot) {
  const StreamKey tk = trial_stream_key(0x5eed, 0);
  const ResolvedTopology dyn =
      ResolvedTopology::resolve(TopologySpec::parse("dynamic:8:0.5"), 64);
  const auto edge_list = [&](const ResolvedTopology& topo, std::uint64_t r) {
    std::vector<AgentId> edges;
    const StreamKey key = topo.round_key(tk, r);
    for (AgentId a = 0; a < 64; ++a) {
      for (std::uint64_t j = 0; j < 8; ++j) {
        edges.push_back(topo.neighbor(key, a, j));
      }
    }
    return edges;
  };
  EXPECT_NE(edge_list(dyn, 0), edge_list(dyn, 1));
  EXPECT_EQ(edge_list(dyn, 1), edge_list(dyn, 1));  // within a round: fixed
  const ResolvedTopology sw =
      ResolvedTopology::resolve(TopologySpec::parse("smallworld:8:0.5"), 64);
  EXPECT_EQ(edge_list(sw, 0), edge_list(sw, 31));
}

}  // namespace
}  // namespace flip
