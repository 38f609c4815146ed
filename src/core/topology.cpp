#include "core/topology.hpp"

#include <charconv>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace flip {

namespace {

[[noreturn]] void bad_spec(std::string_view what, std::string_view spec) {
  throw std::invalid_argument(std::string(what) + ": '" + std::string(spec) +
                              "'");
}

double parse_number(std::string_view text, std::string_view spec) {
  double value = 0.0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size()) {
    bad_spec("not a number", text.empty() ? spec : text);
  }
  return value;
}

std::size_t parse_count(std::string_view text, std::string_view spec) {
  std::size_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size()) {
    bad_spec("not a count", text.empty() ? spec : text);
  }
  return value;
}

/// Splits "a:b:c" into pieces (empty pieces preserved, like the
/// environment-spec parser — a missing field should be an error, not
/// silence).
std::vector<std::string_view> split_colon(std::string_view text) {
  std::vector<std::string_view> pieces;
  std::size_t start = 0;
  while (true) {
    const std::size_t colon = text.find(':', start);
    if (colon == std::string_view::npos) {
      pieces.push_back(text.substr(start));
      return pieces;
    }
    pieces.push_back(text.substr(start, colon - start));
    start = colon + 1;
  }
}

void check_degree(std::size_t k, std::string_view kind) {
  if (k < 2 || k % 2 != 0) {
    std::ostringstream os;
    os << "topology " << kind << " degree k must be even and >= 2 (offsets "
       << "come in +-pairs), got " << k;
    throw std::invalid_argument(os.str());
  }
}

/// The largest divisor of n that is at most floor(sqrt(n)) — the most
/// square rows x cols factorization of n.
std::size_t best_rows(std::size_t n) {
  std::size_t isqrt = 1;
  while ((isqrt + 1) * (isqrt + 1) <= n) ++isqrt;
  for (std::size_t rows = isqrt; rows >= 1; --rows) {
    if (n % rows == 0) return rows;
  }
  return 1;
}

}  // namespace

void TopologySpec::validate() const {
  switch (kind) {
    case TopologyKind::kComplete:
      return;
    case TopologyKind::kRing:
      check_degree(k, "ring");
      return;
    case TopologyKind::kGrid:
      if (radius < 1) {
        throw std::invalid_argument(
            "topology grid radius must be >= 1 (radius 0 has no neighbors)");
      }
      return;
    case TopologyKind::kSmallWorld:
    case TopologyKind::kDynamic: {
      const std::string_view name = topology_kind_name(kind);
      check_degree(k, name);
      if (k > kTopologyEdgeStride) {
        std::ostringstream os;
        os << "topology " << name << " degree k must be <= "
           << kTopologyEdgeStride << " (the per-agent edge-stream stride), got "
           << k;
        throw std::invalid_argument(os.str());
      }
      if (!(rewire_prob >= 0.0) || rewire_prob > 1.0) {
        std::ostringstream os;
        os << "topology " << name << " rewire probability must be in [0, 1], "
           << "got " << rewire_prob;
        throw std::invalid_argument(os.str());
      }
      return;
    }
  }
  throw std::invalid_argument("unknown topology kind");
}

std::string TopologySpec::describe() const {
  std::ostringstream os;
  switch (kind) {
    case TopologyKind::kComplete:
      return "complete";
    case TopologyKind::kRing:
      os << "ring(k=" << k << ")";
      break;
    case TopologyKind::kGrid:
      os << "grid(r=" << radius << ")";
      break;
    case TopologyKind::kSmallWorld:
    case TopologyKind::kDynamic:
      os << topology_kind_name(kind) << "(k=" << k << " p=" << rewire_prob
         << ")";
      break;
  }
  return os.str();
}

TopologySpec TopologySpec::parse(std::string_view spec) {
  const auto pieces = split_colon(spec);
  const std::string_view kind = pieces.front();
  TopologySpec topology;
  if (kind == "complete") {
    if (pieces.size() != 1) bad_spec("complete takes no parameters", spec);
  } else if (kind == "ring") {
    topology.kind = TopologyKind::kRing;
    if (pieces.size() > 2) bad_spec("ring takes at most one parameter K", spec);
    if (pieces.size() == 2) topology.k = parse_count(pieces[1], spec);
  } else if (kind == "grid") {
    topology.kind = TopologyKind::kGrid;
    if (pieces.size() > 2) {
      bad_spec("grid takes at most one parameter RADIUS", spec);
    }
    if (pieces.size() == 2) topology.radius = parse_count(pieces[1], spec);
  } else if (kind == "smallworld" || kind == "dynamic") {
    topology.kind = kind == "dynamic" ? TopologyKind::kDynamic
                                      : TopologyKind::kSmallWorld;
    if (pieces.size() > 3) {
      bad_spec("rewired topologies take at most K:PROB", spec);
    }
    if (pieces.size() >= 2) topology.k = parse_count(pieces[1], spec);
    if (pieces.size() == 3) {
      topology.rewire_prob = parse_number(pieces[2], spec);
    }
  } else {
    bad_spec(
        "unknown topology kind (complete | ring | grid | smallworld | "
        "dynamic)",
        spec);
  }
  topology.validate();
  return topology;
}

ResolvedTopology ResolvedTopology::resolve(const TopologySpec& spec,
                                           std::size_t n) {
  spec.validate();
  if (n < 2) {
    std::ostringstream os;
    os << "topology " << spec.describe() << " needs a population of n >= 2, "
       << "got " << n;
    throw std::invalid_argument(os.str());
  }
  ResolvedTopology topo;
  topo.spec_ = spec;
  topo.n_ = n;
  switch (spec.kind) {
    case TopologyKind::kComplete:
      topo.degree_ = n - 1;
      break;
    case TopologyKind::kRing:
    case TopologyKind::kSmallWorld:
    case TopologyKind::kDynamic:
      if (spec.k > n - 2) {
        std::ostringstream os;
        os << "topology " << spec.describe() << " needs n >= k + 2 = "
           << spec.k + 2 << " (k distinct non-self ring offsets), got n = "
           << n;
        throw std::invalid_argument(os.str());
      }
      topo.degree_ = spec.k;
      topo.rewire_threshold_ = bernoulli_threshold(spec.rewire_prob);
      break;
    case TopologyKind::kGrid: {
      const std::size_t side = 2 * spec.radius + 1;
      topo.rows_ = best_rows(n);
      topo.cols_ = n / topo.rows_;
      if (topo.rows_ < side || topo.cols_ < side) {
        std::ostringstream os;
        os << "topology " << spec.describe() << ": n = " << n
           << " factors as " << topo.rows_ << " x " << topo.cols_
           << ", but both torus sides must be >= 2*radius + 1 = " << side
           << " (pick n with a divisor in [" << side << ", n/" << side
           << "], e.g. n = " << side * side << ")";
        throw std::invalid_argument(os.str());
      }
      topo.degree_ = static_cast<std::uint64_t>(side) * side - 1;
      break;
    }
  }
  return topo;
}

}  // namespace flip
