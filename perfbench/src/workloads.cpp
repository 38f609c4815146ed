#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "cli/sweep.hpp"
#include "net/service.hpp"
#include "probe.hpp"
#include "service_loop.hpp"
#include "workload/registry.hpp"

namespace perfbench {

void OpStats::fail(std::string why) {
  ++failed;
  if (errors.size() < 8) errors.push_back(std::move(why));
}

namespace {

using flip::ScenarioOverrides;
using flip::ScenarioRegistry;
using flip::TrialFn;
using flip::TrialOutcome;

/// Shard count of the sharded replay in sweep_mc's check: the ROADMAP's
/// losing n=1024 case, on the shared pool.
constexpr std::size_t kCheckShards = 4;

// --- sweep_mc ------------------------------------------------------------------

/// cli::run_sweep at threads=4, shards=1 over three n=1024 cells that take
/// different route/deliver paths: the complete static graph, churn-filtered
/// loops, and the scalar GraphRecipient route of a rewired topology.
class SweepWorkload final : public Workload {
 public:
  static constexpr std::array<const char*, 3> kCells = {
      "broadcast", "broadcast_churn", "broadcast_dynamic_rewire"};
  static constexpr std::size_t kTrialsPerCell = 8;

  explicit SweepWorkload(std::uint64_t seed) : seed_(seed) {}

  Shape shape() const override {
    return Shape{"broadcast", 1024, 0.2, 1, 4};
  }

  void setup() override {
    for (std::size_t c = 0; c < kCells.size(); ++c) {
      flip::cli::SweepSpec spec = spec_for(c, derive_seed(seed_, 100 + c));
      [[maybe_unused]] const auto grid = flip::cli::expand_grid(spec);
      [[maybe_unused]] const auto warm = flip::cli::run_sweep(spec);
    }
  }

  OpStats run(double seconds, std::uint64_t salt) override {
    salt_ = salt;
    summaries_.clear();
    OpStats stats;
    const double cpu0 = process_cpu_seconds();
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    for (std::size_t op = 0; Clock::now() < deadline; ++op) {
      const flip::cli::SweepSpec spec = spec_for(op % kCells.size(), op_seed(op));
      const ScopedSpan span("cli.sweep", op);
      const auto t0 = Clock::now();
      const flip::cli::SweepResult result = flip::cli::run_sweep(spec);
      stats.latency_ms.push_back(ms_since(t0));
      summaries_.push_back(result.points.at(0).summary);
    }
    stats.wall_s = seconds_between(start, Clock::now());
    stats.cpu_s = process_cpu_seconds() - cpu0;
    return stats;
  }

  void check(OpStats& stats) override {
    // Re-derive the first two cells of each scenario trial by trial on the
    // calling thread: every trial must conserve messages and the cell
    // aggregates must equal what run_sweep reported. Sharding must not
    // change a bit: each cell's first trial also runs at 4 shards.
    const std::size_t checked = std::min<std::size_t>(6, summaries_.size());
    for (std::size_t op = 0; op < checked; ++op) {
      const std::size_t c = op % kCells.size();
      const Shape cell{kCells[c], shape().n, shape().eps, 1, 1};
      const TrialFn fn = make_trial_fn(cell, 1);
      std::size_t successes = 0;
      flip::RunningStats messages;
      for (std::size_t i = 0; i < kTrialsPerCell; ++i) {
        const TrialOutcome out = fn(op_seed(op), i);
        if (!conserves(out)) {
          stats.fail(std::string(kCells[c]) + " cell " + std::to_string(op) +
                     " trial " + std::to_string(i) + ": not conserved");
        }
        if (i == 0 && outcome_digest(make_trial_fn(cell, kCheckShards)(
                          op_seed(op), i)) != outcome_digest(out)) {
          stats.fail(std::string(kCells[c]) + " cell " + std::to_string(op) +
                     ": shards=4 digest differs from shards=1");
        }
        successes += out.success ? 1 : 0;
        messages.add(out.messages);
      }
      const flip::TrialSummary& got = summaries_[op];
      if (got.successes != successes || got.messages.mean() != messages.mean()) {
        stats.fail(std::string(kCells[c]) + " cell " + std::to_string(op) +
                   ": run_sweep aggregate differs from the per-trial replay");
      }
    }
    stats.extra.emplace_back("replayed_cells", static_cast<double>(checked));
  }

 private:
  flip::cli::SweepSpec spec_for(std::size_t cell, std::uint64_t seed) const {
    flip::cli::SweepSpec spec;
    spec.scenario = kCells[cell];
    spec.ns = {shape().n};
    spec.trials = kTrialsPerCell;
    spec.seed = seed;
    spec.threads = shape().threads;
    spec.shards = shape().shards;
    return spec;
  }
  std::uint64_t op_seed(std::size_t op) const {
    return derive_seed(seed_, 1000 + salt_ * 1'000'000 + op);
  }

  std::uint64_t seed_;
  std::uint64_t salt_ = 0;
  std::vector<flip::TrialSummary> summaries_;
};

// --- daemon_mix ------------------------------------------------------------------

/// An in-process SweepServer driven by two closed-loop clients over
/// loopback with a seeded, fixed-share request mix.
class DaemonWorkload final : public Workload {
 public:
  explicit DaemonWorkload(std::uint64_t seed)
      : seed_(seed), variants_(daemon_variants(seed)) {}

  Shape shape() const override {
    return Shape{"broadcast_small", 256, 0.3, 1, 1};
  }

  void setup() override {
    server_.reset();  // stops and joins the previous server
    server_ = std::make_unique<flip::net::SweepServer>();
    std::string error;
    if (!server_->start(error)) {
      throw std::runtime_error("daemon_mix: server start: " + error);
    }
    flip::net::SweepClient client(server_->port());
    if (!client.ping(error)) {
      throw std::runtime_error("daemon_mix: ping: " + error);
    }
    for (const MixedRequest& v : variants_) {
      if (v.kind != RequestKind::kInvalid) {
        [[maybe_unused]] const std::string done = client.run_sweep(v.request);
      }
    }
  }

  OpStats run(double seconds, std::uint64_t salt) override {
    loop_ = run_service_loop(server_->port(), variants_, daemon_deck(),
                             kClients, seconds, derive_seed(seed_, 7 + salt));
    OpStats stats;
    static constexpr std::array<const char*, 4> kKindNames = {
        "tiny", "majority", "surrogate", "invalid"};
    std::array<std::vector<double>, 4> by_kind;
    for (const RequestRecord& r : loop_.records) {
      by_kind[static_cast<std::size_t>(variants_[r.variant].kind)].push_back(
          r.latency_ms);
    }
    for (std::size_t k = 0; k < by_kind.size(); ++k) {
      const std::string kind = kKindNames[k];
      stats.extra.emplace_back(kind + "_requests",
                               static_cast<double>(by_kind[k].size()));
      stats.extra.emplace_back(kind + "_p50_ms", median(by_kind[k]));
    }
    stats.wall_s = loop_.wall_s;
    stats.cpu_s = loop_.cpu_s;
    stats.latency_ms.reserve(loop_.records.size());
    for (const RequestRecord& r : loop_.records) {
      stats.latency_ms.push_back(r.latency_ms);
    }
    return stats;
  }

  void check(OpStats& stats) override {
    std::vector<Expected> expected;
    for (const MixedRequest& v : variants_) {
      expected.push_back(expected_answer(v.request));
    }
    const std::size_t busy = check_service_loop(loop_, expected, stats);
    stats.extra.emplace_back("busy_rejects", static_cast<double>(busy));
  }

 private:
  static constexpr std::size_t kClients = 2;

  std::uint64_t seed_;
  std::vector<MixedRequest> variants_;
  std::unique_ptr<flip::net::SweepServer> server_;
  ServiceLoop loop_;
};

}  // namespace

TrialFn make_trial_fn(const Shape& shape, std::size_t shards) {
  ScenarioOverrides o;
  o.n = shape.n;
  o.shards = shards;
  return ScenarioRegistry::instance().make(shape.scenario, o);
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "sweep_mc") return std::make_unique<SweepWorkload>(seed);
  if (name == "daemon_mix") return std::make_unique<DaemonWorkload>(seed);
  return nullptr;
}

}  // namespace perfbench
