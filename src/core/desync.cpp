#include "core/desync.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace flip {

DesyncBreatheProtocol::DesyncBreatheProtocol(const Params& params,
                                             DesyncConfig config,
                                             const StreamKey& key)
    : params_(params),
      config_(std::move(config)),
      key_(key),
      pop_(params.n()) {
  const std::size_t n = params_.n();
  if (config_.wake.size() != n) {
    throw std::invalid_argument("DesyncBreatheProtocol: wake.size() != n");
  }
  if (config_.base.initial.empty()) {
    throw std::invalid_argument("DesyncBreatheProtocol: empty initial set");
  }
  Round max_wake = 0;
  for (Round w : config_.wake) {
    if (w > config_.max_skew && !config_.allow_excess_skew) {
      throw std::invalid_argument(
          "DesyncBreatheProtocol: wake offset exceeds max_skew D");
    }
    max_wake = std::max(max_wake, w);
  }

  // Unified phase list: Stage I phases start_phase..T+1, then Stage II.
  const StageOneSchedule& s1 = params_.stage1();
  const StageTwoSchedule& s2 = params_.stage2();
  if (config_.base.start_phase > s1.T + 1) {
    throw std::invalid_argument("DesyncBreatheProtocol: start_phase > T+1");
  }
  Round base = 0;
  for (std::uint64_t i = config_.base.start_phase; i <= s1.T + 1; ++i) {
    UnifiedPhase p;
    p.stage2 = false;
    p.stage_index = i;
    p.length = s1.phase_length(i);
    p.base = base;
    base += p.length;
    phases_.push_back(p);
  }
  for (std::uint64_t i = 0; i <= s2.k; ++i) {
    UnifiedPhase p;
    p.stage2 = true;
    p.stage_index = i;
    p.length = s2.phase_length(i);
    p.base = base;
    p.majority_take = s2.half_length(i);
    base += p.length;
    phases_.push_back(p);
  }

  const Round D = config_.max_skew;
  container_starts_.reserve(phases_.size());
  for (std::size_t j = 0; j < phases_.size(); ++j) {
    container_starts_.push_back(phases_[j].base +
                                static_cast<Round>(j) * D);
  }
  // Last finalization: the latest wake + end of the last container.
  total_rounds_ = base + static_cast<Round>(phases_.size()) * D +
                  std::max(D, max_wake);

  level_.assign(n, kDormantLevel);
  s1_count_.assign(n, 0);
  s1_kept_.assign(n, Opinion::kZero);
  for (auto& v : s2_recv_) v.assign(n, 0);
  for (auto& v : s2_ones_) v.assign(n, 0);

  by_wake_.assign(static_cast<std::size_t>(std::max(D, max_wake)) + 1, {});
  for (AgentId a = 0; a < n; ++a) {
    by_wake_[static_cast<std::size_t>(config_.wake[a])].push_back(a);
  }

  for (const Seed& seed : config_.base.initial) {
    if (seed.agent >= n) {
      throw std::invalid_argument("DesyncBreatheProtocol: seed out of range");
    }
    pop_.set_opinion(seed.agent, seed.opinion);
    level_[seed.agent] = -1;  // sends from unified phase 0 on
  }

  stage1_stats_.resize(phases_.size());
  for (std::size_t j = 0; j < phases_.size(); ++j) {
    stage1_stats_[j].phase = phases_[j].stage_index;
  }
}

Round DesyncBreatheProtocol::container_start(std::size_t j) const {
  return container_starts_[j];
}

Round DesyncBreatheProtocol::container_end(std::size_t j) const {
  return phases_[j].base + phases_[j].length +
         static_cast<Round>(j + 1) * config_.max_skew;
}

std::size_t DesyncBreatheProtocol::container_of(Round t) const {
  // First container whose start is > t, minus one. Containers tile time, so
  // this is exact; times past the schedule clamp to the last phase.
  const auto it = std::upper_bound(container_starts_.begin(),
                                   container_starts_.end(), t);
  if (it == container_starts_.begin()) return 0;
  return static_cast<std::size_t>(
      std::min<std::ptrdiff_t>(it - container_starts_.begin() - 1,
                               static_cast<std::ptrdiff_t>(phases_.size()) - 1));
}

bool DesyncBreatheProtocol::in_send_window(std::size_t j, Round local) const {
  return local >= container_start(j) &&
         local < container_start(j) + phases_[j].length;
}

void DesyncBreatheProtocol::collect_sends(Round g, std::vector<Message>& out) {
  for (std::size_t w = 0; w < by_wake_.size(); ++w) {
    if (by_wake_[w].empty() || g < w) continue;
    const Round local = g - static_cast<Round>(w);
    const std::size_t j = container_of(local);
    if (!in_send_window(j, local)) continue;
    const bool stage2 = phases_[j].stage2;
    for (const AgentId a : by_wake_[w]) {
      if (!pop_.has_opinion(a)) continue;
      if (!stage2 && level_[a] >= static_cast<std::int64_t>(j)) continue;
      out.push_back(Message{a, pop_.opinion(a)});
    }
  }
}

void DesyncBreatheProtocol::deliver(AgentId to, Opinion bit, Round g) {
  const Round w = config_.wake[to];
  if (g < w) return;  // not awake yet: the message is lost
  const Round local = g - w;
  const std::size_t j = config_.attribution == Attribution::kOracle
                            ? container_of(g)
                            : container_of(local);
  if (!phases_[j].stage2) {
    if (pop_.has_opinion(to)) return;  // Stage I ignores later messages
    if (level_[to] == kDormantLevel) {
      level_[to] = static_cast<std::int64_t>(j);
    }
    if (level_[to] != static_cast<std::int64_t>(j)) return;  // spillover
    ++s1_count_[to];
    // BreatheProtocol's reservoir rule: the replace/keep coin comes from
    // the agent's own stream of this (global) round.
    if (g != protocol_round_cached_) {
      protocol_round_key_ = round_stream_key(key_, RngPurpose::kProtocol, g);
      protocol_round_cached_ = g;
    }
    CounterRng rng(protocol_round_key_, to);
    if (s1_count_[to] == 1 || uniform_index(rng, s1_count_[to]) == 0) {
      s1_kept_[to] = bit;
    }
  } else {
    const std::size_t parity = j % 2;
    ++s2_recv_[parity][to];
    if (bit == Opinion::kOne) ++s2_ones_[parity][to];
  }
}

void DesyncBreatheProtocol::end_round(Round g) {
  // Wake class w finalizes phase j at global round w + container_end(j) - 1.
  for (std::size_t j = 0; j < phases_.size(); ++j) {
    const Round end = container_end(j);
    if (g + 1 < end) break;  // containers are ordered; later ones end later
    const Round w = g + 1 - end;
    if (w >= by_wake_.size()) continue;
    for (const AgentId a : by_wake_[static_cast<std::size_t>(w)]) {
      finalize_agent_phase(a, j);
    }
  }
}

void DesyncBreatheProtocol::finalize_agent_phase(AgentId a, std::size_t j) {
  const UnifiedPhase& phase = phases_[j];
  if (!phase.stage2) {
    if (pop_.has_opinion(a)) return;
    if (level_[a] != static_cast<std::int64_t>(j)) return;
    pop_.set_opinion(a, s1_kept_[a]);
    StageOnePhaseStats& stats = stage1_stats_[j];
    ++stats.newly_activated;
    if (s1_kept_[a] == config_.base.correct) ++stats.newly_correct;
    stats.total_activated = pop_.opinionated();
    s1_count_[a] = 0;
  } else {
    const std::size_t parity = j % 2;
    const std::uint64_t recv = s2_recv_[parity][a];
    const std::uint64_t take = phase.majority_take;
    if (recv >= take) {
      CounterRng rng(round_stream_key(key_, RngPurpose::kSubset, j), a);
      const std::uint64_t ones =
          hypergeometric_ones(rng, recv, s2_ones_[parity][a], take);
      pop_.set_opinion(a, 2 * ones > take ? Opinion::kOne : Opinion::kZero);
    }
    s2_recv_[parity][a] = 0;
    s2_ones_[parity][a] = 0;
  }
}

bool DesyncBreatheProtocol::done(Round g) const {
  return g + 1 >= total_rounds_;
}

double DesyncBreatheProtocol::current_bias() const {
  return pop_.bias(config_.base.correct);
}

std::size_t DesyncBreatheProtocol::current_opinionated() const {
  return pop_.opinionated();
}

bool DesyncBreatheProtocol::succeeded() const {
  return pop_.unanimous(config_.base.correct);
}

Round DesyncBreatheProtocol::desync_overhead() const noexcept {
  return static_cast<Round>(phases_.size() + 1) * config_.max_skew;
}

ClockSyncResult run_clock_sync(std::size_t n, AgentId source,
                               const StreamKey& key, Round broadcast_len) {
  if (n < 2) throw std::invalid_argument("run_clock_sync: n < 2");
  if (source >= n) throw std::invalid_argument("run_clock_sync: bad source");
  if (broadcast_len == 0) {
    broadcast_len = static_cast<Round>(
        std::ceil(2.0 * std::log(static_cast<double>(n))));
  }

  constexpr Round kNever = std::numeric_limits<Round>::max();
  std::vector<Round> first_heard(n, kNever);
  first_heard[source] = 0;  // the source is informed from the start

  ClockSyncResult result;
  std::size_t informed = 1;
  const Round cap = 20 * broadcast_len + 64;  // safety stop, never hit w.h.p.

  Round round = 0;
  for (; round < cap && informed < n; ++round) {
    const StreamKey route_key =
        round_stream_key(key, RngPurpose::kSetup, round + 1);
    for (AgentId a = 0; a < n; ++a) {
      // Informed agents broadcast for broadcast_len rounds after hearing;
      // an agent informed this round (first_heard = round + 1) starts next
      // round. The bit is arbitrary: only "a message arrived" matters.
      if (first_heard[a] > round || round >= first_heard[a] + broadcast_len) {
        continue;
      }
      CounterRng rng(route_key, a);
      auto to = static_cast<AgentId>(uniform_index(rng, n - 1));
      to += (to >= a);
      ++result.messages;
      if (first_heard[to] == kNever) {
        first_heard[to] = round + 1;
        ++informed;
      }
    }
  }
  result.duration = round;
  result.all_activated = informed == n;

  // Wake = clock reset point: 2*broadcast_len after first hearing, then
  // normalized so the earliest wake is 0.
  result.wake.assign(n, 0);
  Round min_wake = kNever;
  Round max_wake = 0;
  for (AgentId a = 0; a < n; ++a) {
    const Round heard = first_heard[a] == kNever ? round : first_heard[a];
    result.wake[a] = heard + 2 * broadcast_len;
    min_wake = std::min(min_wake, result.wake[a]);
    max_wake = std::max(max_wake, result.wake[a]);
  }
  for (Round& w : result.wake) w -= min_wake;
  result.skew = max_wake - min_wake;
  return result;
}

}  // namespace flip
