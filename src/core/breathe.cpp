#include "core/breathe.hpp"

#include <stdexcept>

namespace flip {

double StageOnePhaseStats::layer_bias() const noexcept {
  if (newly_activated == 0) return 0.0;
  const auto good = static_cast<double>(newly_correct);
  const auto bad = static_cast<double>(newly_activated - newly_correct);
  return 0.5 * (good - bad) / static_cast<double>(newly_activated);
}

BreatheSchedule breathe_schedule(const Params& params,
                                 std::uint64_t start_phase, bool skip_stage1,
                                 bool stage1_only) {
  const StageOneSchedule& s1 = params.stage1();
  BreatheSchedule schedule;
  schedule.stage1_offset =
      skip_stage1 ? s1.total_rounds() : s1.phase_start(start_phase);
  schedule.stage1_rounds = s1.total_rounds() - schedule.stage1_offset;
  schedule.total_rounds =
      schedule.stage1_rounds + params.stage2().total_rounds();
  schedule.budget =
      stage1_only ? schedule.stage1_rounds : schedule.total_rounds;
  return schedule;
}

BreatheProtocol::BreatheProtocol(const Params& params, BreatheConfig config,
                                 const StreamKey& key)
    : params_(params),
      config_(std::move(config)),
      key_(key),
      pop_(params.n()),
      state_(params.n()),
      prefix_ones_(params.n(), 0) {
  const StageOneSchedule& s1 = params_.stage1();
  if (config_.start_phase > s1.T + 1) {
    throw std::invalid_argument("BreatheProtocol: start_phase > T+1");
  }
  if (config_.initial.empty()) {
    throw std::invalid_argument("BreatheProtocol: empty initial set");
  }

  schedule_ = breathe_schedule(params_, config_.start_phase,
                               config_.skip_stage1, false);

  opinionated_.reserve(params_.n());
  for (const Seed& seed : config_.initial) {
    if (seed.agent >= params_.n()) {
      throw std::invalid_argument("BreatheProtocol: seed agent out of range");
    }
    if (pop_.has_opinion(seed.agent)) {
      throw std::invalid_argument("BreatheProtocol: duplicate seed agent");
    }
    pop_.set_opinion(seed.agent, seed.opinion);
    // Members of the initial set behave as if activated in the phase before
    // start_phase: they send from the first execution round.
    state_[seed.agent].level =
        config_.start_phase == 0 ? 0
                                 : static_cast<std::uint32_t>(
                                       config_.start_phase - 1);
    opinionated_.push_back(seed.agent);
  }
  senders_ = opinionated_.size();
}

void BreatheProtocol::collect_sends(Round r, std::vector<Message>& out) {
  if (in_stage1(r)) {
    // Exactly the agents opinionated before the current phase send; agents
    // activated mid-phase "breathe" (stay silent) until the phase ends.
    for (std::size_t i = 0; i < senders_; ++i) {
      const AgentId a = opinionated_[i];
      out.push_back(Message{a, pop_.opinion(a)});
    }
  } else {
    // Stage II: every opinionated agent sends its current opinion.
    for (const AgentId a : opinionated_) {
      out.push_back(Message{a, pop_.opinion(a)});
    }
  }
}

void BreatheProtocol::deliver(AgentId to, Opinion bit, Round r) {
  AgentState& st = state_[to];
  if (in_stage1(r)) {
    if (pop_.has_opinion(to)) return;  // Stage I ignores later messages
    const std::uint64_t phase =
        params_.stage1().phase_of_round(stage1_round(r));
    if (st.level == AgentState::kDormant) {
      st.level = static_cast<std::uint32_t>(phase);
      activation_buffer_.push_back(to);
    }
    ++st.recv_count;
    if (config_.stage1_pick == Stage1Pick::kFirstMessage) {
      if (st.recv_count == 1) st.kept = bit;
    } else {
      // Reservoir: the kept message stays uniform among all messages this
      // agent accepted during its activation phase (Stage I rule). The
      // replace/keep coin for the k-th accept comes from the agent's OWN
      // per-round stream (an agent accepts at most one message per round,
      // so (round, agent) keys each accept uniquely), which keeps the
      // decision independent of every other agent's draws.
      if (r != protocol_round_cached_) {
        protocol_round_key_ =
            round_stream_key(key_, RngPurpose::kProtocol, r);
        protocol_round_cached_ = r;
      }
      CounterRng rng(protocol_round_key_, to);
      if (st.recv_count == 1 || uniform_index(rng, st.recv_count) == 0) {
        st.kept = bit;
      }
    }
  } else {
    ++st.recv_count;
    if (bit == Opinion::kOne) {
      ++st.ones_count;
      const StageTwoSchedule& s2 = params_.stage2();
      if (st.recv_count <= s2.half_length(s2.phase_of_round(stage2_round(r)))) {
        ++prefix_ones_[to];
      }
    }
  }
}

void BreatheProtocol::end_round(Round r) {
  if (in_stage1(r)) {
    const StageOneSchedule& s1 = params_.stage1();
    const Round sr = stage1_round(r);
    const std::uint64_t phase = s1.phase_of_round(sr);
    if (sr + 1 == s1.phase_end(phase)) finalize_stage1_phase(phase);
  } else {
    const StageTwoSchedule& s2 = params_.stage2();
    const Round sr = stage2_round(r);
    const std::uint64_t phase = s2.phase_of_round(sr);
    if (sr + 1 == s2.phase_start(phase) + s2.phase_length(phase)) {
      finalize_stage2_phase(phase);
    }
  }
}

void BreatheProtocol::finalize_stage1_phase(std::uint64_t phase) {
  StageOnePhaseStats stats;
  stats.phase = phase;
  stats.newly_activated = activation_buffer_.size();
  for (const AgentId a : activation_buffer_) {
    AgentState& st = state_[a];
    pop_.set_opinion(a, st.kept);
    if (st.kept == config_.correct) ++stats.newly_correct;
    st.reset_phase_counters();
    opinionated_.push_back(a);
  }
  activation_buffer_.clear();
  // From the next phase on, this phase's activees speak too.
  senders_ = opinionated_.size();
  stats.total_activated = opinionated_.size();
  stage1_stats_.push_back(stats);
}

void BreatheProtocol::finalize_stage2_phase(std::uint64_t phase) {
  const StageTwoSchedule& s2 = params_.stage2();
  const std::uint64_t threshold = s2.half_length(phase);
  StageTwoPhaseStats stats;
  stats.phase = phase;

  // Each agent's subset draw comes from its own (phase, agent, kSubset)
  // stream: the scan order of this loop carries no randomness, so the
  // batch engine may run it shard-parallel and still match exactly.
  const StreamKey subset_key =
      round_stream_key(key_, RngPurpose::kSubset, phase);
  for (AgentId a = 0; a < pop_.size(); ++a) {
    AgentState& st = state_[a];
    if (st.recv_count >= threshold) {
      // Successful agent: majority over a subset of exactly `threshold`
      // samples (odd, so never tied) — uniformly random per the paper's
      // rule, or the arrival-order prefix under Remark 2.10's variant.
      ++stats.successful;
      std::uint64_t ones = prefix_ones_[a];
      if (config_.stage2_subset != Stage2Subset::kPrefixSubset) {
        CounterRng rng(subset_key, a);
        ones = hypergeometric_ones(rng, st.recv_count, st.ones_count,
                                   threshold);
      }
      const Opinion verdict =
          2 * ones > threshold ? Opinion::kOne : Opinion::kZero;
      if (!pop_.has_opinion(a)) opinionated_.push_back(a);
      pop_.set_opinion(a, verdict);
    }
    st.reset_phase_counters();
    prefix_ones_[a] = 0;
  }
  senders_ = opinionated_.size();
  stats.correct_fraction = pop_.correct_fraction(config_.correct);
  stats.bias = pop_.bias(config_.correct);
  stage2_stats_.push_back(stats);
}

bool BreatheProtocol::done(Round r) const {
  return r + 1 >= schedule_.total_rounds;
}

double BreatheProtocol::current_bias() const {
  return pop_.bias(config_.correct);
}

std::size_t BreatheProtocol::current_opinionated() const {
  return pop_.opinionated();
}

bool BreatheProtocol::succeeded() const {
  return pop_.unanimous(config_.correct);
}

BreatheConfig broadcast_config(Opinion correct) {
  BreatheConfig config;
  config.correct = correct;
  config.initial = {Seed{0, correct}};
  config.start_phase = 0;
  return config;
}

BreatheConfig majority_config(const Params& params, std::size_t a,
                              std::size_t correct_count, Opinion correct) {
  if (a > params.n() || correct_count > a) {
    throw std::invalid_argument("majority_config: bad initial set sizes");
  }
  BreatheConfig config;
  config.correct = correct;
  config.initial.reserve(a);
  for (std::size_t i = 0; i < a; ++i) {
    config.initial.push_back(
        Seed{static_cast<AgentId>(i),
             i < correct_count ? correct : flip_opinion(correct)});
  }
  config.start_phase = params.join_phase_for_initial_set(a);
  return config;
}

}  // namespace flip
