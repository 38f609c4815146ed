#include "sim/surrogate_engine.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "core/breathe.hpp"
#include "util/math.hpp"

namespace flip {

namespace {

/// The expectation of the per-agent awake Markov chain (the mean of
/// core/environment's churn_step over agents). The engines apply churn_step
/// at the START of every round — including round 0, on the start_asleep
/// lottery's output — so step() must be called once per round BEFORE using
/// the round's awake probability.
class AwakeChain {
 public:
  explicit AwakeChain(const ChurnSpec& churn)
      : churn_(churn),
        enabled_(churn.enabled()),
        awake_(1.0 - churn.start_asleep) {}

  double step() noexcept {
    if (enabled_) {
      awake_ = awake_ * (1.0 - churn_.sleep_prob) +
               (1.0 - awake_) * churn_.wake_prob;
    }
    return awake_;
  }

 private:
  ChurnSpec churn_;
  bool enabled_;
  double awake_;
};

/// P(a fixed non-sending recipient hears >= 1 message) with `senders`
/// expected awake senders, each pushing to a uniform choice among its n-1
/// peers: 1 - (1 - 1/(n-1))^senders, real-valued exponent, evaluated as
/// -expm1(S log1p(-1/(n-1))) so it stays exact when S/n is 1e-9.
double hit_probability(double senders, std::size_t n) {
  if (senders <= 0.0) return 0.0;
  return -std::expm1(senders *
                     std::log1p(-1.0 / (static_cast<double>(n) - 1.0)));
}

/// Expected number of DISTINCT recipients hit by `senders` messages — the
/// mailbox's accepted count, bounded above by the message count (each
/// message is someone's arrival; collisions collapse). By symmetry each
/// agent is missed by all S messages with probability (1 - 1/n)^S.
double expected_hit_recipients(double senders, std::size_t n) {
  if (senders <= 0.0) return 0.0;
  return static_cast<double>(n) *
         -std::expm1(senders * std::log1p(-1.0 / static_cast<double>(n)));
}

/// P(Poisson-binomial count >= threshold) for per-round acceptance
/// probabilities that vary within a phase (churn's awake chain still
/// burning in). O(m^2) — phases are a few thousand rounds at most, and the
/// DP only runs when churn is on. Also returns the complement so callers
/// keep precision when the tail is 1 - 1e-12.
struct TailSplit {
  double ge = 0.0;  ///< P(count >= threshold)
  double lt = 0.0;  ///< P(count <  threshold)
};

TailSplit poisson_binomial_tail(const std::vector<double>& probs,
                                std::uint64_t threshold) {
  std::vector<double> dist(probs.size() + 1, 0.0);
  dist[0] = 1.0;
  std::size_t top = 0;
  for (const double p : probs) {
    ++top;
    for (std::size_t j = top; j-- > 0;) {
      dist[j + 1] += dist[j] * p;
      dist[j] *= 1.0 - p;
    }
  }
  TailSplit split;
  for (std::size_t j = 0; j < dist.size(); ++j) {
    (j >= threshold ? split.ge : split.lt) += dist[j];
  }
  return split;
}

/// One agent class: `count` agents sharing the same marginal state. The
/// initial set splits into its correct and wrong halves (their Stage-II
/// trajectories differ — a wrong seed stays wrong until a successful
/// re-decision), the n - |A| field agents form the third class.
struct AgentClass {
  double count = 0.0;
  /// P(NOT (opinionated & correct)) — tracked as the MISS so products of
  /// per-agent successes survive at n = 1e9 (log1p(-miss), never 1 - p).
  double miss_correct = 1.0;
};

}  // namespace

double radical_inverse_base2(std::uint64_t i) noexcept {
  i = ((i >> 1) & 0x5555555555555555ULL) | ((i & 0x5555555555555555ULL) << 1);
  i = ((i >> 2) & 0x3333333333333333ULL) | ((i & 0x3333333333333333ULL) << 2);
  i = ((i >> 4) & 0x0f0f0f0f0f0f0f0fULL) | ((i & 0x0f0f0f0f0f0f0f0fULL) << 4);
  i = ((i >> 8) & 0x00ff00ff00ff00ffULL) | ((i & 0x00ff00ff00ff00ffULL) << 8);
  i = ((i >> 16) & 0x0000ffff0000ffffULL) |
      ((i & 0x0000ffff0000ffffULL) << 16);
  i = (i >> 32) | (i << 32);
  return static_cast<double>(i) * 0x1p-64;
}

SurrogateResult run_surrogate(const SurrogateSpec& spec) {
  if (spec.initial_set == 0 || spec.initial_set > spec.n) {
    throw std::invalid_argument(
        "run_surrogate: initial_set must be in [1, n]");
  }
  if (spec.initial_correct > spec.initial_set) {
    throw std::invalid_argument(
        "run_surrogate: initial_correct > initial_set");
  }
  if (spec.heterogeneous && spec.schedule.enabled()) {
    throw std::invalid_argument(
        "run_surrogate: heterogeneous noise and an eps schedule are "
        "mutually exclusive");
  }
  if (spec.skip_stage1 && spec.initial_set != spec.n) {
    throw std::invalid_argument(
        "run_surrogate: skip_stage1 requires the whole population "
        "opinionated");
  }
  if (spec.skip_stage1 && spec.stage1_only) {
    throw std::invalid_argument(
        "run_surrogate: skip_stage1 and stage1_only are contradictory");
  }
  spec.schedule.validate();
  spec.churn.validate();

  const Params params = Params::calibrated(spec.n, spec.eps, spec.tuning);
  const StageOneSchedule& s1 = params.stage1();
  const StageTwoSchedule& s2 = params.stage2();
  const auto n = static_cast<double>(spec.n);

  // Round layout — the exact engines' own breathe_schedule, so the
  // surrogate's budget matches theirs round for round.
  const std::uint64_t start_phase =
      spec.auto_join_phase ? params.join_phase_for_initial_set(spec.initial_set)
                           : 0;
  const BreatheSchedule layout = breathe_schedule(
      params, start_phase, spec.skip_stage1, spec.stage1_only);
  const Round stage1_offset = layout.stage1_offset;
  const Round stage1_rounds = layout.stage1_rounds;
  const Round budget = layout.budget;

  const EnvironmentSchedule schedule =
      spec.schedule.resolved(spec.eps, budget);
  const bool scheduled = schedule.enabled();
  // Effective channel advantage of execution round r. Heterogeneous: flip
  // probability uniform in [0, 1/2 - eps] has mean 1/4 - eps/2, i.e.
  // advantage 1/4 + eps/2 — linear, so exact in the mean.
  const double static_eps =
      spec.heterogeneous ? 0.25 + spec.eps / 2.0 : spec.eps;
  const auto eps_at = [&](Round r) {
    return scheduled ? schedule.expected_eps_at(r) : static_eps;
  };

  // The three agent classes (field class last). Seeds behave as activated
  // before the join phase: opinionated from execution round 0.
  AgentClass seeds_correct{static_cast<double>(spec.initial_correct), 0.0};
  AgentClass seeds_wrong{
      static_cast<double>(spec.initial_set - spec.initial_correct), 1.0};
  const double field_count = n - static_cast<double>(spec.initial_set);
  // Field state: v = P(still inactive), w = P(opinionated & correct).
  double v = 1.0;
  double w = 0.0;

  AwakeChain awake(spec.churn);
  SurrogateResult result;
  result.rounds = budget;

  const auto opinionated = [&] {
    return seeds_correct.count + seeds_wrong.count + field_count * (1.0 - v);
  };
  const auto correct_count = [&] {
    return seeds_correct.count * (1.0 - seeds_correct.miss_correct) +
           seeds_wrong.count * (1.0 - seeds_wrong.miss_correct) +
           field_count * w;
  };

  // Activation step function over execution rounds, for the probe-grid
  // convergence estimate: (round whose end_round applies the boundary,
  // activation after it). Probes fire at the END of round r, so a boundary
  // at round e is visible to every probe round >= e.
  struct ActivationStep {
    Round round;
    double activated;
  };
  std::vector<ActivationStep> steps;

  // One round's expected traffic, shared by both stages. `senders` is the
  // opinionated count (fixed within a phase); acceptance uses the awake
  // probability twice: asleep senders never route, asleep recipients drop
  // their accepted message. The two rate terms depend on the round only
  // through `awake_senders`, so they are evaluated once per distinct
  // value: a static phase repeats one value every round, a churn phase
  // once the awake chain reaches its floating-point fixed point. The key
  // starts at -1, which no input takes (awake_senders >= 0).
  double cached_senders = -1.0;
  double p_hit = 0.0;
  double accepted = 0.0;
  const auto round_traffic = [&](double senders, Round r, double awake_prob) {
    const double awake_senders = awake_prob * senders;
    if (awake_senders != cached_senders) {
      cached_senders = awake_senders;
      p_hit = hit_probability(awake_senders, spec.n);
      accepted = expected_hit_recipients(awake_senders, spec.n);
    }
    const double eps_r = eps_at(r);
    result.expected_messages += awake_senders;
    result.expected_delivered += accepted * awake_prob;
    result.expected_dropped +=
        (awake_senders - accepted) + accepted * (1.0 - awake_prob);
    result.expected_flipped += accepted * awake_prob * (0.5 - eps_r);
    return std::pair<double, double>{awake_prob * p_hit, eps_r};
  };

  // ---- Stage I: spreading --------------------------------------------
  if (!spec.skip_stage1) {
    for (std::uint64_t phase = start_phase; phase <= s1.T + 1; ++phase) {
      const double senders = opinionated();
      const double delta =
          senders > 0.0 ? correct_count() / senders - 0.5 : 0.0;
      // Within a phase the sender pool is frozen (activees breathe), so an
      // inactive agent's rounds are independent trials: survival is the
      // product of per-round non-acceptance, and the adopted message's
      // correctness is the acceptance-weighted mean of the per-round
      // correctness q_r = 1/2 + 2 eps_r delta.
      double log_survival = 0.0;
      double sum_acc = 0.0;
      double sum_acc_q = 0.0;
      // log1p(-p_acc) is evaluated once per distinct p_acc, like the rate
      // terms it derives from (-1: no p_acc yet).
      double cached_p_acc = -1.0;
      double log_miss = 0.0;
      const Round begin = s1.phase_start(phase) - stage1_offset;
      const Round end = s1.phase_end(phase) - stage1_offset;
      for (Round r = begin; r < end; ++r) {
        const auto [p_acc, eps_r] = round_traffic(senders, r, awake.step());
        if (p_acc != cached_p_acc) {
          cached_p_acc = p_acc;
          log_miss = std::log1p(-p_acc);
        }
        log_survival += log_miss;
        sum_acc += p_acc;
        sum_acc_q += p_acc * (0.5 + 2.0 * eps_r * delta);
      }
      const double activated = -std::expm1(log_survival);
      const double q_bar = sum_acc > 0.0 ? sum_acc_q / sum_acc : 0.5;
      w += v * activated * std::clamp(q_bar, 0.0, 1.0);
      v *= 1.0 - activated;
      result.activation_trace.push_back(opinionated());
      steps.push_back({end - 1, opinionated()});
    }
  }
  const double v_stage1 = v;

  // ---- Stage II: boosting --------------------------------------------
  if (!spec.stage1_only) {
    std::vector<double> acc_probs;
    for (std::uint64_t phase = 0; phase < s2.num_phases(); ++phase) {
      const std::uint64_t length = s2.phase_length(phase);
      const std::uint64_t threshold = s2.half_length(phase);
      const double senders = opinionated();
      const double delta =
          senders > 0.0 ? correct_count() / senders - 0.5 : 0.0;
      acc_probs.clear();
      double sum_acc = 0.0;
      double sum_acc_eps = 0.0;
      const Round begin = stage1_rounds + s2.phase_start(phase);
      for (Round r = begin; r < begin + length; ++r) {
        const auto [p_acc, eps_r] = round_traffic(senders, r, awake.step());
        acc_probs.push_back(p_acc);
        sum_acc += p_acc;
        sum_acc_eps += p_acc * eps_r;
      }
      // sigma = P(an agent accepts >= threshold of the phase's rounds) —
      // "successful", it re-decides. Acceptance varies within a phase only
      // through the awake chain; without churn the binomial closed form is
      // exact (and O(m) instead of the O(m^2) DP).
      TailSplit success;
      if (spec.churn.enabled()) {
        success = poisson_binomial_tail(acc_probs, threshold);
      } else {
        success.ge = binomial_tail_ge(length, threshold, acc_probs.front());
        success.lt = binomial_tail_le(length, threshold - 1,
                                      acc_probs.front());
      }
      // A successful agent majorizes a subset of exactly `threshold`
      // samples (odd, never tied), each correct with the phase's
      // acceptance-weighted q. miss arithmetic keeps the tiny tails:
      //   miss' = sigma P(majority wrong) + (1 - sigma) miss.
      const double eps_eff = sum_acc > 0.0 ? sum_acc_eps / sum_acc : 0.0;
      const double q_bar =
          std::clamp(0.5 + 2.0 * eps_eff * delta, 0.0, 1.0);
      const double majority_wrong =
          binomial_tail_le(threshold, (threshold - 1) / 2, q_bar);
      const auto boost_miss = [&](double miss) {
        return success.ge * majority_wrong + success.lt * miss;
      };
      seeds_correct.miss_correct = boost_miss(seeds_correct.miss_correct);
      seeds_wrong.miss_correct = boost_miss(seeds_wrong.miss_correct);
      // Field agents: success recruits them whether or not they were
      // opinionated (Stage II counts every agent's samples).
      w = success.ge * (1.0 - majority_wrong) + success.lt * w;
      v *= success.lt;
      const double active = opinionated();
      result.activation_trace.push_back(active);
      result.stage2_bias_trace.push_back(
          active > 0.0 ? correct_count() / active - 0.5 : 0.0);
      steps.push_back({begin + length - 1, active});
    }
  }

  // ---- Aggregate outcomes --------------------------------------------
  // Independence across agents: P(all good) = prod (1 - miss_agent),
  // accumulated as sum count * log1p(-miss) per class. Skip empty classes
  // (0 * -inf would poison the sum when a class's miss is exactly 1).
  double log_success = 0.0;
  if (spec.stage1_only) {
    if (field_count > 0.0) log_success = field_count * std::log1p(-v_stage1);
  } else {
    const auto add = [&](double count, double miss) {
      if (count > 0.0) log_success += count * std::log1p(-miss);
    };
    add(seeds_correct.count, seeds_correct.miss_correct);
    add(seeds_wrong.count, seeds_wrong.miss_correct);
    add(field_count, 1.0 - w);
  }
  // log_success can land at +1e-17 from log1p rounding when every miss is
  // ~0; a probability of 1 + ulp would leak into every consumer's range
  // checks.
  result.success_probability = std::exp(std::min(0.0, log_success));
  result.correct_fraction = correct_count() / n;
  result.activation_fraction = opinionated() / n;
  result.final_bias =
      opinionated() > 0.0 ? correct_count() / opinionated() - 0.5 : 0.0;

  if (spec.probe_every > 0) {
    const double threshold = 0.99 * n;
    double active = static_cast<double>(spec.initial_set);
    std::size_t next_step = 0;
    for (Round r = 0; r < budget; r += spec.probe_every) {
      while (next_step < steps.size() && steps[next_step].round <= r) {
        active = steps[next_step].activated;
        ++next_step;
      }
      if (active >= threshold) {
        result.convergence_round = static_cast<double>(r);
        break;
      }
    }
  }
  return result;
}

TrialFn surrogate_trial_fn(const SurrogateSpec& spec) {
  // Run the analysis once, eagerly — construction cost, not per-trial cost
  // — so the returned closure is pure and trivially concurrency-safe.
  const auto result = std::make_shared<const SurrogateResult>(
      run_surrogate(spec));
  return [result](std::uint64_t /*seed*/, std::size_t trial) {
    TrialOutcome outcome;
    // Stratified deterministic outcomes: trial i succeeds iff the base-2
    // radical inverse of i falls below the analytic probability, so a
    // T-trial success rate recovers it with error O(1/T) and the outcome
    // of trial i never depends on thread order or the seed.
    outcome.success = radical_inverse_base2(trial) <
                      result->success_probability;
    outcome.rounds = static_cast<double>(result->rounds);
    outcome.messages = result->expected_messages;
    outcome.correct_fraction = result->correct_fraction;
    outcome.convergence_round = result->convergence_round;
    outcome.delivered =
        static_cast<std::uint64_t>(std::llround(result->expected_delivered));
    outcome.dropped =
        static_cast<std::uint64_t>(std::llround(result->expected_dropped));
    outcome.erased = 0;
    outcome.flipped =
        static_cast<std::uint64_t>(std::llround(result->expected_flipped));
    return outcome;
  };
}

}  // namespace flip
