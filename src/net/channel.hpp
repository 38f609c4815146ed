#pragma once
// Noise channel abstraction. The paper's Flip model uses a binary symmetric
// channel with crossover probability 1/2 - eps applied independently to
// every received message. Alternative channels (perfect, erasure,
// budget-bounded adversarial) exist for baselines, ablations and tests.
//
// Every channel exposes transmit() twice: once drawing from a sequential
// Xoshiro256 stream (legacy callers, statistical tests) and once from a
// counter-keyed CounterRng — the engines key that stream by
// (trial, round, recipient, RngPurpose::kChannel), which is what makes the
// noise independent of delivery order, thread count, and shard count. Both
// overloads share one template body per channel, so they cannot drift.

#include <memory>
#include <optional>
#include <string>

#include "core/environment.hpp"
#include "net/message.hpp"
#include "util/rng.hpp"

namespace flip {

/// Transforms a transmitted bit into the bit the receiver observes.
/// Implementations must be safe to share across sequential calls with
/// distinct rngs; stateful channels (Adversarial) document their own rules.
class NoiseChannel {
 public:
  virtual ~NoiseChannel() = default;

  /// The received bit, or nullopt if the message was destroyed in transit
  /// (only ErasureChannel ever erases).
  [[nodiscard]] virtual std::optional<Opinion> transmit(Opinion sent,
                                                        Xoshiro256& rng) = 0;
  /// Counter-keyed twin: same distribution, drawn from the recipient's
  /// per-round stream. Engines call this one.
  [[nodiscard]] virtual std::optional<Opinion> transmit(Opinion sent,
                                                        CounterRng& rng) = 0;

  /// Round hook: engines call this once at the start of round `round` of
  /// the trial rooted at `trial_key`, before any transmit() of that round.
  /// Channels whose noise level is round-scoped (CorrelatedBurstChannel)
  /// fix their per-round state here — from counter-keyed draws only, so
  /// the realized noise is identical on every substrate. Default: no-op
  /// (the static channels have no round state).
  virtual void begin_round(const StreamKey& trial_key, std::uint64_t round) {
    (void)trial_key;
    (void)round;
  }

  /// Nominal per-message flip probability (for reporting; the adversarial
  /// channel reports its worst-case rate).
  [[nodiscard]] virtual double flip_probability() const noexcept = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Binary symmetric channel with crossover probability p = 1/2 - eps: the
/// channel of the Flip model (Section 1.3.2). Requires 0 < eps <= 1/2.
class BinarySymmetricChannel final : public NoiseChannel {
 public:
  explicit BinarySymmetricChannel(double eps);

  // transmit() is defined in-class (here and in the other concrete channels)
  // so that statically typed callers can devirtualize AND inline the
  // per-message draw. Virtual dispatch through NoiseChannel& behaves exactly
  // as before.
  [[nodiscard]] std::optional<Opinion> transmit(Opinion sent,
                                                Xoshiro256& rng) override {
    return transmit_with(sent, rng);
  }
  [[nodiscard]] std::optional<Opinion> transmit(Opinion sent,
                                                CounterRng& rng) override {
    return transmit_with(sent, rng);
  }
  template <typename Rng>
  [[nodiscard]] std::optional<Opinion> transmit_with(Opinion sent, Rng& rng) {
    return bernoulli(rng, 0.5 - eps_) ? flip_opinion(sent) : sent;
  }
  [[nodiscard]] double flip_probability() const noexcept override {
    return 0.5 - eps_;
  }
  [[nodiscard]] double eps() const noexcept { return eps_; }
  [[nodiscard]] std::string name() const override;

 private:
  double eps_;
};

/// Noiseless channel (eps = 1/2 in the model's parameterization). Used by
/// the noiseless reference baselines and in tests.
class PerfectChannel final : public NoiseChannel {
 public:
  [[nodiscard]] std::optional<Opinion> transmit(Opinion sent,
                                                Xoshiro256& rng) override {
    return transmit_with(sent, rng);
  }
  [[nodiscard]] std::optional<Opinion> transmit(Opinion sent,
                                                CounterRng& rng) override {
    return transmit_with(sent, rng);
  }
  template <typename Rng>
  [[nodiscard]] std::optional<Opinion> transmit_with(Opinion sent, Rng&) {
    return sent;
  }
  [[nodiscard]] double flip_probability() const noexcept override { return 0.0; }
  [[nodiscard]] std::string name() const override { return "perfect"; }
};

/// Erasure channel extension: with probability erase_prob the message is
/// destroyed; otherwise it passes through a BSC(1/2 - eps). Models the
/// message-loss faults of classic fault-tolerant gossip on top of flips.
class ErasureChannel final : public NoiseChannel {
 public:
  ErasureChannel(double eps, double erase_prob);

  [[nodiscard]] std::optional<Opinion> transmit(Opinion sent,
                                                Xoshiro256& rng) override {
    return transmit_with(sent, rng);
  }
  [[nodiscard]] std::optional<Opinion> transmit(Opinion sent,
                                                CounterRng& rng) override {
    return transmit_with(sent, rng);
  }
  template <typename Rng>
  [[nodiscard]] std::optional<Opinion> transmit_with(Opinion sent, Rng& rng) {
    if (bernoulli(rng, erase_prob_)) return std::nullopt;
    return bernoulli(rng, 0.5 - eps_) ? flip_opinion(sent) : sent;
  }
  [[nodiscard]] double flip_probability() const noexcept override {
    return 0.5 - eps_;
  }
  [[nodiscard]] double erase_probability() const noexcept { return erase_prob_; }
  [[nodiscard]] std::string name() const override;

 private:
  double eps_;
  double erase_prob_;
};

/// Heterogeneous channel: the Flip model only promises flips happen "with
/// probability AT MOST 1/2 - eps" (Section 1.3.2). This channel exercises
/// that clause: each message independently draws its own flip probability
/// uniformly from [0, 1/2 - eps], so the guaranteed advantage eps is only a
/// floor. Protocol guarantees must survive it unchanged (the average noise
/// is strictly milder), which tests that no code path secretly relies on
/// the noise being exactly 1/2 - eps.
class HeterogeneousChannel final : public NoiseChannel {
 public:
  explicit HeterogeneousChannel(double eps);

  [[nodiscard]] std::optional<Opinion> transmit(Opinion sent,
                                                Xoshiro256& rng) override {
    return transmit_with(sent, rng);
  }
  [[nodiscard]] std::optional<Opinion> transmit(Opinion sent,
                                                CounterRng& rng) override {
    return transmit_with(sent, rng);
  }
  template <typename Rng>
  [[nodiscard]] std::optional<Opinion> transmit_with(Opinion sent, Rng& rng) {
    const double flip_prob = uniform_unit(rng) * (0.5 - eps_);
    return bernoulli(rng, flip_prob) ? flip_opinion(sent) : sent;
  }
  [[nodiscard]] double flip_probability() const noexcept override {
    return (0.5 - eps_) / 2.0;  // mean of the uniform draw
  }
  [[nodiscard]] double eps() const noexcept { return eps_; }
  [[nodiscard]] std::string name() const override;

 private:
  double eps_;
};

/// Dynamic-environment channel: a BSC whose advantage eps follows an
/// EnvironmentSchedule (core/environment.hpp) — piecewise step/ramp
/// segments plus correlated noise bursts that hit whole windows of rounds
/// at once. The model's "with probability at most 1/2 - eps" clause made
/// per-message noise heterogeneous (HeterogeneousChannel); this channel
/// makes it ROUND-correlated instead, which is the harder case for the
/// protocol's phase-length union bounds.
///
/// Round protocol: engines call begin_round(trial_key, r) once per round,
/// which evaluates the schedule (the burst lottery draws from the trial's
/// kEnvironment counter stream) and pins this round's eps; transmit() then
/// flips with probability 1/2 - eps from the RECIPIENT's keyed stream as
/// usual. Both draws are pure functions of their keys, so the realized
/// noise is bit-identical across engines, threads, and shards.
/// Constructed per trial, like the other channels; the only state is the
/// cached round eps.
class CorrelatedBurstChannel final : public NoiseChannel {
 public:
  /// `schedule` must be resolved() and validate()d; round eps starts at the
  /// schedule's base until the first begin_round call.
  explicit CorrelatedBurstChannel(EnvironmentSchedule schedule);

  void begin_round(const StreamKey& trial_key, std::uint64_t round) override {
    round_eps_ = schedule_.eps_at(trial_key, round);
  }

  [[nodiscard]] std::optional<Opinion> transmit(Opinion sent,
                                                Xoshiro256& rng) override {
    return transmit_with(sent, rng);
  }
  [[nodiscard]] std::optional<Opinion> transmit(Opinion sent,
                                                CounterRng& rng) override {
    return transmit_with(sent, rng);
  }
  template <typename Rng>
  [[nodiscard]] std::optional<Opinion> transmit_with(Opinion sent, Rng& rng) {
    return bernoulli(rng, 0.5 - round_eps_) ? flip_opinion(sent) : sent;
  }
  [[nodiscard]] double flip_probability() const noexcept override {
    return 0.5 - round_eps_;  // this round's rate
  }
  [[nodiscard]] const EnvironmentSchedule& schedule() const noexcept {
    return schedule_;
  }
  [[nodiscard]] double round_eps() const noexcept { return round_eps_; }
  [[nodiscard]] std::string name() const override;

 private:
  EnvironmentSchedule schedule_;
  double round_eps_;
};

/// Budget-bounded adversarial channel extension: flips deterministically
/// while it has budget left (the worst case for protocols that trust early
/// messages), then behaves perfectly. Not part of the paper's model; used by
/// failure-injection tests to show which guarantees do NOT survive
/// non-stochastic noise. Stateful: one instance per trial — and, unlike the
/// stochastic channels, inherently order-dependent (the budget is spent in
/// delivery order), so it is excluded from the shard-invariance contract.
class AdversarialChannel final : public NoiseChannel {
 public:
  explicit AdversarialChannel(std::uint64_t flip_budget);

  [[nodiscard]] std::optional<Opinion> transmit(Opinion sent,
                                                Xoshiro256&) override {
    return transmit_spend(sent);
  }
  [[nodiscard]] std::optional<Opinion> transmit(Opinion sent,
                                                CounterRng&) override {
    return transmit_spend(sent);
  }
  [[nodiscard]] double flip_probability() const noexcept override {
    return budget_left_ > 0 ? 1.0 : 0.0;
  }
  [[nodiscard]] std::uint64_t budget_left() const noexcept {
    return budget_left_;
  }
  [[nodiscard]] std::string name() const override;

 private:
  [[nodiscard]] std::optional<Opinion> transmit_spend(Opinion sent) {
    if (budget_left_ > 0) {
      --budget_left_;
      return flip_opinion(sent);
    }
    return sent;
  }

  std::uint64_t budget_left_;
};

/// Factory for the model's canonical channel.
std::unique_ptr<NoiseChannel> make_flip_channel(double eps);

}  // namespace flip
