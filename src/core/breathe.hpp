#pragma once
// The paper's protocol (fully-synchronous setting, Section 2), covering both
// problems:
//
//  * noisy broadcast        — initial set {source}, joining at phase 0;
//  * noisy majority-consensus — initial set A joining at phase
//                               i_A = log(|A|/log n) / (2 log(1/eps))
//                               (Corollary 2.18).
//
// Stage I ("breathe"): an agent activated during phase i stays SILENT until
// phase i ends, adopts a uniformly random message among those it heard in
// that phase as its initial opinion, then sends that opinion every round
// until Stage I ends.
//
// Stage II ("speak"): k boost phases of m = 2*gamma rounds, then a long
// final phase. Every round every opinionated agent pushes its current
// opinion; at the end of a phase, an agent that received at least half the
// phase's rounds' worth of messages ("successful") re-decides by the
// majority of a uniformly random subset of exactly half-phase-length
// samples (Remark 2.10 / footnote 3: the subset makes decisions invariant
// to arrival order, which Section 3 relies on).

#include <cstdint>
#include <vector>

#include "core/agent.hpp"
#include "core/params.hpp"
#include "sim/engine.hpp"
#include "sim/population.hpp"
#include "util/rng.hpp"

namespace flip {

/// One initially opinionated agent.
struct Seed {
  AgentId agent;
  Opinion opinion;
};

/// Stage I initial-opinion rule (Remark 2.1): the paper's rule picks a
/// uniformly random message among those heard in the activation phase; in
/// the fully-synchronous setting adopting the FIRST message instead is
/// equivalent. Both are provided so the equivalence is measurable (E11).
enum class Stage1Pick { kUniformMessage, kFirstMessage };

/// Stage II majority-subset rule (Remark 2.10): the paper's rule majorizes
/// over a uniformly random subset of exactly m_i/2 samples; synchronously,
/// the prefix of the first m_i/2 samples is equivalent.
enum class Stage2Subset { kUniformSubset, kPrefixSubset };

struct BreatheConfig {
  /// The correct opinion B (used for instrumentation only — the protocol
  /// itself is symmetric and never branches on it).
  Opinion correct = Opinion::kOne;

  /// The initially opinionated set A (the source for broadcast).
  std::vector<Seed> initial;

  /// Stage I phase at which the initial set starts sending. Use 0 for
  /// broadcast; Params::join_phase_for_initial_set(|A|) for majority.
  std::uint64_t start_phase = 0;

  /// Experiment-harness switch (bench E7): skip Stage I entirely and run
  /// Stage II on the initial set as-is. Meaningful only when the initial
  /// set covers the whole population with a seeded bias.
  bool skip_stage1 = false;

  Stage1Pick stage1_pick = Stage1Pick::kUniformMessage;
  Stage2Subset stage2_subset = Stage2Subset::kUniformSubset;
};

/// The execution-round layout of one breathe run. Execution starts at
/// Stage I phase start_phase (at Stage II when skip_stage1), so execution
/// round r is Stage I schedule round r + stage1_offset while
/// r < stage1_rounds and Stage II round r - stage1_rounds after that.
/// BreatheProtocol, BatchEngine::run_breathe and run_surrogate all take it
/// from breathe_schedule(), so their budgets agree round for round.
struct BreatheSchedule {
  Round stage1_offset = 0;  ///< Stage I schedule round of execution round 0
  Round stage1_rounds = 0;  ///< execution rounds spent in Stage I
  Round total_rounds = 0;   ///< Stage I from start_phase + all of Stage II
  Round budget = 0;  ///< rounds this run executes (stage1_only truncates)
};

/// The layout of a run joining at `start_phase`; `skip_stage1` starts at
/// Stage II, `stage1_only` ends the budget with Stage I. Precondition:
/// start_phase <= T + 1.
BreatheSchedule breathe_schedule(const Params& params,
                                 std::uint64_t start_phase, bool skip_stage1,
                                 bool stage1_only);

/// Stage I per-phase observation: the X_i / Y_i / Z_i of the analysis.
struct StageOnePhaseStats {
  std::uint64_t phase = 0;
  std::uint64_t newly_activated = 0;   ///< Y_i
  std::uint64_t newly_correct = 0;     ///< Z_i
  std::uint64_t total_activated = 0;   ///< X_i
  /// Bias eps_i of the layer: (Z_i - (Y_i - Z_i)) / (2 Y_i); 0 if Y_i = 0.
  [[nodiscard]] double layer_bias() const noexcept;
};

/// Stage II per-phase observation.
struct StageTwoPhaseStats {
  std::uint64_t phase = 0;
  std::uint64_t successful = 0;        ///< agents with enough samples
  double correct_fraction = 0.0;       ///< of all n agents, at phase end
  /// Bias delta_i at phase end: correct_fraction - wrong fraction, halved
  /// over opinionated agents (Population::bias).
  double bias = 0.0;
};

class BreatheProtocol final : public Protocol {
 public:
  /// The protocol draws its own randomness from counter-based per-agent
  /// streams derived from `key` (one trial's protocol key): the Stage I
  /// message pick from (round, agent, RngPurpose::kProtocol), the Stage II
  /// majority subset from (phase, agent, RngPurpose::kSubset). Pure
  /// per-agent keying is what lets the batch engine replay these draws
  /// shard-by-shard and still match this reference bit for bit.
  BreatheProtocol(const Params& params, BreatheConfig config,
                  const StreamKey& key);

  // Protocol interface -------------------------------------------------
  void collect_sends(Round r, std::vector<Message>& out) override;
  void deliver(AgentId to, Opinion bit, Round r) override;
  void end_round(Round r) override;
  [[nodiscard]] bool done(Round r) const override;
  [[nodiscard]] double current_bias() const override;
  [[nodiscard]] std::size_t current_opinionated() const override;

  // Introspection ------------------------------------------------------
  [[nodiscard]] const Population& population() const noexcept { return pop_; }
  [[nodiscard]] const Params& params() const noexcept { return params_; }
  /// Total execution length in rounds (Stage I from start_phase + Stage II).
  [[nodiscard]] Round total_rounds() const noexcept {
    return schedule_.total_rounds;
  }
  [[nodiscard]] Round stage1_rounds() const noexcept {
    return schedule_.stage1_rounds;
  }
  /// True iff every agent ended holding the correct opinion.
  [[nodiscard]] bool succeeded() const;
  [[nodiscard]] const std::vector<StageOnePhaseStats>& stage1_stats()
      const noexcept {
    return stage1_stats_;
  }
  [[nodiscard]] const std::vector<StageTwoPhaseStats>& stage2_stats()
      const noexcept {
    return stage2_stats_;
  }

 private:
  [[nodiscard]] bool in_stage1(Round r) const noexcept {
    return r < schedule_.stage1_rounds;
  }
  /// Stage I schedule round for execution round r (execution starts at
  /// start_phase, not phase 0).
  [[nodiscard]] Round stage1_round(Round r) const noexcept {
    return r + schedule_.stage1_offset;
  }
  [[nodiscard]] Round stage2_round(Round r) const noexcept {
    return r - schedule_.stage1_rounds;
  }

  void finalize_stage1_phase(std::uint64_t phase);
  void finalize_stage2_phase(std::uint64_t phase);

  Params params_;
  BreatheConfig config_;
  StreamKey key_;
  /// kProtocol round key cache: deliver() is called once per accepted
  /// message, but the key only changes once per round.
  StreamKey protocol_round_key_{};
  Round protocol_round_cached_ = ~Round{0};
  Population pop_;
  std::vector<AgentState> state_;
  /// Ones among each agent's first `threshold` samples of the current
  /// Stage II phase (only consulted under Stage2Subset::kPrefixSubset).
  std::vector<std::uint32_t> prefix_ones_;

  BreatheSchedule schedule_;

  /// Opinionated agents in the order they gained an opinion; the Stage I
  /// senders are a prefix of this list (those opinionated before the
  /// current phase), Stage II senders are the whole list.
  std::vector<AgentId> opinionated_;
  std::size_t senders_ = 0;  ///< prefix of opinionated_ that sends this phase

  /// Agents activated during the current Stage I phase (buffered so their
  /// opinions appear only at the phase boundary).
  std::vector<AgentId> activation_buffer_;

  std::vector<StageOnePhaseStats> stage1_stats_;
  std::vector<StageTwoPhaseStats> stage2_stats_;
};

/// Convenience: a broadcast configuration with a single source agent 0
/// holding the correct opinion.
BreatheConfig broadcast_config(Opinion correct = Opinion::kOne);

/// Convenience: a majority-consensus configuration. Chooses the first `a`
/// agents as the initial set with exactly `correct_count` of them holding
/// `correct` (the rest hold the flip), and the join phase per Corollary
/// 2.18. Precondition: correct_count <= a <= n.
BreatheConfig majority_config(const Params& params, std::size_t a,
                              std::size_t correct_count,
                              Opinion correct = Opinion::kOne);

}  // namespace flip
