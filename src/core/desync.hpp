#pragma once
// Section 3: removing the global-clock assumption.
//
// Modified algorithm (Section 3.1): every agent wakes at its own global
// round w_a in [0, D] and runs on its local clock t = g - w_a. Phase j of
// the unified schedule (Stage I phases start_phase..T+1 followed by the
// Stage II phases) is executed during LOCAL time
//     [R_j + j*D,  R_j + j*D + L_j)
// where R_j is the phase's start in the synchronous schedule and L_j its
// length — i.e. each phase is postponed by one extra D per phase index, so
// the GLOBAL intervals
//     C_j = [R_j + j*D,  R_{j+1} + (j+1)*D)
// ("containers") are disjoint and every phase-j message falls inside C_j
// regardless of sender wake times. The additive cost is (P+1)*D rounds for
// P phases — the O(D log n) of Theorem 3.1, O(log^2 n) once D = 2 log n.
//
// Message attribution. The paper's equivalence argument assumes an agent
// can attribute each received message to the phase it belongs to. Two
// implementable rules are provided:
//  * kLocalWindow — attribute by the receiver's OWN container (containers
//    tile local time, so this is a genuine agent-executable rule). Because
//    clocks are skewed by up to D, messages within D of a container edge
//    can be attributed to the neighbouring phase; experiment E10 verifies
//    the protocol absorbs this.
//  * kOracle — attribute by the sender's phase, which equals the unique
//    global container of the sending round (the containers-are-disjoint
//    fact). This realizes the paper's idealized attribution exactly and is
//    what the Section 3.1 bijection argument describes.

#include <cstdint>
#include <limits>
#include <vector>

#include "core/breathe.hpp"
#include "core/params.hpp"
#include "sim/engine.hpp"
#include "sim/population.hpp"
#include "util/rng.hpp"

namespace flip {

enum class Attribution { kLocalWindow, kOracle };

struct DesyncConfig {
  BreatheConfig base;        ///< correct opinion, initial set, start phase
  std::vector<Round> wake;   ///< per-agent wake round; values in [0, D]
  Round max_skew = 0;        ///< D: schedule slack per phase
  Attribution attribution = Attribution::kLocalWindow;

  /// Experiment E15 (the paper's Section 4 open question — how much
  /// synchronization is really needed): allow wake offsets LARGER than the
  /// schedule slack D. The protocol then runs with less slack than the
  /// true skew; containers no longer capture all of a phase's messages and
  /// correctness degrades gracefully rather than by construction.
  bool allow_excess_skew = false;
};

/// One phase of the unified (Stage I + Stage II) schedule.
struct UnifiedPhase {
  bool stage2 = false;
  std::uint64_t stage_index = 0;  ///< phase number within its stage
  Round length = 0;               ///< L_j
  Round base = 0;                 ///< R_j: start in the synchronous schedule
  std::uint64_t majority_take = 0;  ///< Stage II: subset size / success bar
};

class DesyncBreatheProtocol final : public Protocol {
 public:
  /// Draws follow BreatheProtocol's keying under the trial key `key`: the
  /// Stage I reservoir coin from (global round, agent, kProtocol), the
  /// Stage II majority subset from (unified phase, agent, kSubset). Every
  /// draw is a pure function of its key, so the outcome does not depend on
  /// the order the engine delivers a round's messages in.
  DesyncBreatheProtocol(const Params& params, DesyncConfig config,
                        const StreamKey& key);

  // Protocol interface -------------------------------------------------
  void collect_sends(Round g, std::vector<Message>& out) override;
  void deliver(AgentId to, Opinion bit, Round g) override;
  void end_round(Round g) override;
  [[nodiscard]] bool done(Round g) const override;
  [[nodiscard]] double current_bias() const override;
  [[nodiscard]] std::size_t current_opinionated() const override;

  // Introspection ------------------------------------------------------
  [[nodiscard]] const Population& population() const noexcept { return pop_; }
  [[nodiscard]] bool succeeded() const;
  [[nodiscard]] Round total_rounds() const noexcept { return total_rounds_; }
  /// Extra rounds relative to the synchronous schedule: (P+1)*D.
  [[nodiscard]] Round desync_overhead() const noexcept;
  [[nodiscard]] std::size_t num_phases() const noexcept {
    return phases_.size();
  }
  [[nodiscard]] const std::vector<StageOnePhaseStats>& stage1_stats()
      const noexcept {
    return stage1_stats_;
  }

 private:
  static constexpr std::int64_t kDormantLevel =
      std::numeric_limits<std::int64_t>::max();

  /// Container index for a local (or, in oracle mode, global) time; the
  /// containers tile [0, inf) so every non-negative time maps to a phase
  /// (times past the last container map to the last phase).
  [[nodiscard]] std::size_t container_of(Round t) const;
  [[nodiscard]] Round container_start(std::size_t j) const;
  [[nodiscard]] Round container_end(std::size_t j) const;
  /// Send window: the first L_j rounds of container j.
  [[nodiscard]] bool in_send_window(std::size_t j, Round local) const;

  void finalize_agent_phase(AgentId a, std::size_t j);

  Params params_;
  DesyncConfig config_;
  StreamKey key_;
  /// kProtocol round key cache: deliver() is called once per accepted
  /// message, but the key only changes once per round.
  StreamKey protocol_round_key_{};
  Round protocol_round_cached_ = ~Round{0};
  Population pop_;

  std::vector<UnifiedPhase> phases_;
  std::vector<Round> container_starts_;  ///< container_start(j), ascending

  std::vector<std::int64_t> level_;  ///< unified activation phase; seeds = -1
  /// Stage I reservoir (activation-phase messages).
  std::vector<std::uint32_t> s1_count_;
  std::vector<Opinion> s1_kept_;
  /// Stage II counters, double-buffered by container parity so oracle-mode
  /// spillover into the next container never mixes with the current one.
  std::vector<std::uint32_t> s2_recv_[2];
  std::vector<std::uint32_t> s2_ones_[2];

  /// Agents grouped by wake round: all phase finalizations for wake class w
  /// and phase j happen at global round w + container_end(j) - 1.
  std::vector<std::vector<AgentId>> by_wake_;

  Round total_rounds_ = 0;

  std::vector<StageOnePhaseStats> stage1_stats_;  ///< aggregated per phase
};

/// Section 3.2: the activation pre-phase that replaces unbounded clock
/// offsets with skew <= ~2 log n. Informed agents rumor-broadcast an
/// arbitrary bit for `broadcast_len` rounds; each agent resets its clock
/// (wakes) a fixed 2*broadcast_len rounds after first hearing a message.
struct ClockSyncResult {
  std::vector<Round> wake;   ///< per-agent wake rounds, min-normalized to 0
  Round skew = 0;            ///< max wake - min wake
  Round duration = 0;        ///< rounds the pre-phase ran
  std::uint64_t messages = 0;
  bool all_activated = false;
};

/// Runs the pre-phase with agent `source` initially informed.
/// broadcast_len defaults to ceil(2 ln n) when 0 is passed. Only arrival
/// matters, so there is no acceptance or noise step: informed agent a's
/// recipient in round r is one uniform draw over the other agents from its
/// (r + 1, a, kSetup) stream of the trial key `key` (round 0 of that lane
/// is the static wake-offset draw of the skewed scenarios).
ClockSyncResult run_clock_sync(std::size_t n, AgentId source,
                               const StreamKey& key, Round broadcast_len = 0);

}  // namespace flip
