#pragma once
// Mean-field surrogate engine: the third EngineMode. Instead of simulating
// n agents, it integrates the EXPECTED opinion/activation state of the
// breathe protocol round by round — O(total rounds) arithmetic, so an
// n = 10^9 cell answers in milliseconds where the exact engines would need
// hours. A round costs a few additions: its rate terms (the acceptance
// probability, the expected recipient count and Stage I's log-survival
// term) depend on the round only through the awake sender count, and the
// breathe rule freezes the sender pool for a phase, so they are evaluated
// once per distinct input (once per phase without churn), not per round.
// BatchEngine stays the ground truth: the surrogate is held within stated
// error bands of it by the validation harness
// (flipsim --validate-surrogate, tools/check_surrogate_accuracy.py) and by
// tests/surrogate_engine_test.cpp, never trusted bit for bit.
//
// The model (seeded from the same identities core/theory pins):
//
//  * Per-round acceptance. With X opinionated senders, a recipient hears
//    at least one message with probability 1 - (1 - 1/(n-1))^X; churn
//    scales both sides by the awake probability of the round, which
//    evolves by the two-state Markov chain
//      a' = a (1 - sleep_prob) + (1 - a) wake_prob,   a_init = 1 - start_asleep
//    — the expectation of core/environment's per-agent churn_step chain.
//  * Per-message correctness. A message sampled from a sender pool with
//    bias delta and relayed through a channel of advantage eps_r is correct
//    with probability 1/2 + 2 eps_r delta (theory::sampled_bias). eps_r is
//    EnvironmentSchedule::expected_eps_at(r): correctness is linear in eps,
//    so replacing the burst lottery by its expectation is exact in the
//    mean. The heterogeneous channel (flip probability uniform in
//    [0, 1/2 - eps]) is linear too: effective advantage 1/4 + eps/2.
//  * Stage I. Agents activated during a phase buffer until the phase ends
//    (the protocol's breathe rule), so within a phase the sender pool is
//    fixed. An inactive agent survives the phase with probability
//    prod_r (1 - p_hit(r)); conditioned on activating, its adopted opinion
//    is correct with the acceptance-weighted mean of the per-round
//    correctness (the uniform-message pick averages over accepted rounds —
//    the same mean-field value covers the first-message variant).
//  * Stage II. An agent is "successful" when it accepts at least
//    t = m_i/2 of the phase's m_i rounds — Binomial(m_i, p_acc) tail, or an
//    exact per-round count DP when churn makes p_acc vary within the
//    phase. A successful agent re-decides by the majority of t samples:
//    correct with probability P(Bin(t, q) >= (t+1)/2) (the exact
//    Lemma 2.11 computation theory::stage2_next_bias also uses), whether
//    or not it held an opinion before — Stage II recruits stragglers. Per
//    agent:  P(opinionated & correct)' = sigma p_maj + (1 - sigma) P(o&c).
//  * Success probability. Agents are treated as independent (exact only in
//    the n -> infinity limit; the error bands absorb the correlation at
//    finite n): P(success) = prod over agents of (1 - miss), accumulated
//    in log space with the per-agent miss probability tracked directly so
//    misses of 1e-30 at n = 10^9 survive the arithmetic.
//
// Trial mapping: a surrogate "trial" does no fresh work — the analysis runs
// once, and trial i succeeds iff the base-2 radical inverse of i (the van
// der Corput low-discrepancy sequence) falls below the analytic success
// probability. The stratification makes a T-trial success rate converge to
// the analytic probability at rate 1/T instead of 1/sqrt(T), and keeps the
// TrialFn deterministic and thread-order-independent like every other
// engine's.
//
// What the surrogate CANNOT model (run_surrogate throws, and
// ScenarioRegistry::resolve rejects before the first cell): the
// adversarial channel (stateful, order-dependent — no per-round rate
// exists) and the desync scenarios (per-agent clock offsets break the
// homogeneous-population assumption).

#include <cstdint>
#include <limits>
#include <vector>

#include "core/environment.hpp"
#include "core/params.hpp"
#include "sim/metrics.hpp"
#include "sim/trial.hpp"

namespace flip {

/// One mean-field integration: the surrogate analogue of a resolved breathe
/// scenario (broadcast, majority, or boost — the supported problems). The
/// scenario layer (workload/scenarios.cpp) builds the exact engines' run
/// from the same spec, so both engine families read one description.
struct SurrogateSpec {
  std::size_t n = 1024;
  double eps = 0.2;
  Tuning tuning{};
  /// The initially opinionated set A and how many of them hold the correct
  /// opinion. Broadcast: 1/1. Majority: |A| and llround((1/2+bias)|A|).
  std::size_t initial_set = 1;
  std::size_t initial_correct = 1;
  /// Join Stage I at Params::join_phase_for_initial_set(initial_set)
  /// (Corollary 2.18), as majority_config does. Off = join at phase 0.
  bool auto_join_phase = false;
  /// Skip Stage I entirely (boost: the initial set is the whole
  /// population). Requires initial_set == n.
  bool skip_stage1 = false;
  /// Run Stage I only; success then means "every agent activated".
  bool stage1_only = false;
  /// The heterogeneous channel of Section 1.3.2 (flip probability uniform
  /// in [0, 1/2 - eps]): linear in the flip probability, so exactly
  /// linearizable — effective advantage 1/4 + eps/2. Mutually exclusive
  /// with an enabled schedule, like the exact engines.
  bool heterogeneous = false;
  /// Dynamic environment, honored as deterministic per-round rate
  /// modifiers (expected_eps_at; the churn awake-probability chain).
  EnvironmentSchedule schedule{};
  ChurnSpec churn{};
  /// Probe grid the convergence-round estimate is reported on (0 = no
  /// convergence estimate — NaN, like an exact run without probes).
  Round probe_every = 0;
};

/// The NaN sentinel for "no convergence estimate", matching the exact
/// engines' convention (workload/scenarios.hpp kNoConvergence).
inline constexpr double kSurrogateNoConvergence =
    std::numeric_limits<double>::quiet_NaN();

/// What one integration yields: analytic moments in place of one
/// execution's samples.
struct SurrogateResult {
  /// P(every agent ends opinionated and correct) — or P(every agent
  /// activated) under stage1_only. Agents treated as independent.
  double success_probability = 0.0;
  /// Scheduled budget, identical to the exact engines' round count for the
  /// same spec (both copy the Params phase arithmetic).
  Round rounds = 0;
  /// Expected engine counters (the exact engines' Metrics, in expectation).
  double expected_messages = 0.0;
  double expected_delivered = 0.0;
  double expected_dropped = 0.0;
  double expected_flipped = 0.0;
  /// Expected fraction of all n agents holding the correct opinion at the
  /// end, and the corresponding bias over opinionated agents.
  double correct_fraction = 0.0;
  double final_bias = 0.0;
  /// Expected fraction of agents opinionated at the end.
  double activation_fraction = 0.0;
  /// First probe round (multiple of probe_every) whose expected activation
  /// reaches 99% of n — the surrogate's estimate of the exact engines'
  /// stable_crossing statistic. NaN when probe_every == 0 or the expected
  /// trajectory never crosses inside the budget.
  double convergence_round = kSurrogateNoConvergence;
  /// Expected activated count at each Stage I phase boundary (index 0 =
  /// end of the join phase), then each Stage II phase boundary. Tests pin
  /// the recurrence against core/theory through this trace.
  std::vector<double> activation_trace;
  /// Expected bias over opinionated agents after each Stage II phase —
  /// comparable to theory::stage2_bias_trajectory.
  std::vector<double> stage2_bias_trace;
};

/// Runs the mean-field integration. Throws std::invalid_argument on specs
/// the model cannot represent (bad set sizes, heterogeneous + schedule,
/// skip_stage1 without full initial set) — same exception layer as the
/// exact scenario runners.
[[nodiscard]] SurrogateResult run_surrogate(const SurrogateSpec& spec);

/// Base-2 radical inverse (van der Corput): bit-reverses `i` into [0, 1).
/// Exposed for the determinism tests.
[[nodiscard]] double radical_inverse_base2(std::uint64_t i) noexcept;

/// TrialFn adapter: runs the analysis ONCE (eagerly, at construction — the
/// closure is then safe to call concurrently), and maps trial i onto the
/// deterministic stratified outcome described above. The (seed, trial)
/// arguments of the returned fn keep the TrialFn shape; only `trial`
/// affects the outcome — the analysis has no randomness to seed.
[[nodiscard]] TrialFn surrogate_trial_fn(const SurrogateSpec& spec);

}  // namespace flip
