#include "baselines/aae.hpp"

#include <algorithm>
#include <stdexcept>

namespace flip {

namespace {
AAEState opinion_state(Opinion o) {
  return o == Opinion::kOne ? AAEState::kOne : AAEState::kZero;
}
}  // namespace

ThreeStateAAE::ThreeStateAAE(std::size_t n, AAEConfig config,
                             const StreamKey& key)
    : config_(std::move(config)), key_(key) {
  if (n < 2) throw std::invalid_argument("ThreeStateAAE: n < 2");
  if (config_.initial_correct + config_.initial_wrong > n) {
    throw std::invalid_argument("ThreeStateAAE: initial set exceeds n");
  }
  if (config_.max_rounds == 0) {
    throw std::invalid_argument("ThreeStateAAE: max_rounds must be set");
  }
  state_.assign(n, AAEState::kBlank);
  const AAEState good = opinion_state(config_.correct);
  const AAEState bad = opinion_state(flip_opinion(config_.correct));
  for (std::size_t i = 0; i < config_.initial_correct; ++i) state_[i] = good;
  for (std::size_t i = 0; i < config_.initial_wrong; ++i) {
    state_[config_.initial_correct + i] = bad;
  }
  next_ = state_;
}

AAEState ThreeStateAAE::noisy_read(AAEState actual, CounterRng& rng) const {
  if (config_.eps <= 0.0) return actual;
  if (!bernoulli(rng, 0.5 - config_.eps)) return actual;
  // Misread: uniformly one of the two other symbols.
  const auto shift = 1 + uniform_index(rng, 2);
  return static_cast<AAEState>(
      (static_cast<std::uint64_t>(actual) + shift) % 3);
}

void ThreeStateAAE::step(Round r) {
  const std::size_t n = state_.size();
  const StreamKey round_key = round_stream_key(key_, RngPurpose::kProtocol, r);
  for (std::size_t a = 0; a < n; ++a) {
    CounterRng rng(round_key, a);
    const auto peer = uniform_index(rng, n);
    const AAEState seen = noisy_read(state_[peer], rng);
    AAEState me = state_[a];
    if (me == AAEState::kBlank) {
      if (seen != AAEState::kBlank) me = seen;
    } else if (seen != AAEState::kBlank && seen != me) {
      me = AAEState::kBlank;
    }
    next_[a] = me;
  }
  state_.swap(next_);
}

AAEResult ThreeStateAAE::run() {
  AAEResult result;
  const AAEState good = opinion_state(config_.correct);
  for (Round r = 0; r < config_.max_rounds; ++r) {
    step(r);
    result.rounds = r + 1;
    const std::size_t good_count = count(good);
    const std::size_t blank = count(AAEState::kBlank);
    if (blank == 0 &&
        (good_count == state_.size() || good_count == 0)) {
      result.consensus = true;
      result.correct = good_count == state_.size();
      break;
    }
  }
  result.final_correct_fraction =
      static_cast<double>(count(good)) / static_cast<double>(state_.size());
  return result;
}

std::size_t ThreeStateAAE::count(AAEState s) const noexcept {
  return static_cast<std::size_t>(
      std::count(state_.begin(), state_.end(), s));
}

}  // namespace flip
