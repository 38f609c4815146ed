#include "net/channel.hpp"

#include <stdexcept>

namespace flip {

BinarySymmetricChannel::BinarySymmetricChannel(double eps) : eps_(eps) {
  if (!(eps > 0.0) || eps > 0.5) {
    throw std::invalid_argument(
        "BinarySymmetricChannel: eps must be in (0, 0.5]");
  }
}

ErasureChannel::ErasureChannel(double eps, double erase_prob)
    : eps_(eps), erase_prob_(erase_prob) {
  if (!(eps > 0.0) || eps > 0.5) {
    throw std::invalid_argument("ErasureChannel: eps must be in (0, 0.5]");
  }
  if (erase_prob < 0.0 || erase_prob >= 1.0) {
    throw std::invalid_argument("ErasureChannel: erase_prob must be in [0, 1)");
  }
}

HeterogeneousChannel::HeterogeneousChannel(double eps) : eps_(eps) {
  if (!(eps > 0.0) || eps > 0.5) {
    throw std::invalid_argument("HeterogeneousChannel: eps must be in (0, 0.5]");
  }
}

CorrelatedBurstChannel::CorrelatedBurstChannel(EnvironmentSchedule schedule)
    : schedule_(std::move(schedule)), round_eps_(schedule_.base_eps) {
  if (!(schedule_.base_eps > 0.0) || schedule_.base_eps > 0.5) {
    throw std::invalid_argument(
        "CorrelatedBurstChannel: schedule must be resolved() to a base eps "
        "in (0, 0.5]");
  }
  schedule_.validate();
}

AdversarialChannel::AdversarialChannel(std::uint64_t flip_budget)
    : budget_left_(flip_budget) {}

}  // namespace flip
