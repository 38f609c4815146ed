#include "sim/population.hpp"

#include <stdexcept>

namespace flip {

Population::Population(std::size_t n)
    : has_opinion_(n, 0), opinion_(n, 0), awake_(n, 1) {
  if (n < 2) throw std::invalid_argument("Population: need n >= 2");
}

void Population::reuse(std::size_t n) {
  if (n < 2) throw std::invalid_argument("Population: need n >= 2");
  has_opinion_.assign(n, 0);
  opinion_.assign(n, 0);
  awake_.assign(n, 1);
  opinionated_ = 0;
  ones_ = 0;
  asleep_ = 0;
}

void Population::set_opinion(AgentId a, Opinion o) {
  if (!has_opinion_[a]) {
    has_opinion_[a] = 1;
    ++opinionated_;
  } else if (static_cast<Opinion>(opinion_[a]) == Opinion::kOne) {
    --ones_;
  }
  opinion_[a] = static_cast<std::uint8_t>(o);
  if (o == Opinion::kOne) ++ones_;
}

std::size_t Population::count(Opinion o) const noexcept {
  return o == Opinion::kOne ? ones_ : opinionated_ - ones_;
}

double Population::correct_fraction(Opinion correct) const noexcept {
  return static_cast<double>(count(correct)) / static_cast<double>(size());
}

double Population::bias(Opinion correct) const noexcept {
  if (opinionated_ == 0) return 0.0;
  const auto good = static_cast<double>(count(correct));
  const auto bad = static_cast<double>(count(flip_opinion(correct)));
  return 0.5 * (good - bad) / static_cast<double>(opinionated_);
}

bool Population::unanimous(Opinion correct) const noexcept {
  return opinionated_ == size() && count(correct) == size();
}

}  // namespace flip
