#include "sim/mailbox.hpp"

#include <stdexcept>

namespace flip {

Mailbox::Mailbox(std::size_t n)
    : arrival_count_(n, 0),
      kept_(n, Message{0, Opinion::kZero}),
      priority_(n, 0) {
  if (n < 2) throw std::invalid_argument("Mailbox: need n >= 2");
  touched_.reserve(n);
}

void Mailbox::reset() noexcept {
  for (AgentId a : touched_) arrival_count_[a] = 0;
  touched_.clear();
  pushed_ = 0;
}

}  // namespace flip
