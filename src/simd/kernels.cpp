// The scalar block kernels (see simd.hpp): plain loops over the same
// CounterRng draws the detail:: route and deliver loops of
// sim/batch_engine.hpp perform.

#include "simd/simd.hpp"

#include <cstddef>
#include <cstdint>

#include "util/rng.hpp"

namespace flip::simd {
namespace {

void route_block(std::uint64_t rkey_hi, std::uint64_t rkey_lo,
                 const std::uint32_t* entries, std::size_t count,
                 std::uint64_t n_minus_1, std::uint32_t* to_out,
                 std::uint64_t* word_out) {
  const StreamKey rkey{rkey_hi, rkey_lo};
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t entry = entries[i];
    const std::uint32_t sender = entry & kEntryAgentMask;
    CounterRng rng(rkey, sender);
    auto to = static_cast<std::uint32_t>(uniform_index(rng, n_minus_1));
    to += (to >= sender);
    to_out[i] = to;
    word_out[i] = (rng() & kPriorityMask) | entry;
  }
}

void flip_block(std::uint64_t ckey_hi, std::uint64_t ckey_lo,
                const std::uint32_t* recipients, std::size_t count,
                std::uint64_t threshold, std::uint8_t* flip_out) {
  const StreamKey ckey{ckey_hi, ckey_lo};
  for (std::size_t i = 0; i < count; ++i) {
    CounterRng rng(ckey, recipients[i]);
    flip_out[i] = (rng() >> 11) < threshold ? 1 : 0;
  }
}

}  // namespace

const Kernels& active() noexcept {
  static constexpr Kernels kScalar{&route_block, &flip_block, Isa::kScalar};
  return kScalar;
}

Isa active_isa() noexcept { return active().isa; }

}  // namespace flip::simd
