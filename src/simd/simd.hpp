#pragma once
// Scalar block kernels for the two per-message draws of a breathe round:
// route_block replays a batch of senders' route draws (recipient plus
// acceptance priority) and flip_block a batch of recipients' channel flips,
// from the counter-keyed streams of util/rng.hpp, exactly as the detail::
// route and deliver loops of sim/batch_engine.hpp draw them.
//
// The engine calls none of this: it runs those loops directly. The block
// API serves three users that want the draws without a round around them:
// perfbench's simd.* throughput probes, rng_test's golden vectors, and
// simd_kernels_test, which holds both kernels to an independent CounterRng
// reference.

#include <cstddef>
#include <cstdint>

namespace flip::simd {

/// The kernel set a build runs. Only the scalar set exists; perfbench
/// reports its id (0) as simd.isa.
enum class Isa : std::uint8_t { kScalar = 0 };

/// Stable lowercase name of a kernel set, for reports.
[[nodiscard]] constexpr const char* isa_name(Isa /*isa*/) noexcept {
  return "scalar";
}

/// Agent id mask of a packed send-list entry (sim/batch_engine.hpp packs
/// `sender | opinion<<31`); mirrored here so the kernels do not depend on
/// the sim layer above them.
inline constexpr std::uint32_t kEntryAgentMask = 0x7fff'ffffu;

/// Priority mask of sim/mailbox.hpp's acceptance_word: the word is the top
/// 32 bits of the sender's priority draw over the (opinion bit | sender)
/// low word. tests/simd_kernels_test.cpp pins the kernels' composition
/// against acceptance_word itself, so the two cannot drift silently.
inline constexpr std::uint64_t kPriorityMask = 0xffff'ffff'0000'0000ULL;

/// Route block kernel. For each packed send-list entry e (31-bit sender
/// id, opinion in bit 31), replays the sender's two route draws:
///   CounterRng rng(rkey, sender);
///   to = uniform_index(rng, n_minus_1); to += (to >= sender);
///   word = (rng() & kPriorityMask) | e;
/// Preconditions: n_minus_1 in [1, 2^32) (the engine enforces n < 2^31).
using RouteBlockFn = void (*)(std::uint64_t rkey_hi, std::uint64_t rkey_lo,
                              const std::uint32_t* entries, std::size_t count,
                              std::uint64_t n_minus_1, std::uint32_t* to_out,
                              std::uint64_t* word_out);

/// Flip block kernel: for each recipient, replays the first word of the
/// agent's channel stream and compares it against the integer flip
/// threshold (util/rng.hpp bernoulli_threshold of the flip probability):
///   CounterRng rng(ckey, to); flip = (rng() >> 11) < threshold;
/// flip_out bytes are 0/1.
using FlipBlockFn = void (*)(std::uint64_t ckey_hi, std::uint64_t ckey_lo,
                             const std::uint32_t* recipients,
                             std::size_t count, std::uint64_t threshold,
                             std::uint8_t* flip_out);

/// A kernel set. Function pointers into another translation unit, so a
/// timing probe's calls cannot be folded away.
struct Kernels {
  RouteBlockFn route_block;
  FlipBlockFn flip_block;
  Isa isa;
};

/// The kernel set, and its id.
[[nodiscard]] const Kernels& active() noexcept;
[[nodiscard]] Isa active_isa() noexcept;

}  // namespace flip::simd
