// Block-kernel exactness (src/simd/): the kernel set must produce bytes
// identical to an independently-written CounterRng reference, so the
// kernels cannot vouch for themselves. Also pins the set's id and name, and
// that the packed-layout constants the simd layer mirrors stay equal to the
// sim-layer originals.

#include "simd/simd.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/batch_engine.hpp"
#include "sim/mailbox.hpp"
#include "support/proptest.hpp"
#include "util/rng.hpp"

namespace flip {
namespace {

/// The reference the kernels must match, written directly against the
/// public RNG/mailbox primitives (the same calls detail::route_combine
/// makes): Lemire recipient draw, self-skip, acceptance_word composition.
void route_reference(const StreamKey& rkey, std::uint32_t entry,
                     std::uint64_t n_minus_1, std::uint32_t* to_out,
                     std::uint64_t* word_out) {
  const std::uint32_t sender = entry & detail::kAgentMask;
  CounterRng rng(rkey, sender);
  auto to = static_cast<std::uint32_t>(uniform_index(rng, n_minus_1));
  to += (to >= sender);
  *to_out = to;
  *word_out = acceptance_word(rng(), entry);
}

std::uint8_t flip_reference(const StreamKey& ckey, std::uint32_t to,
                            std::uint64_t threshold) {
  CounterRng rng(ckey, to);
  return (rng() >> 11) < threshold ? 1 : 0;
}

TEST(SimdKernelsTest, MirroredLayoutConstantsMatchSimLayer) {
  EXPECT_EQ(simd::kEntryAgentMask, detail::kAgentMask);
  EXPECT_EQ(simd::kPriorityMask | detail::kSendBit | detail::kAgentMask,
            ~std::uint64_t{0});
  // The word composition the kernels perform IS acceptance_word.
  const std::uint64_t draw = 0x0123'4567'89ab'cdefULL;
  const std::uint32_t entry = detail::kSendBit | 42u;
  EXPECT_EQ((draw & simd::kPriorityMask) | entry,
            acceptance_word(draw, entry));
}

TEST(SimdKernelsTest, ScalarSetIsAlwaysRunnable) {
  EXPECT_EQ(simd::active().isa, simd::Isa::kScalar);
  EXPECT_EQ(simd::active_isa(), simd::Isa::kScalar);
  // perfbench/metrics.json documents simd.isa as this id.
  EXPECT_EQ(static_cast<int>(simd::active_isa()), 0);
}

TEST(SimdKernelsTest, IsaNamesAreStable) {
  EXPECT_STREQ(simd::isa_name(simd::Isa::kScalar), "scalar");
}

// The kernel set against the independent reference, over random keys /
// entry blocks / population sizes, block sizes from empty to several
// hundred entries.
TEST(SimdKernelsTest, RouteBlockMatchesCounterRngReference) {
  proptest::check(
      "route_block", 120, 0x51b7, [&](proptest::Gen gen, int) {
        const StreamKey rkey{gen.u64(), gen.u64()};
        const std::uint64_t n_minus_1 =
            gen.chance(0.5) ? gen.range(1, 2048)
                            : gen.range(1, 0xffff'fffeULL);
        const auto count = static_cast<std::size_t>(gen.pick(
            {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{3},
             std::uint64_t{7}, std::uint64_t{8}, std::uint64_t{9},
             std::uint64_t{31}, gen.range(2, 700)}));
        std::vector<std::uint32_t> entries(count);
        for (auto& e : entries) {
          const auto sender =
              static_cast<std::uint32_t>(gen.index(n_minus_1 + 1));
          e = (gen.chance(0.5) ? detail::kSendBit : 0u) | sender;
        }
        std::vector<std::uint32_t> to(count), to_ref(count);
        std::vector<std::uint64_t> word(count), word_ref(count);
        for (std::size_t i = 0; i < count; ++i) {
          route_reference(rkey, entries[i], n_minus_1, &to_ref[i],
                          &word_ref[i]);
        }
        simd::active().route_block(rkey.hi, rkey.lo, entries.data(), count,
                                   n_minus_1, to.data(), word.data());
        for (std::size_t i = 0; i < count; ++i) {
          ASSERT_EQ(to[i], to_ref[i]) << "recipient lane " << i;
          ASSERT_EQ(word[i], word_ref[i]) << "word lane " << i;
        }
      });
}

TEST(SimdKernelsTest, FlipBlockMatchesCounterRngReference) {
  proptest::check(
      "flip_block", 120, 0xf11b, [&](proptest::Gen gen, int) {
        const StreamKey ckey{gen.u64(), gen.u64()};
        // Thresholds span the whole valid eps range (0 at eps = 0.5 up to
        // 2^52 at eps -> 0) plus the endpoints.
        const std::uint64_t threshold = gen.pick(
            {std::uint64_t{0}, std::uint64_t{1},
             std::uint64_t{1} << 52, gen.index(std::uint64_t{1} << 53)});
        const auto count = static_cast<std::size_t>(gen.range(0, 700));
        std::vector<std::uint32_t> recipients(count);
        for (auto& a : recipients) {
          a = static_cast<std::uint32_t>(gen.u64()) & detail::kAgentMask;
        }
        std::vector<std::uint8_t> flips(count), flips_ref(count);
        for (std::size_t i = 0; i < count; ++i) {
          flips_ref[i] = flip_reference(ckey, recipients[i], threshold);
        }
        simd::active().flip_block(ckey.hi, ckey.lo, recipients.data(), count,
                                  threshold, flips.data());
        for (std::size_t i = 0; i < count; ++i) {
          ASSERT_EQ(flips[i], flips_ref[i]) << "flip lane " << i;
        }
      });
}

}  // namespace
}  // namespace flip
