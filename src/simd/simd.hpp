#pragma once
// SIMD kernel dispatch seam for the BatchEngine round phases.
//
// The two hot per-message loops of sim/batch_engine.hpp — the route phase
// (per-sender recipient draw + acceptance priority) and the deliver phase's
// integer-threshold channel flip — are pure arithmetic over counter-keyed
// RNG streams (util/rng.hpp): word k of agent a's stream is
// mix64((key.hi + a*gamma + (k+1)*gamma) ^ (key.lo ^ a*mulA)), a pure
// function of (key, agent, k) with no loop-carried state. That makes the
// draws of 4 (AVX2) or 2 (NEON) agents computable per vector register with
// bit-identical results: there is no stream to get out of order.
//
// This header is the seam. The engine calls the block kernels through a
// Kernels vtable selected once at startup:
//
//  * scalar_kernels() — plain loops over the same CounterRng primitives the
//    engine's scalar path uses. Always compiled; definitionally exact.
//  * avx2_kernels() / neon_kernels() — vector twins, compiled only when the
//    FLIP_SIMD CMake option is ON and the target architecture matches
//    (kernels_avx2.cpp is built with -mavx2 on x86-64, kernels_neon.cpp on
//    aarch64). AVX2 is additionally gated at runtime via
//    __builtin_cpu_supports, so a binary built with FLIP_SIMD=ON still runs
//    on a pre-AVX2 machine — it just dispatches scalar.
//
// Exactness contract: every kernel must produce bytes identical to the
// scalar reference for every input (tests/simd_kernels_test.cpp holds each
// block kernel to the CounterRng reference; tests/simd_differential_test.cpp
// holds whole-engine outcomes and counters to the forced-scalar path on
// every registry entry). The engine's own scalar loops stay untouched as
// ground truth — FLIP_SIMD=OFF builds contain no vector code at all.
//
// force_isa() exists for those tests and for bench_simd's in-process A/B:
// it pins the active kernel set for the whole process (not thread-local —
// callers flip it only from single-threaded test/bench setup code).

#include <cstdint>

namespace flip::simd {

enum class Isa : std::uint8_t {
  kScalar = 0,
  kAvx2 = 1,
  kNeon = 2,
  kAvx512 = 3,
};

/// Stable lowercase name ("scalar", "avx2", "neon", "avx512") for reports
/// and the BENCH_simd.json trajectory rows the CI gate keys on.
[[nodiscard]] const char* isa_name(Isa isa) noexcept;

/// Agent id mask of a packed send-list entry (sim/batch_engine.hpp packs
/// `sender | opinion<<31`); mirrored here so the kernels do not depend on
/// the sim layer above them.
inline constexpr std::uint32_t kEntryAgentMask = 0x7fff'ffffu;

/// Priority mask of sim/mailbox.hpp's acceptance_word: the word is the top
/// 32 bits of the sender's priority draw over the (opinion bit | sender)
/// low word. tests/simd_kernels_test.cpp pins the kernels' composition
/// against acceptance_word itself, so the two cannot drift silently.
inline constexpr std::uint64_t kPriorityMask = 0xffff'ffff'0000'0000ULL;

/// Route-phase block kernel. For each packed send-list entry e (31-bit
/// sender id, opinion in bit 31), replays the sender's two route draws:
///   CounterRng rng(rkey, sender);
///   to = uniform_index(rng, n_minus_1); to += (to >= sender);
///   word = (rng() & kPriorityMask) | e;
/// Preconditions: n_minus_1 in [1, 2^32) (the engine enforces n < 2^31).
/// The outputs feed the engine's unchanged scalar scatter/min-combine pass.
using RouteBlockFn = void (*)(std::uint64_t rkey_hi, std::uint64_t rkey_lo,
                              const std::uint32_t* entries, std::size_t count,
                              std::uint64_t n_minus_1, std::uint32_t* to_out,
                              std::uint64_t* word_out);

/// Deliver-phase block kernel: for each recipient, replays the first word
/// of the agent's channel stream and compares against the integer flip
/// threshold (util/rng.hpp bernoulli_threshold of the flip probability):
///   CounterRng rng(ckey, to); flip = (rng() >> 11) < threshold;
/// flip_out bytes are 0/1.
using FlipBlockFn = void (*)(std::uint64_t ckey_hi, std::uint64_t ckey_lo,
                             const std::uint32_t* recipients,
                             std::size_t count, std::uint64_t threshold,
                             std::uint8_t* flip_out);

/// One selectable kernel set. Function pointers, not virtuals: the engine
/// loads the set once per phase and calls through it per 256-entry block,
/// so the indirection is amortized across the block.
struct Kernels {
  RouteBlockFn route_block;
  FlipBlockFn flip_block;
  Isa isa;
};

/// The always-available scalar set (plain CounterRng loops).
[[nodiscard]] const Kernels& scalar_kernels() noexcept;

/// Best set this build + this machine can run (scalar when FLIP_SIMD is
/// OFF, the CPU lacks the compiled ISA, or the architecture has no kernel).
[[nodiscard]] Isa best_isa() noexcept;

/// The currently dispatched set / its ISA. Defaults to best_isa().
[[nodiscard]] const Kernels& active() noexcept;
[[nodiscard]] Isa active_isa() noexcept;

/// Pins the active set process-wide. Returns false (and changes nothing)
/// if this build/machine cannot run `isa` — any runnable set can be forced,
/// not just the best one, so tests can exercise e.g. the AVX2 kernels on an
/// AVX-512 machine. Call only from single-threaded setup code (tests,
/// bench A/B harnesses).
bool force_isa(Isa isa) noexcept;

/// Restores active() to best_isa().
void reset_isa() noexcept;

#if FLIP_SIMD_ENABLED
/// True when this build compiled vector kernels at all. `if constexpr
/// (!kCompiled)` folds the SIMD branches out of FLIP_SIMD=OFF builds.
inline constexpr bool kCompiled = true;
/// True when the active set is a vector one (false after force_isa(kScalar)
/// and on machines without the compiled ISA).
[[nodiscard]] bool enabled() noexcept;
#else
inline constexpr bool kCompiled = false;
[[nodiscard]] constexpr bool enabled() noexcept { return false; }
#endif

// Defined only in their architecture's translation unit; dispatch.cpp
// references them under the matching FLIP_SIMD_HAVE_* macro.
[[nodiscard]] const Kernels& avx2_kernels() noexcept;
[[nodiscard]] const Kernels& avx512_kernels() noexcept;
[[nodiscard]] const Kernels& neon_kernels() noexcept;

}  // namespace flip::simd
