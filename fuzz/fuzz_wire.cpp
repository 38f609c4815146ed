// Fuzz target: flipsvc/1 request text and checkpoint files, which are
// the same text (src/cli/wire.cpp).
//
// parse_sweep_request must survive arbitrary text, and on acceptance the
// encoding must be a canonical fixpoint:
//
//   parse(input) = r           (or a non-empty error)
//   parse(encode(r)) = r'      must succeed
//   encode(r') == encode(r)    byte-equal — the checkpoint spec-match rule
//                              identifies requests by their encoding, so a
//                              non-idempotent canonicalization silently
//                              unmatches every resumed sweep.
//
// resolve_sweep_request runs on every accepted parse too: it is the exact
// surface a hostile daemon client reaches, and it must reject or resolve
// without crashing (scenario lookups, list parsing, expand_grid's cell
// limit, and its per-point ScenarioRegistry::resolve, topology factoring
// included). read_checkpoint, against the request the text itself parses
// to, accepts exactly the texts that end in a newline and name a resume
// position, and returns that position.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "cli/wire.hpp"
#include "fuzz_assert.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);

  std::string error;
  std::optional<flip::cli::SweepRequest> request =
      flip::cli::parse_sweep_request(text, error);
  if (!request) {
    FUZZ_ASSERT(!error.empty());
    return 0;
  }

  const std::string wire = flip::cli::encode_sweep_request(*request);
  std::string error2;
  std::optional<flip::cli::SweepRequest> reparsed =
      flip::cli::parse_sweep_request(wire, error2);
  FUZZ_ASSERT(reparsed.has_value());
  FUZZ_ASSERT(flip::cli::encode_sweep_request(*reparsed) == wire);

  std::string checkpoint_error;
  const std::optional<std::size_t> next_cell =
      flip::cli::read_checkpoint(text, *request, checkpoint_error);
  FUZZ_ASSERT(next_cell.has_value() ==
              (text.ends_with('\n') && request->resume_from >= 1));
  FUZZ_ASSERT(next_cell ? *next_cell == request->resume_from
                        : !checkpoint_error.empty());

  flip::cli::SweepSpec spec;
  std::optional<std::string> resolve_error =
      flip::cli::resolve_sweep_request(*request, spec);
  if (resolve_error) FUZZ_ASSERT(!resolve_error->empty());
  return 0;
}
