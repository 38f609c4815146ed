#pragma once
// Request (de)serialization for the sweep service and the checkpoint
// files — the flipsvc/1 text both carry. A checkpoint file is the
// request's own text at its next cell (resume_from = cells completed).
//
// A SweepRequest is the raw form of a sweep: the comma-lists and spec
// strings exactly as they appear on the flipsim command line.
// resolve_sweep_request() is the whole check of one: it parses the
// strings, then expands the grid, so every point meets
// ScenarioRegistry::resolve, the one place each entry's domain is stated.
// flipsim and the daemon's ingest both call it and nothing else, so a
// request rejected by the CLI is rejected by the server with the same
// message, and vice versa.
//
// Wire text is line-oriented UTF-8: a `flipsvc/1 <command>` first line,
// then one `key=value` per line (defaulted fields omitted). Unknown keys
// are errors — the protocol is versioned, not sniffed. See
// docs/SERVICE.md for the full grammar.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "cli/sweep.hpp"

namespace flip::cli {

/// Protocol identifier of the request/checkpoint text grammar.
inline constexpr std::string_view kWireProto = "flipsvc/1";

/// What a request frame asks the server to do.
enum class WireCommand { kSweep, kPing, kShutdown };

/// One sweep request in raw string form. Field spellings follow the
/// flipsim flags they mirror.
struct SweepRequest {
  WireCommand command = WireCommand::kSweep;
  std::string scenario;
  std::string ns;        ///< comma list, empty = scenario default
  std::string epss;      ///< comma list, empty = scenario default
  std::string channels;  ///< comma list, empty = scenario default
  std::size_t trials = 32;
  std::uint64_t seed = 0x5eedULL;
  std::size_t threads = 0;  ///< shard phases included; 0 = default pool
  std::size_t shards = 1;
  std::string engine = "batch";
  std::string schedule;  ///< raw --schedule spec, empty = unset
  std::string churn;     ///< raw --churn spec, empty = unset
  std::string topology;  ///< raw --topology spec, empty = unset
  std::size_t resume_from = 0;  ///< first grid cell to run
};

/// Renders the request as wire text (first line + key=value lines,
/// defaulted fields omitted, resume_from last). encode/parse round-trip
/// exactly, so two requests are equivalent iff their encodings are
/// byte-equal — the checkpoint spec-match rule.
[[nodiscard]] std::string encode_sweep_request(const SweepRequest& request);

/// Parses wire text back into a SweepRequest. Returns the error text
/// (unknown key, bad number, missing/unknown proto line) via `error` and
/// nullopt on failure.
[[nodiscard]] std::optional<SweepRequest> parse_sweep_request(
    std::string_view text, std::string& error);

/// The whole check of a sweep request, shared verbatim between
/// tools/flipsim.cpp and the server's ingest thread: parses the list and
/// spec strings, checks --threads against this host, fills `spec`, then
/// runs expand_grid on it. On failure returns the error text (without the
/// "error: " prefix) — the same message flipsim prints, verbatim from
/// ScenarioRegistry::resolve for a bad grid point. Any exception
/// expand_grid throws is a reject, std::bad_alloc included. A request
/// without a scenario is a reject too, after the parse.
[[nodiscard]] std::optional<std::string> resolve_sweep_request(
    const SweepRequest& request, SweepSpec& spec);

/// Reads a checkpoint file, which is the request's wire text with
/// resume_from at its next cell, against the `request` the flags give.
/// Returns that cell only for a whole checkpoint of the same sweep: the
/// text parses, ends in a newline, names resume_from >= 1 (always its last
/// line, so every proper prefix of a written file is refused), and encodes
/// like `request` once resume_from, threads and shards are cleared on both
/// sides (so a resumed sweep still matches its file, and a sweep may resume
/// at another thread or shard count: no output bit depends on either).
/// Error text + nullopt otherwise.
[[nodiscard]] std::optional<std::size_t> read_checkpoint(
    std::string_view text, const SweepRequest& request, std::string& error);

}  // namespace flip::cli
