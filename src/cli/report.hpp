#pragma once
// Machine-readable reporting for sweeps: the flipsim-sweep-v1 JSON schema,
// a flat CSV with one row per grid point, the human table, and the
// BENCH_*.json trajectory schema documented in docs/BENCHMARKS.md. All
// emitters walk the same SweepResult, so the formats cannot drift apart.

#include <string>

#include "cli/sweep.hpp"
#include "util/json_writer.hpp"
#include "util/table.hpp"

namespace flip::cli {

// --- per-point emitters ---------------------------------------------------
// The single code path under the pretty --json document, the streamed
// --csv/--jsonl rows, and the sweep service's per-cell response frames:
// every format renders a grid point through these, so the document and the
// stream cannot drift apart (the byte-exact goldens in tests/cli_test.cpp
// pin the document; the service differential test pins the stream).

/// Appends one grid point's flipsim-sweep-v1 point object at `json`'s
/// current position (inside the document's points array, or alone for the
/// single-line form).
void append_sweep_point(JsonWriter& json, const SweepPoint& point);

/// One grid point as a compact single-line JSON object — the
/// flipsim-sweep-v1 point payload the service streams (one frame per cell)
/// and --jsonl writes (one line per cell). Content-identical to the
/// document's point objects; only whitespace differs. The trailing two
/// keys (trial_seconds, wall_seconds) are the only nondeterministic
/// fields, so byte comparisons truncate at `"trial_seconds"`.
[[nodiscard]] std::string sweep_point_line(const SweepPoint& point);

/// The CSV header line, newline-terminated.
[[nodiscard]] std::string sweep_csv_header();

/// One newline-terminated CSV row for a grid point.
[[nodiscard]] std::string sweep_csv_row(const SweepSpec& spec,
                                        const SweepPoint& point);

/// Pretty-printed "flipsim-sweep-v1" document: sweep-level parameters and
/// wall-clock, then one entry per grid point with params, success interval,
/// rounds/messages/correct-fraction moments, and per-point timing. Key
/// order is fixed (insertion order), so output is byte-stable for a given
/// result.
[[nodiscard]] std::string sweep_to_json(const SweepResult& result);

/// One header line plus one row per grid point; numeric columns use
/// shortest-round-trip formatting.
[[nodiscard]] std::string sweep_to_csv(const SweepResult& result);

/// Human-readable summary table for the terminal.
[[nodiscard]] TextTable sweep_table(const SweepResult& result);

/// Pretty-printed "flipsim-validate-v1" document for the surrogate
/// validation harness: spec-level parameters and the tolerance constants,
/// then one entry per cell with both success estimates, the absolute
/// error, the band it was held to, and the pass verdict.
/// tools/check_surrogate_accuracy.py consumes this.
[[nodiscard]] std::string validation_to_json(
    const SurrogateValidationResult& result);

/// Human-readable validation table for the terminal.
[[nodiscard]] TextTable validation_table(
    const SurrogateValidationResult& result);

}  // namespace flip::cli
