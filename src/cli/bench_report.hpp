#pragma once
// Shared option handling and output for the bench/ experiment binaries,
// which call it directly: parse_bench_args (a bench with flags of its own
// registers them through its callback), bench_banner and bench_emit.
// Every binary thus accepts the same flags: --csv (machine rows to
// stdout), --json <path> (the "flip-bench-v1" document), and a generated
// --help. The report accumulates every emitted table, and the JSON file is
// rewritten after each emit so partial output exists even if a later
// experiment aborts.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/table.hpp"

namespace flip::cli {

class ArgParser;

/// Everything a bench binary printed so far, in emit order.
struct BenchReport {
  std::string id;     ///< e.g. "E1 bench_broadcast_rounds"
  std::string claim;  ///< the paper claim the banner names
  struct Table {
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
    std::string note;
  };
  std::vector<Table> tables;
};

struct BenchOptions {
  bool csv = false;
  std::string json_path;  ///< empty = no JSON output
  /// Mutable accumulation behind a const options value: the bench main()s
  /// hold `const auto options = parse_bench_args(...)`, but banner/emit
  /// still need somewhere to collect tables.
  std::shared_ptr<BenchReport> report = std::make_shared<BenchReport>();
};

/// Parses the shared bench flags after the binary's own, which `add_flags`
/// (when given) registers; `description` heads --help. On --help prints
/// usage and exits 0; on a parse error prints the error plus usage to
/// stderr and exits 2 — bench main()s stay one-liners.
[[nodiscard]] BenchOptions parse_bench_args(
    int argc, const char* const* argv,
    const std::string& description =
        "flip experiment harness binary (see docs/BENCHMARKS.md)",
    const std::function<void(ArgParser&)>& add_flags = {});

/// Prints the experiment banner (suppressed under --csv) and records
/// id/claim for the JSON document.
void bench_banner(const BenchOptions& options, const std::string& id,
                  const std::string& claim);

/// Prints the table (CSV rows under --csv, rendered table + note
/// otherwise) and, when --json was given, rewrites the JSON report file
/// with every table emitted so far.
void bench_emit(const BenchOptions& options, const TextTable& table,
                const std::string& note = {});

/// The "flip-bench-v1" document for a report (exposed for tests).
[[nodiscard]] std::string bench_report_to_json(const BenchReport& report);

}  // namespace flip::cli
