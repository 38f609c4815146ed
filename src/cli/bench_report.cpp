#include "cli/bench_report.hpp"

#include <cstdlib>
#include <fstream>
#include <iostream>

#include "cli/args.hpp"
#include "util/json_writer.hpp"

namespace flip::cli {

BenchOptions parse_bench_args(
    int argc, const char* const* argv, const std::string& description,
    const std::function<void(ArgParser&)>& add_flags) {
  BenchOptions options;
  ArgParser parser(argc > 0 ? argv[0] : "bench", description);
  if (add_flags) add_flags(parser);
  parser.add_flag("--csv", "emit table rows as CSV instead of rendering",
                  &options.csv);
  parser.add_option("--json", "path",
                    "also write the flip-bench-v1 JSON report to <path>",
                    &options.json_path);
  if (!parser.parse(argc, argv)) {
    if (parser.help_requested()) {
      std::cout << parser.usage();
      std::exit(0);
    }
    std::cerr << "error: " << parser.error() << "\n\n" << parser.usage();
    std::exit(2);
  }
  return options;
}

void bench_banner(const BenchOptions& options, const std::string& id,
                  const std::string& claim) {
  options.report->id = id;
  options.report->claim = claim;
  if (options.csv) return;
  std::cout << "=== " << id << " ===\n" << claim << "\n\n";
}

std::string bench_report_to_json(const BenchReport& report) {
  JsonWriter json;
  json.begin_object()
      .field("schema", "flip-bench-v1")
      .field("id", report.id)
      .field("claim", report.claim);
  json.key("tables").begin_array();
  for (const BenchReport::Table& table : report.tables) {
    json.begin_object();
    json.key("headers").begin_array();
    for (const std::string& header : table.headers) json.value(header);
    json.end_array();
    json.key("rows").begin_array();
    for (const auto& row : table.rows) {
      json.begin_array();
      for (const std::string& cell : row) json.value(cell);
      json.end_array();
    }
    json.end_array();
    json.field("note", table.note);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

void bench_emit(const BenchOptions& options, const TextTable& table,
                const std::string& note) {
  if (options.csv) {
    std::cout << table.csv();
  } else {
    std::cout << table << '\n';
    if (!note.empty()) std::cout << note << "\n\n";
  }

  if (options.json_path.empty()) return;
  BenchReport::Table recorded;
  recorded.headers = table.headers();
  recorded.rows.reserve(table.rows());
  for (std::size_t r = 0; r < table.rows(); ++r) {
    std::vector<std::string> row;
    row.reserve(table.columns());
    for (std::size_t c = 0; c < table.columns(); ++c) {
      row.push_back(table.at(r, c));
    }
    recorded.rows.push_back(std::move(row));
  }
  recorded.note = note;
  options.report->tables.push_back(std::move(recorded));

  std::ofstream out(options.json_path);
  if (!out) {
    std::cerr << "error: cannot write " << options.json_path << "\n";
    std::exit(1);
  }
  out << bench_report_to_json(*options.report) << '\n';
}

}  // namespace flip::cli
