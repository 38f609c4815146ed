// flipsim — the sweep runner: one driver for every registered scenario.
//
// Enumerates the workload registry (--list), runs parallel Monte-Carlo
// sweeps over a (n, eps, channel) grid for one scenario, and emits the
// results as a human table, CSV, flipsim-sweep-v1 JSON or compact JSON
// lines. CSV and JSONL rows stream as each grid cell completes.
//
// It is also the sweep service's front end (docs/SERVICE.md): --serve
// turns the process into a resident daemon whose ThreadPool and per-worker
// TrialArena scratch stay warm across requests, and --connect submits the
// same sweep flags to a running daemon, streaming the results back.
//
//   flipsim --list
//   flipsim --scenario broadcast_small --trials 8 --json
//   flipsim --scenario broadcast --n 1024,4096 --eps 0.2,0.3 --json out.json
//   flipsim --scenario broadcast --trials 16 --csv out.csv
//       --checkpoint sweep.chk          # resumable: --resume continues it
//   flipsim --serve 7447 &              # resident daemon
//   flipsim --connect 7447 --scenario broadcast_small --trials 8 --jsonl
//   flipsim --connect 7447 --shutdown

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>

#include "cli/args.hpp"
#include "cli/report.hpp"
#include "cli/sweep.hpp"
#include "cli/wire.hpp"
#include "net/service.hpp"
#include "util/table.hpp"
#include "workload/registry.hpp"

namespace {

struct CliFlags {
  bool list = false;
  std::string describe;
  std::string scenario;
  std::string n_list;
  std::string eps_list;
  std::string channel_list;
  std::optional<std::size_t> trials;
  std::optional<std::uint64_t> seed;
  std::optional<std::size_t> threads;
  std::optional<std::size_t> shards;
  std::string engine = "batch";
  std::string schedule;
  std::string churn;
  std::string topology;
  bool validate_surrogate = false;
  bool json = false;
  std::string json_path;  // empty with json=true -> stdout
  bool csv = false;
  std::string csv_path;
  bool jsonl = false;
  std::string jsonl_path;  // empty with jsonl=true -> stdout
  bool quiet = false;
  // Service mode (docs/SERVICE.md).
  bool serve = false;
  std::string serve_port;  // empty -> ephemeral port, printed on stdout
  std::string connect_port;
  bool ping = false;
  bool shutdown = false;
  // Checkpoint/resume (the request's flipsvc/1 text at its next cell).
  std::string checkpoint_path;
  bool resume = false;
};

int list_scenarios() {
  flip::TextTable table(
      {"scenario", "problem", "default n", "default eps", "channels",
       "summary"});
  for (const flip::ScenarioInfo* info :
       flip::ScenarioRegistry::instance().list()) {
    std::string channels;
    for (const std::string& channel : info->channels) {
      if (!channels.empty()) channels += '|';
      channels += channel;
    }
    table.row()
        .cell(info->name)
        .cell(info->problem)
        .cell(info->default_n)
        .cell(info->default_eps, 2)
        .cell(channels)
        .cell(info->summary);
  }
  std::cout << table;
  return 0;
}

int describe_scenario(const std::string& name) {
  const flip::ScenarioInfo* info =
      flip::ScenarioRegistry::instance().find(name);
  if (info == nullptr) {
    std::cerr << "error: unknown scenario '" << name
              << "' (see flipsim --list)\n";
    return 2;
  }
  std::cout << info->name << " — " << info->summary << "\n"
            << "  problem:     " << info->problem << "\n"
            << "  default n:   " << info->default_n << "\n"
            << "  default eps: " << info->default_eps << "\n"
            << "  channels:   ";
  for (const std::string& channel : info->channels) {
    std::cout << ' ' << channel;
  }
  std::cout << "\n";
  return 0;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "error: cannot write " << path << "\n";
    return false;
  }
  out << content;
  if (!content.empty() && content.back() != '\n') out << '\n';
  return true;
}

/// After a completed cell, with --checkpoint: rewrites `path` with the
/// request's wire text at `next_cell`. Atomic (write the sibling .tmp,
/// then rename over), so the file always holds a whole checkpoint even if
/// the process dies mid-write. Throws when it cannot.
void save_checkpoint(const std::string& path,
                     flip::cli::SweepRequest request, std::size_t next_cell) {
  if (path.empty()) return;
  request.resume_from = next_cell;
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp);
  out << flip::cli::encode_sweep_request(request);
  out.close();
  if (!out || std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("cannot write checkpoint " + path);
  }
}

std::optional<std::uint16_t> parse_port(const std::string& text) {
  std::uint64_t value = 0;
  if (!flip::cli::parse_uint64(text, value) || value > 65535) {
    return std::nullopt;
  }
  return static_cast<std::uint16_t>(value);
}

/// Each non-sweep mode takes only `mode` itself and the flags in `takes`:
/// any other flag next to it is an error naming that flag, printed before
/// any work or connection, not silently ignored. Returns false after
/// printing it.
bool takes_only(const flip::cli::ArgParser& parser, std::string_view mode,
                std::initializer_list<std::string_view> takes) {
  for (const std::string& flag : parser.given_names()) {
    if (flag == mode ||
        std::find(takes.begin(), takes.end(), flag) != takes.end()) {
      continue;
    }
    std::cerr << "error: " << flag << " does not apply to " << mode
              << " (it takes";
    if (takes.size() == 0) std::cerr << " no other flag";
    for (const std::string_view other : takes) std::cerr << ' ' << other;
    std::cerr << ")\n";
    return false;
  }
  return true;
}

/// --validate-surrogate: the surrogate-vs-batch harness runs each entry's
/// registered grid point at the --n sizes.
int validate_surrogate(const flip::cli::ArgParser& parser,
                       const CliFlags& flags) {
  if (!takes_only(parser, "--validate-surrogate",
                  {"--scenario", "--n", "--trials", "--seed", "--threads",
                   "--json", "--quiet"})) {
    return 2;
  }
  flip::cli::SurrogateValidationSpec vspec;
  if (!flags.scenario.empty()) vspec.scenarios.push_back(flags.scenario);
  if (!flags.n_list.empty()) {
    std::string error;
    const auto ns = flip::cli::parse_size_list(flags.n_list, error);
    if (!ns) {
      std::cerr << "error: --n: " << error << "\n";
      return 2;
    }
    vspec.ns = *ns;
  }
  if (flags.threads) {
    if (const auto threads_error = flip::cli::validate_threads(
            *flags.threads, std::thread::hardware_concurrency())) {
      std::cerr << "error: " << *threads_error << "\n";
      return 2;
    }
    vspec.threads = *flags.threads;
  }
  if (flags.trials) vspec.trials = *flags.trials;
  if (flags.seed) vspec.seed = *flags.seed;
  try {
    const flip::cli::SurrogateValidationResult validation =
        flip::cli::run_surrogate_validation(vspec);
    const bool json_to_stdout = flags.json && flags.json_path.empty();
    if (!flags.quiet && !json_to_stdout) {
      std::cout << "flipsim: surrogate validation, "
                << validation.cells.size() << " cell(s), "
                << flip::format_fixed(validation.wall_seconds, 2) << " s, "
                << (validation.all_pass ? "all within band"
                                        : "BAND VIOLATION")
                << "\n\n"
                << flip::cli::validation_table(validation);
    }
    if (flags.json) {
      const std::string json = flip::cli::validation_to_json(validation);
      if (json_to_stdout) {
        std::cout << json << '\n';
      } else if (!write_file(flags.json_path, json)) {
        return 1;
      }
    }
    // Exit 0 either way: the harness reports, the CI gate
    // (tools/check_surrogate_accuracy.py) enforces — so a band failure
    // still produces the JSON artifact for inspection.
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}

/// Opens a per-cell stream target: stdout when `path` is empty, else the
/// file — appended to under a resumed sweep so the concatenation equals
/// the uninterrupted run's output. Returns nullptr on open failure.
std::ostream* open_stream(const std::string& path, bool resuming,
                          std::ofstream& file) {
  if (path.empty()) return &std::cout;
  file.open(path, resuming ? (std::ios::out | std::ios::app) : std::ios::out);
  if (!file) {
    std::cerr << "error: cannot write " << path << "\n";
    return nullptr;
  }
  return &file;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flip::cli::ArgParser parser(
      "flipsim",
      "Sweep runner over the workload/scenarios registry. Pick a scenario,\n"
      "optionally a (n, eps, channel) grid, and one or more output formats.\n"
      "--serve turns the process into a resident sweep daemon; --connect\n"
      "submits the same sweep flags to one (see docs/SERVICE.md).");
  parser.add_flag("--list", "list registered scenarios and exit",
                  &flags.list);
  parser.add_option("--describe", "scenario",
                    "print one scenario's metadata and exit",
                    &flags.describe);
  parser.add_option("--scenario", "name", "the scenario to sweep",
                    &flags.scenario);
  parser.add_option("--n", "list",
                    "comma-separated population sizes (default: scenario's)",
                    &flags.n_list);
  parser.add_option("--eps", "list",
                    "comma-separated channel advantages in (0, 0.5]",
                    &flags.eps_list);
  parser.add_option("--channel", "list",
                    "comma-separated channels (bsc, heterogeneous)",
                    &flags.channel_list);
  parser.add_size("--trials", "Monte-Carlo trials per grid point (default 32)",
                  &flags.trials);
  parser.add_uint64("--seed", "master seed, decimal or 0x hex (default 0x5eed)",
                    &flags.seed);
  parser.add_size("--threads", "worker threads (default: hardware), in "
                  "1..hardware concurrency",
                  &flags.threads);
  parser.add_size("--shards",
                  "intra-trial shards per execution (default 1, max 256; "
                  "--engine batch only); results are bit-identical for "
                  "every value",
                  &flags.shards);
  parser.add_option("--engine", "mode",
                    "simulation substrate: batch (SoA fast path, default), "
                    "classic (reference Engine; identical results), or "
                    "surrogate (mean-field closed form, n up to 1e9)",
                    &flags.engine);
  parser.add_option("--schedule", "spec",
                    "eps schedule override: ramp:E0:E1 | ramp:R0:R1:E0:E1 | "
                    "step:R:EPS | burst:PROB:LEN:EPS",
                    &flags.schedule);
  parser.add_option("--churn", "spec",
                    "agent churn override: SLEEP:WAKE[:START_ASLEEP] "
                    "per-round probabilities",
                    &flags.churn);
  parser.add_option("--topology", "spec",
                    "interaction-graph override: complete | ring[:K] | "
                    "grid[:RADIUS] | smallworld[:K[:PROB]] | "
                    "dynamic[:K[:PROB]]",
                    &flags.topology);
  parser.add_flag("--validate-surrogate",
                  "run the surrogate-vs-batch error-band harness instead of "
                  "a sweep (--scenario optional: default is every supported "
                  "entry; only --n/--trials/--seed/--threads/--quiet apply; "
                  "--json writes flipsim-validate-v1)",
                  &flags.validate_surrogate);
  parser.add_optional_value("--json", "path",
                            "write flipsim-sweep-v1 JSON (no path: stdout)",
                            &flags.json_path, &flags.json);
  parser.add_optional_value("--csv", "path",
                            "write one CSV row per grid point, streamed as "
                            "cells complete (no path: stdout)",
                            &flags.csv_path, &flags.csv);
  parser.add_optional_value("--jsonl", "path",
                            "stream one compact flipsim-sweep-v1 point JSON "
                            "line per grid cell (no path: stdout)",
                            &flags.jsonl_path, &flags.jsonl);
  parser.add_optional_value("--serve", "port",
                            "run as a resident sweep daemon on 127.0.0.1 "
                            "(no port: ephemeral, printed on stdout; only "
                            "--threads applies)",
                            &flags.serve_port, &flags.serve);
  parser.add_option("--connect", "port",
                    "submit this sweep to a daemon on 127.0.0.1:<port> and "
                    "stream the results (JSON lines)",
                    &flags.connect_port);
  parser.add_flag("--ping", "with --connect: probe daemon readiness",
                  &flags.ping);
  parser.add_flag("--shutdown", "with --connect: ask the daemon to exit",
                  &flags.shutdown);
  parser.add_option("--checkpoint", "file",
                    "rewrite <file> after each grid cell with this sweep's "
                    "flipsvc/1 request at its next cell; --resume "
                    "continues from it",
                    &flags.checkpoint_path);
  parser.add_flag("--resume",
                  "continue the sweep recorded in --checkpoint (fresh start "
                  "if the file does not exist yet); --csv and --jsonl "
                  "append, --json is refused past cell 0",
                  &flags.resume);
  parser.add_flag("--quiet", "suppress the human-readable table",
                  &flags.quiet);

  if (!parser.parse(argc, argv)) {
    if (parser.help_requested()) {
      std::cout << parser.usage();
      return 0;
    }
    std::cerr << "error: " << parser.error() << "\n\n" << parser.usage();
    return 2;
  }
  if (!parser.positionals().empty()) {
    std::cerr << "error: unexpected argument '" << parser.positionals()[0]
              << "'\n\n"
              << parser.usage();
    return 2;
  }

  if (flags.list) {
    return takes_only(parser, "--list", {}) ? list_scenarios() : 2;
  }
  if (parser.given("--describe")) {
    return takes_only(parser, "--describe", {})
               ? describe_scenario(flags.describe)
               : 2;
  }

  // --serve: the daemon takes its sweeps from the wire, so none of the
  // sweep flags apply (only --threads, as the server-side worker default).
  if (flags.serve) {
    if (!takes_only(parser, "--serve", {"--threads"})) return 2;
    std::uint16_t port = 0;
    if (!flags.serve_port.empty()) {
      const auto parsed = parse_port(flags.serve_port);
      if (!parsed) {
        std::cerr << "error: --serve: '" << flags.serve_port
                  << "' is not a port (0..65535)\n";
        return 2;
      }
      port = *parsed;
    }
    if (flags.threads) {
      if (const auto threads_error = flip::cli::validate_threads(
              *flags.threads, std::thread::hardware_concurrency())) {
        std::cerr << "error: " << *threads_error << "\n";
        return 2;
      }
    }
    flip::net::ServiceOptions options;
    options.port = port;
    options.threads = flags.threads.value_or(0);
    flip::net::SweepServer server(options);
    std::string error;
    if (!server.start(error)) {
      std::cerr << "error: --serve: " << error << "\n";
      return 1;
    }
    // The line scripts poll for; flushed so a pipe reader sees it before
    // the first request lands.
    std::cout << "flipsim: serving on 127.0.0.1:" << server.port() << "\n"
              << std::flush;
    server.wait();
    return 0;
  }

  if (flags.validate_surrogate) return validate_surrogate(parser, flags);

  const bool connecting = !flags.connect_port.empty();
  if ((flags.ping || flags.shutdown) && !connecting) {
    std::cerr << "error: --ping/--shutdown need --connect <port>\n";
    return 2;
  }
  std::uint16_t connect_port = 0;
  if (connecting) {
    const auto parsed = parse_port(flags.connect_port);
    if (!parsed) {
      std::cerr << "error: --connect: '" << flags.connect_port
                << "' is not a port (0..65535)\n";
      return 2;
    }
    connect_port = *parsed;
    if (flags.ping || flags.shutdown) {
      if (!takes_only(parser, flags.ping ? "--ping" : "--shutdown",
                      {"--connect"})) {
        return 2;
      }
      flip::net::SweepClient client(connect_port);
      std::string error;
      const bool ok = flags.ping ? client.ping(error)
                                 : client.shutdown_server(error);
      if (!ok) {
        std::cerr << "error: " << (flags.ping ? "--ping: " : "--shutdown: ")
                  << error << "\n";
        return 1;
      }
      if (flags.ping) std::cout << "pong\n";
      return 0;
    }
  }

  if (flags.scenario.empty()) {
    std::cerr << "error: --scenario is required (or --list / --describe / "
                 "--validate-surrogate / --serve / --connect --ping)\n\n"
              << parser.usage();
    return 2;
  }

  // The raw flags in wire form; resolve_sweep_request below is the whole
  // check, grid included, and the daemon runs the same call, so the CLI
  // and the server reject identically.
  flip::cli::SweepRequest request;
  request.scenario = flags.scenario;
  request.ns = flags.n_list;
  request.epss = flags.eps_list;
  request.channels = flags.channel_list;
  if (flags.trials) request.trials = *flags.trials;
  if (flags.seed) request.seed = *flags.seed;
  if (flags.threads) request.threads = *flags.threads;
  if (flags.shards) request.shards = *flags.shards;
  request.engine = flags.engine;
  request.schedule = flags.schedule;
  request.churn = flags.churn;
  request.topology = flags.topology;

  // "--threads 0" is an explicit request, not "unset" (the wire encodes
  // unset as 0); keep rejecting it here with the usual message.
  if (flags.threads && *flags.threads == 0) {
    std::cerr << "error: "
              << *flip::cli::validate_threads(
                     0, std::thread::hardware_concurrency())
              << "\n";
    return 2;
  }
  flip::cli::SweepSpec spec;
  if (const auto reject = flip::cli::resolve_sweep_request(request, spec)) {
    std::cerr << "error: " << *reject << "\n";
    return 2;
  }

  if (flags.resume && flags.checkpoint_path.empty()) {
    std::cerr << "error: --resume needs --checkpoint <file>\n";
    return 2;
  }
  if (connecting && (flags.json || flags.csv)) {
    std::cerr << "error: --connect streams compact JSON lines; --json/--csv "
                 "apply to one-shot sweeps (use --jsonl)\n";
    return 2;
  }

  const bool json_to_stdout = flags.json && flags.json_path.empty();
  const bool csv_to_stdout = flags.csv && flags.csv_path.empty();
  const bool jsonl_to_stdout = flags.jsonl && flags.jsonl_path.empty();
  if (json_to_stdout && csv_to_stdout) {
    std::cerr << "error: bare --json and --csv would interleave two formats "
                 "on stdout; give at least one of them a path\n";
    return 2;
  }
  if (jsonl_to_stdout && (json_to_stdout || csv_to_stdout)) {
    std::cerr << "error: bare --jsonl and --json/--csv would interleave two "
                 "formats on stdout; give at least one of them a path\n";
    return 2;
  }

  // --resume trusts the file's next cell only when it records the sweep
  // on THIS command line (cli::read_checkpoint states the whole rule).
  if (flags.resume) {
    std::ifstream in(flags.checkpoint_path);
    if (in) {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      std::string error;
      const auto next_cell =
          flip::cli::read_checkpoint(buffer.str(), request, error);
      if (!next_cell) {
        std::cerr << "error: --resume: " << flags.checkpoint_path << ": "
                  << error << "\n";
        return 2;
      }
      // --csv and --jsonl append to the lines the earlier cells wrote; a
      // --json document would hold only the cells this run adds.
      if (flags.json) {
        std::cerr << "error: --resume: --json would hold only the cells "
                     "from cell "
                  << *next_cell
                  << " on; a resumed sweep appends whole to --jsonl or "
                     "--csv\n";
        return 2;
      }
      spec.first_cell = *next_cell;
      request.resume_from = *next_cell;
    }
  }

  try {
    const bool resuming = spec.first_cell > 0;

    // --connect: the daemon runs the sweep; this process streams the
    // per-cell lines it sends back (and keeps the checkpoint, so a resumed
    // --connect sweep behaves exactly like a resumed one-shot).
    if (connecting) {
      std::ofstream jsonl_file;
      std::ostream* jsonl_out =
          open_stream(flags.jsonl_path, resuming, jsonl_file);
      if (jsonl_out == nullptr) return 1;
      flip::net::SweepClient client(connect_port);
      std::size_t cells_done = 0;
      const std::string done = client.run_sweep(
          request, [&](std::size_t cell, const std::string& line) {
            *jsonl_out << line << '\n';
            jsonl_out->flush();
            ++cells_done;
            save_checkpoint(flags.checkpoint_path, request, cell + 1);
          });
      if (!flags.quiet && !flags.jsonl_path.empty()) {
        std::cout << "flipsim: served sweep, " << cells_done
                  << " grid point(s), " << done << "\n";
      }
      return 0;
    }

    // One-shot sweep. CSV and JSONL rows stream from the per-cell sink as
    // the sweep runs; the JSON document and the bench trajectory need the
    // whole grid, so points are only accumulated when one of those (or the
    // table) will read them.
    std::ofstream csv_file;
    std::ostream* csv_out = nullptr;
    if (flags.csv) {
      csv_out = open_stream(flags.csv_path, resuming, csv_file);
      if (csv_out == nullptr) return 1;
    }
    std::ofstream jsonl_file;
    std::ostream* jsonl_out = nullptr;
    if (flags.jsonl) {
      jsonl_out = open_stream(flags.jsonl_path, resuming, jsonl_file);
      if (jsonl_out == nullptr) return 1;
    }
    // A resumed sweep appends rows; the header came with cell 0.
    if (csv_out != nullptr && !resuming) {
      *csv_out << flip::cli::sweep_csv_header();
      csv_out->flush();
    }

    const bool need_table =
        !flags.quiet && !json_to_stdout && !csv_to_stdout && !jsonl_to_stdout;
    spec.collect_points = flags.json || need_table;

    flip::cli::SweepPointSink sink;
    if (csv_out != nullptr || jsonl_out != nullptr ||
        !flags.checkpoint_path.empty()) {
      sink = [&](std::size_t cell, const flip::cli::SweepPoint& point) {
        if (csv_out != nullptr) {
          *csv_out << flip::cli::sweep_csv_row(spec, point);
          csv_out->flush();
        }
        if (jsonl_out != nullptr) {
          *jsonl_out << flip::cli::sweep_point_line(point) << '\n';
          jsonl_out->flush();
        }
        save_checkpoint(flags.checkpoint_path, request, cell + 1);
      };
    }

    const flip::cli::SweepResult result = flip::cli::run_sweep(spec, sink);

    // Bare --json/--csv/--jsonl stream to stdout; suppress the table so
    // the stream stays parseable.
    if (need_table) {
      std::cout << "flipsim: " << spec.scenario << ", "
                << result.points.size() << " grid point(s) x " << spec.trials
                << " trial(s), " << flip::format_fixed(result.wall_seconds, 2)
                << " s";
      if (resuming) std::cout << ", resumed at cell " << spec.first_cell;
      std::cout << "\n\n"
                << flip::cli::sweep_table(result);
    }
    if (flags.json) {
      const std::string json = flip::cli::sweep_to_json(result);
      if (json_to_stdout) {
        std::cout << json << '\n';
      } else if (!write_file(flags.json_path, json)) {
        return 1;
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  return 0;
}
