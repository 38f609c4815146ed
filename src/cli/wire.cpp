#include "cli/wire.hpp"

#include <stdexcept>
#include <thread>
#include <vector>

#include "cli/args.hpp"
#include "sim/engine.hpp"

namespace flip::cli {

namespace {

const char* command_name(WireCommand command) {
  switch (command) {
    case WireCommand::kSweep: return "sweep";
    case WireCommand::kPing: return "ping";
    case WireCommand::kShutdown: return "shutdown";
  }
  return "sweep";
}

void append_field(std::string& out, std::string_view key,
                  std::string_view value) {
  out.append(key);
  out.push_back('=');
  out.append(value);
  out.push_back('\n');
}

}  // namespace

std::string encode_sweep_request(const SweepRequest& request) {
  std::string out(kWireProto);
  out.push_back(' ');
  out.append(command_name(request.command));
  out.push_back('\n');
  if (request.command != WireCommand::kSweep) return out;
  // Defaulted fields are omitted, so encodings are canonical: two
  // requests are equivalent iff their encodings are byte-equal (the
  // checkpoint spec-match rule relies on this).
  if (!request.scenario.empty()) {
    append_field(out, "scenario", request.scenario);
  }
  if (!request.ns.empty()) append_field(out, "n", request.ns);
  if (!request.epss.empty()) append_field(out, "eps", request.epss);
  if (!request.channels.empty()) {
    append_field(out, "channel", request.channels);
  }
  if (request.trials != 32) {
    append_field(out, "trials", std::to_string(request.trials));
  }
  if (request.seed != 0x5eedULL) {
    append_field(out, "seed", std::to_string(request.seed));
  }
  if (request.threads != 0) {
    append_field(out, "threads", std::to_string(request.threads));
  }
  if (request.shards != 1) {
    append_field(out, "shards", std::to_string(request.shards));
  }
  if (request.engine != "batch") append_field(out, "engine", request.engine);
  if (!request.schedule.empty()) {
    append_field(out, "schedule", request.schedule);
  }
  if (!request.churn.empty()) append_field(out, "churn", request.churn);
  if (!request.topology.empty()) {
    append_field(out, "topology", request.topology);
  }
  // Written last, so no proper prefix of a checkpoint file that ends in a
  // newline carries it (see read_checkpoint).
  if (request.resume_from != 0) {
    append_field(out, "resume_from", std::to_string(request.resume_from));
  }
  return out;
}

std::optional<SweepRequest> parse_sweep_request(std::string_view text,
                                                std::string& error) {
  SweepRequest request;
  std::size_t pos = 0;
  bool first = true;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (first) {
      first = false;
      const std::size_t space = line.find(' ');
      const std::string_view proto = line.substr(0, space);
      if (proto != kWireProto) {
        error = "unsupported protocol '" + std::string(proto) +
                "' (expected " + std::string(kWireProto) + ")";
        return std::nullopt;
      }
      const std::string_view command =
          space == std::string_view::npos ? "sweep" : line.substr(space + 1);
      if (command == "sweep") {
        request.command = WireCommand::kSweep;
      } else if (command == "ping") {
        request.command = WireCommand::kPing;
      } else if (command == "shutdown") {
        request.command = WireCommand::kShutdown;
      } else {
        error = "unknown command '" + std::string(command) + "'";
        return std::nullopt;
      }
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      error = "malformed line '" + std::string(line) + "' (expected key=value)";
      return std::nullopt;
    }
    const std::string_view key = line.substr(0, eq);
    const std::string_view value = line.substr(eq + 1);
    std::uint64_t number = 0;
    if (key == "scenario") {
      request.scenario = value;
    } else if (key == "n") {
      request.ns = value;
    } else if (key == "eps") {
      request.epss = value;
    } else if (key == "channel") {
      request.channels = value;
    } else if (key == "engine") {
      request.engine = value;
    } else if (key == "schedule") {
      request.schedule = value;
    } else if (key == "churn") {
      request.churn = value;
    } else if (key == "topology") {
      request.topology = value;
    } else if (key == "trials" || key == "seed" || key == "threads" ||
               key == "shards" || key == "resume_from") {
      if (!parse_uint64(value, number)) {
        error = "bad number '" + std::string(value) + "' for key '" +
                std::string(key) + "'";
        return std::nullopt;
      }
      if (key == "trials") request.trials = static_cast<std::size_t>(number);
      if (key == "seed") request.seed = number;
      if (key == "threads") request.threads = static_cast<std::size_t>(number);
      if (key == "shards") request.shards = static_cast<std::size_t>(number);
      if (key == "resume_from") {
        request.resume_from = static_cast<std::size_t>(number);
      }
    } else {
      error = "unknown key '" + std::string(key) + "'";
      return std::nullopt;
    }
  }
  if (first) {
    error = "empty request";
    return std::nullopt;
  }
  return request;
}

std::optional<std::string> resolve_sweep_request(const SweepRequest& request,
                                                 SweepSpec& spec) {
  spec = SweepSpec{};
  spec.scenario = request.scenario;
  std::string error;
  // First the strings become values; a malformed list or spec is named by
  // the flag it came from.
  if (!request.ns.empty()) {
    const auto ns = parse_size_list(request.ns, error);
    if (!ns) return "--n: " + error;
    spec.ns = *ns;
  }
  if (!request.epss.empty()) {
    const auto epss = parse_double_list(request.epss, error);
    if (!epss) return "--eps: " + error;
    spec.epss = *epss;
  }
  if (!request.channels.empty()) {
    spec.channels = split_list(request.channels);
    if (spec.channels.empty()) return "--channel: empty list";
  }
  spec.trials = request.trials;
  spec.seed = request.seed;
  if (request.threads != 0) {
    if (const auto threads_error = validate_threads(
            request.threads, std::thread::hardware_concurrency())) {
      return threads_error;
    }
    spec.threads = request.threads;
  }
  spec.shards = request.shards;
  if (!request.schedule.empty()) {
    try {
      spec.schedule = EnvironmentSchedule::parse(request.schedule);
    } catch (const std::invalid_argument& e) {
      return "--schedule: " + std::string(e.what());
    }
  }
  if (!request.churn.empty()) {
    try {
      spec.churn = ChurnSpec::parse(request.churn);
    } catch (const std::invalid_argument& e) {
      return "--churn: " + std::string(e.what());
    }
  }
  if (!request.topology.empty()) {
    try {
      spec.topology = TopologySpec::parse(request.topology);
    } catch (const std::invalid_argument& e) {
      return "--topology: " + std::string(e.what());
    }
  }
  if (const auto mode = parse_engine_mode(request.engine)) {
    spec.engine = *mode;
  } else {
    return "--engine: unknown mode '" + request.engine +
           "' (batch | classic | surrogate)";
  }
  spec.first_cell = request.resume_from;
  if (request.scenario.empty()) return "sweep request has no scenario";
  // Then every grid point meets the registry's rules. Any exception is a
  // reject: a grid too large to allocate must not take down the caller,
  // which in the daemon is its one ingest thread.
  try {
    (void)expand_grid(spec);
  } catch (const std::exception& e) {
    return std::string(e.what());
  }
  return std::nullopt;
}

std::optional<std::size_t> read_checkpoint(std::string_view text,
                                           const SweepRequest& request,
                                           std::string& error) {
  if (!text.ends_with('\n')) {
    error = "torn checkpoint (no final newline)";
    return std::nullopt;
  }
  auto recorded = parse_sweep_request(text, error);
  if (!recorded) return std::nullopt;
  const std::size_t next_cell = recorded->resume_from;
  if (next_cell == 0) {
    error = "torn checkpoint (no resume_from >= 1)";
    return std::nullopt;
  }
  // A sweep's identity leaves out its position and the fields no output
  // bit depends on: results are the same at every thread and shard count,
  // so a sweep may resume on a host with fewer cores.
  const auto identity = [](SweepRequest r) {
    const SweepRequest defaults;
    r.resume_from = defaults.resume_from;
    r.threads = defaults.threads;
    r.shards = defaults.shards;
    return encode_sweep_request(r);
  };
  if (identity(*recorded) != identity(request)) {
    error = "records a different sweep than these flags; refusing to mix "
            "results";
    return std::nullopt;
  }
  return next_cell;
}

}  // namespace flip::cli
