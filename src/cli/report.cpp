#include "cli/report.hpp"

#include <limits>

#include "util/json_writer.hpp"

namespace flip::cli {

namespace {

void stats_object(JsonWriter& json, const RunningStats& stats) {
  json.begin_object()
      .field("mean", stats.mean())
      .field("stddev", stats.stddev())
      .field("min", stats.min())
      .field("max", stats.max())
      .end_object();
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// The convergence-round mean of a point: NaN (rendered null/"-") when no
/// trial converged — an empty accumulator's 0.0 would read as "converged
/// at round 0", the exact NaN-vs-placeholder confusion the reporting
/// layer guards against.
double convergence_mean(const TrialSummary& summary) {
  return summary.converged != 0 ? summary.convergence_rounds.mean() : kNaN;
}

/// Like stats_object, but for the convergence accumulator, which may hold
/// no samples: every statistic maps to null then (JsonWriter renders
/// non-finite doubles as null).
void convergence_object(JsonWriter& json, const TrialSummary& summary) {
  const bool any = summary.converged != 0;
  const RunningStats& stats = summary.convergence_rounds;
  json.begin_object()
      .field("converged", static_cast<std::uint64_t>(summary.converged))
      .field("mean", any ? stats.mean() : kNaN)
      .field("stddev", any ? stats.stddev() : kNaN)
      .field("min", any ? stats.min() : kNaN)
      .field("max", any ? stats.max() : kNaN)
      .end_object();
}

}  // namespace

void append_sweep_point(JsonWriter& json, const SweepPoint& point) {
  json.begin_object();
  json.key("params")
      .begin_object()
      .field("n", static_cast<std::uint64_t>(point.config.n))
      .field("eps", point.config.eps)
      .field("channel", point.config.channel)
      .field("schedule", point.config.schedule.describe())
      .field("churn", point.config.churn.describe())
      .field("topology", point.config.topology.describe())
      .end_object();
  json.field("trials", static_cast<std::uint64_t>(point.summary.trials))
      .field("successes",
             static_cast<std::uint64_t>(point.summary.successes));
  json.key("success_rate")
      .begin_object()
      .field("estimate", point.summary.success.estimate)
      .field("wilson_low", point.summary.success.low)
      .field("wilson_high", point.summary.success.high)
      .end_object();
  json.key("rounds");
  stats_object(json, point.summary.rounds);
  json.key("messages");
  stats_object(json, point.summary.messages);
  json.key("correct_fraction");
  stats_object(json, point.summary.correct_fraction);
  json.key("convergence_rounds");
  convergence_object(json, point.summary);
  // Timing last, deterministic payload first: stream consumers (and the
  // served-vs-one-shot differential test) byte-compare the prefix up to
  // "trial_seconds".
  json.key("trial_seconds");
  stats_object(json, point.summary.trial_seconds);
  json.field("wall_seconds", point.summary.wall_seconds);
  json.end_object();
}

std::string sweep_point_line(const SweepPoint& point) {
  JsonWriter json(0);  // compact: one line, no internal newlines
  append_sweep_point(json, point);
  return json.str();
}

std::string sweep_to_json(const SweepResult& result) {
  JsonWriter json;
  json.begin_object()
      .field("schema", "flipsim-sweep-v1")
      .field("scenario", result.spec.scenario)
      .field("trials_per_point", static_cast<std::uint64_t>(result.spec.trials))
      .field("seed", result.spec.seed)
      .field("threads", static_cast<std::uint64_t>(result.spec.threads))
      .field("engine", std::string(engine_mode_name(result.spec.engine)))
      .field("shards", static_cast<std::uint64_t>(result.spec.shards))
      .field("grid_points", static_cast<std::uint64_t>(result.points.size()))
      .field("wall_seconds", result.wall_seconds);
  json.key("points").begin_array();
  for (const SweepPoint& point : result.points) {
    append_sweep_point(json, point);
  }
  json.end_array();
  json.end_object();
  return json.str();
}

std::string sweep_csv_header() {
  return "scenario,n,eps,channel,schedule,churn,topology,trials,successes,"
         "success_rate,"
         "success_low,success_high,rounds_mean,rounds_stddev,rounds_min,"
         "rounds_max,messages_mean,messages_stddev,correct_fraction_mean,"
         "convergence_mean,converged,wall_seconds\n";
}

std::string sweep_csv_row(const SweepSpec& spec, const SweepPoint& point) {
  // Doubles (including the possibly-NaN convergence mean) render through
  // JsonWriter::number, which maps non-finite values to "null" — never the
  // locale/platform-dependent "nan"/"inf" spellings of raw streams.
  const TrialSummary& s = point.summary;
  std::string csv;
  csv += spec.scenario;
  csv += ',' + std::to_string(point.config.n);
  csv += ',' + JsonWriter::number(point.config.eps);
  csv += ',' + point.config.channel;
  csv += ',' + point.config.schedule.describe();
  csv += ',' + point.config.churn.describe();
  // TopologySpec::describe() is comma-free by construction ("ring(k=8)"),
  // so it needs no CSV quoting.
  csv += ',' + point.config.topology.describe();
  csv += ',' + std::to_string(s.trials);
  csv += ',' + std::to_string(s.successes);
  csv += ',' + JsonWriter::number(s.success.estimate);
  csv += ',' + JsonWriter::number(s.success.low);
  csv += ',' + JsonWriter::number(s.success.high);
  csv += ',' + JsonWriter::number(s.rounds.mean());
  csv += ',' + JsonWriter::number(s.rounds.stddev());
  csv += ',' + JsonWriter::number(s.rounds.min());
  csv += ',' + JsonWriter::number(s.rounds.max());
  csv += ',' + JsonWriter::number(s.messages.mean());
  csv += ',' + JsonWriter::number(s.messages.stddev());
  csv += ',' + JsonWriter::number(s.correct_fraction.mean());
  csv += ',' + JsonWriter::number(convergence_mean(s));
  csv += ',' + std::to_string(s.converged);
  csv += ',' + JsonWriter::number(s.wall_seconds);
  csv += '\n';
  return csv;
}

TextTable sweep_table(const SweepResult& result) {
  TextTable table({"n", "eps", "channel", "trials", "success", "rounds",
                   "messages", "correct", "conv round", "wall s"});
  for (const SweepPoint& point : result.points) {
    const TrialSummary& s = point.summary;
    table.row()
        .cell(point.config.n)
        .cell(point.config.eps, 3)
        .cell(point.config.channel)
        .cell(s.trials)
        .cell(s.success.to_string())
        .cell(s.rounds.mean(), 0)
        .cell(s.messages.mean(), 0)
        .cell(s.correct_fraction.mean(), 4)
        // "-" when no trial converged (or the scenario records no probes):
        // a numeric placeholder would read as a real round.
        .cell(s.converged != 0 ? format_fixed(convergence_mean(s), 0)
                               : std::string("-"))
        .cell(point.summary.wall_seconds, 2);
  }
  return table;
}

std::string validation_to_json(const SurrogateValidationResult& result) {
  JsonWriter json;
  json.begin_object()
      .field("schema", "flipsim-validate-v1")
      .field("mc_trials_per_cell",
             static_cast<std::uint64_t>(result.spec.trials))
      .field("surrogate_trials_per_cell",
             static_cast<std::uint64_t>(result.spec.surrogate_trials))
      .field("seed", result.spec.seed)
      .field("static_tolerance", kSurrogateStaticTolerance)
      .field("dynamic_tolerance", kSurrogateDynamicTolerance)
      .field("cells", static_cast<std::uint64_t>(result.cells.size()))
      .field("all_pass", result.all_pass)
      .field("wall_seconds", result.wall_seconds);
  json.key("results").begin_array();
  for (const SurrogateValidationCell& cell : result.cells) {
    json.begin_object()
        .field("scenario", cell.scenario)
        .field("n", static_cast<std::uint64_t>(cell.config.n))
        .field("eps", cell.config.eps)
        .field("channel", cell.config.channel)
        .field("schedule", cell.config.schedule.describe())
        .field("churn", cell.config.churn.describe())
        .field("dynamic", cell.dynamic)
        .field("success_mc", cell.success_mc)
        .field("mc_wilson_low", cell.mc_low)
        .field("mc_wilson_high", cell.mc_high)
        .field("success_surrogate", cell.success_surrogate)
        .field("abs_error", cell.abs_error)
        .field("tolerance", cell.tolerance)
        .field("band", cell.band)
        .field("pass", cell.pass)
        .field("convergence_mc", cell.convergence_mc)
        .field("convergence_surrogate", cell.convergence_surrogate)
        .field("mc_seconds", cell.mc_seconds)
        .field("surrogate_seconds", cell.surrogate_seconds)
        .end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

TextTable validation_table(const SurrogateValidationResult& result) {
  TextTable table({"scenario", "n", "env", "mc", "surrogate", "|err|",
                   "band", "verdict"});
  for (const SurrogateValidationCell& cell : result.cells) {
    table.row()
        .cell(cell.scenario)
        .cell(cell.config.n)
        .cell(cell.dynamic ? "dynamic" : "static")
        .cell(cell.success_mc, 3)
        .cell(cell.success_surrogate, 3)
        .cell(cell.abs_error, 3)
        .cell(cell.band, 3)
        .cell(cell.pass ? "pass" : "FAIL");
  }
  return table;
}

}  // namespace flip::cli
