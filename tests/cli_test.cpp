#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "cli/args.hpp"
#include "cli/bench_report.hpp"
#include "cli/report.hpp"
#include "cli/sweep.hpp"
#include "cli/wire.hpp"

namespace flip::cli {
namespace {

// --- ArgParser ----------------------------------------------------------

TEST(ArgParserTest, FlagsOptionsAndPositionals) {
  bool flag = true;  // add_flag must reset it
  std::string value;
  ArgParser parser("prog", "desc");
  parser.add_flag("--verbose", "say more", &flag);
  parser.add_option("--out", "path", "output file", &value);
  const char* argv[] = {"prog", "--verbose", "--out", "x.json", "extra"};
  ASSERT_TRUE(parser.parse(5, argv));
  EXPECT_TRUE(flag);
  EXPECT_EQ(value, "x.json");
  ASSERT_EQ(parser.positionals().size(), 1u);
  EXPECT_EQ(parser.positionals()[0], "extra");
}

TEST(ArgParserTest, EqualsSyntaxAndTypedOptions) {
  std::optional<std::size_t> trials;
  std::optional<double> eps;
  std::optional<std::uint64_t> seed;
  ArgParser parser("prog", "");
  parser.add_size("--trials", "trials", &trials);
  parser.add_double("--eps", "eps", &eps);
  parser.add_uint64("--seed", "seed", &seed);
  const char* argv[] = {"prog", "--trials=8", "--eps", "0.25", "--seed",
                        "0xE1"};
  ASSERT_TRUE(parser.parse(6, argv));
  EXPECT_EQ(trials, 8u);
  EXPECT_EQ(eps, 0.25);
  EXPECT_EQ(seed, 0xE1u);
}

TEST(ArgParserTest, OptionalValueOption) {
  {
    // Bare --json (next token is another option): present, no path.
    std::string path;
    bool present = false;
    bool quiet = false;
    ArgParser parser("prog", "");
    parser.add_optional_value("--json", "path", "json out", &path, &present);
    parser.add_flag("--quiet", "", &quiet);
    const char* argv[] = {"prog", "--json", "--quiet"};
    ASSERT_TRUE(parser.parse(3, argv));
    EXPECT_TRUE(present);
    EXPECT_TRUE(path.empty());
    EXPECT_TRUE(quiet);
  }
  {
    // --json with a path consumes it.
    std::string path;
    bool present = false;
    ArgParser parser("prog", "");
    parser.add_optional_value("--json", "path", "json out", &path, &present);
    const char* argv[] = {"prog", "--json", "out.json"};
    ASSERT_TRUE(parser.parse(3, argv));
    EXPECT_TRUE(present);
    EXPECT_EQ(path, "out.json");
  }
}

TEST(ArgParserTest, ErrorsAndHelp) {
  {
    bool flag = false;
    ArgParser parser("prog", "");
    parser.add_flag("--x", "", &flag);
    const char* argv[] = {"prog", "--unknown"};
    EXPECT_FALSE(parser.parse(2, argv));
    EXPECT_FALSE(parser.help_requested());
    EXPECT_NE(parser.error().find("--unknown"), std::string::npos);
  }
  {
    std::string value;
    ArgParser parser("prog", "");
    parser.add_option("--out", "path", "", &value);
    const char* argv[] = {"prog", "--out"};
    EXPECT_FALSE(parser.parse(2, argv));
    EXPECT_NE(parser.error().find("requires a value"), std::string::npos);
  }
  {
    std::optional<std::size_t> trials;
    ArgParser parser("prog", "");
    parser.add_size("--trials", "", &trials);
    const char* argv[] = {"prog", "--trials", "abc"};
    EXPECT_FALSE(parser.parse(3, argv));
    EXPECT_NE(parser.error().find("abc"), std::string::npos);
  }
  {
    ArgParser parser("prog", "");
    const char* argv[] = {"prog", "-h"};
    EXPECT_FALSE(parser.parse(2, argv));
    EXPECT_TRUE(parser.help_requested());
    EXPECT_NE(parser.usage().find("usage: prog"), std::string::npos);
  }
}

TEST(ArgParserTest, GivenReportsOnlyOptionsOnTheCommandLine) {
  bool flag = false;
  std::string value;
  std::string path;
  bool present = false;
  ArgParser parser("prog", "");
  parser.add_flag("--verbose", "", &flag);
  parser.add_option("--engine", "mode", "", &value);
  parser.add_optional_value("--json", "path", "", &path, &present);
  // An explicit empty value and a default-equal value still count.
  const char* argv[] = {"prog", "--engine=", "--json"};
  ASSERT_TRUE(parser.parse(3, argv));
  EXPECT_TRUE(parser.given("--engine"));
  EXPECT_TRUE(parser.given("--json"));
  EXPECT_FALSE(parser.given("--verbose"));
  EXPECT_FALSE(parser.given("--nope"));
}

TEST(ArgParserTest, GivenNamesFollowRegistrationOrder) {
  bool verbose = false;
  bool quiet = false;
  std::string value;
  ArgParser parser("prog", "");
  parser.add_flag("--verbose", "", &verbose);
  parser.add_option("--engine", "mode", "", &value);
  parser.add_flag("--quiet", "", &quiet);
  const char* argv[] = {"prog", "--quiet", "--engine", "batch"};
  ASSERT_TRUE(parser.parse(4, argv));
  EXPECT_EQ(parser.given_names(),
            (std::vector<std::string>{"--engine", "--quiet"}));
}

TEST(ArgParserTest, ListParsing) {
  std::string error;
  const auto sizes = parse_size_list("1024,2048,4096", error);
  ASSERT_TRUE(sizes.has_value());
  EXPECT_EQ(*sizes, (std::vector<std::size_t>{1024, 2048, 4096}));

  const auto doubles = parse_double_list("0.2,0.3", error);
  ASSERT_TRUE(doubles.has_value());
  EXPECT_EQ(*doubles, (std::vector<double>{0.2, 0.3}));

  EXPECT_FALSE(parse_size_list("12,x", error).has_value());
  EXPECT_NE(error.find("x"), std::string::npos);
  EXPECT_FALSE(parse_double_list("", error).has_value());

  EXPECT_EQ(split_list("a,b,,c"),
            (std::vector<std::string>{"a", "b", "c"}));
}

// --- Sweep --------------------------------------------------------------

TEST(SweepTest, ExpandGridCrossProduct) {
  SweepSpec spec;
  spec.scenario = "broadcast_small";
  spec.ns = {64, 128};
  spec.epss = {0.25, 0.3};
  const auto grid = expand_grid(spec);
  ASSERT_EQ(grid.size(), 4u);
  // Axis order: n outermost, then eps, then channel.
  EXPECT_EQ(grid[0].n, 64u);
  EXPECT_DOUBLE_EQ(grid[0].eps, 0.25);
  EXPECT_EQ(grid[1].n, 64u);
  EXPECT_DOUBLE_EQ(grid[1].eps, 0.3);
  EXPECT_EQ(grid[3].n, 128u);
  EXPECT_EQ(grid[0].channel, kChannelBsc);  // scenario default
}

TEST(SweepTest, ExpandGridDedupesRepeatedAxisValues) {
  // A repeated axis value would run the same grid point twice.
  SweepSpec spec;
  spec.scenario = "broadcast_small";
  spec.ns = {128, 128, 64};
  spec.epss = {0.3, 0.3};
  const auto grid = expand_grid(spec);
  ASSERT_EQ(grid.size(), 2u);
  EXPECT_EQ(grid[0].n, 128u);
  EXPECT_EQ(grid[1].n, 64u);
}

TEST(SweepTest, ExpandGridBoundsTheCellCountOverDistinctValues) {
  // 256 x 256 distinct values is exactly the limit; one more n is over it
  // and is rejected before any cell is built. Repeats do not count.
  SweepSpec spec;
  spec.scenario = "broadcast_small";
  for (std::size_t i = 0; i < 256; ++i) {
    spec.ns.push_back(64 + i);
    spec.epss.push_back(0.1 + 0.001 * static_cast<double>(i));
  }
  static_assert(kMaxGridCells == 256 * 256);
  spec.ns.push_back(64);
  EXPECT_EQ(expand_grid(spec).size(), kMaxGridCells);

  spec.ns.push_back(64 + 256);
  try {
    (void)expand_grid(spec);
    FAIL() << "a grid over kMaxGridCells must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "sweep grid has more than 65536 cells (257 n x 256 eps x 1 "
              "channel values); split it into smaller sweeps");
  }
}

TEST(SweepTest, RunSweepProducesSummaries) {
  SweepSpec spec;
  spec.scenario = "broadcast_small";
  spec.ns = {64, 128};
  spec.trials = 2;
  spec.seed = 0xCAFE;
  const SweepResult result = run_sweep(spec);
  ASSERT_EQ(result.points.size(), 2u);
  for (const SweepPoint& point : result.points) {
    EXPECT_EQ(point.summary.trials, 2u);
    EXPECT_GT(point.summary.rounds.mean(), 0.0);
    EXPECT_GT(point.summary.messages.mean(), 0.0);
    EXPECT_GE(point.summary.wall_seconds, 0.0);
  }
  EXPECT_GE(result.wall_seconds,
            result.points[0].summary.wall_seconds +
                result.points[1].summary.wall_seconds - 1e-3);
}

TEST(SweepTest, RunSweepValidatesBeforeRunning) {
  SweepSpec unknown;
  unknown.scenario = "no_such_scenario";
  EXPECT_THROW(run_sweep(unknown), std::invalid_argument);

  SweepSpec zero_trials;
  zero_trials.scenario = "broadcast_small";
  zero_trials.trials = 0;
  EXPECT_THROW(run_sweep(zero_trials), std::invalid_argument);

  SweepSpec bad_channel;
  bad_channel.scenario = "majority";
  bad_channel.channels = {std::string(kChannelHeterogeneous)};
  EXPECT_THROW(run_sweep(bad_channel), std::invalid_argument);
}

TEST(SweepTest, SurrogateValidationRunsARepeatedSizeOnce) {
  // The harness dedups its sizes like a sweep grid's axes: a repeated n
  // does not pay its Monte Carlo twice.
  SurrogateValidationSpec spec;
  spec.scenarios = {"broadcast_small"};
  spec.ns = {64, 64};
  spec.trials = 2;
  const SurrogateValidationResult result = run_surrogate_validation(spec);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_EQ(result.cells[0].scenario, "broadcast_small");
  EXPECT_EQ(result.cells[0].config.n, 64u);
}

TEST(SweepTest, ShardsOnAnUnshardedEngineFailBeforeTheFirstCell) {
  // Classic and surrogate run each trial unsharded: a sharded grid on
  // either fails at expand_grid, before any cell runs, naming the entry
  // and the engine. The same grid on batch expands.
  SweepSpec spec;
  spec.scenario = "broadcast";
  spec.ns = {256, 1'000'000};
  spec.shards = 8;
  spec.trials = 2;
  EXPECT_EQ(expand_grid(spec).size(), 2u);
  for (const EngineMode engine :
       {EngineMode::kClassic, EngineMode::kSurrogate}) {
    spec.engine = engine;
    const std::string mode(engine_mode_name(engine));
    try {
      (void)expand_grid(spec);
      ADD_FAILURE() << mode << ": expand_grid accepted the grid";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "scenario 'broadcast': --engine " + mode +
                    " runs unsharded and does not support shards > 1 "
                    "(only --engine batch shards a trial)");
    }
    std::size_t points = 0;
    EXPECT_THROW(run_sweep(spec,
                           [&](std::size_t, const SweepPoint&) { ++points; }),
                 std::invalid_argument)
        << mode;
    EXPECT_EQ(points, 0u) << mode;
  }
}

TEST(SweepTest, HeterogeneousUnderScheduleFailsBeforeTheFirstCell) {
  // The bsc cell alone is valid; crossing it with the heterogeneous channel
  // under an eps schedule must still fail at expand_grid, before any cell
  // runs, with the same message on every engine.
  for (const EngineMode engine :
       {EngineMode::kBatch, EngineMode::kClassic, EngineMode::kSurrogate}) {
    SweepSpec spec;
    spec.scenario = "broadcast";
    spec.ns = {256};
    spec.channels = {std::string(kChannelBsc),
                     std::string(kChannelHeterogeneous)};
    spec.schedule = EnvironmentSchedule::parse("ramp:0.4:0.15");
    spec.trials = 2;
    spec.engine = engine;
    const std::string what(engine_mode_name(engine));
    try {
      (void)expand_grid(spec);
      ADD_FAILURE() << what << ": expand_grid accepted the grid";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(),
                   "scenario 'broadcast': heterogeneous noise and an eps "
                   "schedule are mutually exclusive")
          << what;
    }
    std::size_t points = 0;
    EXPECT_THROW(run_sweep(spec,
                           [&](std::size_t, const SweepPoint&) { ++points; }),
                 std::invalid_argument)
        << what;
    EXPECT_EQ(points, 0u) << what;
  }
}

TEST(SweepTest, FactoryRejectedPointsFailBeforeTheFirstCell) {
  // Each grid's first point is valid and its second is outside the
  // entry's factory domain: expand_grid rejects the whole grid, naming the
  // entry and the value, and run_sweep runs no cell.
  const struct {
    const char* scenario;
    std::vector<std::size_t> ns;
    std::vector<double> epss;
    EngineMode engine;
    const char* error;
  } cases[] = {
      {"broadcast_small", {}, {0.3, 0.5}, EngineMode::kBatch,
       "scenario 'broadcast_small': eps must be in (0, 0.5) to calibrate "
       "its schedule, got 0.5"},
      {"broadcast_small", {64, 3}, {}, EngineMode::kBatch,
       "scenario 'broadcast_small': n must be >= 4, got 3"},
      {"desync", {64, 3}, {}, EngineMode::kBatch,
       "scenario 'desync': n must be >= 4, got 3"},
      {"majority", {128, 32}, {}, EngineMode::kBatch,
       "scenario 'majority': n must be >= 64, got 32"},
      {"majority", {128, 32}, {}, EngineMode::kSurrogate,
       "scenario 'majority': n must be >= 64, got 32"},
  };
  for (const auto& c : cases) {
    SweepSpec spec;
    spec.scenario = c.scenario;
    spec.ns = c.ns;
    spec.epss = c.epss;
    spec.engine = c.engine;
    spec.trials = 2;
    try {
      (void)expand_grid(spec);
      ADD_FAILURE() << c.error << ": expand_grid accepted the grid";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), c.error);
    }
    std::size_t points = 0;
    EXPECT_THROW(run_sweep(spec,
                           [&](std::size_t, const SweepPoint&) { ++points; }),
                 std::invalid_argument)
        << c.error;
    EXPECT_EQ(points, 0u) << c.error;
  }
}

// --- Reporting ----------------------------------------------------------

// A fixed SweepResult with exactly representable numbers, so the JSON and
// CSV emitters can be golden-tested byte for byte (stable key order is the
// contract the docs/CI pipeline relies on).
SweepResult known_result() {
  SweepResult result;
  result.spec.scenario = "demo";
  result.spec.trials = 2;
  result.spec.seed = 7;
  result.wall_seconds = 2.0;
  SweepPoint point;
  point.config = {64, 0.25, "bsc"};
  point.summary.trials = 2;
  point.summary.successes = 1;
  point.summary.success = {0.5, 0.125, 0.875};
  point.summary.rounds.add(1100.0);
  point.summary.rounds.add(1100.0);
  point.summary.messages.add(500.0);
  point.summary.messages.add(500.0);
  point.summary.correct_fraction.add(1.0);
  point.summary.correct_fraction.add(1.0);
  point.summary.trial_seconds.add(0.5);
  point.summary.trial_seconds.add(0.5);
  point.summary.wall_seconds = 1.5;
  result.points.push_back(std::move(point));
  return result;
}

TEST(ReportTest, SweepJsonGolden) {
  const std::string expected =
      "{\n"
      "  \"schema\": \"flipsim-sweep-v1\",\n"
      "  \"scenario\": \"demo\",\n"
      "  \"trials_per_point\": 2,\n"
      "  \"seed\": 7,\n"
      "  \"threads\": 0,\n"
      "  \"engine\": \"batch\",\n"
      "  \"shards\": 1,\n"
      "  \"grid_points\": 1,\n"
      "  \"wall_seconds\": 2,\n"
      "  \"points\": [\n"
      "    {\n"
      "      \"params\": {\n"
      "        \"n\": 64,\n"
      "        \"eps\": 0.25,\n"
      "        \"channel\": \"bsc\",\n"
      "        \"schedule\": \"static\",\n"
      "        \"churn\": \"none\",\n"
      "        \"topology\": \"complete\"\n"
      "      },\n"
      "      \"trials\": 2,\n"
      "      \"successes\": 1,\n"
      "      \"success_rate\": {\n"
      "        \"estimate\": 0.5,\n"
      "        \"wilson_low\": 0.125,\n"
      "        \"wilson_high\": 0.875\n"
      "      },\n"
      "      \"rounds\": {\n"
      "        \"mean\": 1100,\n"
      "        \"stddev\": 0,\n"
      "        \"min\": 1100,\n"
      "        \"max\": 1100\n"
      "      },\n"
      "      \"messages\": {\n"
      "        \"mean\": 500,\n"
      "        \"stddev\": 0,\n"
      "        \"min\": 500,\n"
      "        \"max\": 500\n"
      "      },\n"
      "      \"correct_fraction\": {\n"
      "        \"mean\": 1,\n"
      "        \"stddev\": 0,\n"
      "        \"min\": 1,\n"
      "        \"max\": 1\n"
      "      },\n"
      // No converged trials: every convergence statistic is null (the
      // NaN -> null mapping), never a numeric placeholder.
      "      \"convergence_rounds\": {\n"
      "        \"converged\": 0,\n"
      "        \"mean\": null,\n"
      "        \"stddev\": null,\n"
      "        \"min\": null,\n"
      "        \"max\": null\n"
      "      },\n"
      "      \"trial_seconds\": {\n"
      "        \"mean\": 0.5,\n"
      "        \"stddev\": 0,\n"
      "        \"min\": 0.5,\n"
      "        \"max\": 0.5\n"
      "      },\n"
      "      \"wall_seconds\": 1.5\n"
      "    }\n"
      "  ]\n"
      "}";
  EXPECT_EQ(sweep_to_json(known_result()), expected);
}

TEST(ReportTest, SweepCsvGolden) {
  const std::string expected =
      "scenario,n,eps,channel,schedule,churn,topology,trials,successes,"
      "success_rate,"
      "success_low,success_high,rounds_mean,rounds_stddev,rounds_min,"
      "rounds_max,messages_mean,messages_stddev,correct_fraction_mean,"
      "convergence_mean,converged,wall_seconds\n"
      "demo,64,0.25,bsc,static,none,complete,2,1,0.5,0.125,0.875,1100,0,"
      "1100,1100,"
      "500,0,1,null,0,1.5\n";
  // The header + per-point rows are the path --csv streams.
  const SweepResult result = known_result();
  EXPECT_EQ(sweep_csv_header() + sweep_csv_row(result.spec, result.points[0]),
            expected);
}

TEST(ReportTest, SweepTableMatchesPoints) {
  const TextTable table = sweep_table(known_result());
  ASSERT_EQ(table.rows(), 1u);
  EXPECT_EQ(table.at(0, 0), "64");
  EXPECT_EQ(table.at(0, 2), "bsc");
  // No converged trials: the convergence column is a "-" placeholder, not
  // a formatted NaN (and never a fake 0).
  EXPECT_EQ(table.at(0, 8), "-");
}

TEST(ReportTest, ConvergenceStatsAppearWhenTrialsConverge) {
  SweepResult result = known_result();
  TrialSummary& s = result.points[0].summary;
  s.converged = 2;
  s.convergence_rounds.add(96.0);
  s.convergence_rounds.add(104.0);
  const std::string json = sweep_to_json(result);
  EXPECT_NE(json.find("\"converged\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"mean\": 100,"), std::string::npos);
  const std::string csv = sweep_csv_row(result.spec, result.points[0]);
  EXPECT_NE(csv.find(",100,2,"), std::string::npos);
  const TextTable table = sweep_table(result);
  EXPECT_EQ(table.at(0, 8), "100");
}

// --- Request checks ---------------------------------------------------

TEST(ValidateThreadsTest, AcceptsWithinHardwareBounds) {
  EXPECT_EQ(validate_threads(1, 8), std::nullopt);
  EXPECT_EQ(validate_threads(8, 8), std::nullopt);
  EXPECT_NE(validate_threads(9, 8), std::nullopt);
  EXPECT_NE(validate_threads(0, 8), std::nullopt);
}

TEST(ValidateThreadsTest, UnknownHardwareFallsBackToFloorOfOne) {
  // std::thread::hardware_concurrency() may return 0 ("cannot tell"). That
  // must mean "no detected upper bound", not "upper bound zero" — the
  // latter would reject every --threads value on such hosts.
  EXPECT_EQ(validate_threads(1, 0), std::nullopt);
  EXPECT_EQ(validate_threads(16, 0), std::nullopt);
  EXPECT_NE(validate_threads(0, 0), std::nullopt);
}

// The rules below live in ScenarioRegistry::resolve; these tests check
// that resolve_sweep_request, the one request check flipsim and the
// daemon share, applies them.

/// resolve_sweep_request's verdict on a request for `scenario`.
std::optional<std::string> verdict(
    std::string_view scenario,
    const std::function<void(SweepRequest&)>& edit = {}) {
  SweepRequest request;
  request.scenario = scenario;
  if (edit) edit(request);
  SweepSpec spec;
  return resolve_sweep_request(request, spec);
}

TEST(ValidateShardsTest, EnforcesRegistryBound) {
  for (const std::size_t shards : {std::size_t{1}, kMaxShards}) {
    EXPECT_EQ(verdict("broadcast",
                      [&](SweepRequest& r) { r.shards = shards; }),
              std::nullopt)
        << shards;
  }
  for (const std::size_t shards : {std::size_t{0}, kMaxShards + 1}) {
    EXPECT_EQ(verdict("broadcast",
                      [&](SweepRequest& r) { r.shards = shards; }),
              "scenario 'broadcast': shards must be in 1.." +
                  std::to_string(kMaxShards) + ", got " +
                  std::to_string(shards));
  }
}

TEST(ValidateEpsTest, RejectsValuesOutsideModelDomain) {
  // The baselines calibrate no schedule, so they take eps = 0.5.
  EXPECT_EQ(verdict("baseline_voter",
                    [](SweepRequest& r) { r.epss = "0.1,0.5"; }),
            std::nullopt);
  EXPECT_EQ(verdict("broadcast_small",
                    [](SweepRequest& r) { r.epss = "0.2,0.7"; }),
            "scenario 'broadcast_small': eps must be in (0, 0.5], got 0.7");
  EXPECT_TRUE(verdict("broadcast_small", [](SweepRequest& r) {
                r.epss = "0";
              }).has_value());
  EXPECT_TRUE(verdict("broadcast_small", [](SweepRequest& r) {
                r.epss = "-0.1";
              }).has_value());
  // A NaN equals no other value, so the axis dedup never folds it away.
  EXPECT_EQ(verdict("broadcast_small",
                    [](SweepRequest& r) { r.epss = "0.2,nan"; }),
            "scenario 'broadcast_small': eps must be in (0, 0.5], got nan");
}

TEST(ValidateEngineTest, ExactEnginesPassForEveryKnownScenario) {
  for (const ScenarioInfo* info : ScenarioRegistry::instance().list()) {
    for (const char* engine : {"batch", "classic"}) {
      EXPECT_EQ(verdict(info->name,
                        [&](SweepRequest& r) { r.engine = engine; }),
                std::nullopt)
          << info->name << " --engine " << engine;
    }
  }
}

TEST(ValidateEngineTest, SurrogateAcceptedExactlyOnSupportedEntries) {
  const auto surrogate = [](SweepRequest& r) { r.engine = "surrogate"; };
  for (const ScenarioInfo* info : ScenarioRegistry::instance().list()) {
    const auto error = verdict(info->name, surrogate);
    if (info->supports_surrogate()) {
      EXPECT_EQ(error, std::nullopt) << info->name;
    } else {
      ASSERT_TRUE(error.has_value()) << info->name;
      // Actionable: names the offending scenario and the engines that DO
      // work there.
      EXPECT_NE(error->find(info->name), std::string::npos) << *error;
      EXPECT_NE(error->find("--engine batch"), std::string::npos) << *error;
      EXPECT_NE(error->find("--engine classic"), std::string::npos)
          << *error;
    }
  }
  // The rejection set is exactly the unmodelable families.
  EXPECT_TRUE(verdict("broadcast_adversarial", surrogate).has_value());
  EXPECT_TRUE(verdict("desync", surrogate).has_value());
  EXPECT_TRUE(verdict("baseline_voter", surrogate).has_value());
  EXPECT_EQ(verdict("broadcast", surrogate), std::nullopt);
}

TEST(ValidateEngineTest, UnknownScenarioFailsAtTheArgumentLayer) {
  const auto error = verdict("no_such_thing");
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("no_such_thing"), std::string::npos);
  EXPECT_NE(error->find("--list"), std::string::npos);  // points at help
}

TEST(ValidateTopologyTest, CompleteAndUnsetPassEverywhere) {
  for (const ScenarioInfo* info : ScenarioRegistry::instance().list()) {
    EXPECT_EQ(verdict(info->name), std::nullopt) << info->name;
    EXPECT_EQ(verdict(info->name,
                      [](SweepRequest& r) { r.topology = "complete"; }),
              std::nullopt)
        << info->name;
  }
}

TEST(ValidateTopologyTest, SparseAcceptedExactlyOnSupportingEntries) {
  const auto ring = [](SweepRequest& r) { r.topology = "ring:8"; };
  for (const ScenarioInfo* info : ScenarioRegistry::instance().list()) {
    const auto error = verdict(info->name, ring);
    if (info->batch_breathe) {
      EXPECT_EQ(error, std::nullopt) << info->name;
    } else {
      ASSERT_TRUE(error.has_value()) << info->name;
      EXPECT_NE(error->find(info->name), std::string::npos) << *error;
    }
  }
  // The rejection set is exactly the non-breathe families.
  EXPECT_TRUE(verdict("desync", ring).has_value());
  EXPECT_TRUE(verdict("baseline_voter", ring).has_value());
  EXPECT_EQ(verdict("broadcast", ring), std::nullopt);
}

TEST(ValidateTopologyTest, SurrogateRejectsAnyEffectiveSparseGraph) {
  // Explicit override under the surrogate engine: rejected, naming the
  // scenario, the topology, and the engines that DO work.
  const auto error = verdict("broadcast", [](SweepRequest& r) {
    r.engine = "surrogate";
    r.topology = "ring:8";
  });
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("broadcast"), std::string::npos) << *error;
  EXPECT_NE(error->find("ring(k=8)"), std::string::npos) << *error;
  EXPECT_NE(error->find("--engine batch"), std::string::npos) << *error;
  EXPECT_NE(error->find("--engine classic"), std::string::npos) << *error;
  // No override, but the scenario's DEFAULT is sparse: still rejected —
  // the effective graph is what matters, not the command line.
  const auto surrogate = [](SweepRequest& r) { r.engine = "surrogate"; };
  EXPECT_TRUE(verdict("broadcast_ring_k8", surrogate).has_value());
  // Overriding a sparse-default entry back to complete clears the graph
  // rule: the entry is a breathe entry like any other, so it resolves.
  const auto complete = verdict("broadcast_ring_k8", [](SweepRequest& r) {
    r.engine = "surrogate";
    r.topology = "complete";
  });
  EXPECT_EQ(complete, std::nullopt) << *complete;
  EXPECT_EQ(verdict("broadcast", surrogate), std::nullopt);
}

TEST(ValidateTopologyTest, UnknownScenarioFailsAtTheArgumentLayer) {
  const auto error =
      verdict("no_such_thing", [](SweepRequest& r) { r.topology = "ring:8"; });
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("no_such_thing"), std::string::npos);
  EXPECT_NE(error->find("--list"), std::string::npos);
}

TEST(SweepTest, TopologyOverrideReachesEveryGridPoint) {
  SweepSpec spec;
  spec.scenario = "broadcast_small";
  spec.ns = {64, 128};
  spec.topology = TopologySpec::parse("ring:8");
  const auto grid = expand_grid(spec);
  ASSERT_EQ(grid.size(), 2u);
  for (const ScenarioConfig& config : grid) {
    EXPECT_EQ(config.topology.describe(), "ring(k=8)");
  }
  // Without an override the scenario default flows through instead.
  SweepSpec preset;
  preset.scenario = "broadcast_ring_k8";
  const auto preset_grid = expand_grid(preset);
  ASSERT_EQ(preset_grid.size(), 1u);
  EXPECT_EQ(preset_grid[0].topology.describe(), "ring(k=8)");
}

TEST(SweepTest, TopologyTooLargeForGridFailsBeforeRunning) {
  // resolve() checks the graph against n: a ring needing more neighbors
  // than the population has peers must fail at expand_grid time, not
  // minutes into the sweep.
  SweepSpec spec;
  spec.scenario = "broadcast_small";
  spec.ns = {64};
  spec.topology = TopologySpec::parse("ring:64");
  EXPECT_THROW(expand_grid(spec), std::invalid_argument);
}

TEST(ReportTest, BenchReportJsonGolden) {
  BenchReport report;
  report.id = "E1 demo";
  report.claim = "a claim";
  BenchReport::Table table;
  table.headers = {"n", "rounds"};
  table.rows = {{"64", "1100"}};
  table.note = "a note";
  report.tables.push_back(std::move(table));
  const std::string expected =
      "{\n"
      "  \"schema\": \"flip-bench-v1\",\n"
      "  \"id\": \"E1 demo\",\n"
      "  \"claim\": \"a claim\",\n"
      "  \"tables\": [\n"
      "    {\n"
      "      \"headers\": [\n"
      "        \"n\",\n"
      "        \"rounds\"\n"
      "      ],\n"
      "      \"rows\": [\n"
      "        [\n"
      "          \"64\",\n"
      "          \"1100\"\n"
      "        ]\n"
      "      ],\n"
      "      \"note\": \"a note\"\n"
      "    }\n"
      "  ]\n"
      "}";
  EXPECT_EQ(bench_report_to_json(report), expected);
}

}  // namespace
}  // namespace flip::cli
