// Self-tests of the benchmark's own measurement rules (perfbench
// --selftest): the percentile rule, the outcome digest and conservation
// checks, span self time, and the point-line comparison. They run in a
// second or two and need no workload.

#include "selftest.hpp"

#include <iostream>
#include <string>

#include "probe.hpp"
#include "service_loop.hpp"
#include "workload/registry.hpp"

namespace perfbench {

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::cout << "FAIL " << what << "\n";
  }
}

void percentile_rule() {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(i);
  expect(percentile(xs, 50.0) == 50.0, "p50 of 1..100 is 50");
  expect(percentile(xs, 90.0) == 90.0, "p90 of 1..100 is 90");
  expect(percentile({3.0, 1.0, 2.0}, 50.0) == 2.0, "p50 of 3 samples");
  expect(percentile({}, 50.0) == 0.0, "empty percentile is 0");
  // The highest percentile with at least 10 samples beyond it.
  expect(samples_beyond(100, 90.0) == 10, "100 samples: 10 beyond p90");
  expect(tail_percentile(100) == 90.0, "100 samples report p90");
  expect(tail_percentile(99) == 50.0, "99 samples fall back to p50");
  expect(tail_percentile(999) == 90.0, "999 samples stay at p90");
  expect(tail_percentile(1000) == 99.0, "1000 samples report p99");
  expect(tail_percentile(10000) == 99.9, "10000 samples report p99.9");
  expect(tail_percentile(20) == 50.0, "20 samples report p50");
  expect(tail_percentile(19) == 0.0, "19 samples report no percentile");
}

void digest_checks() {
  flip::TrialOutcome o;
  o.success = true;
  o.rounds = 120;
  o.messages = 1000;
  o.delivered = 640;
  o.dropped = 360;
  o.flipped = 130;
  expect(conserves(o), "balanced counters conserve");
  flip::TrialOutcome bad = o;
  ++bad.dropped;
  expect(!conserves(bad), "a corrupted dropped counter breaks conservation");
  expect(outcome_digest(bad) != outcome_digest(o),
         "the digest sees a corrupted dropped counter");

  // A real trial: equal digests across shard counts, and a single flipped
  // counter bit is caught.
  flip::ScenarioOverrides one;
  one.shards = 1;
  flip::ScenarioOverrides four;
  four.shards = 4;
  const auto& registry = flip::ScenarioRegistry::instance();
  const flip::TrialOutcome a = registry.make("broadcast_small", one)(7, 3);
  const flip::TrialOutcome b = registry.make("broadcast_small", four)(7, 3);
  expect(conserves(a), "a real trial conserves messages");
  expect(outcome_digest(a) == outcome_digest(b),
         "shards=1 and shards=4 digests agree");
  flip::TrialOutcome corrupted = b;
  corrupted.flipped ^= 1;
  expect(outcome_digest(a) != outcome_digest(corrupted),
         "the digest catches a corrupted flipped counter");
}

void span_self_time() {
  // parent [0,100]; children [10,30] and [20,40] overlap (union 30), [50,60]
  // adds 10, [90,120] is clipped to 10; the grandchild [12,14] is the
  // child's business only.
  std::vector<Span> spans = {
      {"parent", 0, 100, -1, 0},  {"a", 10, 30, 0, 0},
      {"b", 20, 40, 0, 0},        {"c", 50, 60, 0, 0},
      {"d", 90, 120, 0, 0},       {"grandchild", 12, 14, 1, 0},
  };
  const std::vector<std::uint64_t> self = self_times_ns(spans);
  expect(self[0] == 50, "parent self = 100 - (30 + 10 + 10)");
  expect(self[1] == 18, "child self excludes its grandchild");
  expect(self[5] == 2, "leaf self is its duration");

  Tracer& t = tracer();
  t.enable(true);
  const std::size_t before = t.spans().size();
  {
    const ScopedSpan outer("outer", 1);
    const ScopedSpan inner("inner", 2);
  }
  const std::vector<Span> recorded = t.spans();
  t.enable(false);
  expect(recorded.size() == before + 2, "two spans recorded");
  if (recorded.size() == before + 2) {
    expect(recorded[before + 1].parent == static_cast<std::int64_t>(before),
           "inner span's parent is the outer span");
    expect(recorded[before].end_ns >= recorded[before + 1].end_ns,
           "outer span ends last");
  }
  { const ScopedSpan off("off", 3); }
  expect(t.spans().size() == recorded.size(), "disabled tracer is silent");
}

void point_line_checks() {
  const std::string line =
      R"({"scenario":"x","success":1,"trial_seconds":{"mean":0.1},"wall_seconds":2})";
  expect(strip_timing(line) == R"({"scenario":"x","success":1,)",
         "strip_timing cuts at trial_seconds");
  expect(client_error_text("--eps: bad") == "flipsvc server: --eps: bad",
         "client error text carries the CLI message");

  // Served lines differ from the in-process ones only in timing fields;
  // one wrong line and one wrong rejection must fail, nothing else.
  const std::string served = R"({"a":1,"trial_seconds":{"mean":0.5}})";
  const std::string local = R"({"a":1,"trial_seconds":{"mean":0.9}})";
  Expected valid;
  valid.lines = 1;
  valid.lines_digest = fnv1a(strip_timing(local));
  Expected invalid;
  invalid.error = "--eps: bad";
  RequestRecord good;
  good.lines = 1;
  good.lines_digest = fnv1a(strip_timing(served));
  RequestRecord wrong = good;
  wrong.lines_digest = fnv1a(R"({"a":2,)");
  RequestRecord rejected;
  rejected.variant = 1;
  rejected.error = client_error_text(invalid.error);
  RequestRecord misrejected = rejected;
  misrejected.error = client_error_text("--eps: other");
  ServiceLoop loop;
  loop.records = {good, wrong, rejected, misrejected};
  OpStats stats;
  const std::size_t busy = check_service_loop(loop, {valid, invalid}, stats);
  expect(stats.failed == 2 && busy == 0,
         "the service check fails the wrong line and the wrong rejection");
}

}  // namespace

int run_selftests() {
  g_failures = 0;
  percentile_rule();
  digest_checks();
  span_self_time();
  point_line_checks();
  std::cout << (g_failures == 0 ? "selftest: ok" : "selftest: FAILED") << " ("
            << g_failures << " failures)\n";
  return g_failures;
}

}  // namespace perfbench
