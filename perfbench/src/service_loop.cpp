#include "service_loop.hpp"

#include <exception>
#include <optional>
#include <stdexcept>
#include <thread>

#include "cli/report.hpp"
#include "cli/sweep.hpp"
#include "net/service.hpp"
#include "probe.hpp"

namespace perfbench {

namespace {

/// The surrogate variants' grid: a large-n sweep over the noise levels,
/// sized so that one request costs about as much as a tiny one.
constexpr const char* kSurrogateNs = "1000000,10000000,100000000,1000000000";
constexpr const char* kSurrogateEpss = "0.1,0.2,0.3,0.4";

}  // namespace

std::vector<MixedRequest> daemon_variants(std::uint64_t seed) {
  std::vector<MixedRequest> v;
  // Every request leaves `threads` at its default, the server's shared
  // pool, and has enough trials to keep it busy: the compute then spreads
  // over every core, as in a served sweep, rather than riding on one.
  const auto add = [&v](RequestKind kind, flip::cli::SweepRequest r) {
    v.push_back(MixedRequest{kind, std::move(r)});
  };
  for (std::uint64_t i = 0; i < 4; ++i) {  // variants 0..3
    flip::cli::SweepRequest r;
    r.scenario = "broadcast_small";
    r.ns = "256";
    r.trials = 8;
    r.seed = derive_seed(seed, 200 + i);
    add(RequestKind::kTiny, r);
  }
  for (std::uint64_t i = 0; i < 2; ++i) {  // variants 4..5
    flip::cli::SweepRequest r;
    r.scenario = "majority";
    r.ns = "1024";
    r.trials = 4;
    r.seed = derive_seed(seed, 300 + i);
    add(RequestKind::kMajority, r);
  }
  for (std::uint64_t i = 0; i < 2; ++i) {  // variants 6..7
    flip::cli::SweepRequest r;
    r.scenario = "broadcast";
    r.ns = kSurrogateNs;
    r.epss = kSurrogateEpss;
    r.engine = "surrogate";
    r.trials = 16;
    r.seed = derive_seed(seed, 400 + i);
    add(RequestKind::kSurrogate, r);
  }
  // Variants 8..11: each fails a different argument-layer check.
  flip::cli::SweepRequest bad_eps;
  bad_eps.scenario = "broadcast_small";
  bad_eps.epss = "0.7";
  add(RequestKind::kInvalid, bad_eps);
  flip::cli::SweepRequest bad_shards;
  bad_shards.scenario = "broadcast_small";
  bad_shards.shards = 0;
  add(RequestKind::kInvalid, bad_shards);
  flip::cli::SweepRequest bad_scenario;
  bad_scenario.scenario = "broadcast_nonexistent";
  add(RequestKind::kInvalid, bad_scenario);
  flip::cli::SweepRequest bad_engine;
  bad_engine.scenario = "majority";
  bad_engine.engine = "warp";
  add(RequestKind::kInvalid, bad_engine);
  return v;
}

std::vector<std::size_t> daemon_deck() {
  std::vector<std::size_t> deck;
  for (std::size_t i = 0; i < 20; ++i) deck.push_back(i % 4);
  for (std::size_t i = 0; i < 4; ++i) deck.push_back(4 + i % 2);
  for (std::size_t i = 0; i < 10; ++i) deck.push_back(6 + i % 2);
  for (std::size_t i = 0; i < 6; ++i) deck.push_back(8 + i % 4);
  return deck;
}

namespace {

/// Fisher-Yates with the benchmark's own generator, so the order is the
/// same with every standard library.
void shuffle(std::vector<std::size_t>& deck, std::uint64_t& state) {
  for (std::size_t i = deck.size(); i > 1; --i) {
    state = derive_seed(state, i);
    std::swap(deck[i - 1], deck[state % i]);
  }
}

}  // namespace

ServiceLoop run_service_loop(std::uint16_t port,
                             const std::vector<MixedRequest>& variants,
                             const std::vector<std::size_t>& deck,
                             std::size_t clients, double seconds,
                             std::uint64_t seed) {
  std::vector<std::vector<RequestRecord>> per_client(clients);
  std::vector<std::exception_ptr> failures(clients);
  const double cpu0 = process_cpu_seconds();
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        try {
          flip::net::SweepClient client(port);
          std::vector<std::size_t> order = deck;
          std::uint64_t state = derive_seed(seed, c);
          std::vector<RequestRecord>& out = per_client[c];
          for (std::size_t k = 0; Clock::now() < deadline; ++k) {
            if (k % order.size() == 0) shuffle(order, state);
            RequestRecord rec;
            rec.variant = order[k % order.size()];
            const std::uint64_t id = (static_cast<std::uint64_t>(c) << 32) | k;
            const ScopedSpan span("net.service.request", id);
            std::int64_t first = tracer().begin("net.service.first_frame", id);
            const auto t0 = Clock::now();
            try {
              [[maybe_unused]] const std::string done = client.run_sweep(
                  variants[rec.variant].request,
                  [&](std::size_t, const std::string& line) {
                    if (rec.lines++ == 0) {
                      rec.first_frame_ms = ms_since(t0);
                      tracer().end(first);
                      first = -1;
                    }
                    rec.lines_digest =
                        fnv1a(strip_timing(line), rec.lines_digest);
                  });
            } catch (const std::runtime_error& e) {
              rec.error = e.what();
            }
            rec.latency_ms = ms_since(t0);
            tracer().end(first);
            out.push_back(std::move(rec));
          }
        } catch (...) {
          failures[c] = std::current_exception();
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (const std::exception_ptr& e : failures) {
    if (e) std::rethrow_exception(e);
  }
  ServiceLoop loop;
  loop.wall_s = seconds_between(start, Clock::now());
  loop.cpu_s = process_cpu_seconds() - cpu0;
  for (std::vector<RequestRecord>& records : per_client) {
    for (RequestRecord& r : records) loop.records.push_back(std::move(r));
  }
  return loop;
}

std::string_view strip_timing(std::string_view line) {
  return line.substr(0, line.find("\"trial_seconds\""));
}

std::string client_error_text(const std::string& reject) {
  return "flipsvc server: " + reject;
}

Expected expected_answer(const flip::cli::SweepRequest& request) {
  Expected expected;
  const std::string text = flip::cli::encode_sweep_request(request);
  auto t0 = Clock::now();
  std::string error;
  const auto parsed = flip::cli::parse_sweep_request(text, error);
  flip::cli::SweepSpec spec;
  std::optional<std::string> reject;
  if (!parsed) {
    reject = error;
  } else {
    reject = flip::cli::resolve_sweep_request(*parsed, spec);
  }
  expected.parse_resolve_us = ms_since(t0) * 1e3;
  if (reject) {
    expected.error = *reject;
    return expected;
  }
  t0 = Clock::now();
  const flip::cli::SweepResult result = flip::cli::run_sweep(spec);
  expected.run_sweep_ms = ms_since(t0);
  t0 = Clock::now();
  std::vector<std::string> lines;
  for (const flip::cli::SweepPoint& point : result.points) {
    lines.push_back(flip::cli::sweep_point_line(point));
  }
  expected.point_line_us = ms_since(t0) * 1e3;
  for (const std::string& line : lines) {
    expected.lines_digest = fnv1a(strip_timing(line), expected.lines_digest);
  }
  expected.lines = lines.size();
  return expected;
}

std::size_t check_service_loop(const ServiceLoop& loop,
                               const std::vector<Expected>& expected,
                               OpStats& stats) {
  std::size_t busy = 0;
  for (std::size_t i = 0; i < loop.records.size(); ++i) {
    const RequestRecord& r = loop.records[i];
    const Expected& want = expected[r.variant];
    const std::string where =
        "request " + std::to_string(i) + " (variant " +
        std::to_string(r.variant) + ")";
    if (r.error.find("server busy") != std::string::npos) {
      ++busy;
      stats.fail(where + ": refused busy");
      continue;
    }
    if (!want.error.empty()) {
      if (r.error != client_error_text(want.error)) {
        stats.fail(where + ": expected rejection '" + want.error +
                   "', got '" + r.error + "'");
      }
      continue;
    }
    if (!r.error.empty()) {
      stats.fail(where + ": " + r.error);
      continue;
    }
    if (r.lines != want.lines || r.lines_digest != want.lines_digest) {
      stats.fail(where + ": point lines differ from run_sweep");
    }
  }
  return busy;
}

}  // namespace perfbench
