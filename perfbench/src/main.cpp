// perfbench: the repository benchmark binary. See perfbench/README.md.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>] [--git-rev <rev>]
//   perfbench --selftest
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the workload
// half untraced, half traced (the difference is the tracing overhead), then
// the per-layer probes, and writes every span to --spans. Report lines start
// with '#'; the last line of stdout is the JSON result. Exit code 0 only
// when every output check passed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "layers.hpp"
#include "probe.hpp"
#include "selftest.hpp"
#include "simd/simd.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metric;
using perfbench::OpStats;

/// Fixture set-ups per run; their median is setup_s.
constexpr int kSetupReps = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string spans;
  std::string git_rev = "unknown";
  bool selftest = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args.selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value);
      } else if (flag == "--spans") {
        args.spans = value;
      } else if (flag == "--git-rev") {
        args.git_rev = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return args.selftest || (!args.workload.empty() && args.seconds > 0.0 &&
                           (args.trace == 0 || args.trace == 1));
}

/// What one operation is in each workload's report lines.
const char* op_noun(const std::string& workload) {
  return workload == "daemon_mix" ? "req" : "cell";
}

void report_ops(const std::string& workload, const char* label,
                const OpStats& s) {
  const std::size_t n = s.latency_ms.size();
  const double tail = perfbench::tail_percentile(n);
  const std::string noun = op_noun(workload);
  std::printf("# %s: %zu %ss in %.3f s, %s_per_s=%.6g %s_p50_ms=%.6g "
              "%s_p90_ms=%.6g\n",
              label, n, noun.c_str(), s.wall_s, noun.c_str(),
              static_cast<double>(n) / s.wall_s, noun.c_str(),
              perfbench::percentile(s.latency_ms, 50.0), noun.c_str(),
              perfbench::percentile(s.latency_ms, 90.0));
  if (tail > 0.0) {
    std::printf("# %s: tail rule (>=10 samples beyond): %s_p%g_ms=%.6g over "
                "%zu samples\n",
                label, noun.c_str(), tail,
                perfbench::percentile(s.latency_ms, tail), n);
  }
  if (n >= 1000) {
    std::printf("# %s: %s_p99_ms=%.6g\n", label, noun.c_str(),
                perfbench::percentile(s.latency_ms, 99.0));
  }
  for (const auto& [name, value] : s.extra) {
    std::printf("# %s: %s=%g\n", label, name.c_str(), value);
  }
  for (const std::string& e : s.errors) {
    std::printf("# %s: CHECK FAILED: %s\n", label, e.c_str());
  }
}

/// Per-name span totals: calls, wall and self time.
void report_spans(const std::vector<perfbench::Span>& spans) {
  const std::vector<std::uint64_t> self = perfbench::self_times_ns(spans);
  struct Row {
    std::size_t calls = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Row& row = rows[spans[i].name];
    ++row.calls;
    row.total_ms +=
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-6;
    row.self_ms += static_cast<double>(self[i]) * 1e-6;
  }
  std::printf("# spans: %-36s %8s %12s %12s\n", "name", "calls", "total_ms",
              "self_ms");
  for (const auto& [name, row] : rows) {
    std::printf("# spans: %-36s %8zu %12.3f %12.3f\n", name.c_str(), row.calls,
                row.total_ms, row.self_ms);
  }
}

std::string json_result(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << '"' << metrics[i].name
        << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans <path>] [--git-rev <rev>]\n"
                 "       perfbench --selftest\n";
    return 2;
  }
  if (args.selftest) return perfbench::run_selftests() == 0 ? 0 : 1;

  auto workload = perfbench::make_workload(args.workload, args.seed);
  if (!workload) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "nproc=%u isa=%s build=%s git_rev=%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace, std::thread::hardware_concurrency(),
              flip::simd::isa_name(flip::simd::active_isa()),
              PERFBENCH_BUILD_TYPE, args.git_rev.c_str());

  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  try {
    std::vector<double> setup_s;
    for (int r = 0; r < kSetupReps; ++r) {
      const auto t0 = perfbench::Clock::now();
      workload->setup();
      setup_s.push_back(perfbench::ms_since(t0) / 1e3);
    }
    const double setup = perfbench::median(setup_s);
    std::printf("# setup: median %.6g s over %zu set-ups\n", setup,
                setup_s.size());

    if (args.trace == 0) {
      OpStats s = workload->run(args.seconds, 0);
      workload->check(s);
      report_ops(args.workload, "untraced", s);
      const auto n = static_cast<double>(s.latency_ms.size());
      metrics = {
          {"setup_s", setup, "s"},
          {"ops_per_s", n / s.wall_s, "1/s"},
          {"op_p50_ms", perfbench::percentile(s.latency_ms, 50.0), "ms"},
          {"op_p90_ms", perfbench::percentile(s.latency_ms, 90.0), "ms"},
          {"cpu_ms_per_op", s.cpu_s * 1e3 / n, "ms"},
          {"peak_rss_mb", perfbench::peak_rss_mb(), "MiB"},
      };
      attempted = s.latency_ms.size();
      failed = s.failed;
    } else {
      OpStats plain = workload->run(args.seconds / 2, 0);
      workload->check(plain);
      perfbench::tracer().enable(true);
      OpStats traced = workload->run(args.seconds / 2, 1);
      workload->check(traced);
      metrics = perfbench::measure_layers(workload->shape(), args.seed,
                                          args.workload == "daemon_mix",
                                          traced);
      perfbench::tracer().enable(false);
      report_ops(args.workload, "untraced", plain);
      report_ops(args.workload, "traced", traced);
      const double p50_plain = perfbench::percentile(plain.latency_ms, 50.0);
      const double p50_traced = perfbench::percentile(traced.latency_ms, 50.0);
      const std::vector<perfbench::Span> spans = perfbench::tracer().spans();
      metrics.push_back({"trace.overhead_pct",
                         (p50_traced - p50_plain) / p50_plain * 100.0, "%"});
      metrics.push_back(
          {"trace.spans", static_cast<double>(spans.size()), "count"});
      report_spans(spans);
      if (!args.spans.empty() && !perfbench::tracer().write_jsonl(args.spans)) {
        std::printf("# spans: cannot write %s\n", args.spans.c_str());
      }
      attempted = plain.latency_ms.size() + traced.latency_ms.size() +
                  traced.extra_attempts;
      failed = plain.failed + traced.failed;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  for (Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::printf("# metric %s is not finite\n", m.name.c_str());
      m.value = 0.0;
      ++failed;
    }
    std::printf("# metric %-44s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("# failed_frac=%.6g (%llu of %llu)\n",
              attempted ? static_cast<double>(failed) /
                              static_cast<double>(attempted)
                        : 0.0,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  const bool correct = failed == 0 && attempted > 0;
  std::printf("%s\n", json_result(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
