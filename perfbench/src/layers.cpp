#include "layers.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "cli/report.hpp"
#include "cli/sweep.hpp"
#include "cli/wire.hpp"
#include "core/breathe.hpp"
#include "core/params.hpp"
#include "net/channel.hpp"
#include "net/frame.hpp"
#include "net/service.hpp"
#include "service_loop.hpp"
#include "sim/batch_engine.hpp"
#include "sim/surrogate_engine.hpp"
#include "simd/simd.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/registry.hpp"

namespace perfbench {

namespace {

using flip::ThreadPool;

/// Shard count of the sharded probes: the ROADMAP's losing n=1024 case
/// runs 4 shards on the 4-worker shared pool.
constexpr std::size_t kProbeShards = 4;

/// Median over `batches` of the per-call time, in us, of `reps` calls.
template <typename Fn>
double median_call_us(int batches, int reps, Fn&& fn) {
  std::vector<double> us;
  for (int b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    for (int r = 0; r < reps; ++r) fn();
    us.push_back(ms_since(t0) * 1e3 / reps);
  }
  return median(std::move(us));
}

// --- util.thread_pool -----------------------------------------------------------

struct PoolProbe {
  double barrier_us_p50 = 0.0;
  double barrier_us_p90 = 0.0;
  double rendezvous_us_p50 = 0.0;
  double allocs_per_call = 0.0;
};

/// p50/p90 round trip, in us, of `call` after a warm-up.
template <typename Call>
std::pair<double, double> round_trip_us(Call&& call) {
  for (int i = 0; i < 200; ++i) call();
  std::vector<double> us;
  for (int i = 0; i < 3000; ++i) {
    const auto t0 = Clock::now();
    call();
    us.push_back(ms_since(t0) * 1e3);
  }
  return {percentile(us, 50.0), percentile(us, 90.0)};
}

/// parallel_for(4) on the pool the sharded phases use, two ways. With an
/// empty body the caller usually runs all four indices itself and then
/// drains its own queued chunks before a worker wakes: the bare call cost.
/// The rendezvous body makes every index wait until all four have started,
/// so four threads must take part: the cost of waking and joining the
/// workers. A 1 ms cap keeps a descheduled worker from stalling the probe.
PoolProbe probe_pool() {
  const ScopedSpan span("util.thread_pool");
  ThreadPool& pool = ThreadPool::shared();
  const auto empty = [&pool] { pool.parallel_for(4, [](std::size_t) {}); };
  std::atomic<int> arrived{0};
  const auto rendezvous = [&pool, &arrived] {
    arrived.store(0, std::memory_order_relaxed);
    pool.parallel_for(4, [&arrived](std::size_t) {
      arrived.fetch_add(1, std::memory_order_acq_rel);
      const auto cap = Clock::now() + std::chrono::milliseconds(1);
      while (arrived.load(std::memory_order_acquire) < 4 &&
             Clock::now() < cap) {
      }
    });
  };
  PoolProbe probe;
  std::tie(probe.barrier_us_p50, probe.barrier_us_p90) = round_trip_us(empty);
  probe.rendezvous_us_p50 = round_trip_us(rendezvous).first;
  constexpr int kCalls = 1000;
  const AllocWindow window;
  for (int i = 0; i < kCalls; ++i) empty();
  probe.allocs_per_call = static_cast<double>(window.count()) / kCalls;
  return probe;
}

// --- sim.batch_engine --------------------------------------------------------------

struct BreatheProbe {
  double trial_us = 0.0;  ///< median run_breathe wall time
  double round_us = 0.0;
  std::uint64_t rounds = 0;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::size_t stage2_phases = 0;
};

/// run_breathe directly on a caller-owned engine, at `shards`.
BreatheProbe probe_breathe(const Shape& shape, std::size_t shards,
                           std::uint64_t seed) {
  const ScopedSpan span("sim.batch_engine.run_breathe", shards);
  const flip::Params params = flip::Params::calibrated(shape.n, shape.eps);
  const flip::BreatheConfig config = flip::broadcast_config();
  flip::BinarySymmetricChannel channel(shape.eps);
  flip::BreatheRunOptions options;
  options.shards = shards;
  options.pool = shards > 1 ? &ThreadPool::shared() : nullptr;
  flip::BatchEngine engine;
  flip::BreatheFastResult result;
  engine.run_breathe(params, config, channel, flip::trial_stream_key(seed, 0),
                     false, options, result);
  std::vector<double> us;
  const auto start = Clock::now();
  for (std::uint64_t t = 1; us.size() < 3 || ms_since(start) < 400.0; ++t) {
    const auto t0 = Clock::now();
    engine.run_breathe(params, config, channel,
                       flip::trial_stream_key(seed, t), false, options, result);
    us.push_back(ms_since(t0) * 1e3);
  }
  BreatheProbe probe;
  probe.trial_us = median(us);
  probe.rounds = result.metrics.rounds;
  probe.round_us = probe.trial_us / static_cast<double>(probe.rounds);
  probe.sent = result.metrics.messages_sent;
  probe.delivered = result.metrics.delivered;
  probe.stage2_phases = result.stage2.size();
  return probe;
}

// --- sim.trial_arena -----------------------------------------------------------------

double allocs_per_warm_trial(const Shape& shape, std::size_t shards,
                             std::uint64_t seed) {
  const ScopedSpan span("sim.trial_arena", shards);
  const flip::TrialFn fn = make_trial_fn(shape, shards);
  for (std::size_t i = 0; i < 2; ++i) {
    [[maybe_unused]] const auto warm = fn(seed, i);
  }
  constexpr std::size_t kTrials = 4;
  const AllocWindow window;
  for (std::size_t i = 0; i < kTrials; ++i) {
    [[maybe_unused]] const auto out = fn(seed, 2 + i);
  }
  return static_cast<double>(window.count()) / kTrials;
}

// --- simd --------------------------------------------------------------------------

struct SimdProbe {
  double route_mdraw_s = 0.0;
  double flip_mdraw_s = 0.0;
};

SimdProbe probe_simd(std::uint64_t seed) {
  const ScopedSpan span("simd");
  const flip::simd::Kernels& kernels = flip::simd::active();
  constexpr std::size_t kBlock = 256;
  std::vector<std::uint32_t> entries(kBlock);
  for (std::size_t i = 0; i < kBlock; ++i) {
    entries[i] = static_cast<std::uint32_t>(derive_seed(seed, i) % 1024) |
                 (i % 2 == 0 ? 0x8000'0000u : 0u);
  }
  std::vector<std::uint32_t> recipients(kBlock);
  for (std::size_t i = 0; i < kBlock; ++i) {
    recipients[i] = entries[i] & flip::simd::kEntryAgentMask;
  }
  std::vector<std::uint32_t> to(kBlock);
  std::vector<std::uint64_t> words(kBlock);
  std::vector<std::uint8_t> flips(kBlock);
  const flip::StreamKey key = flip::trial_stream_key(seed, 0);
  // The kernels are called through function pointers into another
  // translation unit, so the compiler cannot drop the calls.
  constexpr int kReps = 2000;
  const double route_us = median_call_us(5, kReps, [&] {
    kernels.route_block(key.hi, key.lo, entries.data(), kBlock, 1023,
                        to.data(), words.data());
  });
  const double flip_us = median_call_us(5, kReps, [&] {
    kernels.flip_block(key.hi, key.lo, recipients.data(), kBlock,
                       flip::detail::bsc_flip_threshold(0.2), flips.data());
  });
  return SimdProbe{kBlock / route_us, kBlock / flip_us};
}

// --- net.frame -----------------------------------------------------------------------

/// One small frame written and echoed back over a socketpair.
double frame_rtt_us() {
  const ScopedSpan span("net.frame");
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw std::runtime_error("net.frame probe: socketpair failed");
  }
  std::thread echo([fd = fds[1]] {
    for (;;) {
      const flip::net::FrameResult frame = flip::net::read_frame(fd);
      if (frame.status != flip::net::FrameStatus::kOk) return;
      if (!flip::net::write_frame(fd, frame.payload)) return;
    }
  });
  std::vector<double> us;
  bool ok = true;
  for (int i = 0; ok && i < 3000; ++i) {
    const auto t0 = Clock::now();
    ok = flip::net::write_frame(fds[0], "ping") &&
         flip::net::read_frame(fds[0]).status == flip::net::FrameStatus::kOk;
    if (i >= 200) us.push_back(ms_since(t0) * 1e3);
  }
  ::shutdown(fds[0], SHUT_RDWR);
  echo.join();
  flip::net::close_fd(fds[0]);
  flip::net::close_fd(fds[1]);
  if (!ok) throw std::runtime_error("net.frame probe: echo failed");
  return median(std::move(us));
}

// --- net.service ----------------------------------------------------------------------

struct ServiceProbe {
  double first_frame_ms = 0.0;
  double reject_ms = 0.0;
  double busy_rejects = 0.0;
  double residual_ms = 0.0;
};

flip::cli::SweepRequest shape_request(const Shape& shape) {
  flip::cli::SweepRequest r;
  r.scenario = shape.scenario;
  r.ns = std::to_string(shape.n);
  r.trials = shape.threads;
  r.threads = shape.threads;
  r.shards = shape.shards;
  return r;
}

ServiceProbe probe_service(const Shape& shape, std::uint64_t seed,
                           bool daemon_mix, double frame_rtt,
                           OpStats& stats) {
  const ScopedSpan span("net.service");
  std::vector<MixedRequest> variants;
  std::vector<std::size_t> deck;
  std::size_t clients = 1;
  double seconds = 1.0;
  if (daemon_mix) {
    variants = daemon_variants(seed);
    deck = daemon_deck();
    clients = 2;
    seconds = 2.0;
  } else {
    variants.push_back(MixedRequest{RequestKind::kTiny, shape_request(shape)});
    MixedRequest bad{RequestKind::kInvalid, shape_request(shape)};
    bad.request.epss = "0.7";
    variants.push_back(bad);
    deck = {0, 0, 0, 1};
  }
  // In-process cost of every variant: median of five CLI-path answers.
  std::vector<Expected> expected;
  std::vector<double> inproc_ms;
  for (const MixedRequest& v : variants) {
    std::vector<Expected> reps;
    for (int r = 0; r < 5; ++r) reps.push_back(expected_answer(v.request));
    const auto med = [&reps](double Expected::*field) {
      std::vector<double> xs;
      for (const Expected& e : reps) xs.push_back(e.*field);
      return median(std::move(xs));
    };
    inproc_ms.push_back(med(&Expected::parse_resolve_us) / 1e3 +
                        med(&Expected::run_sweep_ms) +
                        med(&Expected::point_line_us) / 1e3 +
                        frame_rtt / 1e3);
    expected.push_back(std::move(reps.front()));
  }

  flip::net::SweepServer server;
  std::string error;
  if (!server.start(error)) {
    throw std::runtime_error("net.service probe: " + error);
  }
  const ServiceLoop loop = run_service_loop(server.port(), variants, deck,
                                            clients, seconds, seed);
  server.stop();
  OpStats checked;
  const std::size_t busy = check_service_loop(loop, expected, checked);
  stats.extra_attempts += loop.records.size();
  stats.failed += checked.failed;
  for (std::string& e : checked.errors) stats.errors.push_back(std::move(e));

  std::vector<double> first, reject, residual;
  for (const RequestRecord& r : loop.records) {
    if (variants[r.variant].kind == RequestKind::kInvalid) {
      reject.push_back(r.latency_ms);
    } else {
      first.push_back(r.first_frame_ms);
      residual.push_back(r.latency_ms - inproc_ms[r.variant]);
    }
  }
  ServiceProbe probe;
  probe.first_frame_ms = median(first);
  probe.reject_ms = median(reject);
  probe.busy_rejects = static_cast<double>(busy);
  probe.residual_ms = median(residual);
  return probe;
}

/// Synthetic run of the detail:: phase loops on arrays of one round's
/// shape: n senders, `shards` destination buckets.
struct PhaseLoopTimes {
  double route_ns = 0.0;          ///< route_scatter, per message sent
  double combine_ns = 0.0;        ///< combine_bucket, per message sent
  double deliver_ns = 0.0;        ///< deliver_stage2, per accepted message
  double route_combine_ns = 0.0;  ///< fused single-shard route, per message
};

PhaseLoopTimes time_phase_loops(std::size_t n, std::size_t shards,
                                std::uint64_t seed) {
  const ScopedSpan span("sim.batch_engine.phase_loops", n);
  namespace d = flip::detail;
  std::vector<std::uint32_t> send(n);
  for (std::size_t a = 0; a < n; ++a) {
    send[a] = static_cast<std::uint32_t>(a) |
              (derive_seed(seed, a) % 2 == 0 ? d::kSendBit : 0u);
  }
  const std::size_t block = (n + shards - 1) / shards;
  const std::uint64_t shard_mul = ~std::uint64_t{0} / block + 1;
  std::vector<std::vector<d::RoutedMsg>> out(shards);
  for (auto& bucket : out) bucket.reserve(n);
  std::vector<std::vector<flip::AgentId>> touched(
      shards, std::vector<flip::AgentId>(block + 1));
  std::vector<flip::AgentId> touched_all(n + 1);
  std::vector<std::size_t> tsize(shards, 0);
  std::vector<std::uint64_t> slot(n, d::kEmptySlot);
  std::vector<std::uint64_t> acc(n, 0);
  const flip::BinarySymmetricChannel channel(0.2);
  const d::CompleteRecipient recipient{n - 1};

  const std::size_t reps = std::max<std::size_t>(1, 2'000'000 / n);
  std::vector<double> route, combine, deliver, fused;
  for (int batch = 0; batch < 5; ++batch) {
    double t_route = 0, t_combine = 0, t_deliver = 0, t_fused = 0;
    std::uint64_t sent = 0, accepted = 0;
    for (std::size_t r = 0; r < reps; ++r) {
      const flip::StreamKey trial = flip::trial_stream_key(seed, r);
      const auto rkey =
          flip::round_stream_key(trial, flip::RngPurpose::kRoute, 0);
      const auto ckey =
          flip::round_stream_key(trial, flip::RngPurpose::kChannel, 0);
      auto t0 = Clock::now();
      sent += d::route_scatter<false>(send.data(), n, recipient, rkey,
                                      shard_mul, nullptr, out.data());
      auto t1 = Clock::now();
      for (std::size_t s = 0; s < shards; ++s) {
        tsize[s] = d::combine_bucket(out[s].data(), out[s].size(), slot.data(),
                                     touched[s].data(), 0);
      }
      auto t2 = Clock::now();
      for (std::size_t s = 0; s < shards; ++s) {
        accepted += tsize[s];
        [[maybe_unused]] const d::DeliverPartial p = d::deliver_stage2<false>(
            touched[s].data(), tsize[s], ckey, 10, nullptr, slot.data(),
            acc.data(), d::make_flip(channel));
      }
      auto t3 = Clock::now();
      t_route += seconds_between(t0, t1);
      t_combine += seconds_between(t1, t2);
      t_deliver += seconds_between(t2, t3);
      for (auto& bucket : out) bucket.clear();

      t0 = Clock::now();
      const d::RoutePartial fused_partial = d::route_combine<false>(
          send.data(), n, recipient, rkey, nullptr, slot.data(),
          touched_all.data());
      t1 = Clock::now();
      t_fused += seconds_between(t0, t1);
      for (std::size_t i = 0; i < fused_partial.touched; ++i) {
        slot[touched_all[i]] = d::kEmptySlot;
      }
    }
    const auto sent_d = static_cast<double>(sent);
    route.push_back(t_route * 1e9 / sent_d);
    combine.push_back(t_combine * 1e9 / sent_d);
    deliver.push_back(t_deliver * 1e9 / static_cast<double>(accepted));
    fused.push_back(t_fused * 1e9 / sent_d);
  }
  return PhaseLoopTimes{median(route), median(combine), median(deliver),
                        median(fused)};
}

}  // namespace

std::vector<Metric> measure_layers(const Shape& shape, std::uint64_t seed,
                                   bool daemon_mix, OpStats& stats) {
  std::vector<Metric> m;
  const auto add = [&m](const char* name, double value, const char* unit) {
    m.push_back(Metric{name, value, unit});
  };

  // util.thread_pool + sim.batch_engine at shards 1 and 4. Every workload's
  // cell is also run sharded 4 ways on the shared pool, whatever shard
  // count the workload itself uses: the phase-barrier costs of sharding.
  const PoolProbe pool = probe_pool();
  const BreatheProbe s1 = probe_breathe(shape, 1, derive_seed(seed, 501));
  const BreatheProbe s4 =
      probe_breathe(shape, kProbeShards, derive_seed(seed, 501));
  // Phase barriers per 4-shard trial: one parallel_for per round phase
  // (route and deliver; the shapes run no churn phase) and one per Stage II
  // phase end.
  const double barriers =
      static_cast<double>(2 * s4.rounds + s4.stage2_phases);
  add("util.thread_pool.barrier_us_p50", pool.barrier_us_p50, "us");
  add("util.thread_pool.barrier_us_p90", pool.barrier_us_p90, "us");
  add("util.thread_pool.rendezvous_us_p50", pool.rendezvous_us_p50, "us");
  add("util.thread_pool.allocs_per_call", pool.allocs_per_call, "count");
  add("util.thread_pool.barriers_per_trial", barriers, "count");
  add("util.thread_pool.barrier_share",
      barriers * pool.barrier_us_p50 / s4.trial_us, "ratio");
  // What sharding costs per phase barrier: the 4-shard trial's extra wall
  // time over the 1-shard trial of the same cell.
  add("util.thread_pool.excess_us_per_barrier",
      (s4.trial_us - s1.trial_us) / barriers, "us");

  add("sim.trial_arena.allocs_per_trial_s1",
      allocs_per_warm_trial(shape, 1, derive_seed(seed, 502)), "count");
  add("sim.trial_arena.allocs_per_trial_s4",
      allocs_per_warm_trial(shape, kProbeShards, derive_seed(seed, 502)),
      "count");

  const PhaseLoopTimes loops =
      time_phase_loops(shape.n, kProbeShards, derive_seed(seed, 503));
  const PhaseLoopTimes loops_100k =
      time_phase_loops(100'000, kProbeShards, derive_seed(seed, 504));
  // Sharding changes no count, so both trials send and deliver the same.
  const auto sent = static_cast<double>(s4.sent);
  const auto delivered = static_cast<double>(s4.delivered);
  // The loops' share of the 4-shard run_breathe: per-message costs times
  // the trial's message counts, spread over the shards that run them in
  // parallel.
  const double explained_ns = ((loops.route_ns + loops.combine_ns) * sent +
                               loops.deliver_ns * delivered) /
                              static_cast<double>(kProbeShards);
  add("sim.batch_engine.round_us_s1", s1.round_us, "us");
  add("sim.batch_engine.round_us_s4", s4.round_us, "us");
  add("sim.batch_engine.msgs_per_trial", sent, "count");
  add("sim.batch_engine.accept_ratio", delivered / sent, "ratio");
  add("sim.batch_engine.route_ns_per_msg", loops.route_ns, "ns");
  add("sim.batch_engine.combine_ns_per_msg", loops.combine_ns, "ns");
  add("sim.batch_engine.deliver_ns_per_msg", loops.deliver_ns, "ns");
  add("sim.batch_engine.route_combine_ns_per_msg", loops.route_combine_ns,
      "ns");
  add("sim.batch_engine.phase_sum_share",
      explained_ns / (s4.trial_us * 1e3), "ratio");
  add("sim.batch_engine.route_ns_per_msg_n100k", loops_100k.route_ns, "ns");
  add("sim.batch_engine.combine_ns_per_msg_n100k", loops_100k.combine_ns,
      "ns");
  add("sim.batch_engine.deliver_ns_per_msg_n100k", loops_100k.deliver_ns,
      "ns");

  const SimdProbe simd = probe_simd(derive_seed(seed, 505));
  add("simd.isa", static_cast<double>(flip::simd::active_isa()), "id");
  add("simd.route_mdraw_s", simd.route_mdraw_s, "Mdraw/s");
  add("simd.flip_mdraw_s", simd.flip_mdraw_s, "Mdraw/s");

  {
    const ScopedSpan span("sim.surrogate_engine");
    flip::SurrogateSpec spec;
    spec.n = 1'000'000'000;
    spec.eps = 0.2;
    add("sim.surrogate_engine.eval_ms",
        median_call_us(11, 3,
                       [&spec] {
                         [[maybe_unused]] const auto r =
                             flip::run_surrogate(spec);
                       }) /
            1e3,
        "ms");
  }

  {
    const ScopedSpan span("workload.make");
    add("workload.make_us",
        median_call_us(9, 20, [&shape] {
          [[maybe_unused]] const auto fn = make_trial_fn(shape, shape.shards);
        }),
        "us");
  }

  {
    const ScopedSpan span("sim.trial");
    flip::TrialOptions options;
    options.trials = 4 * shape.threads;
    options.master_seed = derive_seed(seed, 506);
    options.pool = &ThreadPool::sized(shape.threads);
    const flip::TrialFn fn = make_trial_fn(shape, shape.shards);
    std::vector<double> idle;
    for (int r = 0; r < 5; ++r) {
      const flip::TrialSummary s = flip::run_trials(fn, options);
      const double busy = s.trial_seconds.mean() * static_cast<double>(s.trials);
      idle.push_back(1.0 - busy / (static_cast<double>(shape.threads) *
                                   s.wall_seconds));
    }
    add("sim.trial.idle_frac", median(std::move(idle)), "ratio");
  }

  flip::cli::SweepSpec sweep;
  sweep.scenario = shape.scenario;
  sweep.ns = {shape.n};
  sweep.trials = shape.threads;
  sweep.threads = shape.threads;
  sweep.shards = shape.shards;
  sweep.seed = derive_seed(seed, 507);
  flip::cli::SweepResult last;
  {
    const ScopedSpan span("cli.sweep");
    std::vector<double> overhead;
    for (int r = 0; r < 5; ++r) {
      last = flip::cli::run_sweep(sweep);
      double cells = 0.0;
      for (const auto& p : last.points) cells += p.summary.wall_seconds;
      overhead.push_back((last.wall_seconds - cells) * 1e3);
    }
    add("cli.sweep.overhead_ms", median(std::move(overhead)), "ms");
  }

  const double rtt = frame_rtt_us();
  add("net.frame.rtt_us", rtt, "us");

  {
    const ScopedSpan span("cli.wire");
    const std::string text =
        flip::cli::encode_sweep_request(shape_request(shape));
    add("cli.wire.parse_resolve_us",
        median_call_us(9, 50,
                       [&text] {
                         std::string error;
                         flip::cli::SweepSpec spec;
                         const auto req =
                             flip::cli::parse_sweep_request(text, error);
                         if (!req || flip::cli::resolve_sweep_request(*req,
                                                                      spec)) {
                           throw std::runtime_error("cli.wire probe: reject");
                         }
                       }),
        "us");
  }

  {
    const ScopedSpan span("cli.report");
    const flip::cli::SweepPoint& point = last.points.at(0);
    add("cli.report.point_line_us",
        median_call_us(9, 200,
                       [&point] {
                         [[maybe_unused]] const std::string line =
                             flip::cli::sweep_point_line(point);
                       }),
        "us");
  }

  const ServiceProbe service =
      probe_service(shape, derive_seed(seed, 508), daemon_mix, rtt, stats);
  add("net.service.first_frame_ms", service.first_frame_ms, "ms");
  add("net.service.reject_ms", service.reject_ms, "ms");
  add("net.service.busy_rejects", service.busy_rejects, "count");
  add("net.service.residual_ms", service.residual_ms, "ms");
  return m;
}

}  // namespace perfbench
