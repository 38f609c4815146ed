// The sweep service stack (docs/SERVICE.md), bottom up: the flipsvc/1
// request text round-trips through encode/parse; resolve_sweep_request
// rejects with the exact messages the flipsim CLI prints; flipchk/1
// checkpoints round-trip and exclude the resume position from the
// spec-match identity; the ring buffer and the length-prefixed framing
// hold their small contracts; and a real server over loopback answers
// ping, streams sweeps, propagates validation errors, and shuts down
// cleanly.
//
// The load-bearing test is the differential one: for EVERY registry entry,
// the lines a served sweep streams back are byte-identical to the lines a
// local one-shot run renders, up to the trailing timing fields (the only
// nondeterministic bytes in a point line — cli/report.hpp pins them last
// for exactly this comparison). That is the service's whole correctness
// claim: resident arenas and a warm pool must not change one byte of
// results.

#include "net/service.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cli/report.hpp"
#include "cli/sweep.hpp"
#include "cli/wire.hpp"
#include "net/frame.hpp"
#include "net/ring_buffer.hpp"
#include "workload/registry.hpp"

namespace flip {
namespace {

using cli::Checkpoint;
using cli::SweepRequest;
using cli::SweepSpec;
using cli::WireCommand;

/// Truncates a point line at its trailing timing fields, the only
/// nondeterministic bytes (see sweep_point_line's contract).
std::string strip_timing(const std::string& line) {
  const std::size_t pos = line.find("\"trial_seconds\"");
  return pos == std::string::npos ? line : line.substr(0, pos);
}

/// The locally-rendered point lines of a sweep, via the same emitter the
/// server streams through.
std::vector<std::string> local_point_lines(SweepSpec spec) {
  spec.collect_points = false;
  std::vector<std::string> lines;
  cli::run_sweep(spec, [&](std::size_t, const cli::SweepPoint& point) {
    lines.push_back(cli::sweep_point_line(point));
  });
  return lines;
}

// --- wire text ------------------------------------------------------------

TEST(WireTest, EncodeOmitsDefaultedFields) {
  SweepRequest request;
  request.scenario = "broadcast_small";
  EXPECT_EQ(cli::encode_sweep_request(request),
            "flipsvc/1 sweep\nscenario=broadcast_small\n");
}

TEST(WireTest, EncodeParseRoundTripsEveryField) {
  SweepRequest request;
  request.scenario = "broadcast";
  request.ns = "128,256";
  request.epss = "0.2,0.3";
  request.channels = "bsc,heterogeneous";
  request.trials = 7;
  request.seed = 0xabcdef;
  request.threads = 2;
  request.shards = 8;
  request.engine = "classic";
  request.schedule = "step:100:0.1";
  request.churn = "0.01:0.2";
  request.topology = "ring:8";
  request.resume_from = 3;
  std::string error;
  const auto parsed =
      cli::parse_sweep_request(cli::encode_sweep_request(request), error);
  ASSERT_TRUE(parsed.has_value()) << error;
  // Round-trip identity is the canonical-encoding contract the checkpoint
  // spec-match rule rests on.
  EXPECT_EQ(cli::encode_sweep_request(*parsed),
            cli::encode_sweep_request(request));
  EXPECT_EQ(parsed->scenario, "broadcast");
  EXPECT_EQ(parsed->trials, 7u);
  EXPECT_EQ(parsed->seed, 0xabcdefULL);
  EXPECT_EQ(parsed->shards, 8u);
  EXPECT_EQ(parsed->engine, "classic");
  EXPECT_EQ(parsed->resume_from, 3u);
}

TEST(WireTest, ParseRejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(cli::parse_sweep_request("", error).has_value());
  EXPECT_FALSE(
      cli::parse_sweep_request("flipsvc/2 sweep\n", error).has_value());
  EXPECT_NE(error.find("unsupported protocol"), std::string::npos);
  EXPECT_FALSE(
      cli::parse_sweep_request("flipsvc/1 dance\n", error).has_value());
  EXPECT_NE(error.find("unknown command"), std::string::npos);
  EXPECT_FALSE(cli::parse_sweep_request("flipsvc/1 sweep\nbogus=1\n", error)
                   .has_value());
  EXPECT_NE(error.find("unknown key"), std::string::npos);
  EXPECT_FALSE(cli::parse_sweep_request("flipsvc/1 sweep\ntrials=soon\n",
                                        error)
                   .has_value());
  EXPECT_NE(error.find("bad number"), std::string::npos);
  EXPECT_FALSE(cli::parse_sweep_request("flipsvc/1 sweep\nno-equals\n", error)
                   .has_value());
  EXPECT_NE(error.find("key=value"), std::string::npos);
}

TEST(WireTest, ResolveRejectsWithTheCliMessages) {
  SweepRequest request;
  request.scenario = "broadcast_small";
  SweepSpec spec;

  request.epss = "0.9";
  auto reject = cli::resolve_sweep_request(request, spec);
  ASSERT_TRUE(reject.has_value());
  EXPECT_EQ(*reject, *cli::validate_eps_values({0.9}));

  request.epss = "0.3";
  request.engine = "quantum";
  reject = cli::resolve_sweep_request(request, spec);
  ASSERT_TRUE(reject.has_value());
  EXPECT_EQ(*reject,
            "--engine: unknown mode 'quantum' (batch | classic | surrogate)");

  request.engine = "batch";
  request.schedule = "nonsense";
  reject = cli::resolve_sweep_request(request, spec);
  ASSERT_TRUE(reject.has_value());
  EXPECT_EQ(reject->rfind("--schedule: ", 0), 0u) << *reject;

  request.schedule.clear();
  request.shards = 100000;
  reject = cli::resolve_sweep_request(request, spec);
  ASSERT_TRUE(reject.has_value());
  EXPECT_EQ(*reject, *cli::validate_shards(100000));
}

TEST(WireTest, ResolveFillsTheSpec) {
  SweepRequest request;
  request.scenario = "broadcast_small";
  request.ns = "128,256";
  request.trials = 5;
  request.seed = 99;
  request.shards = 4;
  request.resume_from = 1;
  SweepSpec spec;
  ASSERT_FALSE(cli::resolve_sweep_request(request, spec).has_value());
  EXPECT_EQ(spec.scenario, "broadcast_small");
  EXPECT_EQ(spec.ns, (std::vector<std::size_t>{128, 256}));
  EXPECT_EQ(spec.trials, 5u);
  EXPECT_EQ(spec.seed, 99u);
  EXPECT_EQ(spec.shards, 4u);
  EXPECT_EQ(spec.first_cell, 1u);
}

// --- checkpoints ----------------------------------------------------------

TEST(CheckpointTest, RoundTripsAndExcludesResumePosition) {
  SweepRequest request;
  request.scenario = "broadcast_small";
  request.ns = "128,256,512";
  request.trials = 2;
  const std::string text = cli::encode_checkpoint(request, 2, 3);
  std::string error;
  const auto checkpoint = cli::parse_checkpoint(text, error);
  ASSERT_TRUE(checkpoint.has_value()) << error;
  EXPECT_EQ(checkpoint->next_cell, 2u);
  EXPECT_EQ(checkpoint->grid_cells, 3u);
  EXPECT_EQ(cli::encode_sweep_request(checkpoint->request),
            cli::encode_sweep_request(request));

  // The resume position is the checkpoint's own state, not part of the
  // sweep's identity: a request already carrying resume_from writes the
  // same file, so resuming twice still matches.
  SweepRequest resumed = request;
  resumed.resume_from = 2;
  EXPECT_EQ(cli::encode_checkpoint(resumed, 2, 3), text);
}

TEST(CheckpointTest, RejectsGarbage) {
  std::string error;
  EXPECT_FALSE(cli::parse_checkpoint("not a checkpoint", error).has_value());
  EXPECT_FALSE(
      cli::parse_checkpoint("flipchk/1 grid=3\nflipsvc/1 sweep\n", error)
          .has_value());
  EXPECT_NE(error.find("next_cell"), std::string::npos);
  EXPECT_FALSE(
      cli::parse_checkpoint("flipchk/1 next_cell=x\n", error).has_value());
}

// --- ring buffer ----------------------------------------------------------

TEST(RingBufferTest, FifoWithinCapacityAndRejectsWhenFull) {
  net::RingBuffer<int> ring(2);
  EXPECT_EQ(ring.capacity(), 2u);
  EXPECT_TRUE(ring.try_push(1));
  EXPECT_TRUE(ring.try_push(2));
  EXPECT_FALSE(ring.try_push(3)) << "full ring must shed load, not block";
  EXPECT_EQ(ring.pop(), std::optional<int>(1));
  EXPECT_TRUE(ring.try_push(4));  // wraps
  EXPECT_EQ(ring.pop(), std::optional<int>(2));
  EXPECT_EQ(ring.pop(), std::optional<int>(4));
  EXPECT_EQ(ring.size(), 0u);
}

TEST(RingBufferTest, CloseDrainsAcceptedJobsThenEndsStream) {
  net::RingBuffer<int> ring(4);
  EXPECT_TRUE(ring.try_push(7));
  ring.close();
  EXPECT_FALSE(ring.try_push(8));
  EXPECT_EQ(ring.pop(), std::optional<int>(7))
      << "close() must not drop acknowledged work";
  EXPECT_EQ(ring.pop(), std::nullopt);
}

TEST(RingBufferTest, CloseWakesABlockedPop) {
  net::RingBuffer<int> ring(1);
  std::optional<int> popped = std::nullopt;
  std::thread consumer([&] { popped = ring.pop(); });
  ring.close();
  consumer.join();
  EXPECT_EQ(popped, std::nullopt);
}

// --- framing --------------------------------------------------------------

struct FdPair {
  int a = -1;
  int b = -1;
  FdPair() {
    int fds[2];
    EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~FdPair() {
    net::close_fd(a);
    net::close_fd(b);
  }
};

TEST(FrameTest, RoundTripsPayloads) {
  FdPair pair;
  ASSERT_TRUE(net::write_frame(pair.a, "hello frames"));
  ASSERT_TRUE(net::write_frame(pair.a, ""));  // empty payload is legal
  net::FrameResult first = net::read_frame(pair.b);
  ASSERT_EQ(first.status, net::FrameStatus::kOk) << first.error;
  EXPECT_EQ(first.payload, "hello frames");
  net::FrameResult second = net::read_frame(pair.b);
  ASSERT_EQ(second.status, net::FrameStatus::kOk) << second.error;
  EXPECT_EQ(second.payload, "");
}

TEST(FrameTest, CleanEofAtFrameBoundary) {
  FdPair pair;
  net::close_fd(pair.a);
  pair.a = -1;
  EXPECT_EQ(net::read_frame(pair.b).status, net::FrameStatus::kEof);
}

TEST(FrameTest, RejectsOversizedLengthBeforeAllocating) {
  FdPair pair;
  const unsigned char huge[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(::send(pair.a, huge, 4, 0), 4);
  const net::FrameResult result = net::read_frame(pair.b);
  EXPECT_EQ(result.status, net::FrameStatus::kError);
  EXPECT_NE(result.error.find("cap"), std::string::npos);
}

TEST(FrameTest, TruncatedPayloadIsAnError) {
  FdPair pair;
  const unsigned char prefix[4] = {0, 0, 0, 10};
  ASSERT_EQ(::send(pair.a, prefix, 4, 0), 4);
  ASSERT_EQ(::send(pair.a, "abc", 3, 0), 3);
  net::close_fd(pair.a);
  pair.a = -1;
  const net::FrameResult result = net::read_frame(pair.b);
  EXPECT_EQ(result.status, net::FrameStatus::kError);
  EXPECT_NE(result.error.find("truncated"), std::string::npos);
}

// Hand-seeded hostile inputs (fuzz_frame explores around these; the named
// cases stay as permanent regression anchors regardless of fuzz findings).

TEST(FrameTest, MalformedFrameTruncatedLengthPrefixIsAnError) {
  // EOF in the middle of the 4-byte prefix is a torn frame, not a clean
  // end-of-stream: kEof is reserved for exact frame boundaries.
  FdPair pair;
  const unsigned char half[2] = {0, 0};
  ASSERT_EQ(::send(pair.a, half, 2, 0), 2);
  net::close_fd(pair.a);
  pair.a = -1;
  const net::FrameResult result = net::read_frame(pair.b);
  EXPECT_EQ(result.status, net::FrameStatus::kError);
  EXPECT_FALSE(result.error.empty());
}

TEST(FrameTest, MalformedFrameGarbageAfterValidFrameIsContained) {
  // A well-formed frame followed by torn trailing bytes: the good frame
  // must come through intact before the stream errors.
  FdPair pair;
  ASSERT_TRUE(net::write_frame(pair.a, "intact"));
  const unsigned char torn[3] = {0x00, 0x00, 0x00};
  ASSERT_EQ(::send(pair.a, torn, 3, 0), 3);
  net::close_fd(pair.a);
  pair.a = -1;
  net::FrameResult first = net::read_frame(pair.b);
  ASSERT_EQ(first.status, net::FrameStatus::kOk) << first.error;
  EXPECT_EQ(first.payload, "intact");
  EXPECT_EQ(net::read_frame(pair.b).status, net::FrameStatus::kError);
}

TEST(FrameTest, MalformedFrameLengthCapBoundaryIsExact) {
  // kMaxFrameBytes itself is legal (truncated here, since no payload
  // follows); one byte above is the oversize protocol violation.
  FdPair at_cap;
  const unsigned char cap[4] = {0x01, 0x00, 0x00, 0x00};  // 16 MiB exactly
  ASSERT_EQ(::send(at_cap.a, cap, 4, 0), 4);
  net::close_fd(at_cap.a);
  at_cap.a = -1;
  const net::FrameResult truncated = net::read_frame(at_cap.b);
  EXPECT_EQ(truncated.status, net::FrameStatus::kError);
  EXPECT_NE(truncated.error.find("truncated"), std::string::npos);

  FdPair above;
  const unsigned char over[4] = {0x01, 0x00, 0x00, 0x01};  // 16 MiB + 1
  ASSERT_EQ(::send(above.a, over, 4, 0), 4);
  const net::FrameResult oversize = net::read_frame(above.b);
  EXPECT_EQ(oversize.status, net::FrameStatus::kError);
  EXPECT_NE(oversize.error.find("cap"), std::string::npos);
}

TEST(WireTest, HostileRequestTextIsRejectedWithoutCrashing) {
  std::string error;
  // CRLF line endings: the \r lands in the command token — rejected, not
  // silently folded into a value.
  EXPECT_FALSE(
      cli::parse_sweep_request("flipsvc/1 sweep\r\nscenario=x\r\n", error)
          .has_value());
  // Empty key ("=1") is an unknown key, not an accepted empty field.
  EXPECT_FALSE(cli::parse_sweep_request("flipsvc/1 sweep\n=1\n", error)
                   .has_value());
  EXPECT_NE(error.find("unknown key"), std::string::npos);
  // Empty numeric value.
  EXPECT_FALSE(cli::parse_sweep_request("flipsvc/1 sweep\ntrials=\n", error)
                   .has_value());
  EXPECT_NE(error.find("bad number"), std::string::npos);
  // A 21-digit trials value must overflow-reject, not wrap.
  EXPECT_FALSE(cli::parse_sweep_request(
                   "flipsvc/1 sweep\ntrials=99999999999999999999\n", error)
                   .has_value());
  EXPECT_NE(error.find("bad number"), std::string::npos);
  // An embedded NUL rides through the string fields without truncating
  // the parse; the resolve layer then rejects the garbage scenario.
  std::string nul_request = "flipsvc/1 sweep\nscenario=bad";
  nul_request.push_back('\0');
  nul_request += "name\n";
  const auto parsed = cli::parse_sweep_request(nul_request, error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->scenario.size(), 8u);  // "bad\0name", NUL preserved
  SweepSpec spec;
  EXPECT_TRUE(cli::resolve_sweep_request(*parsed, spec).has_value());
}

TEST(CheckpointTest, TruncatedCheckpointIsRejected) {
  std::string error;
  // Header only, request body missing (the classic torn write).
  EXPECT_FALSE(
      cli::parse_checkpoint("flipchk/1 next_cell=3 grid=9\n", error)
          .has_value());
  EXPECT_NE(error.find("checkpoint request"), std::string::npos);
  // Header without even the trailing newline.
  EXPECT_FALSE(cli::parse_checkpoint("flipchk/1 next_cell=3 grid=9", error)
                   .has_value());
  // Request body cut mid-line: the torn line has no '=', so the request
  // parser inside the checkpoint parser rejects it.
  EXPECT_FALSE(cli::parse_checkpoint(
                   "flipchk/1 next_cell=3 grid=9\nflipsvc/1 sweep\nscenar",
                   error)
                   .has_value());
  // Unknown header keys are a version skew signal, not ignorable noise.
  EXPECT_FALSE(cli::parse_checkpoint(
                   "flipchk/1 next_cell=3 bogus=1\nflipsvc/1 sweep\n", error)
                   .has_value());
  EXPECT_NE(error.find("unknown checkpoint header key"), std::string::npos);
}

// --- the server over loopback ---------------------------------------------

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string error;
    ASSERT_TRUE(server_.start(error)) << error;
  }

  net::SweepServer server_;
};

TEST_F(ServiceTest, AnswersPing) {
  net::SweepClient client(server_.port());
  std::string error;
  EXPECT_TRUE(client.ping(error)) << error;
}

TEST_F(ServiceTest, StreamsASweepInGridOrder) {
  SweepRequest request;
  request.scenario = "broadcast_small";
  request.ns = "128,256";
  request.trials = 2;

  net::SweepClient client(server_.port());
  std::vector<std::size_t> cells;
  std::vector<std::string> lines;
  const std::string done =
      client.run_sweep(request, [&](std::size_t cell, const std::string& line) {
        cells.push_back(cell);
        lines.push_back(line);
      });
  EXPECT_EQ(cells, (std::vector<std::size_t>{0, 1}));
  EXPECT_NE(done.find("\"points\":2"), std::string::npos) << done;

  SweepSpec spec;
  ASSERT_FALSE(cli::resolve_sweep_request(request, spec).has_value());
  const std::vector<std::string> local = local_point_lines(spec);
  ASSERT_EQ(lines.size(), local.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(strip_timing(lines[i]), strip_timing(local[i])) << "cell " << i;
  }
}

TEST_F(ServiceTest, RejectsInvalidRequestsWithTheCliMessage) {
  net::SweepClient client(server_.port());
  SweepRequest request;
  request.scenario = "broadcast_small";
  request.epss = "0.9";
  try {
    client.run_sweep(request);
    FAIL() << "out-of-domain eps must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(*cli::validate_eps_values({0.9})),
              std::string::npos)
        << e.what();
  }
  request.epss.clear();
  request.scenario = "no_such_scenario";
  try {
    client.run_sweep(request);
    FAIL() << "unknown scenario must be rejected at ingest";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("no_such_scenario"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(ServiceTest, RejectsHeterogeneousUnderScheduleAtIngest) {
  // The grid's first (bsc) cell is valid; the request must still be
  // rejected at ingest, before any cell streams, with the CLI's text.
  SweepRequest request;
  request.scenario = "broadcast";
  request.ns = "256";
  request.channels = "bsc,heterogeneous";
  request.schedule = "ramp:0.4:0.15";
  request.trials = 2;
  SweepSpec spec;
  ASSERT_FALSE(cli::resolve_sweep_request(request, spec).has_value());
  std::string cli_message;
  try {
    (void)cli::expand_grid(spec);
  } catch (const std::invalid_argument& e) {
    cli_message = e.what();
  }
  ASSERT_FALSE(cli_message.empty()) << "expand_grid must reject the grid";

  net::SweepClient client(server_.port());
  std::size_t lines = 0;
  try {
    client.run_sweep(request,
                     [&](std::size_t, const std::string&) { ++lines; });
    FAIL() << "heterogeneous + schedule must be rejected at ingest";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(cli_message), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(lines, 0u);
}

TEST_F(ServiceTest, RejectsShardsOnSingleSubstrateEntriesAtIngest) {
  // desync runs one substrate: a shard count passes the argument layer
  // but the registry rejects it, at ingest, with the CLI's text.
  SweepRequest request;
  request.scenario = "desync";
  request.ns = "256";
  request.shards = 8;
  request.trials = 2;
  SweepSpec spec;
  ASSERT_FALSE(cli::resolve_sweep_request(request, spec).has_value());
  std::string cli_message;
  try {
    (void)cli::expand_grid(spec);
  } catch (const std::invalid_argument& e) {
    cli_message = e.what();
  }
  ASSERT_NE(cli_message.find("'desync'"), std::string::npos) << cli_message;

  net::SweepClient client(server_.port());
  std::size_t lines = 0;
  try {
    client.run_sweep(request,
                     [&](std::size_t, const std::string&) { ++lines; });
    FAIL() << "shards on a single-substrate entry must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(cli_message), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(lines, 0u);
}

TEST_F(ServiceTest, ResumeFromSkipsCompletedCells) {
  SweepRequest request;
  request.scenario = "broadcast_small";
  request.ns = "128,256";
  request.trials = 2;
  net::SweepClient client(server_.port());
  std::vector<std::string> full;
  client.run_sweep(request, [&](std::size_t, const std::string& line) {
    full.push_back(line);
  });
  ASSERT_EQ(full.size(), 2u);

  request.resume_from = 1;
  std::vector<std::size_t> cells;
  std::vector<std::string> resumed;
  client.run_sweep(request, [&](std::size_t cell, const std::string& line) {
    cells.push_back(cell);
    resumed.push_back(line);
  });
  ASSERT_EQ(resumed.size(), 1u);
  EXPECT_EQ(cells, (std::vector<std::size_t>{1}));
  EXPECT_EQ(strip_timing(resumed[0]), strip_timing(full[1]));
}

TEST_F(ServiceTest, ShutdownCommandStopsTheServer) {
  net::SweepClient client(server_.port());
  std::string error;
  ASSERT_TRUE(client.shutdown_server(error)) << error;
  server_.wait();  // returns: both threads exited
  EXPECT_FALSE(client.ping(error));
}

// The service's whole correctness claim, scenario by scenario: a served
// sweep is byte-identical to a local one-shot run of the same spec for
// EVERY registry entry, up to the trailing timing fields. The server side
// runs on resident arenas warmed by whatever ran before it; any
// state leak between requests shows up here as a changed byte.
TEST_F(ServiceTest, ServedSweepMatchesOneShotForEveryRegistryEntry) {
  net::SweepClient client(server_.port());
  for (const ScenarioInfo* info : ScenarioRegistry::instance().list()) {
    SweepRequest request;
    request.scenario = info->name;
    request.ns = "256";
    request.trials = 2;
    SweepSpec spec;
    ASSERT_FALSE(cli::resolve_sweep_request(request, spec).has_value())
        << info->name;
    const std::vector<std::string> local = local_point_lines(spec);
    std::vector<std::string> served;
    client.run_sweep(request, [&](std::size_t, const std::string& line) {
      served.push_back(line);
    });
    ASSERT_EQ(served.size(), local.size()) << info->name;
    for (std::size_t i = 0; i < served.size(); ++i) {
      EXPECT_EQ(strip_timing(served[i]), strip_timing(local[i]))
          << info->name << " cell " << i;
    }
  }
}

// --- checkpoint/resume under interruption ---------------------------------

// A sweep killed mid-grid and resumed from its checkpoint position must
// produce, concatenated, the exact lines of the uninterrupted run — the
// counter-keyed RNG makes each cell a pure function of the spec, so this
// is an equality, not a statistical claim.
TEST(SweepResumeTest, InterruptedPlusResumedEqualsUninterrupted) {
  SweepSpec spec;
  spec.scenario = "broadcast_small";
  spec.ns = {128, 256, 512};
  spec.trials = 2;
  spec.collect_points = false;

  const std::vector<std::string> full = local_point_lines(spec);
  ASSERT_EQ(full.size(), 3u);

  struct Interrupt {};
  std::vector<std::string> before;
  try {
    cli::run_sweep(spec, [&](std::size_t, const cli::SweepPoint& point) {
      before.push_back(cli::sweep_point_line(point));
      if (before.size() == 1) throw Interrupt{};
    });
    FAIL() << "the sink's exception must abort the sweep";
  } catch (const Interrupt&) {
  }
  ASSERT_EQ(before.size(), 1u);

  // Resume exactly where the checkpoint would point: after the last
  // completed cell.
  spec.first_cell = 1;
  std::vector<std::string> after = local_point_lines(spec);
  ASSERT_EQ(after.size(), 2u);

  std::vector<std::string> concatenated = before;
  concatenated.insert(concatenated.end(), after.begin(), after.end());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(strip_timing(concatenated[i]), strip_timing(full[i]))
        << "cell " << i;
  }
}

TEST(SweepResumeTest, FirstCellPastGridIsRejected) {
  SweepSpec spec;
  spec.scenario = "broadcast_small";
  spec.trials = 2;
  spec.first_cell = 5;  // grid has 1 cell
  EXPECT_THROW(cli::run_sweep(spec), std::invalid_argument);
}

}  // namespace
}  // namespace flip
