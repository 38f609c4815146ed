#include "net/service.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <stdexcept>
#include <string_view>
#include <utility>

#include "cli/args.hpp"
#include "cli/report.hpp"
#include "net/frame.hpp"
#include "util/json_writer.hpp"

namespace flip::net {

namespace {

/// Thrown out of the per-point sink when the client hangs up mid-stream:
/// aborts the sweep (run_sweep propagates sink exceptions) without treating
/// a vanished client as a server error.
struct ClientGone {};

}  // namespace

SweepServer::SweepServer(ServiceOptions options)
    : options_(options), queue_(options.queue_capacity) {}

SweepServer::~SweepServer() { stop(); }

bool SweepServer::start(std::string& error) {
  listen_fd_ = listen_local(options_.port, error);
  if (listen_fd_ < 0) return false;
  const auto port = local_port(listen_fd_);
  if (!port) {
    error = "getsockname failed on the listening socket";
    close_fd(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  port_ = *port;
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    error = "pipe failed for the shutdown wakeup";
    close_fd(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  wake_read_ = pipe_fds[0];
  wake_write_ = pipe_fds[1];
  started_.store(true);
  ingest_ = std::thread([this] { ingest_loop(); });
  runner_ = std::thread([this] { runner_loop(); });
  return true;
}

void SweepServer::wait() {
  if (ingest_.joinable()) ingest_.join();
  if (runner_.joinable()) runner_.join();
  // Cleanup lives here, not in stop(): once both threads have exited the
  // listening socket MUST close, or a post-shutdown connect would sit in
  // the kernel backlog forever with nobody accepting. Runs exactly once
  // (fds are -1 afterwards); wait()/stop() are not meant to race each
  // other from two threads.
  close_fd(listen_fd_);
  close_fd(wake_read_);
  close_fd(wake_write_);
  listen_fd_ = wake_read_ = wake_write_ = -1;
  started_.store(false);
}

void SweepServer::stop() {
  if (!started_.load()) return;
  stopping_.store(true);
  queue_.close();
  if (wake_write_ >= 0) {
    const char byte = 'x';
    // Best-effort: the pipe holds at most this one byte; a full pipe means
    // a wakeup is already pending.
    [[maybe_unused]] const ssize_t rc = ::write(wake_write_, &byte, 1);
  }
  wait();
}

void SweepServer::ingest_loop() {
  while (!stopping_.load()) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_read_, POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) continue;  // EINTR
    if (stopping_.load() || (fds[1].revents & POLLIN) != 0) break;
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    set_nodelay(fd);
    serve_connection(fd);
  }
  // No more jobs can arrive; let the runner drain what was accepted and
  // exit.
  queue_.close();
}

void SweepServer::serve_connection(int fd) {
  const FrameResult frame = read_frame(fd);
  if (frame.status != FrameStatus::kOk) {
    close_fd(fd);
    return;
  }
  std::string error;
  const auto request = cli::parse_sweep_request(frame.payload, error);
  if (!request) {
    [[maybe_unused]] const bool ok = write_frame(fd, "error " + error);
    close_fd(fd);
    return;
  }
  if (request->command == cli::WireCommand::kPing) {
    [[maybe_unused]] const bool ok = write_frame(fd, "pong");
    close_fd(fd);
    return;
  }
  if (request->command == cli::WireCommand::kShutdown) {
    [[maybe_unused]] const bool ok = write_frame(fd, "bye");
    close_fd(fd);
    stopping_.store(true);
    return;
  }
  Job job;
  job.fd = fd;
  // The CLI's whole check, grid expansion included, so a doomed request
  // is rejected here and never occupies the runner.
  if (auto reject = cli::resolve_sweep_request(*request, job.spec)) {
    [[maybe_unused]] const bool ok = write_frame(fd, "error " + *reject);
    close_fd(fd);
    return;
  }
  // Streamed frames are the output; never accumulate the grid in memory.
  job.spec.collect_points = false;
  if (request->threads == 0) job.spec.threads = options_.threads;
  if (!queue_.try_push(std::move(job))) {
    [[maybe_unused]] const bool ok =
        write_frame(fd, "error server busy (queue full); retry later");
    close_fd(fd);
  }
  // On success the job owns fd; the runner responds and closes it.
}

void SweepServer::runner_loop() {
  while (auto job = queue_.pop()) {
    run_job(std::move(*job));
  }
}

void SweepServer::run_job(Job job) {
  std::size_t cells = 0;
  try {
    const cli::SweepResult result = cli::run_sweep(
        job.spec, [&](std::size_t cell, const cli::SweepPoint& point) {
          const std::string payload = "point " + std::to_string(cell) + ' ' +
                                      cli::sweep_point_line(point);
          if (!write_frame(job.fd, payload)) throw ClientGone{};
          ++cells;
        });
    JsonWriter done(0);
    done.begin_object()
        .field("schema", "flipsvc-done-v1")
        .field("points", static_cast<std::uint64_t>(cells))
        .field("wall_seconds", result.wall_seconds)
        .end_object();
    [[maybe_unused]] const bool ok = write_frame(job.fd, "done " + done.str());
  } catch (const ClientGone&) {
    // The client hung up mid-stream; the sweep was aborted. Nothing to
    // report to anyone.
  } catch (const std::exception& e) {
    [[maybe_unused]] const bool ok =
        write_frame(job.fd, "error " + std::string(e.what()));
  }
  close_fd(job.fd);
}

// --- client ---------------------------------------------------------------

namespace {

/// Connects, sends one request, and hands back the fd. Throws on failure.
int open_request(std::uint16_t port, const cli::SweepRequest& request) {
  std::string error;
  const int fd = connect_local(port, error);
  if (fd < 0) {
    throw std::runtime_error("flipsvc connect: " + error);
  }
  if (!write_frame(fd, cli::encode_sweep_request(request))) {
    close_fd(fd);
    throw std::runtime_error("flipsvc: failed to send the request frame");
  }
  return fd;
}

/// Sends a one-frame command and checks its one-frame reply. True when the
/// server answered `reply`; false (with `error` set) otherwise.
bool exchange(std::uint16_t port, cli::WireCommand command,
              std::string_view reply, std::string& error) {
  cli::SweepRequest request;
  request.command = command;
  int fd = -1;
  try {
    fd = open_request(port, request);
  } catch (const std::exception& e) {
    error = e.what();
    return false;
  }
  const FrameResult frame = read_frame(fd);
  close_fd(fd);
  if (frame.status != FrameStatus::kOk || frame.payload != reply) {
    error = frame.status == FrameStatus::kOk
                ? "unexpected reply '" + frame.payload + "'"
                : (frame.status == FrameStatus::kEof ? "connection closed"
                                                     : frame.error);
    return false;
  }
  return true;
}

}  // namespace

std::string SweepClient::run_sweep(const cli::SweepRequest& request,
                                   const PointLineSink& on_line) {
  const int fd = open_request(port_, request);
  std::string done;
  try {
    for (;;) {
      const FrameResult frame = read_frame(fd);
      if (frame.status == FrameStatus::kEof) {
        throw std::runtime_error(
            "flipsvc: connection closed before the done frame");
      }
      if (frame.status == FrameStatus::kError) {
        throw std::runtime_error("flipsvc: " + frame.error);
      }
      const std::string& payload = frame.payload;
      if (payload.rfind("point ", 0) == 0) {
        const std::size_t space = payload.find(' ', 6);
        std::uint64_t cell = 0;
        if (space == std::string::npos ||
            !cli::parse_uint64(
                std::string_view(payload).substr(6, space - 6), cell)) {
          throw std::runtime_error("flipsvc: malformed point frame");
        }
        if (on_line) {
          on_line(static_cast<std::size_t>(cell), payload.substr(space + 1));
        }
        continue;
      }
      if (payload.rfind("done ", 0) == 0) {
        done = payload.substr(5);
        break;
      }
      if (payload.rfind("error ", 0) == 0) {
        throw std::runtime_error("flipsvc server: " + payload.substr(6));
      }
      throw std::runtime_error("flipsvc: unexpected frame '" +
                               payload.substr(0, 32) + "'");
    }
  } catch (...) {
    close_fd(fd);
    throw;
  }
  close_fd(fd);
  return done;
}

bool SweepClient::ping(std::string& error) {
  return exchange(port_, cli::WireCommand::kPing, "pong", error);
}

bool SweepClient::shutdown_server(std::string& error) {
  return exchange(port_, cli::WireCommand::kShutdown, "bye", error);
}

}  // namespace flip::net
