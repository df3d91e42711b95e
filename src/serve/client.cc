#include "serve/client.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>
#include <utility>

#include "common/error.h"
#include "common/rng.h"
#include "serve/socket.h"

namespace doseopt::serve {

namespace {

void sleep_ms(double ms) {
  if (ms <= 0.0) return;
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<long>(ms * 1000.0)));
}

}  // namespace

Client::Client(int fd, Endpoint endpoint, ClientOptions options)
    : fd_(fd), endpoint_(std::move(endpoint)), options_(options) {
  if (options_.io_timeout_ms > 0) set_io_timeout(fd_, options_.io_timeout_ms);
}

Client Client::connect_unix_path(const std::string& path,
                                 const ClientOptions& options) {
  Endpoint ep;
  ep.tcp = false;
  ep.path = path;
  return Client(connect_unix(path, options.connect_timeout_ms), std::move(ep),
                options);
}

Client Client::connect_tcp_port(int port, const ClientOptions& options) {
  Endpoint ep;
  ep.tcp = true;
  ep.port = port;
  return Client(connect_tcp(port, options.connect_timeout_ms), std::move(ep),
                options);
}

Client::~Client() { disconnect(); }

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      endpoint_(std::move(other.endpoint_)),
      options_(other.options_) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    disconnect();
    fd_ = std::exchange(other.fd_, -1);
    endpoint_ = std::move(other.endpoint_);
    options_ = other.options_;
  }
  return *this;
}

void Client::disconnect() {
  if (fd_ >= 0) close_socket(fd_);
  fd_ = -1;
}

int Client::open_endpoint() const {
  return endpoint_.tcp
             ? connect_tcp(endpoint_.port, options_.connect_timeout_ms)
             : connect_unix(endpoint_.path, options_.connect_timeout_ms);
}

void Client::reconnect() {
  disconnect();
  fd_ = open_endpoint();
  if (options_.io_timeout_ms > 0) set_io_timeout(fd_, options_.io_timeout_ms);
}

void Client::ping() {
  DOSEOPT_CHECK(fd_ >= 0, "client: not connected");
  write_frame(fd_, MsgType::kPing, "");
  Frame frame;
  DOSEOPT_CHECK(read_frame(fd_, &frame), "client: server closed during ping");
  DOSEOPT_CHECK(frame.type == MsgType::kPong,
                "client: unexpected reply to ping");
}

Client::Reply Client::read_reply() {
  Frame frame;
  DOSEOPT_CHECK(read_frame(fd_, &frame),
                "client: server closed before replying");
  DOSEOPT_CHECK(frame.type == MsgType::kJobResult ||
                    frame.type == MsgType::kJobError ||
                    frame.type == MsgType::kJobRejected,
                "client: unexpected reply frame type");
  Reply reply;
  reply.type = frame.type;
  reply.payload = Json::parse(frame.payload);
  return reply;
}

Client::Reply Client::submit(const JobSpec& spec) {
  DOSEOPT_CHECK(fd_ >= 0, "client: not connected");
  write_frame(fd_, MsgType::kJobRequest, spec.to_json().dump());
  return read_reply();
}

Client::Reply Client::submit_with_retry(const JobSpec& spec,
                                        const RetryPolicy& policy) {
  // One generator for the whole call: the jitter sequence (and therefore
  // the retry schedule) is a pure function of the seed.
  constexpr std::uint64_t kJitterSeed = 0x5eed;
  constexpr double kMultiplier = 2.0;
  Rng jitter(kJitterSeed);
  auto backoff_ms = [&](int attempt) {
    double ms = policy.base_ms;
    for (int i = 0; i < attempt && ms < policy.max_ms; ++i)
      ms *= kMultiplier;
    ms = std::min(ms, policy.max_ms);
    return ms * (0.5 + 0.5 * jitter.uniform());
  };

  Reply reply;
  std::string last_error;
  bool have_reply = false;
  const int attempts = std::max(1, policy.max_attempts);
  const auto t0 = std::chrono::steady_clock::now();
  for (int attempt = 0; attempt < attempts; ++attempt) {
    // A job with a deadline gets the *remaining* budget on each attempt:
    // retries must not let the job spend a multiple of its deadline.
    JobSpec attempt_spec = spec;
    if (spec.deadline_ms > 0.0) {
      const double elapsed_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - t0)
              .count();
      const double remaining = spec.deadline_ms - elapsed_ms;
      if (remaining <= 0.0)
        throw Error("client: job '" + spec.id + "' deadline (" +
                    std::to_string(spec.deadline_ms) +
                    " ms) exhausted before attempt " +
                    std::to_string(attempt + 1) +
                    (last_error.empty() ? "" : ": " + last_error));
      attempt_spec.deadline_ms = remaining;
    }
    try {
      if (fd_ < 0) reconnect();
      reply = submit(attempt_spec);
      have_reply = true;
    } catch (const std::exception& e) {
      // Transport died mid-round-trip; the connection's framing state is
      // unknown, so drop it and try again on a fresh one.  The
      // server memoizes by job key, so a re-submitted job whose reply was
      // lost returns the identical cached result.
      last_error = e.what();
      disconnect();
      if (attempt + 1 >= attempts) throw;
      sleep_ms(backoff_ms(attempt));
      continue;
    }
    if (reply.type == MsgType::kJobRejected) {
      if (attempt + 1 >= attempts) return reply;
      // Backpressure / open circuit breaker: honor the server's suggested
      // wait, but never less than our own backoff floor.
      const double server_ms = reply.payload.get_number("retry_after_ms", 0.0);
      sleep_ms(std::max(server_ms, backoff_ms(attempt)));
      continue;
    }
    if (reply.type == MsgType::kJobError && policy.retry_on_job_error &&
        attempt + 1 < attempts) {
      sleep_ms(backoff_ms(attempt));
      continue;
    }
    return reply;
  }
  if (!have_reply)
    throw Error("client: job '" + spec.id + "' failed after " +
                std::to_string(attempts) + " attempts: " + last_error);
  return reply;
}

Json Client::metrics() {
  DOSEOPT_CHECK(fd_ >= 0, "client: not connected");
  write_frame(fd_, MsgType::kMetricsRequest, "");
  Frame frame;
  DOSEOPT_CHECK(read_frame(fd_, &frame),
                "client: server closed before metrics reply");
  DOSEOPT_CHECK(frame.type == MsgType::kMetricsReply,
                "client: unexpected reply to metrics request");
  return Json::parse(frame.payload);
}

void Client::request_shutdown() {
  DOSEOPT_CHECK(fd_ >= 0, "client: not connected");
  write_frame(fd_, MsgType::kShutdown, "");
}

}  // namespace doseopt::serve
