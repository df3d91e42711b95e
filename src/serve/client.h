// Blocking client for the doseopt job server.
//
// One Client wraps one connection and keeps at most one job outstanding:
// submit() writes a kJobRequest frame and blocks until the matching reply
// (result, error, or backpressure rejection) arrives.  Concurrency comes
// from using one Client per thread; the server interleaves jobs from many
// connections across its worker lanes.
//
// The client is self-healing: it remembers its endpoint, so a transport
// failure (torn frame, dropped connection, injected socket fault, timeout)
// can be recovered by reconnect() -- and submit_with_retry() does so
// automatically under a RetryPolicy with exponential backoff and
// deterministic jitter.  Because the server memoizes results by job key,
// re-submitting after a lost reply returns the bit-identical result without
// re-solving.
#pragma once

#include <string>

#include "serve/job.h"
#include "serve/json.h"
#include "serve/protocol.h"

namespace doseopt::serve {

/// Connection-level knobs.  Zero means "no bound" (block forever), the
/// historical behavior.
struct ClientOptions {
  int connect_timeout_ms = 0;  ///< bound on each connect attempt
  int io_timeout_ms = 0;       ///< bound on each recv/send (dead-server guard)
};

/// Retry schedule for submit_with_retry(): attempt k (0-based) sleeps
/// min(max_ms, base_ms * 2^k) scaled by a deterministic jitter in [1/2, 1)
/// drawn from a fixed-seed common::Rng, so every call produces the same
/// backoff sequence.  Transport errors are always retried (reconnecting
/// first), and rejections (backpressure / open circuit breaker) are
/// retried after the server-suggested retry_after_ms.
struct RetryPolicy {
  int max_attempts = 16;
  double base_ms = 25.0;
  double max_ms = 2000.0;
  /// Also retry kJobError replies (transient injected/solver faults).
  bool retry_on_job_error = false;
};

class Client {
 public:
  /// Connect over a Unix-domain socket / loopback TCP.  Throws on failure.
  static Client connect_unix_path(const std::string& path,
                                  const ClientOptions& options = {});
  static Client connect_tcp_port(int port, const ClientOptions& options = {});

  ~Client();
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Round-trip a kPing; throws if the server does not answer kPong.
  void ping();

  /// A job's terminal reply.
  struct Reply {
    MsgType type = MsgType::kJobError;  ///< kJobResult/kJobError/kJobRejected
    Json payload;
    bool ok() const { return type == MsgType::kJobResult; }
  };

  /// Submit one job and block for its reply.  Throws on transport failure.
  Reply submit(const JobSpec& spec);

  /// Submit under `policy`: reconnects and retries transport errors,
  /// honors retry_after_ms on rejections, optionally retries job errors.
  /// Returns the first acceptable reply, or the last reply when attempts
  /// run out; throws only if every attempt died in transport.
  Reply submit_with_retry(const JobSpec& spec, const RetryPolicy& policy = {});

  /// Drop the connection (if any) and re-establish it to the remembered
  /// endpoint.  Safe to call when already disconnected.
  void reconnect();

  /// True while the underlying socket is believed healthy.
  bool connected() const { return fd_ >= 0; }

  /// Fetch the server's telemetry JSON.
  Json metrics();

  /// Ask the server to drain and exit (no reply expected).
  void request_shutdown();

 private:
  struct Endpoint {
    bool tcp = false;
    std::string path;
    int port = 0;
  };

  Client(int fd, Endpoint endpoint, ClientOptions options);
  Reply read_reply();
  void disconnect();
  int open_endpoint() const;

  int fd_ = -1;
  Endpoint endpoint_;
  ClientOptions options_;
};

}  // namespace doseopt::serve
