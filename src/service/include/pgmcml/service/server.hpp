// pgmcmld's serving core: a long-running request server over a Unix-domain
// (and optionally loopback-TCP) socket, speaking newline-delimited JSON
// request/response documents (config/request.hpp).
//
// Architecture (one Server instance per process):
//
//   acceptor thread ──accept──▶ connection threads (one per client)
//        │                          │ read line, validate, admit
//        │                          ▼
//        │                bounded request queue  ◀── admission control
//        │                          │
//        │                          ▼
//        │                 worker pool (N threads)
//        │                          │ run_experiment under RunControl
//        │                          ▼
//        └──────────────── response written by the connection thread
//
// Serving policies:
//   * Admission control / backpressure: the request queue is bounded
//     (ServerOptions::queue_depth).  A full queue answers immediately with
//     status "rejected" and an advisory retry_after_ms -- the 429 analogue
//     -- instead of queueing unboundedly or blocking the socket reader.
//   * Deadlines: each run request carries deadline_ms (or inherits the
//     server default).  The clock starts at admission; a job whose deadline
//     passes while queued is answered "expired" without running, and one
//     that expires mid-plan is cancelled cooperatively at the next batch
//     boundary (config::RunControl) -- never inside a solver call.
//   * Shared warm tier: every request runs against the process-wide
//     cache::ResultCache, so any client's characterization warms every
//     other client's identical design point.
//   * Graceful drain: drain() stops accepting connections and requests,
//     lets admitted jobs finish and their responses flush, then stops the
//     pool.  pgmcmld invokes it on SIGTERM.
//   * Observability: service.* counters (requests, by-status outcomes,
//     oversized/parse failures, bytes in/out) and histograms (request
//     latency, queue depth at admission) land in obs::Registry::global();
//     an op "statsz" request returns the full snapshot plus queue state,
//     and every run response carries its own per-request stats.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "pgmcml/obs/json.hpp"

namespace pgmcml::service {

struct ServerOptions {
  /// Unix-domain socket path (empty disables; a stale socket file is
  /// replaced).  At least one of socket_path / tcp_port must be enabled.
  std::string socket_path;
  /// Loopback TCP port: -1 disables, 0 binds an ephemeral port (read the
  /// result from Server::tcp_port()).  Listens on 127.0.0.1 only.
  int tcp_port = -1;
  /// Worker threads executing run requests (PGMCML_SERVICE_WORKERS).
  std::size_t workers = 2;
  /// Bounded request-queue capacity; admission control rejects beyond it
  /// (PGMCML_SERVICE_QUEUE_DEPTH).
  std::size_t queue_depth = 16;
  /// Default per-request deadline in ms; 0 = none
  /// (PGMCML_SERVICE_DEADLINE_MS).
  std::uint64_t default_deadline_ms = 0;
  /// Hard cap on one request line; longer lines are answered with an error
  /// and discarded (PGMCML_SERVICE_MAX_REQUEST_BYTES).
  std::size_t max_request_bytes = 4 * 1024 * 1024;
  /// Base directory for file references inside request experiments.
  std::string config_root = ".";
  /// Advisory back-off carried by queue-full rejections.
  std::uint64_t retry_after_ms = 100;
  /// Test-only hook, called by a worker as it picks a job up (before the
  /// deadline check).  Tests park the pool here to fill the queue
  /// deterministically.
  std::function<void()> test_job_hook;

  /// Applies the PGMCML_SERVICE_* environment knobs on top of `base`.
  /// Parsing goes through util::env_u64, so a malformed value throws at
  /// startup instead of silently serving with defaults.
  static ServerOptions from_env(ServerOptions base);
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();  ///< drains and joins if still running
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listeners and starts the acceptor + worker threads.  Throws
  /// std::runtime_error when no listener can be established.
  void start();

  /// Graceful shutdown: stop accepting, answer queued-but-unstarted jobs
  /// normally, finish in-flight jobs, flush responses, stop the pool.
  /// Idempotent; returns without waiting (see wait()).
  void drain();

  /// Blocks until a drain() has fully completed and every thread is joined.
  void wait();

  /// Bound TCP port (ephemeral resolved), or -1 when TCP is disabled.
  int tcp_port() const;
  /// Requests currently admitted but not yet picked up by a worker.
  std::size_t queue_depth() const;

  /// The statsz report body: {"snapshot": <obs snapshot>, "queue": {...},
  /// "options": {...}}.  Also what an op "statsz" request receives.
  obs::json::Value statsz() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace pgmcml::service
