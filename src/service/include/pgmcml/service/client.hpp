// Client side of the pgmcmld protocol: a blocking line-oriented connection
// plus the request-building helpers shared by the pgmcml_client CLI, the
// service tests, and bench_service.
#pragma once

#include <cstdint>
#include <string>

#include "pgmcml/obs/json.hpp"

namespace pgmcml::service {

/// One blocking connection to a daemon.  Requests and responses travel as
/// newline-delimited JSON; call() pairs one send with one receive, which is
/// the protocol's ordering guarantee (responses come back in request order
/// per connection).  Neither copyable nor movable: the factories return
/// it by guaranteed copy elision, and the socket closes with the object.
class Client {
 public:
  Client() = default;
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects to a Unix-domain socket.  Throws std::runtime_error.
  static Client connect_unix(const std::string& path);
  /// Connects to a loopback TCP daemon.  Throws std::runtime_error.
  static Client connect_tcp(const std::string& host, int port);

  bool connected() const { return fd_ >= 0; }
  void close();

  /// Sends one request document and returns the parsed response line.
  /// Throws std::runtime_error when the connection drops mid-exchange.
  obs::json::Value call(const obs::json::Value& request);

  /// Raw exchange for protocol-robustness tests: sends `line` verbatim
  /// (a newline is appended when missing) and returns the next response
  /// line, stripped of its newline.  Throws on a dropped connection.
  std::string call_raw(const std::string& line);

  /// Sends raw bytes without waiting for a response (tests use this to
  /// model truncated requests).
  void send_raw(const std::string& bytes);

 private:
  explicit Client(int fd) : fd_(fd) {}
  std::string read_line();

  int fd_ = -1;
  std::string pending_;
};

/// Builds a run request wrapping `experiment` (an experiment document).
obs::json::Value make_run_request(const std::string& id,
                                  obs::json::Value experiment,
                                  std::uint64_t deadline_ms = 0);

/// Builds an op-only request ("ping" or "statsz").
obs::json::Value make_simple_request(const std::string& id,
                                     const std::string& op);

/// Replaces string-valued "technology" / "design" / "plan" members of an
/// experiment document with the documents they reference (loaded relative
/// to `base_dir`), so the request is self-contained -- the daemon never
/// needs the client's filesystem.  Throws config::ConfigError on a
/// dangling reference.
obs::json::Value inline_experiment_refs(obs::json::Value experiment,
                                        const std::string& base_dir);

}  // namespace pgmcml::service
