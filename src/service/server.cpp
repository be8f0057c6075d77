#include "pgmcml/service/server.hpp"

#include <errno.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "pgmcml/config/request.hpp"
#include "pgmcml/obs/obs.hpp"
#include "pgmcml/util/env.hpp"

namespace pgmcml::service {

namespace {

using Clock = std::chrono::steady_clock;

/// Hoisted obs handles (Registry lookups take a mutex; see obs.hpp).
struct ServiceObs {
  obs::Counter requests, ok, rejected, expired, errors, pings, statsz_ops,
      parse_errors, oversized, bytes_in, bytes_out, connections;
  obs::Histogram latency, queue_depth;

  static ServiceObs& get() {
    static ServiceObs h;
    return h;
  }

 private:
  ServiceObs() {
    obs::Registry& r = obs::Registry::global();
    requests = r.counter("service.requests");
    ok = r.counter("service.ok");
    rejected = r.counter("service.rejected");
    expired = r.counter("service.expired");
    errors = r.counter("service.errors");
    pings = r.counter("service.ping");
    statsz_ops = r.counter("service.statsz");
    parse_errors = r.counter("service.parse_errors");
    oversized = r.counter("service.oversized");
    bytes_in = r.counter("service.bytes_in");
    bytes_out = r.counter("service.bytes_out");
    connections = r.counter("service.connections");
    latency = r.histogram("service.request_latency_s");
    queue_depth = r.histogram("service.queue_depth");
  }
};

/// One admitted run request, owned jointly by the connection thread (which
/// waits on the future) and the worker that executes it.
struct Job {
  config::Request request;
  Clock::time_point admitted;
  Clock::time_point deadline = Clock::time_point::max();
  std::uint64_t queue_depth_at_admission = 0;
  std::promise<obs::json::Value> promise;
};

struct Connection {
  int fd = -1;
  std::thread thread;
};

bool write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

void close_quiet(int& fd) {
  if (fd >= 0) ::close(fd);
  fd = -1;
}

}  // namespace

struct Server::Impl {
  ServerOptions options;

  int uds_fd = -1;
  int tcp_fd = -1;
  int actual_tcp_port = -1;
  int wake_pipe[2] = {-1, -1};

  std::thread acceptor;
  std::vector<std::thread> workers;

  std::mutex conn_mutex;
  std::vector<std::unique_ptr<Connection>> conns;

  std::mutex queue_mutex;
  std::condition_variable queue_cv;
  std::deque<std::shared_ptr<Job>> queue;
  bool accepting = true;      ///< false once draining; guarded by queue_mutex
  bool stop_workers = false;  ///< guarded by queue_mutex

  std::atomic<bool> draining{false};
  /// Bumped at every job start and finish; a job whose epoch advanced by
  /// exactly one during execution ran alone, so its counter deltas are
  /// exact.
  std::atomic<std::uint64_t> overlap_epoch{0};

  std::mutex lifecycle_mutex;
  bool started = false;
  bool joined = false;

  void bind_listeners();
  void acceptor_loop();
  void connection_loop(int fd);
  void worker_loop();
  obs::json::Value process_line(const std::string& line);
  obs::json::Value admit_and_run(config::Request request);
  void execute(const std::shared_ptr<Job>& job);
  obs::json::Value statsz_body();
};

void Server::Impl::bind_listeners() {
  if (options.socket_path.empty() && options.tcp_port < 0) {
    throw std::runtime_error(
        "service: no listener configured (need a socket path or TCP port)");
  }
  if (!options.socket_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options.socket_path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("service: socket path too long: " +
                               options.socket_path);
    }
    std::memcpy(addr.sun_path, options.socket_path.c_str(),
                options.socket_path.size() + 1);
    uds_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (uds_fd < 0) throw std::runtime_error("service: socket() failed");
    ::unlink(options.socket_path.c_str());
    if (::bind(uds_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
        ::listen(uds_fd, 64) < 0) {
      close_quiet(uds_fd);
      throw std::runtime_error("service: cannot listen on " +
                               options.socket_path + ": " +
                               std::strerror(errno));
    }
  }
  if (options.tcp_port >= 0) {
    tcp_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (tcp_fd < 0) {
      close_quiet(uds_fd);
      throw std::runtime_error("service: socket() failed");
    }
    const int one = 1;
    ::setsockopt(tcp_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(options.tcp_port));
    if (::bind(tcp_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
        ::listen(tcp_fd, 64) < 0) {
      close_quiet(uds_fd);
      close_quiet(tcp_fd);
      throw std::runtime_error("service: cannot listen on 127.0.0.1:" +
                               std::to_string(options.tcp_port) + ": " +
                               std::strerror(errno));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(tcp_fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
      actual_tcp_port = ntohs(bound.sin_port);
    }
  }
}

void Server::Impl::acceptor_loop() {
  for (;;) {
    pollfd fds[3];
    nfds_t n = 0;
    const std::size_t wake_index = n;
    fds[n++] = {wake_pipe[0], POLLIN, 0};
    std::size_t uds_index = SIZE_MAX, tcp_index = SIZE_MAX;
    if (uds_fd >= 0) {
      uds_index = n;
      fds[n++] = {uds_fd, POLLIN, 0};
    }
    if (tcp_fd >= 0) {
      tcp_index = n;
      fds[n++] = {tcp_fd, POLLIN, 0};
    }
    if (::poll(fds, n, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[wake_index].revents != 0) break;  // drain requested
    for (const std::size_t i : {uds_index, tcp_index}) {
      if (i == SIZE_MAX || (fds[i].revents & POLLIN) == 0) continue;
      const int cfd = ::accept(fds[i].fd, nullptr, nullptr);
      if (cfd < 0) continue;
      std::lock_guard<std::mutex> lock(conn_mutex);
      if (draining.load()) {
        ::close(cfd);
        continue;
      }
      ServiceObs::get().connections.add(1);
      conns.push_back(std::make_unique<Connection>());
      Connection* conn = conns.back().get();
      conn->fd = cfd;
      conn->thread = std::thread([this, cfd] { connection_loop(cfd); });
    }
  }
  // Stop new clients immediately; existing connections finish their work.
  close_quiet(uds_fd);
  if (!options.socket_path.empty()) ::unlink(options.socket_path.c_str());
  close_quiet(tcp_fd);
}

void Server::Impl::connection_loop(int fd) {
  ServiceObs& h = ServiceObs::get();
  std::string pending;
  char buf[65536];
  bool discarding = false;  // inside an oversized line, seeking its newline
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;  // EOF, SHUT_RD during drain, or error
    }
    std::size_t start = 0;
    if (discarding) {
      const void* nl = std::memchr(buf, '\n', static_cast<std::size_t>(n));
      if (nl == nullptr) continue;
      start = static_cast<std::size_t>(static_cast<const char*>(nl) - buf) + 1;
      discarding = false;
    }
    pending.append(buf + start, static_cast<std::size_t>(n) - start);
    std::size_t pos;
    bool client_gone = false;
    while ((pos = pending.find('\n')) != std::string::npos) {
      std::string line = pending.substr(0, pos);
      pending.erase(0, pos + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      h.bytes_in.add(line.size() + 1);
      const obs::json::Value response = process_line(line);
      std::string out = response.dump(-1);
      out.push_back('\n');
      h.bytes_out.add(out.size());
      if (!write_all(fd, out.data(), out.size())) {
        client_gone = true;
        break;
      }
    }
    if (client_gone) break;
    if (pending.size() > options.max_request_bytes) {
      // Answer once, then discard the rest of the line so the connection
      // can recover at the next newline.
      h.oversized.add(1);
      std::string out =
          config::make_error_response(
              "", config::ResponseStatus::kError,
              "request exceeds " + std::to_string(options.max_request_bytes) +
                  " bytes")
              .dump(-1);
      out.push_back('\n');
      h.bytes_out.add(out.size());
      if (!write_all(fd, out.data(), out.size())) break;
      pending.clear();
      discarding = true;
    }
  }
  ::close(fd);
}

obs::json::Value Server::Impl::process_line(const std::string& line) {
  ServiceObs& h = ServiceObs::get();
  h.requests.add(1);
  obs::json::Value doc;
  try {
    doc = obs::json::Value::parse(line);
  } catch (const obs::json::ParseError& e) {
    h.parse_errors.add(1);
    h.errors.add(1);
    return config::make_error_response("", config::ResponseStatus::kError,
                                       std::string("request: ") + e.what());
  }
  const std::string id = doc.string_or("id", "");
  config::Request request;
  try {
    request = config::request_from_json(doc, "request", options.config_root);
  } catch (const config::ConfigError& e) {
    h.errors.add(1);
    return config::make_error_response(id, config::ResponseStatus::kError,
                                       e.what());
  } catch (const std::exception& e) {
    h.errors.add(1);
    return config::make_error_response(id, config::ResponseStatus::kError,
                                       std::string("request: ") + e.what());
  }
  switch (request.op) {
    case config::RequestOp::kPing: {
      h.pings.add(1);
      obs::json::Object body;
      body.emplace_back("pong", true);
      body.emplace_back("draining", draining.load());
      return config::make_ok_response(id, obs::json::Value(std::move(body)));
    }
    case config::RequestOp::kStatsz:
      h.statsz_ops.add(1);
      return config::make_ok_response(id, statsz_body());
    case config::RequestOp::kRun:
      return admit_and_run(std::move(request));
  }
  h.errors.add(1);
  return config::make_error_response(id, config::ResponseStatus::kError,
                                     "request: unhandled op");
}

obs::json::Value Server::Impl::admit_and_run(config::Request request) {
  ServiceObs& h = ServiceObs::get();
  const std::string id = request.id;
  auto job = std::make_shared<Job>();
  job->request = std::move(request);
  job->admitted = Clock::now();
  const std::uint64_t deadline_ms = job->request.deadline_ms != 0
                                        ? job->request.deadline_ms
                                        : options.default_deadline_ms;
  if (deadline_ms != 0) {
    job->deadline = job->admitted + std::chrono::milliseconds(deadline_ms);
  }
  std::future<obs::json::Value> done = job->promise.get_future();
  {
    std::lock_guard<std::mutex> lock(queue_mutex);
    if (!accepting) {
      h.rejected.add(1);
      return config::make_error_response(
          id, config::ResponseStatus::kRejected, "server is draining",
          options.retry_after_ms);
    }
    if (queue.size() >= options.queue_depth) {
      h.rejected.add(1);
      return config::make_error_response(
          id, config::ResponseStatus::kRejected,
          "request queue full (" + std::to_string(options.queue_depth) +
              " pending)",
          options.retry_after_ms);
    }
    job->queue_depth_at_admission = queue.size();
    queue.push_back(job);
    h.queue_depth.observe(static_cast<double>(queue.size()));
  }
  queue_cv.notify_one();
  return done.get();
}

void Server::Impl::worker_loop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(queue_mutex);
      queue_cv.wait(lock, [this] { return !queue.empty() || stop_workers; });
      if (queue.empty()) return;  // stop_workers and nothing left to serve
      job = queue.front();
      queue.pop_front();
    }
    execute(job);
  }
}

void Server::Impl::execute(const std::shared_ptr<Job>& job) {
  ServiceObs& h = ServiceObs::get();
  if (options.test_job_hook) options.test_job_hook();
  const std::string& id = job->request.id;
  const Clock::time_point deadline = job->deadline;
  const Clock::time_point start = Clock::now();
  const std::uint64_t epoch_before = overlap_epoch.fetch_add(1) + 1;
  const obs::Snapshot before = obs::Registry::global().snapshot();

  obs::json::Value response;
  if (Clock::now() > deadline) {
    h.expired.add(1);
    response = config::make_error_response(
        id, config::ResponseStatus::kExpired,
        "deadline expired while queued");
  } else {
    try {
      config::RunControl control;
      if (deadline != Clock::time_point::max()) {
        control.cancelled = [deadline] { return Clock::now() > deadline; };
      }
      obs::json::Value report =
          config::run_experiment(job->request.experiment, control);
      const obs::Snapshot after = obs::Registry::global().snapshot();
      config::ResponseStats stats;
      stats.latency_s =
          std::chrono::duration<double>(Clock::now() - start).count();
      stats.queue_depth = job->queue_depth_at_admission;
      stats.cache_hits =
          after.counter("cache.hit") - before.counter("cache.hit");
      stats.cache_misses =
          after.counter("cache.miss") - before.counter("cache.miss");
      stats.newton_iterations = after.counter("spice.newton_iterations") -
                                before.counter("spice.newton_iterations");
      stats.exact = overlap_epoch.load() == epoch_before;
      response = config::make_run_response(
          id, config::experiment_digest(job->request.experiment).hex(),
          std::move(report), stats);
      h.ok.add(1);
    } catch (const config::CancelledError&) {
      h.expired.add(1);
      response = config::make_error_response(
          id, config::ResponseStatus::kExpired,
          "deadline expired during execution (cancelled at a batch "
          "boundary)");
    } catch (const config::ConfigError& e) {
      h.errors.add(1);
      response = config::make_error_response(
          id, config::ResponseStatus::kError, e.what());
    } catch (const std::exception& e) {
      h.errors.add(1);
      response = config::make_error_response(
          id, config::ResponseStatus::kError,
          std::string("execution failed: ") + e.what());
    }
  }
  overlap_epoch.fetch_add(1);
  h.latency.observe(
      std::chrono::duration<double>(Clock::now() - start).count());
  job->promise.set_value(std::move(response));
}

obs::json::Value Server::Impl::statsz_body() {
  obs::json::Object body;
  body.emplace_back("snapshot", obs::Registry::global().snapshot().to_json());
  obs::json::Object q;
  {
    std::lock_guard<std::mutex> lock(queue_mutex);
    q.emplace_back("depth", static_cast<std::uint64_t>(queue.size()));
  }
  q.emplace_back("capacity", static_cast<std::uint64_t>(options.queue_depth));
  q.emplace_back("draining", draining.load());
  body.emplace_back("queue", obs::json::Value(std::move(q)));
  obs::json::Object opt;
  opt.emplace_back("workers", static_cast<std::uint64_t>(options.workers));
  opt.emplace_back("queue_depth",
                   static_cast<std::uint64_t>(options.queue_depth));
  opt.emplace_back("default_deadline_ms", options.default_deadline_ms);
  opt.emplace_back("max_request_bytes",
                   static_cast<std::uint64_t>(options.max_request_bytes));
  body.emplace_back("options", obs::json::Value(std::move(opt)));
  return obs::json::Value(std::move(body));
}

ServerOptions ServerOptions::from_env(ServerOptions base) {
  if (const auto v = util::env_u64("PGMCML_SERVICE_WORKERS", 1, 256)) {
    base.workers = static_cast<std::size_t>(*v);
  }
  if (const auto v =
          util::env_u64("PGMCML_SERVICE_QUEUE_DEPTH", 1, 1'000'000)) {
    base.queue_depth = static_cast<std::size_t>(*v);
  }
  if (const auto v =
          util::env_u64("PGMCML_SERVICE_DEADLINE_MS", 0, 86'400'000)) {
    base.default_deadline_ms = *v;
  }
  if (const auto v = util::env_u64("PGMCML_SERVICE_MAX_REQUEST_BYTES", 1024,
                                   std::uint64_t{1} << 30)) {
    base.max_request_bytes = static_cast<std::size_t>(*v);
  }
  return base;
}

Server::Server(ServerOptions options) : impl_(std::make_unique<Impl>()) {
  impl_->options = std::move(options);
}

Server::~Server() {
  if (impl_ == nullptr) return;
  drain();
  wait();
}

void Server::start() {
  {
    std::lock_guard<std::mutex> lock(impl_->lifecycle_mutex);
    if (impl_->started) throw std::runtime_error("service: already started");
    impl_->started = true;
  }
  if (::pipe(impl_->wake_pipe) != 0) {
    throw std::runtime_error("service: pipe() failed");
  }
  impl_->bind_listeners();
  for (std::size_t i = 0; i < impl_->options.workers; ++i) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
  impl_->acceptor = std::thread([this] { impl_->acceptor_loop(); });
}

void Server::drain() {
  {
    std::lock_guard<std::mutex> lock(impl_->lifecycle_mutex);
    if (!impl_->started) return;
  }
  if (impl_->draining.exchange(true)) return;
  // Wake the acceptor so it closes the listeners.
  const char byte = 1;
  (void)!::write(impl_->wake_pipe[1], &byte, 1);
  // Refuse new admissions; let the workers finish the queue and exit.
  {
    std::lock_guard<std::mutex> lock(impl_->queue_mutex);
    impl_->accepting = false;
    impl_->stop_workers = true;
  }
  impl_->queue_cv.notify_all();
  // Existing clients: stop reading further requests.  In-flight responses
  // still flush (only the read side is shut down).
  {
    std::lock_guard<std::mutex> lock(impl_->conn_mutex);
    for (const auto& conn : impl_->conns) ::shutdown(conn->fd, SHUT_RD);
  }
}

void Server::wait() {
  {
    std::lock_guard<std::mutex> lock(impl_->lifecycle_mutex);
    if (!impl_->started || impl_->joined) return;
    impl_->joined = true;
  }
  if (impl_->acceptor.joinable()) impl_->acceptor.join();
  for (std::thread& w : impl_->workers) {
    if (w.joinable()) w.join();
  }
  // Workers have fulfilled every admitted promise, so connection threads
  // can only be flushing responses or blocked in a read that drain() shut
  // down.
  std::vector<std::unique_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(impl_->conn_mutex);
    conns.swap(impl_->conns);
  }
  for (const auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  close_quiet(impl_->wake_pipe[0]);
  close_quiet(impl_->wake_pipe[1]);
}

int Server::tcp_port() const { return impl_->actual_tcp_port; }

std::size_t Server::queue_depth() const {
  std::lock_guard<std::mutex> lock(impl_->queue_mutex);
  return impl_->queue.size();
}

obs::json::Value Server::statsz() const { return impl_->statsz_body(); }

}  // namespace pgmcml::service
