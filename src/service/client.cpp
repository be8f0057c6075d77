#include "pgmcml/service/client.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>

#include "pgmcml/config/reader.hpp"

namespace pgmcml::service {

Client::~Client() { close(); }

void Client::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  pending_.clear();
}

Client Client::connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("client: socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("client: socket() failed");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("client: cannot connect to " + path + ": " +
                             std::strerror(err));
  }
  return Client(fd);
}

Client Client::connect_tcp(const std::string& host, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("client: bad IPv4 address: " + host);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("client: socket() failed");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("client: cannot connect to " + host + ":" +
                             std::to_string(port) + ": " +
                             std::strerror(err));
  }
  return Client(fd);
}

void Client::send_raw(const std::string& bytes) {
  const char* data = bytes.data();
  std::size_t size = bytes.size();
  while (size > 0) {
    const ssize_t n = ::send(fd_, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("client: send failed: " +
                               std::string(std::strerror(errno)));
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
}

std::string Client::read_line() {
  char buf[65536];
  for (;;) {
    const std::size_t pos = pending_.find('\n');
    if (pos != std::string::npos) {
      std::string line = pending_.substr(0, pos);
      pending_.erase(0, pos + 1);
      return line;
    }
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      throw std::runtime_error("client: connection closed by server");
    }
    pending_.append(buf, static_cast<std::size_t>(n));
  }
}

std::string Client::call_raw(const std::string& line) {
  std::string out = line;
  if (out.empty() || out.back() != '\n') out.push_back('\n');
  send_raw(out);
  return read_line();
}

obs::json::Value Client::call(const obs::json::Value& request) {
  return obs::json::Value::parse(call_raw(request.dump(-1)));
}

obs::json::Value make_run_request(const std::string& id,
                                  obs::json::Value experiment,
                                  std::uint64_t deadline_ms) {
  obs::json::Object o;
  o.emplace_back("pgmcml_schema", std::int64_t{1});
  o.emplace_back("kind", "request");
  o.emplace_back("id", id);
  o.emplace_back("op", "run");
  if (deadline_ms != 0) o.emplace_back("deadline_ms", deadline_ms);
  o.emplace_back("experiment", std::move(experiment));
  return obs::json::Value(std::move(o));
}

obs::json::Value make_simple_request(const std::string& id,
                                     const std::string& op) {
  obs::json::Object o;
  o.emplace_back("pgmcml_schema", std::int64_t{1});
  o.emplace_back("kind", "request");
  o.emplace_back("id", id);
  o.emplace_back("op", op);
  return obs::json::Value(std::move(o));
}

obs::json::Value inline_experiment_refs(obs::json::Value experiment,
                                        const std::string& base_dir) {
  if (!experiment.is_object()) return experiment;
  for (const char* member : {"technology", "design", "plan"}) {
    const obs::json::Value* v = experiment.find(member);
    if (v == nullptr || !v->is_string()) continue;
    std::string path = v->as_string();
    if (path.empty() || path.front() != '/') path = base_dir + "/" + path;
    experiment.set(member, config::load_json_file(path));
  }
  return experiment;
}

}  // namespace pgmcml::service
