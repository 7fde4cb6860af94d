#include "service/remote_proto.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace eda::service {

namespace {

/// Apply per-call send/receive timeouts so one wedged peer cannot hang a
/// client thread (the client classifies the resulting EAGAIN as a
/// transport failure and degrades).
void set_io_timeouts(int fd, int io_timeout_ms) {
  if (io_timeout_ms <= 0) return;
  struct timeval tv;
  tv.tv_sec = io_timeout_ms / 1000;
  tv.tv_usec = (io_timeout_ms % 1000) * 1000;
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

bool write_all(int fd, const char* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    // MSG_NOSIGNAL: a daemon death mid-write must surface as EPIPE, not
    // kill the client process with SIGPIPE.
    ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool read_all(int fd, char* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    ssize_t n = ::recv(fd, data + off, len - off, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // peer closed
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

RemoteAddress parse_remote_address(const std::string& spec) {
  RemoteAddress a;
  if (spec.empty()) throw RemoteCacheError("remote address: empty spec");
  if (spec.rfind("unix:", 0) == 0 || spec.find('/') != std::string::npos) {
    a.is_unix = true;
    a.path = spec.rfind("unix:", 0) == 0 ? spec.substr(5) : spec;
    if (a.path.empty()) {
      throw RemoteCacheError("remote address '" + spec +
                             "': empty unix socket path");
    }
    // sockaddr_un.sun_path is a fixed ~108-byte array.
    if (a.path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      throw RemoteCacheError("remote address '" + spec +
                             "': unix socket path too long");
    }
    a.display = "unix:" + a.path;
    return a;
  }
  std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == spec.size()) {
    throw RemoteCacheError("remote address '" + spec +
                           "': expected unix:PATH or HOST:PORT");
  }
  a.host = spec.substr(0, colon);
  std::string port_s = spec.substr(colon + 1);
  std::size_t used = 0;
  int port = 0;
  try {
    port = std::stoi(port_s, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != port_s.size() || port < 0 || port > 65535) {
    throw RemoteCacheError("remote address '" + spec + "': bad port '" +
                           port_s + "'");
  }
  a.port = port;
  a.display = a.host + ":" + std::to_string(port);
  return a;
}

bool write_frame(int fd, const std::string& payload) {
  if (payload.size() > 0xffffffffULL) return false;
  std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  char hdr[4] = {static_cast<char>(len & 0xff),
                 static_cast<char>((len >> 8) & 0xff),
                 static_cast<char>((len >> 16) & 0xff),
                 static_cast<char>((len >> 24) & 0xff)};
  return write_all(fd, hdr, 4) &&
         write_all(fd, payload.data(), payload.size());
}

bool read_frame(int fd, std::string& payload, std::size_t max_bytes) {
  unsigned char hdr[4];
  if (!read_all(fd, reinterpret_cast<char*>(hdr), 4)) return false;
  std::uint32_t len = static_cast<std::uint32_t>(hdr[0]) |
                      (static_cast<std::uint32_t>(hdr[1]) << 8) |
                      (static_cast<std::uint32_t>(hdr[2]) << 16) |
                      (static_cast<std::uint32_t>(hdr[3]) << 24);
  if (len > max_bytes) return false;
  // The header is only a promise: grow the buffer as bytes arrive, one
  // bounded chunk at a time, so a peer that sends a large length and then
  // stalls or closes costs at most one chunk.
  payload.clear();
  while (payload.size() < len) {
    const std::size_t have = payload.size();
    payload.resize(have + std::min<std::size_t>(kFrameChunk, len - have));
    if (!read_all(fd, payload.data() + have, payload.size() - have)) {
      return false;
    }
  }
  return true;
}

bool write_frame_wedged(int fd, const std::string& payload) {
  if (payload.size() > 0xffffffffULL) return false;
  std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  char hdr[4] = {static_cast<char>(len & 0xff),
                 static_cast<char>((len >> 8) & 0xff),
                 static_cast<char>((len >> 16) & 0xff),
                 static_cast<char>((len >> 24) & 0xff)};
  // Half the bytes the header promised: the peer blocks on the remainder
  // until the connection is closed under it.
  return write_all(fd, hdr, 4) &&
         write_all(fd, payload.data(), payload.size() / 2);
}

int connect_remote(const RemoteAddress& addr, int connect_timeout_ms,
                   int io_timeout_ms) {
  int fd = -1;
  if (addr.is_unix) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    std::strncpy(sa.sun_path, addr.path.c_str(), sizeof(sa.sun_path) - 1);
    // Unix connects do not block on a live listener; apply the timeouts
    // and connect directly.
    set_io_timeouts(fd, io_timeout_ms);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }
  fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<std::uint16_t>(addr.port));
  std::string host = addr.host == "localhost" ? "127.0.0.1" : addr.host;
  if (::inet_pton(AF_INET, host.c_str(), &sa.sin_addr) != 1) {
    ::close(fd);
    return -1;
  }
  // Non-blocking connect with a poll() deadline, then back to blocking
  // I/O with per-call timeouts.
  int flags = ::fcntl(fd, F_GETFL, 0);
  (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa);
  if (rc != 0 && errno == EINPROGRESS) {
    struct pollfd pfd{fd, POLLOUT, 0};
    if (::poll(&pfd, 1, connect_timeout_ms <= 0 ? 1000
                                                : connect_timeout_ms) <= 0) {
      ::close(fd);
      return -1;
    }
    int err = 0;
    socklen_t len = sizeof err;
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
        err != 0) {
      ::close(fd);
      return -1;
    }
  } else if (rc != 0) {
    ::close(fd);
    return -1;
  }
  (void)::fcntl(fd, F_SETFL, flags);
  set_io_timeouts(fd, io_timeout_ms);
  return fd;
}

int listen_remote(const RemoteAddress& addr, int backlog, int* bound_port) {
  if (addr.is_unix) {
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      throw RemoteCacheError(std::string("socket: ") +
                             std::strerror(errno));
    }
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    std::strncpy(sa.sun_path, addr.path.c_str(), sizeof(sa.sun_path) - 1);
    // A socket file left by an uncleanly-dead daemon blocks bind with
    // EADDRINUSE even though nobody is listening.  Probe-connect to tell
    // the two cases apart: a live listener accepts (the path is genuinely
    // taken — refuse rather than steal it), a dead file refuses (safe to
    // unlink and rebind).
    int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (probe >= 0) {
      bool live =
          ::connect(probe, reinterpret_cast<sockaddr*>(&sa), sizeof sa) == 0;
      ::close(probe);
      if (live) {
        ::close(fd);
        throw RemoteCacheError("cannot listen on " + addr.display +
                               ": a live daemon already owns this socket");
      }
      ::unlink(addr.path.c_str());
    }
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0 ||
        ::listen(fd, backlog) != 0) {
      int err = errno;
      ::close(fd);
      throw RemoteCacheError("cannot listen on " + addr.display + ": " +
                             std::strerror(err));
    }
    if (bound_port != nullptr) *bound_port = 0;
    return fd;
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw RemoteCacheError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<std::uint16_t>(addr.port));
  std::string host = addr.host == "localhost" ? "127.0.0.1" : addr.host;
  if (::inet_pton(AF_INET, host.c_str(), &sa.sin_addr) != 1) {
    ::close(fd);
    throw RemoteCacheError("cannot resolve host '" + addr.host +
                           "' (numeric IPv4 or localhost only)");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0 ||
      ::listen(fd, backlog) != 0) {
    int err = errno;
    ::close(fd);
    throw RemoteCacheError("cannot listen on " + addr.display + ": " +
                           std::strerror(err));
  }
  if (bound_port != nullptr) {
    sockaddr_in got{};
    socklen_t len = sizeof got;
    *bound_port = ::getsockname(fd, reinterpret_cast<sockaddr*>(&got),
                                &len) == 0
                      ? ntohs(got.sin_port)
                      : addr.port;
  }
  return fd;
}

}  // namespace eda::service
