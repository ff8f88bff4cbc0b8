// Internal POSIX socket helpers shared by SocketNetwork and FrameProxy.
// Not installed; everything here assumes blocking stream sockets whose
// reads are unblocked by shutdown() from another thread.
#pragma once

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace amoeba::net::detail {

// One frame on the stream: u32 little-endian body length, then the body
// (docs/PROTOCOL.md §10).  A receiver must accept any segmentation of the
// stream, so the read side below never assumes a frame arrives whole or
// alone.

/// Upper bound on one frame body; a larger (or zero) length is a protocol
/// violation that ends the stream (a desynchronized or hostile peer must
/// not drive multi-gigabyte allocations).
inline constexpr std::uint32_t kMaxFrameBytes = 16u << 20;

/// Initial size of a reader's buffer; it grows to fit a larger frame.
inline constexpr std::size_t kFrameReadBuffer = 64u << 10;

/// Sends one frame, length prefix and body, with one sendmsg per attempt
/// (looping on partial writes).  False when the socket failed.
inline bool write_frame(int fd, std::span<const std::uint8_t> body) {
  const auto len = static_cast<std::uint32_t>(body.size());
  std::uint8_t prefix[4] = {static_cast<std::uint8_t>(len),
                            static_cast<std::uint8_t>(len >> 8),
                            static_cast<std::uint8_t>(len >> 16),
                            static_cast<std::uint8_t>(len >> 24)};
  iovec iov[2] = {{prefix, sizeof(prefix)},
                  {const_cast<std::uint8_t*>(body.data()), body.size()}};
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = 2;
  while (msg.msg_iovlen > 0) {
    // MSG_NOSIGNAL: a torn connection must surface as EPIPE, not SIGPIPE.
    const ssize_t put = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (put <= 0) {
      if (put < 0 && errno == EINTR) continue;
      return false;
    }
    auto sent = static_cast<std::size_t>(put);
    while (msg.msg_iovlen > 0 && sent >= msg.msg_iov->iov_len) {
      sent -= msg.msg_iov->iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    if (msg.msg_iovlen > 0) {
      msg.msg_iov->iov_base =
          static_cast<std::uint8_t*>(msg.msg_iov->iov_base) + sent;
      msg.msg_iov->iov_len -= sent;
    }
  }
  return true;
}

/// Reads frames from `fd` until the stream ends, fails, carries a length
/// of 0 or above kMaxFrameBytes, or `on_frame` returns false.  Each recv
/// fills one reusable buffer, and every complete frame in it is handed to
/// `on_frame(std::span<const std::uint8_t> body)` before the next recv;
/// the span is valid only during the call.
template <typename OnFrame>
void read_frames(int fd, OnFrame&& on_frame) {
  std::vector<std::uint8_t> buf(kFrameReadBuffer);
  std::size_t begin = 0;  // first unparsed byte
  std::size_t end = 0;    // one past the last received byte
  for (;;) {
    std::size_t need = 4;  // bytes of the next frame, prefix included
    while (end - begin >= 4) {
      const std::uint8_t* p = buf.data() + begin;
      const std::uint32_t len = static_cast<std::uint32_t>(p[0]) |
                                (static_cast<std::uint32_t>(p[1]) << 8) |
                                (static_cast<std::uint32_t>(p[2]) << 16) |
                                (static_cast<std::uint32_t>(p[3]) << 24);
      if (len == 0 || len > kMaxFrameBytes) return;
      need = 4 + std::size_t{len};
      if (end - begin < need) break;
      if (!on_frame(std::span<const std::uint8_t>(p + 4, len))) return;
      begin += need;
      need = 4;
    }
    if (begin == end) {
      begin = end = 0;
    } else if (buf.size() - begin < need) {
      // The next frame does not fit behind `begin`: slide its received
      // part to the front, and grow the buffer for an oversized frame.
      std::memmove(buf.data(), buf.data() + begin, end - begin);
      end -= begin;
      begin = 0;
      if (buf.size() < need) buf.resize(need);
    }
    const ssize_t got = ::recv(fd, buf.data() + end, buf.size() - end, 0);
    if (got <= 0) {
      if (got < 0 && errno == EINTR) continue;
      return;
    }
    end += static_cast<std::size_t>(got);
  }
}

inline void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Blocking TCP connect; returns the fd or -1.
inline int connect_to(const std::string& host, std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  if (::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                    &res) != 0) {
    return -1;
  }
  int fd = -1;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd >= 0) set_nodelay(fd);
  return fd;
}

/// Binds and listens on 127.0.0.1:`port` (0 = ephemeral); stores the
/// actually bound port in *bound.  Returns the fd or -1.
inline int listen_on(std::uint16_t port, std::uint16_t* bound) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    return -1;
  }
  sockaddr_in actual{};
  socklen_t len = sizeof(actual);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&actual), &len) == 0) {
    *bound = ntohs(actual.sin_port);
  }
  return fd;
}

}  // namespace amoeba::net::detail
