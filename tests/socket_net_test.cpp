// SocketNetwork: the simulated LAN's delivery semantics over real TCP.
//
// Two (or more) SocketNetwork instances run in one test process and talk
// over 127.0.0.1, which is exactly the multi-process deployment shape --
// nothing is shared between the instances except the deterministic
// one-way function.  The suite adapts net_test's delivery semantics to
// the places where a real wire differs from the simulated one:
//
//   * transmit to a machine no frame or locate reply ever named fails
//     fast (the "no GET outstanding" signal), but a frame sent into a
//     torn link is silently lost and the sender still sees true --
//     best-effort, recovered by the at-most-once layer;
//   * fault injection comes from net::FrameProxy between the nodes, not
//     from the local fault knobs;
//   * a TCP stream has no frame boundaries: a receiver must decode any
//     segmentation of the length-prefixed frames, which the raw-socket
//     tests below drive byte by byte.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <optional>
#include <thread>
#include <vector>

#include "amoeba/net/frame_proxy.hpp"
#include "amoeba/net/socket_network.hpp"
#include "test_seed.hpp"

namespace amoeba::net {
namespace {

using namespace std::chrono_literals;

Message make_data(Port dest, std::uint16_t opcode) {
  Message m;
  m.header.dest = dest;
  m.header.opcode = opcode;
  return m;
}

SocketNetwork::SocketConfig server_config(std::uint32_t machine_base) {
  SocketNetwork::SocketConfig config;
  config.net.seed = test::seed_base(9) + machine_base;
  config.net.machine_id_base = machine_base;
  config.locate_timeout = 250ms;
  return config;
}

SocketNetwork::SocketConfig client_config(std::uint32_t machine_base,
                                          std::uint16_t server_port) {
  SocketNetwork::SocketConfig config = server_config(machine_base);
  config.listen = false;
  config.peers = {{"127.0.0.1", server_port}};
  return config;
}

TEST(SocketNetworkTest, CrossNodeRoundTripWithSourceStamping) {
  SocketNetwork server_net(server_config(0));
  Machine& server = server_net.add_machine("server");
  const Port g(0xAAAA);
  Receiver service = server.listen(g);

  SocketNetwork client_net(client_config(100, server_net.listen_port()));
  Machine& client = client_net.add_machine("client");
  ASSERT_TRUE(client_net.wait_connected(0, 2000ms));

  // Broadcast LOCATE across the wire finds the remote listener.
  const auto located = client.locate(service.put_port());
  ASSERT_TRUE(located.has_value());
  EXPECT_EQ(*located, server.id());
  EXPECT_EQ(located->value(), 1u);  // base 0, first machine

  const Port reply_get(0x1111);
  Receiver reply_rx = client.listen(reply_get);
  Message request = make_data(service.put_port(), 7);
  request.header.reply = reply_get;
  ASSERT_TRUE(client.transmit(request, *located));

  const auto delivery = service.receive({}, 2000ms);
  ASSERT_TRUE(delivery.has_value());
  EXPECT_EQ(delivery->message.header.opcode, 7);
  // The frame carries the true source id; disjoint machine_id_base makes
  // it unique clusterwide (client is machine 101, not 1).
  EXPECT_EQ(delivery->src, client.id());
  EXPECT_EQ(delivery->src.value(), 101u);
  // The reply port crossed the wire transformed: F(reply_get), never the
  // secret get-port itself.
  EXPECT_EQ(delivery->message.header.reply, reply_rx.put_port());
  EXPECT_NE(delivery->message.header.reply, reply_get);

  // Reply along the stamped source: the server needs no peer config, the
  // route was learned from the request frame.
  Message reply = make_reply(delivery->message, ErrorCode::ok);
  ASSERT_TRUE(server.transmit(reply, delivery->src));
  const auto response = reply_rx.receive({}, 2000ms);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->message.header.status, ErrorCode::ok);
}

TEST(SocketNetworkTest, LocateMissesSecretGetPortAndWithdrawnGets) {
  SocketNetwork server_net(server_config(0));
  Machine& server = server_net.add_machine("server");
  const Port g(0xBBBB);

  SocketNetwork client_net(client_config(200, server_net.listen_port()));
  Machine& client = client_net.add_machine("client");
  ASSERT_TRUE(client_net.wait_connected(0, 2000ms));

  Port put;
  {
    Receiver service = server.listen(g);
    put = service.put_port();
    ASSERT_NE(put, g);
    // The registration is on F(G): locating G itself times out silently
    // (the secret never crossed the wire, nobody answers for it).
    EXPECT_FALSE(client.locate(g).has_value());
    EXPECT_TRUE(client.locate(put).has_value());
  }
  // GET withdrawn: the next locate gets no reply and reports a miss --
  // the migration signal transports use to re-resolve.
  EXPECT_FALSE(client.locate(put).has_value());
}

TEST(SocketNetworkTest, TransmitToUnknownMachineFailsFast) {
  SocketNetwork server_net(server_config(0));
  server_net.add_machine("server");

  SocketNetwork client_net(client_config(300, server_net.listen_port()));
  Machine& client = client_net.add_machine("client");
  ASSERT_TRUE(client_net.wait_connected(0, 2000ms));

  // No frame or locate reply ever named machine 42: the send is rejected
  // exactly like the simulated wire's "no GET outstanding", so transports
  // invalidate their location cache instead of retransmitting forever.
  EXPECT_FALSE(client.transmit(make_data(Port(0xDEAD), 1), MachineId(42)));
  EXPECT_GE(client_net.socket_stats().unrouted, 1u);
}

TEST(SocketNetworkTest, RoundRobinAcrossRemoteGets) {
  SocketNetwork server_net(server_config(0));
  Machine& server = server_net.add_machine("server");
  const Port g(0x6666);
  Receiver r1 = server.listen(g);
  Receiver r2 = server.listen(g);

  SocketNetwork client_net(client_config(400, server_net.listen_port()));
  Machine& client = client_net.add_machine("client");
  ASSERT_TRUE(client_net.wait_connected(0, 2000ms));
  const auto located = client.locate(r1.put_port());
  ASSERT_TRUE(located.has_value());

  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client.transmit(make_data(r1.put_port(), 1), *located));
  }
  int count1 = 0;
  int count2 = 0;
  while (r1.receive({}, 300ms).has_value()) ++count1;
  while (r2.receive({}, 300ms).has_value()) ++count2;
  EXPECT_EQ(count1, 2);
  EXPECT_EQ(count2, 2);
}

TEST(SocketNetworkTest, BroadcastReachesLocalAndRemoteListeners) {
  SocketNetwork server_net(server_config(0));
  Machine& remote = server_net.add_machine("remote");
  const Port g(0x7777);
  Receiver remote_rx = remote.listen(g);

  SocketNetwork client_net(client_config(500, server_net.listen_port()));
  Machine& local = client_net.add_machine("local");
  Machine& sender = client_net.add_machine("sender");
  Receiver local_rx = local.listen(g);
  ASSERT_TRUE(client_net.wait_connected(0, 2000ms));

  sender.broadcast(make_data(remote_rx.put_port(), 3));
  EXPECT_TRUE(local_rx.receive({}, 2000ms).has_value());
  const auto delivery = remote_rx.receive({}, 2000ms);
  ASSERT_TRUE(delivery.has_value());
  EXPECT_EQ(delivery->src, sender.id());
}

TEST(SocketNetworkTest, ReconnectPreservesIdentityAcrossSever) {
  SocketNetwork server_net(server_config(0));
  Machine& server = server_net.add_machine("server");
  const Port g(0xCCCC);
  Receiver service = server.listen(g);

  FrameProxy proxy({.target_host = "127.0.0.1",
                    .target_port = server_net.listen_port(),
                    .seed = test::seed_base(9)});
  SocketNetwork client_net(client_config(600, proxy.listen_port()));
  Machine& client = client_net.add_machine("client");
  ASSERT_TRUE(client_net.wait_connected(0, 2000ms));
  ASSERT_TRUE(client.locate(service.put_port()).has_value());

  Message request = make_data(service.put_port(), 1);
  request.header.client = 0xC0FFEE;
  request.header.seq = 1;
  ASSERT_TRUE(client.transmit(request, server.id()));
  auto first = service.receive({}, 2000ms);
  ASSERT_TRUE(first.has_value());

  proxy.sever();  // tears client->proxy and proxy->server at once

  // The dialer re-dials with backoff; a frame sent into the gap may be
  // lost (best-effort), so retry until one arrives -- exactly what the
  // at-most-once transport's retransmission loop does.
  request.header.seq = 2;
  request.header.flags = kFlagRetransmit;
  std::optional<Delivery> second;
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (!second.has_value() && std::chrono::steady_clock::now() < deadline) {
    client.transmit(request, server.id());
    second = service.receive({}, 100ms);
  }
  ASSERT_TRUE(second.has_value());
  // At-most-once identity lives in the frame, not the connection: after a
  // full reconnect the server still sees the same (machine, client) key,
  // so its reply cache keeps suppressing duplicates.
  EXPECT_EQ(second->src, first->src);
  EXPECT_EQ(second->message.header.client, first->message.header.client);
  EXPECT_GE(client_net.socket_stats().connects, 2u);
}

TEST(FrameProxyTest, PartitionBlocksFramesUntilLifted) {
  SocketNetwork server_net(server_config(0));
  Machine& server = server_net.add_machine("server");
  const Port g(0xDDDD);
  Receiver service = server.listen(g);

  FrameProxy proxy({.target_host = "127.0.0.1",
                    .target_port = server_net.listen_port(),
                    .seed = test::seed_base(9)});
  SocketNetwork client_net(client_config(700, proxy.listen_port()));
  Machine& client = client_net.add_machine("client");
  ASSERT_TRUE(client_net.wait_connected(0, 2000ms));
  ASSERT_TRUE(client.locate(service.put_port()).has_value());

  proxy.set_partitioned(true);
  // The connection stays up, so the sender still believes the frame was
  // admitted -- the half-alive failure mode retransmission must absorb.
  EXPECT_TRUE(client.transmit(make_data(service.put_port(), 1), server.id()));
  EXPECT_FALSE(service.receive({}, 100ms).has_value());
  EXPECT_GE(proxy.stats().dropped, 1u);

  proxy.set_partitioned(false);
  EXPECT_TRUE(client.transmit(make_data(service.put_port(), 2), server.id()));
  const auto delivery = service.receive({}, 2000ms);
  ASSERT_TRUE(delivery.has_value());
  EXPECT_EQ(delivery->message.header.opcode, 2);
}

// ------------------------------------------------- framing over raw TCP
//
// These tests speak to a SocketNetwork over plain sockets.  The frames
// they write are captured from a real node's sends, so the bytes are the
// ones the protocol puts on the wire; only their segmentation differs.

constexpr std::uint32_t kMaxFrameBytes = 16u << 20;

void set_recv_timeout(int fd) {
  timeval tv{};
  tv.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

/// A 127.0.0.1 listening socket with no SocketNetwork behind it.
int raw_listen(std::uint16_t* port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (fd < 0 ||
      ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 4) != 0) {
    return -1;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  *port = ntohs(addr.sin_port);
  return fd;
}

int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (fd < 0 || ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                          sizeof(addr)) != 0) {
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  set_recv_timeout(fd);
  return fd;
}

bool send_all(int fd, const std::uint8_t* data, std::size_t n) {
  while (n > 0) {
    const ssize_t put = ::send(fd, data, n, MSG_NOSIGNAL);
    if (put <= 0) return false;
    data += put;
    n -= static_cast<std::size_t>(put);
  }
  return true;
}

bool recv_all(int fd, std::uint8_t* out, std::size_t n) {
  while (n > 0) {
    const ssize_t got = ::recv(fd, out, n, 0);
    if (got <= 0) return false;
    out += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

/// One whole frame, length prefix included, read off a raw socket.
std::optional<Buffer> recv_frame(int fd) {
  Buffer frame(4);
  if (!recv_all(fd, frame.data(), 4)) return std::nullopt;
  const std::uint32_t len = frame[0] | (frame[1] << 8) | (frame[2] << 16) |
                            (static_cast<std::uint32_t>(frame[3]) << 24);
  frame.resize(4 + std::size_t{len});
  if (!recv_all(fd, frame.data() + 4, len)) return std::nullopt;
  return frame;
}

void expect_same(const Delivery& got, const Delivery& want) {
  EXPECT_EQ(got.src, want.src);
  const Header& a = got.message.header;
  const Header& b = want.message.header;
  EXPECT_EQ(a.dest, b.dest);
  EXPECT_EQ(a.reply, b.reply);
  EXPECT_EQ(a.signature, b.signature);
  EXPECT_EQ(a.opcode, b.opcode);
  EXPECT_EQ(a.flags, b.flags);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.capability, b.capability);
  EXPECT_EQ(a.params, b.params);
  EXPECT_EQ(a.client, b.client);
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(got.message.data, want.message.data);
}

/// A server node plus a sender node that dials both the server and a raw
/// "tap" socket.  Every broadcast from the sender reaches the server the
/// normal way and lands on the tap as the exact bytes it sent.
class RawFramingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::uint16_t tap_port = 0;
    tap_listen_ = raw_listen(&tap_port);
    ASSERT_GE(tap_listen_, 0);
    SocketNetwork::SocketConfig config = server_config(800);
    config.listen = false;
    config.peers = {{"127.0.0.1", tap_port},
                    {"127.0.0.1", server_net_.listen_port()}};
    sender_net_.emplace(config);
    sender_ = &sender_net_->add_machine("sender");
    tap_ = ::accept(tap_listen_, nullptr, nullptr);
    ASSERT_GE(tap_, 0);
    set_recv_timeout(tap_);
    ASSERT_TRUE(sender_net_->wait_connected(0, 2000ms));
    ASSERT_TRUE(sender_net_->wait_connected(1, 2000ms));
    const auto hello = recv_frame(tap_);
    ASSERT_TRUE(hello.has_value());
    ASSERT_EQ((*hello)[4], 4);  // frame kind: hello
  }

  void TearDown() override {
    sender_net_.reset();
    if (tap_ >= 0) ::close(tap_);
    if (tap_listen_ >= 0) ::close(tap_listen_);
  }

  /// Broadcasts `msg` and returns its wire bytes and the delivery the
  /// server made of them.
  std::pair<Buffer, Delivery> capture(const Message& msg) {
    std::optional<Buffer> wire;
    {
      // The tap is read while the send runs: a large frame fills the
      // socket buffers before broadcast() returns.
      std::jthread send([&] { sender_->broadcast(msg); });
      wire = recv_frame(tap_);
    }
    auto normal = service_.receive({}, 10'000ms);
    EXPECT_TRUE(wire.has_value());
    EXPECT_TRUE(normal.has_value());
    return {wire.value_or(Buffer{}), normal.value_or(Delivery{})};
  }

  Message sample(std::uint16_t opcode, std::size_t data_bytes) const {
    Message msg;
    msg.header.dest = service_.put_port();
    msg.header.reply = Port(0x5000 + opcode);
    msg.header.opcode = opcode;
    msg.header.flags = kFlagAtMostOnce;
    msg.header.status = ErrorCode::timeout;
    msg.header.capability[0] = 0xCA;
    msg.header.capability[15] = static_cast<std::uint8_t>(opcode);
    msg.header.params = {opcode, ~std::uint64_t{opcode}, 3, 4};
    msg.header.client = 0xC11E47;
    msg.header.seq = opcode;
    msg.data.resize(data_bytes);
    for (std::size_t i = 0; i < data_bytes; ++i) {
      msg.data[i] = static_cast<std::uint8_t>(i * 7 + opcode);
    }
    return msg;
  }

  SocketNetwork server_net_{server_config(0)};
  Machine& server_ = server_net_.add_machine("server");
  Receiver service_ = server_.listen(Port(0xEEEE));
  std::optional<SocketNetwork> sender_net_;
  Machine* sender_ = nullptr;
  int tap_listen_ = -1;
  int tap_ = -1;
};

TEST_F(RawFramingTest, FrameSplitAtEveryByteBoundaryDecodes) {
  const auto [wire, normal] = capture(sample(1, 40));
  const int fd = raw_connect(server_net_.listen_port());
  ASSERT_GE(fd, 0);
  for (std::size_t split = 1; split < wire.size(); ++split) {
    ASSERT_TRUE(send_all(fd, wire.data(), split));
    // A pause lets the first part arrive on its own.
    std::this_thread::sleep_for(200us);
    ASSERT_TRUE(send_all(fd, wire.data() + split, wire.size() - split));
    const auto got = service_.receive({}, 5000ms);
    ASSERT_TRUE(got.has_value()) << "split at " << split;
    expect_same(*got, normal);
  }
  // And one byte per write.
  for (const std::uint8_t byte : wire) {
    ASSERT_TRUE(send_all(fd, &byte, 1));
  }
  const auto got = service_.receive({}, 5000ms);
  ASSERT_TRUE(got.has_value());
  expect_same(*got, normal);
  ::close(fd);
}

TEST_F(RawFramingTest, CoalescedFramesInOneWriteAllDecode) {
  // Sizes straddle the reader's 64 KiB buffer, so frames also arrive cut
  // at the buffer's end and slide to its front.
  const std::vector<std::size_t> sizes = {0, 1, 100, 4096, 20000, 70000};
  Buffer stream;
  std::vector<Delivery> expected;
  for (int round = 0; round < 4; ++round) {
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const auto opcode = static_cast<std::uint16_t>(round * 10 + i + 1);
      auto [wire, normal] = capture(sample(opcode, sizes[i]));
      stream.insert(stream.end(), wire.begin(), wire.end());
      expected.push_back(std::move(normal));
    }
  }
  const int fd = raw_connect(server_net_.listen_port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd, stream.data(), stream.size()));
  for (const Delivery& want : expected) {
    const auto got = service_.receive({}, 5000ms);
    ASSERT_TRUE(got.has_value());
    expect_same(*got, want);
  }
  ::close(fd);
}

TEST_F(RawFramingTest, LargestFrameGrowsTheBufferAndDecodes) {
  // Size the data so the frame body is exactly the 16 MiB limit.
  const std::size_t overhead = capture(sample(1, 0)).first.size() - 4;
  auto [wire, normal] =
      capture(sample(2, std::size_t{kMaxFrameBytes} - overhead));
  ASSERT_EQ(wire.size(), 4 + std::size_t{kMaxFrameBytes});
  const int fd = raw_connect(server_net_.listen_port());
  ASSERT_GE(fd, 0);
  // Uneven chunks, so the frame is never whole in one recv.
  std::size_t sent = 0;
  for (std::size_t chunk = 3; sent < wire.size(); chunk = chunk * 5 + 1) {
    const std::size_t n = std::min(chunk, wire.size() - sent);
    ASSERT_TRUE(send_all(fd, wire.data() + sent, n));
    sent += n;
  }
  const auto got = service_.receive({}, 10'000ms);
  ASSERT_TRUE(got.has_value());
  expect_same(*got, normal);
  ::close(fd);
}

TEST(RawFramingLimits, ZeroOrOversizedLengthTearsTheLinkDown) {
  SocketNetwork server_net(server_config(0));
  for (const std::uint32_t bad : {0u, kMaxFrameBytes + 1}) {
    const int fd = raw_connect(server_net.listen_port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(recv_frame(fd).has_value());  // the server's hello
    const std::uint8_t prefix[4] = {
        static_cast<std::uint8_t>(bad), static_cast<std::uint8_t>(bad >> 8),
        static_cast<std::uint8_t>(bad >> 16),
        static_cast<std::uint8_t>(bad >> 24)};
    ASSERT_TRUE(send_all(fd, prefix, sizeof(prefix)));
    // The server shuts the socket: the next read sees end of stream.
    std::uint8_t byte = 0;
    EXPECT_EQ(::recv(fd, &byte, 1, 0), 0) << "length " << bad;
    ::close(fd);
  }
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (server_net.socket_stats().disconnects < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(server_net.socket_stats().disconnects, 2u);
}

}  // namespace
}  // namespace amoeba::net
