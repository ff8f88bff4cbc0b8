// Tests for the blocking RPC layer: trans request/reply, one-shot reply
// ports, the locate cache (cold, warm, stale after migration), timeouts,
// concurrent clients, and multi-worker services.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "amoeba/net/network.hpp"
#include "amoeba/rpc/server.hpp"
#include "amoeba/rpc/transport.hpp"
#include "amoeba/storage/backend.hpp"
#include "amoeba/storage/group_commit.hpp"

namespace amoeba::rpc {
namespace {

using namespace std::chrono_literals;

/// Echoes the request payload; opcode 2 asks the service to stall briefly
/// (timeout tests), opcode 3 reports the worker thread id hash.
class EchoService final : public Service {
 public:
  using Service::Service;
  ~EchoService() override { stop(); }  // workers quiesce before vptr reset

 protected:
  net::Message handle(const net::Delivery& request) override {
    if (request.message.header.opcode == 2) {
      std::this_thread::sleep_for(300ms);
    }
    net::Message reply = net::make_reply(request.message, ErrorCode::ok);
    reply.data = request.message.data;
    reply.header.params[0] = request.message.header.params[0] + 1;
    if (request.message.header.opcode == 3) {
      reply.header.params[1] =
          std::hash<std::thread::id>{}(std::this_thread::get_id());
    }
    return reply;
  }
};

TEST(TransportTest, BasicTransRoundTrip) {
  net::Network net;
  net::Machine& sm = net.add_machine("server");
  net::Machine& cm = net.add_machine("client");
  EchoService service(sm, Port(0x1001), "echo");
  service.start();
  Transport transport(cm, 1);

  net::Message req;
  req.header.dest = service.put_port();
  req.header.opcode = 1;
  req.header.params[0] = 41;
  req.data = {1, 2, 3};
  const auto reply = transport.trans(req);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().message.header.status, ErrorCode::ok);
  EXPECT_EQ(reply.value().message.header.params[0], 42u);
  EXPECT_EQ(reply.value().message.data, (Buffer{1, 2, 3}));
  EXPECT_EQ(service.requests_served(), 1u);
}

TEST(TransportTest, UnknownPortFailsWithNoSuchPort) {
  net::Network net;
  net::Machine& cm = net.add_machine("client");
  Transport transport(cm, 1);
  net::Message req;
  req.header.dest = Port(0xDEAD);
  const auto reply = transport.trans(req, 200ms);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error(), ErrorCode::no_such_port);
}

TEST(TransportTest, LocateCacheWarmsAfterFirstCall) {
  net::Network net;
  net::Machine& sm = net.add_machine("server");
  net::Machine& cm = net.add_machine("client");
  EchoService service(sm, Port(0x1002), "echo");
  service.start();
  Transport transport(cm, 1);

  net::Message req;
  req.header.dest = service.put_port();
  ASSERT_TRUE(transport.trans(req).ok());
  ASSERT_TRUE(transport.trans(req).ok());
  ASSERT_TRUE(transport.trans(req).ok());
  const auto stats = transport.stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 2u);
  EXPECT_EQ(net.stats().locates.load(), 1u);
}

TEST(TransportTest, StaleCacheRecoversAfterMigration) {
  net::Network net;
  net::Machine& a = net.add_machine("a");
  net::Machine& b = net.add_machine("b");
  net::Machine& cm = net.add_machine("client");
  EchoService service(a, Port(0x1003), "echo");
  service.start();
  Transport transport(cm, 1);

  net::Message req;
  req.header.dest = service.put_port();
  ASSERT_TRUE(transport.trans(req).ok());

  // Migrate the service to machine b.
  service.stop();
  service.rebind(b);
  service.start();

  const auto reply = transport.trans(req);
  ASSERT_TRUE(reply.ok());
  const auto stats = transport.stats();
  EXPECT_EQ(stats.cache_invalidations, 1u);
  EXPECT_EQ(service.machine().id(), b.id());
}

TEST(TransportTest, DeadServiceTimesOutOrFailsLocate) {
  net::Network net;
  net::Machine& sm = net.add_machine("server");
  net::Machine& cm = net.add_machine("client");
  Port put;
  {
    EchoService service(sm, Port(0x1004), "echo");
    service.start();
    put = service.put_port();
    Transport warm(cm, 1);
    net::Message req;
    req.header.dest = put;
    ASSERT_TRUE(warm.trans(req).ok());
  }  // service stopped and destroyed
  Transport transport(cm, 2);
  net::Message req;
  req.header.dest = put;
  const auto reply = transport.trans(req, 200ms);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error(), ErrorCode::no_such_port);
}

TEST(TransportTest, SlowServiceTimesOut) {
  net::Network net;
  net::Machine& sm = net.add_machine("server");
  net::Machine& cm = net.add_machine("client");
  EchoService service(sm, Port(0x1005), "echo");
  service.start();
  Transport transport(cm, 1);
  net::Message req;
  req.header.dest = service.put_port();
  req.header.opcode = 2;  // stall
  const auto reply = transport.trans(req, 50ms);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error(), ErrorCode::timeout);
  EXPECT_EQ(transport.stats().timeouts, 1u);
}

TEST(TransportTest, ConcurrentClientsShareOneTransport) {
  net::Network net;
  net::Machine& sm = net.add_machine("server");
  net::Machine& cm = net.add_machine("client");
  EchoService service(sm, Port(0x1006), "echo");
  service.start(4);
  Transport transport(cm, 1);

  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 25;
  std::atomic<int> failures{0};
  {
    std::vector<std::jthread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kCallsPerThread; ++i) {
          net::Message req;
          req.header.dest = service.put_port();
          req.header.params[0] =
              static_cast<std::uint64_t>(t) * 1000 + static_cast<std::uint64_t>(i);
          const auto reply = transport.trans(req, 5000ms);
          if (!reply.ok() ||
              reply.value().message.header.params[0] != req.header.params[0] + 1) {
            failures.fetch_add(1);
          }
        }
      });
    }
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(service.requests_served(),
            static_cast<std::uint64_t>(kThreads) * kCallsPerThread);
}

TEST(TransportTest, RepliesUseOneShotPorts) {
  // Two consecutive transactions must use different reply ports on the
  // wire (no long-lived communication structures).
  net::Network net;
  net::Machine& sm = net.add_machine("server");
  net::Machine& cm = net.add_machine("client");
  EchoService service(sm, Port(0x1007), "echo");
  service.start();
  Transport transport(cm, 1);

  std::vector<Port> reply_ports;
  net::TapHandle tap = net.attach_tap([&](const net::TapRecord& rec) {
    if (rec.kind == net::FrameKind::data &&
        !rec.message.header.reply.is_null()) {
      reply_ports.push_back(rec.message.header.reply);
    }
  });
  net::Message req;
  req.header.dest = service.put_port();
  ASSERT_TRUE(transport.trans(req).ok());
  ASSERT_TRUE(transport.trans(req).ok());
  ASSERT_EQ(reply_ports.size(), 2u);
  EXPECT_NE(reply_ports[0], reply_ports[1]);
}

TEST(ServiceTest, MultipleWorkersServeInParallel) {
  net::Network net;
  net::Machine& sm = net.add_machine("server");
  net::Machine& cm = net.add_machine("client");
  EchoService service(sm, Port(0x1008), "echo");
  service.start(3);
  Transport transport(cm, 1);

  // Opcode 2 stalls 300ms; three stalled calls in parallel should finish
  // in roughly one stall period, proving concurrent workers.
  const auto begin = std::chrono::steady_clock::now();
  {
    std::vector<std::jthread> calls;
    for (int i = 0; i < 3; ++i) {
      calls.emplace_back([&] {
        net::Message req;
        req.header.dest = service.put_port();
        req.header.opcode = 2;
        EXPECT_TRUE(transport.trans(req, 5000ms).ok());
      });
    }
  }
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  EXPECT_LT(elapsed, 800ms);
}

TEST(ServiceTest, StartStopRestartCycles) {
  net::Network net;
  net::Machine& sm = net.add_machine("server");
  net::Machine& cm = net.add_machine("client");
  EchoService service(sm, Port(0x1009), "echo");
  Transport transport(cm, 1);
  net::Message req;
  req.header.dest = service.put_port();

  for (int cycle = 0; cycle < 3; ++cycle) {
    service.start();
    EXPECT_TRUE(transport.trans(req).ok());
    service.stop();
    EXPECT_FALSE(transport.trans(req, 100ms).ok());
  }
}

TEST(ServiceTest, DoubleStartThrows) {
  net::Network net;
  net::Machine& sm = net.add_machine("server");
  EchoService service(sm, Port(0x100A), "echo");
  service.start();
  EXPECT_THROW(service.start(), UsageError);
}

TEST(ServiceTest, RebindWhileRunningThrows) {
  net::Network net;
  net::Machine& a = net.add_machine("a");
  net::Machine& b = net.add_machine("b");
  EchoService service(a, Port(0x100B), "echo");
  service.start();
  EXPECT_THROW(service.rebind(b), UsageError);
}

TEST(ServiceTest, DurabilityNeedsTheVolumesCommitter) {
  // Reply floors persist through the group committer only: a volume
  // without one is a usage error, no volume at all is an in-memory
  // service.
  net::Network net;
  net::Machine& sm = net.add_machine("server");
  EchoService service(sm, Port(0x100C), "echo");
  auto volume = std::make_shared<storage::MemoryBackend>(4);
  EXPECT_THROW(service.attach_durability(volume, nullptr), UsageError);
  service.attach_durability(nullptr, nullptr);
  service.attach_durability(volume, storage::GroupCommitter::create(volume));
}

TEST(ServiceTest, SignatureVerificationAdmitsOnlyTrueOwner) {
  // §2.2: each client picks a secret S and publishes F(S); a service can
  // authenticate senders by comparing the arriving (F-box transformed)
  // signature against the published values.
  net::Network net;
  net::Machine& sm = net.add_machine("server");
  net::Machine& cm = net.add_machine("client");
  net::Machine& im = net.add_machine("intruder");
  EchoService service(sm, Port(0x100D), "echo");

  const Port secret_signature(0xABCDEF);
  const Port published = cm.fbox().f().apply(secret_signature);
  service.set_allowed_signatures({published});
  service.start();

  // The legitimate client, owning S, is admitted.
  Transport alice(cm, 1);
  alice.set_signature(secret_signature);
  net::Message req;
  req.header.dest = service.put_port();
  const auto ok_reply = alice.trans(req);
  ASSERT_TRUE(ok_reply.ok());
  EXPECT_EQ(ok_reply.value().message.header.status, ErrorCode::ok);

  // An unsigned request is refused.
  Transport unsigned_client(cm, 2);
  const auto unsigned_reply = unsigned_client.trans(req);
  ASSERT_TRUE(unsigned_reply.ok());
  EXPECT_EQ(unsigned_reply.value().message.header.status,
            ErrorCode::permission_denied);

  // The intruder saw F(S) on the wire and submits it as his signature --
  // but his own F-box transforms it to F(F(S)), which is not published.
  Transport mallory(im, 3);
  mallory.set_signature(published);
  const auto forged_reply = mallory.trans(req);
  ASSERT_TRUE(forged_reply.ok());
  EXPECT_EQ(forged_reply.value().message.header.status,
            ErrorCode::permission_denied);

  // Clearing the requirement reopens the service.
  service.set_allowed_signatures({});
  const auto open_reply = unsigned_client.trans(req);
  ASSERT_TRUE(open_reply.ok());
  EXPECT_EQ(open_reply.value().message.header.status, ErrorCode::ok);
}

TEST(ServiceTest, SignedRequestsCarrySenderSignature) {
  net::Network net;
  net::Machine& sm = net.add_machine("server");
  net::Machine& cm = net.add_machine("client");
  EchoService service(sm, Port(0x100C), "echo");
  service.start();
  Transport transport(cm, 1);
  // The client picks a random secret signature S and publishes F(S).
  const Port secret_signature(0x5167);
  transport.set_signature(secret_signature);
  const Port published = cm.fbox().f().apply(secret_signature);

  Port seen_signature;
  net::TapHandle tap = net.attach_tap([&](const net::TapRecord& rec) {
    if (rec.kind == net::FrameKind::data &&
        !rec.message.header.signature.is_null()) {
      seen_signature = rec.message.header.signature;
    }
  });
  net::Message req;
  req.header.dest = service.put_port();
  ASSERT_TRUE(transport.trans(req).ok());
  // On the wire: F(S), which matches the published value -- and the secret
  // S itself never appears.
  EXPECT_EQ(seen_signature, published);
  EXPECT_NE(seen_signature, secret_signature);
}

}  // namespace
}  // namespace amoeba::rpc
