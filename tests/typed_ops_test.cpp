// Property tests for the typed operation-descriptor layer: the uniform
// std_* suite exercised generically against EVERY server, and the
// rights-enforcement matrix -- every registered op descriptor on every
// server must answer permission_denied when any declared right is masked
// off the presented capability, with no per-server hand-written cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "amoeba/common/rng.hpp"
#include "amoeba/core/schemes.hpp"
#include "amoeba/kernel/memory_server.hpp"
#include "amoeba/net/network.hpp"
#include "amoeba/rpc/typed.hpp"
#include "amoeba/servers/bank_server.hpp"
#include "amoeba/servers/block_server.hpp"
#include "amoeba/servers/common.hpp"
#include "amoeba/servers/directory_server.hpp"
#include "amoeba/servers/flat_file_server.hpp"
#include "amoeba/servers/multiversion_server.hpp"
#include "amoeba/storage/backend.hpp"

namespace amoeba {
namespace {

/// One server under the generic microscope: its service (for the
/// descriptor registry) and a factory minting a full-rights owner
/// capability for a fresh object.  The factory is the only per-server
/// ingredient; every assertion below iterates descriptors generically.
struct ServerUnderTest {
  rpc::Service* service = nullptr;
  std::function<core::Capability()> make_object;
};

class TypedOpsSuite : public ::testing::Test {
 protected:
  TypedOpsSuite() : rng_(2026) {
    const auto scheme = core::make_scheme(core::SchemeKind::one_way_xor, rng_);
    auto& storage = net_.add_machine("storage");
    auto& fs_host = net_.add_machine("fileserver");
    auto& naming = net_.add_machine("naming");
    auto& money = net_.add_machine("bank");
    auto& versions = net_.add_machine("versions");
    auto& kernel_host = net_.add_machine("kernel");
    auto& client_machine = net_.add_machine("client");

    servers::BlockServer::Geometry geometry;
    geometry.block_count = 256;
    geometry.block_size = 256;
    blocks_ = std::make_unique<servers::BlockServer>(storage, Port(0xB10C),
                                                     scheme, 1, geometry);
    files_ = std::make_unique<servers::FlatFileServer>(
        fs_host, Port(0xF17E), scheme, 2, blocks_->put_port());
    dirs_ = std::make_unique<servers::DirectoryServer>(naming, Port(0xD1),
                                                       scheme, 3);
    bank_ = std::make_unique<servers::BankServer>(money, Port(0xBA7C),
                                                  scheme, 4);
    versions_ = std::make_unique<servers::MultiVersionServer>(
        versions, Port(0x3E), scheme, 5, 128);
    memory_ = std::make_unique<kernel::MemoryServer>(kernel_host, Port(0x6E),
                                                     scheme, 6, 1 << 20);
    for (rpc::Service* service :
         {static_cast<rpc::Service*>(blocks_.get()),
          static_cast<rpc::Service*>(files_.get()),
          static_cast<rpc::Service*>(dirs_.get()),
          static_cast<rpc::Service*>(bank_.get()),
          static_cast<rpc::Service*>(versions_.get()),
          static_cast<rpc::Service*>(memory_.get())}) {
      service->start();
    }
    transport_ = std::make_unique<rpc::Transport>(client_machine, 7);

    servers_ = {
        {blocks_.get(),
         [this] {
           return servers::BlockClient(*transport_, blocks_->put_port())
               .allocate()
               .value();
         }},
        {files_.get(),
         [this] {
           return servers::FlatFileClient(*transport_, files_->put_port())
               .create()
               .value();
         }},
        {dirs_.get(),
         [this] {
           return servers::DirectoryClient(*transport_, dirs_->put_port())
               .create_dir()
               .value();
         }},
        {bank_.get(),
         [this] {
           return servers::BankClient(*transport_, bank_->put_port())
               .create_account()
               .value();
         }},
        {versions_.get(),
         [this] {
           return servers::MultiVersionClient(*transport_,
                                              versions_->put_port())
               .create_file()
               .value();
         }},
        {memory_.get(),
         [this] {
           return kernel::MemoryClient(*transport_, memory_->put_port())
               .create_segment(64)
               .value();
         }},
    };
  }

  net::Network net_;
  Rng rng_;
  std::unique_ptr<servers::BlockServer> blocks_;
  std::unique_ptr<servers::FlatFileServer> files_;
  std::unique_ptr<servers::DirectoryServer> dirs_;
  std::unique_ptr<servers::BankServer> bank_;
  std::unique_ptr<servers::MultiVersionServer> versions_;
  std::unique_ptr<kernel::MemoryServer> memory_;
  std::unique_ptr<rpc::Transport> transport_;
  std::vector<ServerUnderTest> servers_;
};

// Every server registers the whole std_* suite -- identical opcodes,
// identical declared rights, one implementation.
TEST_F(TypedOpsSuite, StdSuiteRegisteredUniformly) {
  for (const auto& server : servers_) {
    const auto& ops = server.service->registered_ops();
    for (const std::uint16_t opcode : {0xF0, 0xF1, 0xF2, 0xF3, 0xF4}) {
      const auto found =
          std::find_if(ops.begin(), ops.end(), [opcode](const rpc::OpInfo& o) {
            return o.opcode == opcode;
          });
      ASSERT_NE(found, ops.end())
          << server.service->name() << " lacks std op 0x" << std::hex
          << opcode;
      EXPECT_TRUE(found->object) << found->name;
      EXPECT_EQ(found->name.substr(0, 4), "std.") << found->name;
    }
    // And the domain ops are registered through descriptors too: every
    // server exposes more than just the suite.
    EXPECT_GT(ops.size(), 5u) << server.service->name();
  }
}

// The generic std_* behavioral contract, identical on every server:
// info names the service, touch validates, restrict narrows, revoke cuts
// off outstanding capabilities instantly, destroy requires the right and
// actually removes the object.
TEST_F(TypedOpsSuite, StdSuiteBehavesUniformly) {
  for (const auto& server : servers_) {
    const std::string who = server.service->name();
    const core::Capability owner = server.make_object();

    const auto info = rpc::std_info(*transport_, owner);
    ASSERT_TRUE(info.ok()) << who << ": " << to_string(info.error());
    EXPECT_NE(info.value().find(who), std::string::npos)
        << who << " info: " << info.value();

    EXPECT_TRUE(rpc::std_touch(*transport_, owner).ok()) << who;

    // Narrow to read-only: the duplicate stays valid but loses destroy.
    const auto read_only =
        rpc::std_restrict(*transport_, owner, core::rights::kRead);
    ASSERT_TRUE(read_only.ok()) << who << ": " << to_string(read_only.error());
    EXPECT_TRUE(rpc::std_touch(*transport_, read_only.value()).ok()) << who;
    EXPECT_EQ(rpc::std_destroy(*transport_, read_only.value()).error(),
              ErrorCode::permission_denied)
        << who;
    // And it cannot revoke either (no admin bit survived the mask).
    EXPECT_EQ(rpc::std_revoke(*transport_, read_only.value()).error(),
              ErrorCode::permission_denied)
        << who;

    // Revocation rotates the secret: the narrowed duplicate dies, the
    // returned replacement lives.
    const auto fresh = rpc::std_revoke(*transport_, owner);
    ASSERT_TRUE(fresh.ok()) << who << ": " << to_string(fresh.error());
    EXPECT_FALSE(rpc::std_touch(*transport_, read_only.value()).ok()) << who;
    EXPECT_FALSE(rpc::std_touch(*transport_, owner).ok()) << who;
    EXPECT_TRUE(rpc::std_touch(*transport_, fresh.value()).ok()) << who;

    // Destroy through the uniform opcode; the object is gone afterwards.
    const auto destroyed = rpc::std_destroy(*transport_, fresh.value());
    ASSERT_TRUE(destroyed.ok()) << who << ": " << to_string(destroyed.error());
    EXPECT_FALSE(rpc::std_touch(*transport_, fresh.value()).ok()) << who;
  }
}

// The rights-enforcement matrix: iterate EVERY registered descriptor on
// EVERY server; for each declared right, a capability with exactly that
// bit masked off must be refused with permission_denied -- before any
// request parsing, so an empty body suffices for every op.
TEST_F(TypedOpsSuite, RightsMatrixDeniesEveryMaskedRight) {
  int asserted = 0;
  for (const auto& server : servers_) {
    const core::Capability owner = server.make_object();
    const Port dest = server.service->put_port();
    for (const rpc::OpInfo& op : server.service->registered_ops()) {
      if (!op.object || op.required.bits() == 0) {
        continue;  // factory ops and rights-free ops have nothing to mask
      }
      for (int bit = 0; bit < Rights::kBits; ++bit) {
        if (!op.required.has(bit)) {
          continue;
        }
        const auto masked = rpc::std_restrict(*transport_, owner,
                                              Rights::all().without(bit));
        ASSERT_TRUE(masked.ok())
            << server.service->name() << "/" << op.name << ": "
            << to_string(masked.error());
        // Raw frame, empty body: rights precede parsing, so the declared
        // check must fire regardless of the op's request shape.
        const auto reply = servers::call(*transport_, dest, op.opcode,
                                         &masked.value());
        EXPECT_EQ(reply.error(), ErrorCode::permission_denied)
            << server.service->name() << "/" << op.name << " bit " << bit
            << ": got " << to_string(reply.error());
        ++asserted;
      }
    }
  }
  // The matrix must have real coverage: six servers x (domain + std) ops.
  EXPECT_GE(asserted, 40) << "rights matrix shrank unexpectedly";
}

// Decode failures answer invalid_argument and name the op in the reply
// data -- the typed layer's diagnostic channel.
TEST_F(TypedOpsSuite, DecodeErrorsNameTheOperation) {
  servers::BankClient bank(*transport_, bank_->put_port());
  const auto account = bank.create_account().value();
  net::Message req;
  req.header.dest = bank_->put_port();
  req.header.opcode = servers::bank_ops::kTransfer.opcode;
  servers::set_header_capability(req, account);
  req.data = {1, 2, 3};  // not a capability image
  auto reply = transport_->trans(std::move(req));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().message.header.status, ErrorCode::invalid_argument);
  Reader r(reply.value().message.data);
  const std::string diagnostic = r.str();
  EXPECT_NE(diagnostic.find("bank.transfer"), std::string::npos)
      << "diagnostic: " << diagnostic;
  EXPECT_NE(diagnostic.find(to_string(ErrorCode::invalid_argument)),
            std::string::npos)
      << "diagnostic: " << diagnostic;
}

// Typed sub-requests for DIFFERENT ops ride one envelope and decode to
// their own reply shapes.
TEST_F(TypedOpsSuite, TypedBatchMixesOpsInOneFrame) {
  servers::BankClient bank(*transport_, bank_->put_port());
  const auto account = bank.create_account().value();
  ASSERT_TRUE(bank.mint(bank_->master_capability(), account,
                        servers::currency::kDollar, 42)
                  .ok());
  rpc::TypedBatch batch(*transport_, bank_->put_port());
  const auto balance_entry = batch.add(servers::bank_ops::kBalance, account,
                                       {servers::currency::kDollar});
  const auto info_entry = batch.add(rpc::kStdInfo, account);
  const auto touch_entry = batch.add(rpc::kStdTouch, account);
  const auto before = transport_->stats().transactions;
  auto replies = batch.run();
  ASSERT_TRUE(replies.ok()) << to_string(replies.error());
  EXPECT_EQ(transport_->stats().transactions - before, 1u);  // ONE round trip
  const auto balance = replies.value().get(balance_entry);
  ASSERT_TRUE(balance.ok()) << to_string(balance.error());
  EXPECT_EQ(balance.value().balance, 42);
  const auto info = replies.value().get(info_entry);
  ASSERT_TRUE(info.ok()) << to_string(info.error());
  EXPECT_NE(info.value().description.find("bank"), std::string::npos);
  EXPECT_TRUE(replies.value().get(touch_entry).ok());
}

// ---------------------------------------------------------------------
// Read-only audit: every op declared rpc::kReadOnly, on every durable
// server, is called with a valid capability and must leave the volume
// untouched -- no journal append group, no metadata write (the reply-cache
// floor and body included), no snapshot.  Driven by registered_ops(): a
// new read-only declaration without a call below fails the audit.

/// Backend decorator counting the three volume writes; everything else is
/// forwarded to the wrapped MemoryBackend.
class CountingBackend final : public storage::Backend {
 public:
  struct Counts {
    std::uint64_t append_groups = 0;
    std::uint64_t meta_puts = 0;
    std::uint64_t snapshots = 0;
    friend bool operator==(const Counts&, const Counts&) = default;
  };

  CountingBackend() : inner_(std::make_shared<storage::MemoryBackend>(16)) {}

  [[nodiscard]] Counts counts() const {
    return {append_groups_.load(), meta_puts_.load(), snapshots_.load()};
  }

  [[nodiscard]] std::size_t shard_count() const override {
    return inner_->shard_count();
  }
  void submit_append_group(std::vector<storage::ShardAppend>&& appends,
                           storage::AppendCompletion complete) override {
    ++append_groups_;
    inner_->submit_append_group(std::move(appends), std::move(complete));
  }
  [[nodiscard]] Buffer read_journal(std::size_t shard) const override {
    return inner_->read_journal(shard);
  }
  void install_snapshot(std::size_t shard,
                        std::span<const std::uint8_t> bytes) override {
    ++snapshots_;
    inner_->install_snapshot(shard, bytes);
  }
  [[nodiscard]] Buffer read_snapshot(std::size_t shard) const override {
    return inner_->read_snapshot(shard);
  }
  void put_meta(std::string_view key,
                std::span<const std::uint8_t> value) override {
    ++meta_puts_;
    inner_->put_meta(key, value);
  }
  [[nodiscard]] Buffer get_meta(std::string_view key) const override {
    return inner_->get_meta(key);
  }
  [[nodiscard]] std::vector<std::string> meta_keys() const override {
    return inner_->meta_keys();
  }
  [[nodiscard]] bool empty() const override { return inner_->empty(); }

 private:
  std::shared_ptr<storage::MemoryBackend> inner_;
  std::atomic<std::uint64_t> append_groups_{0};
  std::atomic<std::uint64_t> meta_puts_{0};
  std::atomic<std::uint64_t> snapshots_{0};
};

using Volumes = std::vector<std::shared_ptr<CountingBackend>>;

[[nodiscard]] std::vector<CountingBackend::Counts> counts_of(
    const Volumes& volumes) {
  std::vector<CountingBackend::Counts> counts;
  for (const auto& volume : volumes) {
    counts.push_back(volume->counts());
  }
  return counts;
}

/// Waits until no volume has been written for 100 ms and returns the
/// counts: a reply body is enqueued before its reply is sent, and the
/// committer lingers well under that before flushing it.
std::vector<CountingBackend::Counts> quiesce(const Volumes& volumes) {
  auto last = counts_of(volumes);
  for (int quiet_polls = 0; quiet_polls < 10;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    auto now = counts_of(volumes);
    quiet_polls = now == last ? quiet_polls + 1 : 0;
    last = std::move(now);
  }
  return last;
}

class ReadOnlyAuditSuite : public ::testing::Test {
 protected:
  /// The prepared read-only calls of one service, keyed by opcode.
  using Calls = std::map<std::uint16_t, net::Message>;

  ReadOnlyAuditSuite() : rng_(2027) {
    scheme_ = core::make_scheme(core::SchemeKind::one_way_xor, rng_);
    transport_ = std::make_unique<rpc::Transport>(
        net_.add_machine("client"), 8);
  }

  [[nodiscard]] std::shared_ptr<CountingBackend> volume() {
    volumes_.push_back(std::make_shared<CountingBackend>());
    return volumes_.back();
  }

  /// Calls every op `service` declares read-only -- each from `calls`,
  /// twice -- and asserts that no volume of the test was written.
  void audit(const rpc::Service& service, const Calls& calls) {
    const auto before = quiesce(volumes_);
    int audited = 0;
    for (const rpc::OpInfo& op : service.registered_ops()) {
      if (!op.read_only) {
        continue;
      }
      const auto call = calls.find(op.opcode);
      if (call == calls.end()) {
        ADD_FAILURE() << service.name() << "/" << op.name
                      << " is declared read-only but the audit never calls "
                         "it";
        continue;
      }
      for (int i = 0; i < 2; ++i) {
        auto reply = transport_->trans(net::Message(call->second));
        ASSERT_TRUE(reply.ok()) << op.name << ": " << to_string(reply.error());
        EXPECT_EQ(reply.value().message.header.status, ErrorCode::ok)
            << op.name;
      }
      ++audited;
    }
    EXPECT_EQ(audited, static_cast<int>(calls.size()))
        << service.name() << ": the audit calls an op not declared read-only";
    const auto after = quiesce(volumes_);
    for (std::size_t v = 0; v < volumes_.size(); ++v) {
      EXPECT_EQ(after[v].append_groups, before[v].append_groups)
          << service.name() << " volume " << v;
      EXPECT_EQ(after[v].meta_puts, before[v].meta_puts)
          << service.name() << " volume " << v;
      EXPECT_EQ(after[v].snapshots, before[v].snapshots)
          << service.name() << " volume " << v;
    }
  }

  template <typename OpT>
  static void add(Calls& calls, Port port, const OpT& op,
                  const core::Capability& cap,
                  const typename OpT::Request& body = {}) {
    calls.emplace(op.opcode, rpc::make_request(port, op, cap, body));
  }

  net::Network net_;
  Rng rng_;
  std::shared_ptr<const core::ProtectionScheme> scheme_;
  std::unique_ptr<rpc::Transport> transport_;
  Volumes volumes_;
};

TEST_F(ReadOnlyAuditSuite, BankReadsWriteNothing) {
  servers::BankServer bank(net_.add_machine("bank"), Port(0xBA7D), scheme_,
                           1, volume());
  bank.start(2);
  servers::BankClient client(*transport_, bank.put_port());
  const auto account = client.create_account().value();
  ASSERT_TRUE(client
                  .mint(bank.master_capability(), account,
                        servers::currency::kDollar, 42)
                  .ok());
  Calls calls;
  add(calls, bank.put_port(), servers::bank_ops::kBalance, account,
      {servers::currency::kDollar});
  add(calls, bank.put_port(), rpc::kStdInfo, account, {1});
  audit(bank, calls);
}

TEST_F(ReadOnlyAuditSuite, DirectoryReadsWriteNothing) {
  servers::DirectoryServer dirs(net_.add_machine("naming"), Port(0xD2),
                                scheme_, 2, volume());
  dirs.start(2);
  servers::DirectoryClient client(*transport_, dirs.put_port());
  const auto dir = client.create_dir().value();
  ASSERT_TRUE(client.enter(dir, "self", dir).ok());
  Calls calls;
  add(calls, dirs.put_port(), servers::dir_ops::kLookup, dir, {"self"});
  add(calls, dirs.put_port(), servers::dir_ops::kList, dir);
  add(calls, dirs.put_port(), rpc::kStdInfo, dir, {1});
  audit(dirs, calls);
}

TEST_F(ReadOnlyAuditSuite, BlockAndFlatFileReadsWriteNothing) {
  servers::BlockServer::Geometry geometry;
  geometry.block_count = 64;
  geometry.block_size = 64;
  servers::BlockServer blocks(net_.add_machine("storage"), Port(0xB10D),
                              scheme_, 3, geometry, volume());
  blocks.start(2);
  servers::FlatFileServer files(net_.add_machine("fileserver"), Port(0xF17F),
                                scheme_, 4, blocks.put_port(), volume());
  files.start(2);
  servers::BlockClient block_client(*transport_, blocks.put_port());
  const auto block = block_client.allocate().value();
  const Buffer content(geometry.block_size, 0x5A);
  ASSERT_TRUE(block_client.write(block, content).ok());
  servers::FlatFileClient file_client(*transport_, files.put_port());
  const auto file = file_client.create().value();
  ASSERT_TRUE(file_client.write(file, 0, Buffer(100, 0x3C)).ok());

  Calls block_calls;
  add(block_calls, blocks.put_port(), servers::block_ops::kRead, block);
  block_calls.emplace(servers::block_ops::kInfo.opcode,
                      rpc::make_request(blocks.put_port(),
                                        servers::block_ops::kInfo));
  add(block_calls, blocks.put_port(), rpc::kStdInfo, block, {1});
  audit(blocks, block_calls);

  // file.read reaches the block server through nested block.read calls;
  // both volumes must stay untouched.
  Calls file_calls;
  add(file_calls, files.put_port(), servers::file_ops::kRead, file, {0, 100});
  add(file_calls, files.put_port(), servers::file_ops::kSize, file);
  add(file_calls, files.put_port(), rpc::kStdInfo, file, {1});
  audit(files, file_calls);
}

TEST_F(ReadOnlyAuditSuite, MultiversionReadsWriteNothing) {
  servers::MultiVersionServer versions(net_.add_machine("versions"),
                                       Port(0x3F), scheme_, 5, 128, volume());
  versions.start(2);
  servers::MultiVersionClient client(*transport_, versions.put_port());
  const auto file = client.create_file().value();
  const auto draft = client.new_version(file).value();
  ASSERT_TRUE(client.write_page(draft, 0, Buffer(128, 0x11)).ok());
  ASSERT_TRUE(client.commit(draft).ok());
  Calls calls;
  add(calls, versions.put_port(), servers::mv_ops::kReadPage, file,
      {0, servers::MultiVersionClient::kHead});
  add(calls, versions.put_port(), servers::mv_ops::kHistory, file);
  add(calls, versions.put_port(), rpc::kStdInfo, file, {1});
  audit(versions, calls);
}

TEST_F(ReadOnlyAuditSuite, MemoryServerReadsWriteNothing) {
  kernel::MemoryServer memory(net_.add_machine("kernel"), Port(0x6F),
                              scheme_, 6, 1 << 20, volume());
  memory.start(2);
  kernel::MemoryClient client(*transport_, memory.put_port());
  const auto segment = client.create_segment(64).value();
  ASSERT_TRUE(client.write(segment, 0, Buffer(64, 0x22)).ok());
  const core::Capability segments[] = {segment};
  const auto process = client.make_process(segments).value();
  Calls calls;
  add(calls, memory.put_port(), kernel::mem_ops::kReadSegment, segment,
      {0, 64});
  add(calls, memory.put_port(), kernel::mem_ops::kSegmentInfo, segment);
  add(calls, memory.put_port(), kernel::mem_ops::kProcessInfo, process);
  add(calls, memory.put_port(), rpc::kStdInfo, segment, {1});
  audit(memory, calls);
}

}  // namespace
}  // namespace amoeba
