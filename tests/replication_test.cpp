// Primary/backup replication (docs/PROTOCOL.md §9): the cycle-frame
// codec, the replica applier's LSN-floor idempotence, the post-flush
// shipping hook's ordering contract, and the full primary -> backup
// pipeline over the in-process network -- including PR-4 link faults on
// the replication link (drop/duplicate/reorder must never tear a group
// or double-apply an LSN) and the deposed-primary fence.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "amoeba/common/error.hpp"
#include "amoeba/common/rng.hpp"
#include "amoeba/core/schemes.hpp"
#include "amoeba/net/network.hpp"
#include "amoeba/rpc/replication.hpp"
#include "amoeba/rpc/transport.hpp"
#include "amoeba/rpc/typed.hpp"
#include "amoeba/servers/bank_server.hpp"
#include "amoeba/storage/backend.hpp"
#include "amoeba/storage/group_commit.hpp"
#include "amoeba/storage/replication/replica.hpp"
#include "amoeba/storage/replication/replicated_backend.hpp"
#include "amoeba/storage/replication/wire.hpp"
#include "test_seed.hpp"

namespace amoeba::storage {
namespace {

using namespace std::chrono_literals;

[[nodiscard]] Buffer bytes_of(std::string_view s) {
  return {s.begin(), s.end()};
}

[[nodiscard]] Buffer sample_frame(std::uint64_t lsn) {
  const Buffer floor_image = bytes_of("floors");
  const std::vector<MetaImage> metas = {{"reply-floors", floor_image}};
  const std::vector<ShardAppend> appends = {{0, bytes_of("rec-a")},
                                            {3, bytes_of("rec-b")}};
  return encode_cycle_frame(lsn, metas, appends);
}

TEST(ReplicationWireTest, CycleFrameRoundTrips) {
  const Buffer frame = sample_frame(7);
  CycleFrame decoded;
  ASSERT_TRUE(decode_cycle_frame(frame, decoded));
  EXPECT_EQ(decoded.rep_lsn, 7u);
  ASSERT_EQ(decoded.metas.size(), 1u);
  EXPECT_EQ(decoded.metas[0].first, "reply-floors");
  EXPECT_EQ(decoded.metas[0].second, bytes_of("floors"));
  ASSERT_EQ(decoded.appends.size(), 2u);
  EXPECT_EQ(decoded.appends[0].shard, 0u);
  EXPECT_EQ(decoded.appends[0].bytes, bytes_of("rec-a"));
  EXPECT_EQ(decoded.appends[1].shard, 3u);
  EXPECT_EQ(decoded.appends[1].bytes, bytes_of("rec-b"));
}

TEST(ReplicationWireTest, RejectsTornAndCorruptFrames) {
  const Buffer frame = sample_frame(1);
  CycleFrame decoded;
  // Truncation at every prefix length: a torn shipment never half-applies.
  for (std::size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(decode_cycle_frame(
        std::span(frame.data(), len), decoded))
        << "prefix " << len;
  }
  // Trailing garbage is not "one whole frame" either.
  Buffer padded = frame;
  padded.push_back(0x5A);
  EXPECT_FALSE(decode_cycle_frame(padded, decoded));
  // Any single corrupted body byte trips the whole-frame checksum.
  for (std::size_t i = 8; i < frame.size(); ++i) {
    Buffer bent = frame;
    bent[i] ^= 0x01;
    EXPECT_FALSE(decode_cycle_frame(bent, decoded)) << "byte " << i;
  }
}

TEST(ReplicaApplierTest, FloorGatesDuplicatesAndGaps) {
  auto backend = std::make_shared<MemoryBackend>(4);
  ReplicaApplier applier(backend);
  EXPECT_EQ(applier.applied(), 0u);

  const auto first = applier.apply_cycle(sample_frame(1));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value(), 1u);
  const Buffer once = backend->read_journal(0);

  // Duplicate (a lossy link's retransmission): acked, not re-applied.
  const auto dup = applier.apply_cycle(sample_frame(1));
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(dup.value(), 1u);
  EXPECT_EQ(backend->read_journal(0), once) << "duplicate re-applied";

  // Gap: rejected with conflict (the primary answers with a resync).
  const auto gap = applier.apply_cycle(sample_frame(3));
  ASSERT_FALSE(gap.ok());
  EXPECT_EQ(gap.error(), ErrorCode::conflict);
  EXPECT_EQ(applier.applied(), 1u);

  // The successor applies.
  const auto next = applier.apply_cycle(sample_frame(2));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.value(), 2u);

  // Garbage is invalid_argument, not a crash and not an apply.
  const auto bad = applier.apply_cycle(bytes_of("not a frame"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), ErrorCode::invalid_argument);
}

TEST(ReplicaApplierTest, FloorSurvivesRestart) {
  auto backend = std::make_shared<MemoryBackend>(4);
  {
    ReplicaApplier applier(backend);
    ASSERT_TRUE(applier.apply_cycle(sample_frame(1)).ok());
    ASSERT_TRUE(applier.apply_cycle(sample_frame(2)).ok());
  }
  // A restarted backup resumes at its persisted floor: the primary's
  // retransmissions of already-applied shipments stay duplicates.
  ReplicaApplier restarted(backend);
  EXPECT_EQ(restarted.applied(), 2u);
  const Buffer before = backend->read_journal(0);
  const auto dup = restarted.apply_cycle(sample_frame(2));
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(backend->read_journal(0), before);
}

TEST(ReplicaApplierTest, SnapshotAdoptsItsLsnAsFloor) {
  auto backend = std::make_shared<MemoryBackend>(4);
  ReplicaApplier applier(backend);
  // A resync snapshot lands on any floor -- no gap check.
  const Buffer image = bytes_of("snapshot-image");
  const auto adopted = applier.install_snapshot(10, 2, image);
  ASSERT_TRUE(adopted.ok());
  EXPECT_EQ(adopted.value(), 10u);
  EXPECT_EQ(backend->read_snapshot(2), image);
  // The stream continues right behind it...
  EXPECT_TRUE(applier.apply_cycle(sample_frame(11)).ok());
  // ...and everything at or below the adopted floor is a duplicate.
  const auto stale = applier.install_snapshot(5, 1, image);
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale.value(), 11u);
  EXPECT_TRUE(backend->read_snapshot(1).empty());
  // Out-of-range shards are hostile input, not a crash.
  const auto bad = applier.install_snapshot(12, 99, image);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), ErrorCode::invalid_argument);
}

TEST(ReplicaApplierTest, PromoteFencesFurtherShipments) {
  auto backend = std::make_shared<MemoryBackend>(4);
  ReplicaApplier applier(backend);
  ASSERT_TRUE(applier.apply_cycle(sample_frame(1)).ok());
  EXPECT_EQ(applier.promote(), 1u);
  EXPECT_TRUE(applier.promoted());
  const auto refused = applier.apply_cycle(sample_frame(2));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error(), ErrorCode::immutable);
  const auto refused_snap = applier.install_snapshot(9, 0, bytes_of("x"));
  ASSERT_FALSE(refused_snap.ok());
  EXPECT_EQ(refused_snap.error(), ErrorCode::immutable);
}

TEST(GroupCommitHookTest, HookSeesCycleBytesBeforeWaitersRelease) {
  auto backend = std::make_shared<MemoryBackend>(4);
  GroupCommitter committer(backend);
  std::atomic<std::uint64_t> hook_covered{0};
  std::atomic<std::uint64_t> hook_bytes{0};
  committer.set_post_flush_hook([&](const GroupCommitter::FlushCycle& cycle) {
    ASSERT_NE(cycle.metas, nullptr);
    ASSERT_NE(cycle.appends, nullptr);
    std::uint64_t seen = 0;
    for (const ShardAppend& a : *cycle.appends) {
      seen += a.bytes.size();
    }
    EXPECT_EQ(seen, cycle.bytes);
    hook_bytes.fetch_add(seen);
    hook_covered.store(cycle.ticket);
  });
  // One subscriber only.
  EXPECT_THROW(committer.set_post_flush_hook([](const auto&) {}),
               UsageError);

  const Buffer record = bytes_of("framed-record");
  const auto t1 = committer.enqueue(1, record);
  committer.wait_durable(t1);
  // Ordering contract: the hook for the covering cycle ran BEFORE the
  // wait released, and it saw the exact bytes that hit the backend.
  EXPECT_GE(hook_covered.load(), t1);
  const auto t2 = committer.enqueue(2, record);
  committer.wait_durable(t2);
  EXPECT_GE(hook_covered.load(), t2);
  committer.drain();
  EXPECT_EQ(hook_bytes.load(), 2 * record.size());
  EXPECT_EQ(committer.stats().flush_cycle_bytes, 2 * record.size());
}

}  // namespace
}  // namespace amoeba::storage

namespace amoeba::servers {
namespace {

using namespace std::chrono_literals;

[[nodiscard]] std::shared_ptr<const core::ProtectionScheme> scheme() {
  static const std::shared_ptr<const core::ProtectionScheme> shared = [] {
    Rng rng(43);
    return std::shared_ptr<const core::ProtectionScheme>(
        core::make_scheme(core::SchemeKind::commutative, rng));
  }();
  return shared;
}

/// Primary bank + one backup replica machine + a client, the standard
/// replication deployment the tests drive.
class ReplicationSuite : public ::testing::Test {
 protected:
  ReplicationSuite()
      : bank_machine_(net_.add_machine("bank")),
        backup_machine_(net_.add_machine("backup")),
        client_machine_(net_.add_machine("client")),
        local_(std::make_shared<storage::MemoryBackend>(16)),
        backup_backend_(std::make_shared<storage::MemoryBackend>(16)) {
    replica_ = std::make_unique<rpc::ReplicaServer>(
        backup_machine_, Port(0x7B01), scheme(), 11, backup_backend_);
    replica_->start(2);
  }

  ~ReplicationSuite() override {
    shutdown();
    if (replica_ != nullptr) {
      replica_->stop();
    }
  }

  void boot(storage::AckMode mode) {
    replicated_ = rpc::replicate_to(
        local_, mode, bank_machine_, 21,
        {{"backup", replica_->volume_capability()}});
    bank_ = std::make_unique<BankServer>(bank_machine_, Port(0xBA22),
                                         scheme(), 1, replicated_);
    bank_->start(2);
    transport_ = std::make_unique<rpc::Transport>(client_machine_, seed_++);
    client_ = std::make_unique<BankClient>(*transport_, bank_->put_port());
  }

  void shutdown() {
    client_.reset();
    transport_.reset();
    if (bank_ != nullptr) {
      bank_->stop();
    }
    bank_.reset();
    replicated_.reset();
  }

  /// Stops the bank so nothing more reaches its volume.  A reply's
  /// best-effort body image is enqueued without a durability wait, so its
  /// flush cycle can start after the client already has the reply (the
  /// committer lingers first); destroying the committer flushes and ships
  /// every such cycle.  Call before comparing volumes.
  void quiesce_primary() {
    client_.reset();
    transport_.reset();
    bank_.reset();
  }

  /// Polls until every queued shipment is acked (async-mode catch-up).
  [[nodiscard]] bool wait_synced() {
    for (int i = 0; i < 2000; ++i) {
      replicated_->heartbeat();
      const auto stats = replicated_->stats();
      bool synced = true;
      for (const auto& peer : stats.peers) {
        synced = synced && peer.queued == 0 &&
                 peer.acked_lsn >= stats.shipped_lsn;
      }
      if (synced) {
        return true;
      }
      std::this_thread::sleep_for(2ms);
    }
    return false;
  }

  /// The whole point of journal shipping: the backup volume is
  /// byte-equivalent to the primary's own disk (minus the backup's
  /// private floor key).
  void expect_volumes_equal() {
    for (std::size_t s = 0; s < local_->shard_count(); ++s) {
      EXPECT_EQ(local_->read_journal(s), backup_backend_->read_journal(s))
          << "journal shard " << s;
      EXPECT_EQ(local_->read_snapshot(s), backup_backend_->read_snapshot(s))
          << "snapshot shard " << s;
    }
    for (const std::string& key : local_->meta_keys()) {
      if (key.starts_with(storage::kRepMetaPrefix)) {
        continue;
      }
      EXPECT_EQ(local_->get_meta(key), backup_backend_->get_meta(key))
          << "meta " << key;
    }
  }

  void workload(int transfers) {
    alice_ = client_->create_account().value();
    bob_ = client_->create_account().value();
    ASSERT_TRUE(client_
                    ->mint(bank_->master_capability(), alice_,
                           currency::kDollar, 1'000'000)
                    .ok());
    for (int i = 0; i < transfers; ++i) {
      ASSERT_TRUE(
          client_->transfer(alice_, bob_, currency::kDollar, 7).ok())
          << "transfer " << i;
    }
  }

  // AMOEBA_TEST_SEED reseeds the in-process network's fault dice and the
  // client transports in one go (logged at startup for replay).
  net::Network net_{net::Network::Config{.seed = test::seed_base(43)}};
  net::Machine& bank_machine_;
  net::Machine& backup_machine_;
  net::Machine& client_machine_;
  std::shared_ptr<storage::MemoryBackend> local_;
  std::shared_ptr<storage::MemoryBackend> backup_backend_;
  std::unique_ptr<rpc::ReplicaServer> replica_;
  std::shared_ptr<storage::ReplicatedBackend> replicated_;
  std::unique_ptr<BankServer> bank_;
  std::unique_ptr<rpc::Transport> transport_;
  std::unique_ptr<BankClient> client_;
  core::Capability alice_;
  core::Capability bob_;
  std::uint64_t seed_ = test::seed_base(43) + 55;
};

TEST_F(ReplicationSuite, AckOneShipsEveryFlushCycleToTheBackup) {
  boot(storage::AckMode::ack_one);
  workload(25);
  // ack_one: every replied mutation's cycle was acknowledged durable on
  // the backup before the client saw the reply -- nothing to wait for
  // beyond stray async snapshot shipments and trailing reply bodies.
  quiesce_primary();
  ASSERT_TRUE(wait_synced());
  expect_volumes_equal();
  EXPECT_GT(replica_->applier().applied(), 0u);
}

TEST_F(ReplicationSuite, AsyncModeCatchesUpAndConverges) {
  boot(storage::AckMode::async);
  workload(25);
  quiesce_primary();
  ASSERT_TRUE(wait_synced());
  expect_volumes_equal();
}

TEST_F(ReplicationSuite, LinkFaultsNeverTearAGroupOrDoubleApply) {
  boot(storage::AckMode::ack_one);
  // PR-4 faults on the replication link, both directions: shipments and
  // acks drop, duplicate, and reorder.  The at-most-once transaction
  // layer absorbs what it can; the replica's LSN floor suppresses the
  // rest.  Client <-> bank links stay clean (the subject here is the
  // replication link).
  net_.set_link_faults(bank_machine_.id(), backup_machine_.id(),
                       {.drop = 0.15, .duplicate = 0.10, .reorder = 0.15});
  net_.set_link_faults(backup_machine_.id(), bank_machine_.id(),
                       {.drop = 0.15, .duplicate = 0.10, .reorder = 0.15});
  workload(30);
  net_.clear_link_faults();
  quiesce_primary();
  ASSERT_TRUE(wait_synced());
  // Byte equality is the strong form of both properties: a torn group or
  // a double-applied LSN would leave the backup's journals differing
  // from the primary's.
  expect_volumes_equal();
}

TEST_F(ReplicationSuite, StdInfoReportsRolesAndLag) {
  boot(storage::AckMode::ack_one);
  workload(5);
  ASSERT_TRUE(wait_synced());
  const auto primary_info =
      rpc::std_info(*transport_, bank_->master_capability(), true);
  ASSERT_TRUE(primary_info.ok());
  EXPECT_NE(primary_info.value().find("role=primary"), std::string::npos)
      << primary_info.value();
  EXPECT_NE(primary_info.value().find("peers=1"), std::string::npos);
  EXPECT_NE(primary_info.value().find("backup.lag=0"), std::string::npos)
      << primary_info.value();

  const auto backup_info =
      rpc::std_info(*transport_, replica_->volume_capability(), true);
  ASSERT_TRUE(backup_info.ok());
  EXPECT_NE(backup_info.value().find("role=backup"), std::string::npos)
      << backup_info.value();
  EXPECT_NE(backup_info.value().find("applied="), std::string::npos);

  // An unreplicated service stays a standalone.
  net::Machine& standalone_machine = net_.add_machine("standalone");
  BankServer standalone(standalone_machine, Port(0xBA33), scheme(), 3);
  standalone.start(1);
  rpc::Transport probe(client_machine_, seed_++);
  const auto info =
      rpc::std_info(probe, standalone.master_capability(), true);
  ASSERT_TRUE(info.ok());
  EXPECT_NE(info.value().find("role=standalone"), std::string::npos)
      << info.value();
  standalone.stop();
}

TEST_F(ReplicationSuite, PromotedBackupFencesTheDeposedPrimary) {
  boot(storage::AckMode::ack_one);
  workload(5);
  ASSERT_TRUE(wait_synced());
  // Promote the backup while the old primary still runs (the split-brain
  // shape).  The backup refuses further shipments...
  const auto floor =
      rpc::rep_promote(*transport_, replica_->volume_capability());
  ASSERT_TRUE(floor.ok());
  EXPECT_TRUE(replica_->applier().promoted());
  const auto backup_info =
      rpc::std_info(*transport_, replica_->volume_capability(), true);
  ASSERT_TRUE(backup_info.ok());
  EXPECT_NE(backup_info.value().find("role=promoted"), std::string::npos);
  // ...and the deposed primary's next ack-one mutation fails loudly
  // instead of reporting durability the cluster no longer honors.
  const auto fenced = client_->transfer(alice_, bob_, currency::kDollar, 7);
  EXPECT_FALSE(fenced.ok());
}

TEST_F(ReplicationSuite, CommitterCyclesShipButRepKeysStayAndSnapshotsRestart) {
  // Drive the decorator through a bare committer (no server).  Its writes
  // have one legal source: before a committer binds, they are refused --
  // a write that bypassed the committer would never ship.
  auto primary = rpc::replicate_to(
      local_, storage::AckMode::ack_one, bank_machine_, 31,
      {{"backup", replica_->volume_capability()}});
  const Buffer record = {0x01, 0x02, 0x03};
  const Buffer floor_image = {0x09};
  EXPECT_THROW(primary->append_journal(2, record), UsageError);
  EXPECT_THROW(primary->put_meta("reply-floors", floor_image), UsageError);

  storage::GroupCommitter committer(primary);
  (void)committer.enqueue(2, record);
  (void)committer.enqueue_meta("reply-floors", floor_image);
  // rep.-prefixed keys are volume-private: written locally, never shipped.
  (void)committer.enqueue_meta("rep.private", floor_image);
  std::vector<storage::ShardAppend> group;
  group.push_back({0, record});
  group.push_back({1, record});
  // ack_one: the wait covers every earlier ticket and released only once
  // the backup had durably applied their cycles.
  committer.wait_durable(committer.enqueue_group(std::move(group)));
  EXPECT_EQ(backup_backend_->read_journal(2), record);
  EXPECT_EQ(backup_backend_->read_journal(0), record);
  EXPECT_EQ(backup_backend_->read_journal(1), record);
  EXPECT_EQ(backup_backend_->get_meta("reply-floors"), floor_image);
  EXPECT_EQ(local_->get_meta("rep.private"), floor_image);
  EXPECT_TRUE(backup_backend_->get_meta("rep.private").empty());
  // Compaction ships too (async): the backup compacts when the primary
  // does.
  const Buffer image = {0x42, 0x42};
  primary->install_snapshot(2, image);
  for (int i = 0; i < 1000 && backup_backend_->read_snapshot(2) != image;
       ++i) {
    std::this_thread::sleep_for(2ms);
  }
  EXPECT_EQ(backup_backend_->read_snapshot(2), image);
  EXPECT_TRUE(backup_backend_->read_journal(2).empty())
      << "snapshot install must truncate the shipped journal too";
}

TEST_F(ReplicationSuite, BackupCommitLogCutAnywherePromotesWithoutATornTransfer) {
  // A FileBackend backup takes ack-one transfers; then a crash image is
  // made at EVERY byte offset of its commit.log past the setup, promoted,
  // and a bank recovered from it.  Each shipped cycle lands as one
  // commit.log frame, so every image holds a whole prefix of transfers:
  // money is conserved and no transfer is half applied.
  constexpr std::int64_t kMint = 1'000'000;
  constexpr std::int64_t kAmount = 7;
  constexpr int kTransfers = 8;
  const auto root = std::filesystem::temp_directory_path() /
                    ("amoeba-backup-cut-" + std::to_string(::getpid()));
  std::filesystem::remove_all(root);
  const auto volume = root / "backup";
  const auto log = volume / "commit.log";
  std::uintmax_t setup_end = 0;
  {
    net::Machine& file_machine = net_.add_machine("file-backup");
    rpc::ReplicaServer file_replica(file_machine, Port(0x7B03), scheme(), 12,
                                    std::make_shared<storage::FileBackend>(
                                        volume, 16));
    file_replica.start(2);
    replicated_ = rpc::replicate_to(
        local_, storage::AckMode::ack_one, bank_machine_, 41,
        {{"file-backup", file_replica.volume_capability()}});
    bank_ = std::make_unique<BankServer>(bank_machine_, Port(0xBA22),
                                         scheme(), 1, replicated_);
    bank_->start(2);
    transport_ = std::make_unique<rpc::Transport>(client_machine_, seed_++);
    client_ = std::make_unique<BankClient>(*transport_, bank_->put_port());
    alice_ = client_->create_account().value();
    bob_ = client_->create_account().value();
    ASSERT_TRUE(client_
                    ->mint(bank_->master_capability(), alice_,
                           currency::kDollar, kMint)
                    .ok());
    // ack_one: the mint's cycle is on the backup's disk already.
    setup_end = std::filesystem::file_size(log);
    for (int i = 0; i < kTransfers; ++i) {
      ASSERT_TRUE(client_->transfer(alice_, bob_, currency::kDollar, kAmount)
                      .ok())
          << "transfer " << i;
    }
    quiesce_primary();
    ASSERT_TRUE(wait_synced());
    replicated_.reset();
    file_replica.stop();
  }
  const std::uintmax_t full = std::filesystem::file_size(log);
  ASSERT_GT(full, setup_end) << "the backup wrote no commit.log frames";

  net::Machine& recovery_machine = net_.add_machine("promoted");
  rpc::Transport probe(client_machine_, seed_++);
  const auto image = root / "image";
  std::int64_t last_bob = 0;
  for (std::uintmax_t cut = setup_end; cut <= full; ++cut) {
    SCOPED_TRACE("commit.log cut at " + std::to_string(cut));
    std::filesystem::remove_all(image);
    std::filesystem::copy(volume, image);
    std::filesystem::resize_file(image / "commit.log", cut);
    auto copy = std::make_shared<storage::FileBackend>(image, 16);
    storage::ReplicaApplier(copy).promote();
    BankServer bank(recovery_machine, Port(0xBA22), scheme(), 99, copy);
    bank.start(1);
    probe.flush_cache();
    BankClient client(probe, bank.put_port());
    const auto alice = client.balance(alice_, currency::kDollar);
    const auto bob = client.balance(bob_, currency::kDollar);
    bank.stop();
    ASSERT_TRUE(alice.ok());
    ASSERT_TRUE(bob.ok());
    EXPECT_EQ(alice.value() + bob.value(), kMint) << "money not conserved";
    EXPECT_EQ(bob.value() % kAmount, 0) << "a transfer was half applied";
    EXPECT_GE(bob.value(), last_bob) << "a longer log recovered less";
    last_bob = bob.value();
  }
  // The uncut log holds every acknowledged transfer (the sweep was not
  // vacuous).
  EXPECT_EQ(last_bob, kTransfers * kAmount);
  std::filesystem::remove_all(root);
}

TEST_F(ReplicationSuite, AttachPeerRacesPromotionUnderFlushStorm) {
  // The failover drill's natural shape, compressed into one process so
  // TSan can watch every interleaving: a committer-driven flush storm on
  // the primary, a backup attaching mid-stream (full resync broadcast),
  // and a concurrent promotion of that same backup.  Each mutation must
  // end in exactly one of two legal states -- durably acked, or refused
  // by the committer's failed latch once the shipper is fenced -- and
  // the storm threads must always terminate (a promoted backup answers
  // `immutable`, which fences the primary and fails every pending and
  // future durability wait instead of retrying forever).
  auto primary = std::make_shared<storage::ReplicatedBackend>(
      local_, storage::AckMode::ack_one);
  storage::GroupCommitter committer(primary);

  std::atomic<int> durable{0};
  std::atomic<int> fenced_waits{0};
  auto storm = [&](std::size_t shard) {
    const Buffer record = {0x11, 0x22, 0x33, 0x44};
    while (true) {
      try {
        committer.wait_durable(committer.enqueue(shard, record));
        durable.fetch_add(1);
      } catch (const std::exception&) {
        fenced_waits.fetch_add(1);
        return;  // fence latched: every later wait throws too
      }
    }
  };
  std::jthread storm_a(storm, 0);
  std::jthread storm_b(storm, 3);

  // Let the storm establish a stream of flush cycles first (with no peer
  // attached, ack_one waits release on local durability alone).
  while (durable.load() < 8) {
    std::this_thread::sleep_for(1ms);
  }

  rpc::Transport promote_transport(client_machine_, seed_++);
  const std::uint64_t link_seed = seed_++;
  {
    std::jthread attacher([&] {
      primary->attach_peer(std::make_shared<rpc::TransportReplicationLink>(
          bank_machine_, link_seed, "backup", replica_->volume_capability()));
    });
    std::jthread promoter([&] {
      const auto floor = rpc::rep_promote(promote_transport,
                                          replica_->volume_capability());
      EXPECT_TRUE(floor.ok());
    });
  }  // both joined

  // Whatever the interleaving, the promoted backup eventually refuses a
  // shipment, the shipper fences, and both storm threads exit loudly.
  storm_a.join();
  storm_b.join();
  EXPECT_TRUE(replica_->applier().promoted());
  EXPECT_EQ(fenced_waits.load(), 2);
  EXPECT_GE(durable.load(), 8);
}

TEST_F(ReplicationSuite, LateAttachResyncsAWholeVolume) {
  // Build primary state BEFORE any peer is attached...
  auto solo = std::make_shared<storage::ReplicatedBackend>(
      local_, storage::AckMode::ack_one);
  bank_ = std::make_unique<BankServer>(bank_machine_, Port(0xBA22),
                                       scheme(), 1, solo);
  bank_->start(2);
  transport_ = std::make_unique<rpc::Transport>(client_machine_, seed_++);
  client_ = std::make_unique<BankClient>(*transport_, bank_->put_port());
  replicated_ = solo;
  workload(10);
  // ...then attach: the resync broadcast must rebuild the backup from
  // scratch (snapshots reset, journals + metas follow).
  solo->attach_peer(std::make_shared<rpc::TransportReplicationLink>(
      bank_machine_, 61, "backup", replica_->volume_capability()));
  ASSERT_TRUE(wait_synced());
  expect_volumes_equal();
  // And the stream continues past the resync.
  ASSERT_TRUE(client_->transfer(alice_, bob_, currency::kDollar, 7).ok());
  quiesce_primary();
  ASSERT_TRUE(wait_synced());
  expect_volumes_equal();
}

}  // namespace
}  // namespace amoeba::servers
