// The primary side of primary/backup replication (docs/PROTOCOL.md §9).
//
// ReplicatedBackend is a Backend decorator: reads go straight to the
// wrapped local volume, writes land locally FIRST and are then shipped to
// every attached backup as LSN-stamped shipments.  Two kinds ship:
//
//   * Flush cycles.  The volume's GroupCommitter binds itself at
//     construction and its post-flush hook ships each cycle as ONE cycle
//     frame -- the exact metadata images and journal bytes that just hit
//     the local disk.  The decorator's own append/put_meta paths only
//     forward (the committer's flusher is their one caller), and throw
//     UsageError before a committer is bound: a write that bypassed the
//     committer would never reach the backups.
//   * Snapshots.  install_snapshot (compaction) ships on its own: backups
//     compact when the primary does.
//
// The ack mode decides when a mutator's durability wait releases:
//   async    local disk only; shipping is fire-and-forget.
//   ack_one  at least one backup has durably applied the shipment.
//   ack_all  every attached backup has.
// With no backups attached nothing ever waits, so a ReplicatedBackend
// with zero peers behaves exactly like its local volume.
//
// Shipping is per-peer FIFO on a dedicated thread, one shipment in flight,
// retried until acknowledged -- the at-most-once RPC layer plus the
// replica's LSN floor make retransmits harmless.  A backup that answers
// `conflict` (LSN gap: it restarted, or attached mid-stream) triggers a
// full resync: the primary broadcasts its current snapshots, journals and
// metadata as fresh shipments that every peer can adopt (snapshot
// shipments MOVE the replica floor rather than gap-checking against it).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "amoeba/common/error.hpp"
#include "amoeba/storage/backend.hpp"
#include "amoeba/storage/replication/wire.hpp"

namespace amoeba::storage {

class GroupCommitter;

/// When does a replicated mutation count as durable?
enum class AckMode : std::uint8_t {
  async = 0,    // local disk only; backups catch up in the background
  ack_one = 1,  // >= 1 backup has durably applied the shipment
  ack_all = 2,  // every attached backup has
};

[[nodiscard]] std::string_view to_string(AckMode mode);

/// Transport-agnostic shipping channel to one backup.  The storage layer
/// owns the interface (it cannot depend on rpc); rpc/replication.hpp
/// implements it over the at-most-once transaction layer.  Each call is
/// synchronous: it returns the backup's durably-applied floor, or the
/// error the backup (or the link) produced.  Implementations must tolerate
/// being called from a dedicated shipping thread.
class ReplicationLink {
 public:
  virtual ~ReplicationLink() = default;

  [[nodiscard]] virtual std::string peer_name() const = 0;

  /// Offers one encoded cycle frame (replication/wire.hpp).
  [[nodiscard]] virtual Result<std::uint64_t> ship_cycle(
      std::span<const std::uint8_t> frame) = 0;

  /// Offers one shard snapshot image, floor-adopting at `rep_lsn`.
  [[nodiscard]] virtual Result<std::uint64_t> ship_snapshot(
      std::uint64_t rep_lsn, std::size_t shard,
      std::span<const std::uint8_t> bytes) = 0;

  /// No-op probe: returns the backup's applied floor (lag measurement).
  [[nodiscard]] virtual Result<std::uint64_t> heartbeat(
      std::uint64_t shipped) = 0;
};

class ReplicatedBackend final : public Backend {
 public:
  explicit ReplicatedBackend(std::shared_ptr<Backend> local,
                             AckMode mode = AckMode::ack_one);
  /// Attempts to drain each peer's queue (one final try per shipment --
  /// a dead backup must not hang shutdown), then joins the shippers.
  ~ReplicatedBackend() override;

  // --- Backend: reads forward, writes land locally then ship. ---
  [[nodiscard]] std::size_t shard_count() const override;
  /// Forwards the bound committer's flush-cycle append to the local
  /// volume (the cycle ships from the post-flush hook).
  void submit_append_group(std::vector<ShardAppend>&& appends,
                           AppendCompletion complete) override;
  /// Forwards the local volume's ring counters (zero/sync for blocking
  /// locals), so a committer over a replicated uring volume still reports
  /// its submission pipeline.
  [[nodiscard]] AsyncIoStats async_io_stats() const override {
    return local_->async_io_stats();
  }
  [[nodiscard]] Buffer read_journal(std::size_t shard) const override;
  void install_snapshot(std::size_t shard,
                        std::span<const std::uint8_t> bytes) override;
  /// Installs locally, then ships the handed-over image itself (no copy).
  void adopt_snapshot(std::size_t shard, Buffer bytes) override;
  [[nodiscard]] Buffer read_snapshot(std::size_t shard) const override;
  void put_meta(std::string_view key,
                std::span<const std::uint8_t> value) override;
  [[nodiscard]] Buffer get_meta(std::string_view key) const override;
  [[nodiscard]] std::vector<std::string> meta_keys() const override;
  [[nodiscard]] bool empty() const override;

  /// Attaches a backup and resyncs it: the primary's current snapshots,
  /// journals and metadata (minus "rep."-prefixed keys) are broadcast as
  /// fresh shipments, so the new peer converges from any starting state
  /// and existing peers just fast-forward their floors.  Thread-safe;
  /// peers cannot be detached (stop the backup instead -- its queue
  /// simply stops draining).
  void attach_peer(std::shared_ptr<ReplicationLink> link);

  /// Called by the GroupCommitter constructor when it finds this decorator
  /// as its backend: installs the cycle-shipping post-flush hook and opens
  /// the append/meta paths.  Throws UsageError on a second bind (one
  /// committer per volume).
  void bind_committer(GroupCommitter& committer);

  struct PeerStats {
    std::string name;
    std::uint64_t acked_lsn = 0;  // backup's durably-applied floor
    std::uint64_t queued = 0;     // shipments still waiting to ship
  };
  struct Stats {
    AckMode mode = AckMode::async;
    std::uint64_t shipped_lsn = 0;  // highest shipment LSN assigned
    std::vector<PeerStats> peers;   // lag = shipped_lsn - acked_lsn
  };
  [[nodiscard]] Stats stats() const;

  /// Probes every peer's applied floor over its link (refreshes the lag
  /// numbers std_info reports without shipping anything).
  void heartbeat();

  [[nodiscard]] AckMode ack_mode() const { return mode_; }
  [[nodiscard]] const std::shared_ptr<Backend>& local() const {
    return local_;
  }

 private:
  struct Shipment {
    std::uint64_t rep_lsn = 0;
    bool snapshot = false;
    std::size_t shard = 0;  // snapshot shipments only
    Buffer bytes;           // cycle frame, or raw snapshot image
    std::size_t needed = 0;  // acks that release the enqueuer's wait
    std::size_t acks = 0;    // guarded by the owning backend's ack_mutex_
  };
  struct Peer {
    explicit Peer(std::shared_ptr<ReplicationLink> l) : link(std::move(l)) {}
    std::shared_ptr<ReplicationLink> link;
    std::mutex mutex;
    std::condition_variable cv;  // wakes the shipper
    std::deque<std::shared_ptr<Shipment>> queue;
    std::uint64_t acked = 0;  // guarded by `mutex`
    std::jthread shipper;     // last member: started after the above
  };

  /// Wraps `bytes` as shipment `rep_lsn` and pushes it onto every peer's
  /// queue, stamping the ack count the current mode requires.
  [[nodiscard]] std::shared_ptr<Shipment> broadcast_locked(
      std::uint64_t rep_lsn, bool snapshot, std::size_t shard, Buffer bytes);
  /// Blocks until the shipment's stamped ack count is reached.  Throws
  /// UsageError if a backup answered `immutable` (it was promoted: this
  /// primary is fenced and must stop reporting durability).
  void await_acks(const std::shared_ptr<Shipment>& shipment);
  /// Throws UsageError until a committer is bound.
  void require_bound() const;
  /// Ships one committer flush cycle (the post-flush hook body).
  void ship_group_cycle(
      const std::map<std::string, Buffer, std::less<>>& metas,
      const std::vector<ShardAppend>& appends);
  /// Broadcasts the volume's current snapshots + journals + metadata as
  /// fresh shipments (attach and gap recovery).
  void resync_locked();
  void shipper(Peer& peer, const std::stop_token& stop);

  std::shared_ptr<Backend> local_;
  const AckMode mode_;
  /// Set once by bind_committer, before the committer's flusher -- the
  /// only writer -- starts.
  std::atomic<bool> bound_{false};

  mutable std::mutex mutex_;  // orders LSN assignment + queue pushes
  std::uint64_t next_lsn_ = 0;
  std::vector<std::unique_ptr<Peer>> peers_;  // grow-only; stable addresses

  mutable std::mutex ack_mutex_;
  std::condition_variable ack_cv_;
  bool shutting_down_ = false;  // guarded by ack_mutex_
  bool fenced_ = false;         // a backup answered `immutable` (promoted)
};

}  // namespace amoeba::storage
