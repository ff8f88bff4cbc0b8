#include "amoeba/storage/replication/replicated_backend.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "amoeba/storage/group_commit.hpp"
#include "amoeba/storage/replication/replica.hpp"

namespace amoeba::storage {

std::string_view to_string(AckMode mode) {
  switch (mode) {
    case AckMode::async:
      return "async";
    case AckMode::ack_one:
      return "ack-one";
    case AckMode::ack_all:
      return "ack-all";
  }
  return "?";
}

ReplicatedBackend::ReplicatedBackend(std::shared_ptr<Backend> local,
                                     AckMode mode)
    : local_(std::move(local)), mode_(mode) {
  if (local_ == nullptr) {
    throw UsageError("ReplicatedBackend: null local backend");
  }
  if (dynamic_cast<ReplicatedBackend*>(local_.get()) != nullptr) {
    throw UsageError("ReplicatedBackend: refusing to stack decorators");
  }
}

ReplicatedBackend::~ReplicatedBackend() {
  {
    const std::lock_guard lock(ack_mutex_);
    shutting_down_ = true;
  }
  ack_cv_.notify_all();
  // No mutex_: nothing attaches peers while the destructor runs, and a
  // shipper recovering from a gap takes mutex_ itself -- holding it here
  // would deadlock the join.
  for (const auto& peer : peers_) {
    peer->shipper.request_stop();
    {
      const std::lock_guard plock(peer->mutex);
    }
    peer->cv.notify_all();
  }
  for (const auto& peer : peers_) {
    if (peer->shipper.joinable()) {
      peer->shipper.join();  // shippers touch ack_cv_: join before members die
    }
  }
}

std::size_t ReplicatedBackend::shard_count() const {
  return local_->shard_count();
}

Buffer ReplicatedBackend::read_journal(std::size_t shard) const {
  return local_->read_journal(shard);
}

Buffer ReplicatedBackend::read_snapshot(std::size_t shard) const {
  return local_->read_snapshot(shard);
}

Buffer ReplicatedBackend::get_meta(std::string_view key) const {
  return local_->get_meta(key);
}

std::vector<std::string> ReplicatedBackend::meta_keys() const {
  return local_->meta_keys();
}

bool ReplicatedBackend::empty() const { return local_->empty(); }

void ReplicatedBackend::require_bound() const {
  // Relaxed: bound_ flips false->true once, before the committer's flusher
  // (the only legitimate writer) starts, so that thread already observes
  // it through the committer's own synchronization.
  if (!bound_.load(std::memory_order_relaxed)) {
    throw UsageError(
        "ReplicatedBackend: journal and metadata writes go through the "
        "volume's GroupCommitter (none is bound)");
  }
}

void ReplicatedBackend::submit_append_group(std::vector<ShardAppend>&& appends,
                                            AppendCompletion complete) {
  require_bound();
  // The forwarded completion fires on the local volume's reaping side (CQE
  // of the linked fdatasync under io_uring); the committer's ordered drain
  // then runs the ship hook strictly after it, in LSN order -- §8.5's
  // acknowledgement rule.
  local_->submit_append_group(std::move(appends), std::move(complete));
}

void ReplicatedBackend::install_snapshot(std::size_t shard,
                                         std::span<const std::uint8_t> bytes) {
  adopt_snapshot(shard, Buffer(bytes.begin(), bytes.end()));
}

void ReplicatedBackend::adopt_snapshot(std::size_t shard, Buffer bytes) {
  local_->install_snapshot(shard, bytes);
  // Compaction ships on its own (it never rides the committer), and never
  // waits for acks: replacing a snapshot is not client-visible
  // durability, so async shipping costs nothing.  The shipment keeps the
  // handed-over image itself until every backup has it.
  const std::lock_guard lock(mutex_);
  if (peers_.empty()) {
    return;
  }
  (void)broadcast_locked(++next_lsn_, true, shard, std::move(bytes));
}

void ReplicatedBackend::put_meta(std::string_view key,
                                 std::span<const std::uint8_t> value) {
  require_bound();
  local_->put_meta(key, value);  // ships inside the flush-cycle frame
}

void ReplicatedBackend::bind_committer(GroupCommitter& committer) {
  {
    // The mutex orders the bind itself; see require_bound for the flag's
    // cross-thread visibility.
    const std::lock_guard lock(mutex_);
    if (bound_.load(std::memory_order_relaxed)) {
      throw UsageError("ReplicatedBackend: already bound to a committer");
    }
    bound_.store(true, std::memory_order_relaxed);
  }
  committer.set_post_flush_hook(
      [this](const GroupCommitter::FlushCycle& cycle) {
        ship_group_cycle(*cycle.metas, *cycle.appends);
      });
}

void ReplicatedBackend::attach_peer(std::shared_ptr<ReplicationLink> link) {
  if (link == nullptr) {
    throw UsageError("ReplicatedBackend: null replication link");
  }
  const std::lock_guard lock(mutex_);
  auto peer = std::make_unique<Peer>(std::move(link));
  Peer& ref = *peer;  // unique_ptr in a grow-only vector: address is stable
  ref.shipper = std::jthread(
      [this, &ref](const std::stop_token& stop) { shipper(ref, stop); });
  peers_.push_back(std::move(peer));
  // The new peer's opening shipments rebuild it from our current state
  // (existing peers receive them too and simply fast-forward).  The hook
  // fires after local durability, so any cycle shipped before this point
  // is already on the local volume and therefore inside this resync.
  resync_locked();
}

ReplicatedBackend::Stats ReplicatedBackend::stats() const {
  Stats out;
  out.mode = mode_;
  const std::lock_guard lock(mutex_);
  out.shipped_lsn = next_lsn_;
  out.peers.reserve(peers_.size());
  for (const auto& peer : peers_) {
    const std::lock_guard plock(peer->mutex);
    out.peers.push_back(
        {peer->link->peer_name(), peer->acked, peer->queue.size()});
  }
  return out;
}

void ReplicatedBackend::heartbeat() {
  std::vector<Peer*> peers;
  std::uint64_t shipped;
  {
    const std::lock_guard lock(mutex_);
    shipped = next_lsn_;
    peers.reserve(peers_.size());
    for (const auto& peer : peers_) {
      peers.push_back(peer.get());
    }
  }
  for (Peer* peer : peers) {  // RPCs outside mutex_
    const Result<std::uint64_t> floor = peer->link->heartbeat(shipped);
    if (floor.ok()) {
      const std::lock_guard plock(peer->mutex);
      peer->acked = std::max(peer->acked, floor.value());
    }
  }
}

std::shared_ptr<ReplicatedBackend::Shipment>
ReplicatedBackend::broadcast_locked(std::uint64_t rep_lsn, bool snapshot,
                                    std::size_t shard, Buffer bytes) {
  auto shipment = std::make_shared<Shipment>();
  shipment->rep_lsn = rep_lsn;
  shipment->snapshot = snapshot;
  shipment->shard = shard;
  shipment->bytes = std::move(bytes);
  switch (mode_) {
    case AckMode::async:
      shipment->needed = 0;
      break;
    case AckMode::ack_one:
      shipment->needed = 1;
      break;
    case AckMode::ack_all:
      shipment->needed = peers_.size();
      break;
  }
  for (const auto& peer : peers_) {
    {
      const std::lock_guard plock(peer->mutex);
      peer->queue.push_back(shipment);
    }
    peer->cv.notify_one();
  }
  return shipment;
}

void ReplicatedBackend::await_acks(
    const std::shared_ptr<Shipment>& shipment) {
  if (shipment == nullptr || shipment->needed == 0) {
    return;
  }
  std::unique_lock lock(ack_mutex_);
  ack_cv_.wait(lock, [&] {
    return shutting_down_ || fenced_ || shipment->acks >= shipment->needed;
  });
  if (shipment->acks >= shipment->needed) {
    return;
  }
  if (fenced_) {
    // A backup refused us as promoted: we are the deposed primary.  Fail
    // the durability wait loudly -- under a committer this latches the
    // flusher's failed state, so no mutation is ever reported durable by
    // a primary the cluster has moved past.
    throw UsageError("ReplicatedBackend: backup promoted; primary fenced");
  }
  // Shutting down: the only waiters left are the destructor's own caller
  // (teardown), so an unmet ack count is reported as nothing.
}

void ReplicatedBackend::ship_group_cycle(
    const std::map<std::string, Buffer, std::less<>>& metas,
    const std::vector<ShardAppend>& appends) {
  std::shared_ptr<Shipment> shipment;
  {
    const std::lock_guard lock(mutex_);
    if (peers_.empty()) {
      return;
    }
    std::vector<MetaImage> images;
    images.reserve(metas.size());
    for (const auto& [key, value] : metas) {
      if (std::string_view(key).starts_with(kRepMetaPrefix)) {
        continue;
      }
      images.push_back({key, value});
    }
    const std::uint64_t lsn = ++next_lsn_;
    shipment = broadcast_locked(lsn, false, 0,
                                encode_cycle_frame(lsn, images, appends));
  }
  await_acks(shipment);
}

void ReplicatedBackend::resync_locked() {
  if (peers_.empty()) {
    return;
  }
  const std::size_t shards = local_->shard_count();
  // Snapshots first -- including empty ones, which reset a shard a stale
  // replica may hold junk in -- each adopting its LSN as the new floor...
  for (std::size_t s = 0; s < shards; ++s) {
    (void)broadcast_locked(++next_lsn_, true, s, local_->read_snapshot(s));
  }
  // ...then one cycle frame carrying every journal tail and every
  // metadata image (minus replication-internal keys), which lands at
  // exactly floor+1.  Cycles already queued behind this point re-apply
  // on top; journal replay's LSN gating makes that a no-op.
  std::vector<ShardAppend> appends;
  for (std::size_t s = 0; s < shards; ++s) {
    Buffer journal = local_->read_journal(s);
    if (!journal.empty()) {
      appends.push_back({s, std::move(journal)});
    }
  }
  std::vector<std::pair<std::string, Buffer>> images;
  for (std::string& key : local_->meta_keys()) {
    if (std::string_view(key).starts_with(kRepMetaPrefix)) {
      continue;
    }
    Buffer value = local_->get_meta(key);
    images.emplace_back(std::move(key), std::move(value));
  }
  std::vector<MetaImage> metas;
  metas.reserve(images.size());
  for (const auto& [key, value] : images) {
    metas.push_back({key, value});
  }
  const std::uint64_t lsn = ++next_lsn_;
  (void)broadcast_locked(lsn, false, 0,
                         encode_cycle_frame(lsn, metas, appends));
}

void ReplicatedBackend::shipper(Peer& peer, const std::stop_token& stop) {
  for (;;) {
    std::shared_ptr<Shipment> next;
    {
      std::unique_lock lock(peer.mutex);
      peer.cv.wait(lock, [&] {
        return stop.stop_requested() || !peer.queue.empty();
      });
      if (peer.queue.empty()) {
        return;  // stopped with nothing left to offer: clean exit
      }
      next = peer.queue.front();
    }
    bool acked = false;
    bool rotated = false;
    for (;;) {
      const Result<std::uint64_t> floor =
          next->snapshot ? peer.link->ship_snapshot(next->rep_lsn,
                                                    next->shard, next->bytes)
                         : peer.link->ship_cycle(next->bytes);
      if (floor.ok()) {
        {
          const std::lock_guard plock(peer.mutex);
          peer.acked = std::max(peer.acked, floor.value());
        }
        acked = true;
        break;
      }
      if (floor.error() == ErrorCode::immutable) {
        // The backup was promoted: this primary is deposed.  Stop
        // offering and fence every durability waiter.
        {
          const std::lock_guard lock(ack_mutex_);
          fenced_ = true;
        }
        ack_cv_.notify_all();
        return;
      }
      if (stop.stop_requested()) {
        return;  // one post-stop attempt per shipment: a dead backup
                 // must not hang shutdown
      }
      if (floor.error() == ErrorCode::conflict) {
        // LSN gap: the backup is behind our stream (it restarted, or
        // lost state).  Queue a resync broadcast -- unless one is
        // already pending here (its snapshot shipments are still in the
        // queue) -- then rotate the gapped shipment behind it: once the
        // snapshots adopt the floor, everything rotated lands at or
        // below it and acks as a duplicate.  (Every queued shipment's
        // bytes are on the local volume -- shipments are broadcast after
        // their local write -- so the resync read subsumes them all.)
        bool resync_pending;
        {
          const std::lock_guard plock(peer.mutex);
          resync_pending =
              std::any_of(peer.queue.begin(), peer.queue.end(),
                          [](const auto& s) { return s->snapshot; });
        }
        if (!resync_pending) {
          const std::lock_guard lock(mutex_);
          resync_locked();
        }
        rotated = true;
        break;
      }
      // Transient link failure (timeout, drop): retry forever.  The
      // at-most-once transaction layer plus the replica's floor make the
      // retransmission harmless.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    {
      const std::lock_guard plock(peer.mutex);
      peer.queue.pop_front();  // only this thread pops: front is `next`
      if (rotated) {
        peer.queue.push_back(next);
      }
    }
    if (acked) {
      {
        const std::lock_guard lock(ack_mutex_);
        ++next->acks;
      }
      ack_cv_.notify_all();
    }
  }
}

}  // namespace amoeba::storage
