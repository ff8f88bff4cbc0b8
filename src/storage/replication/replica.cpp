#include "amoeba/storage/replication/replica.hpp"

#include <utility>

#include "amoeba/common/serial.hpp"
#include "amoeba/storage/replication/wire.hpp"

namespace amoeba::storage {

ReplicaApplier::ReplicaApplier(std::shared_ptr<Backend> local)
    : local_(std::move(local)) {
  if (local_ == nullptr) {
    throw UsageError("ReplicaApplier: null backend");
  }
  const Buffer floor = local_->get_meta(kRepAppliedKey);
  if (!floor.empty()) {
    Reader r(floor);
    const std::uint64_t applied = r.u64();
    if (r.exhausted()) {
      applied_ = applied;
    }
  }
}

void ReplicaApplier::persist_floor_locked() {
  Writer w;
  w.u64(applied_);
  local_->put_meta(kRepAppliedKey, w.take());
}

Result<std::uint64_t> ReplicaApplier::apply_cycle(
    std::span<const std::uint8_t> frame) {
  const std::lock_guard lock(mutex_);
  if (promoted_) {
    return ErrorCode::immutable;  // fenced: this volume has a new primary
  }
  CycleFrame cycle;
  if (!decode_cycle_frame(frame, cycle)) {
    return ErrorCode::invalid_argument;
  }
  if (cycle.rep_lsn <= applied_) {
    return applied_;  // duplicate shipment: ack without re-applying
  }
  if (cycle.rep_lsn != applied_ + 1) {
    return ErrorCode::conflict;  // gap: the primary must resync us
  }
  for (auto& [key, value] : cycle.metas) {
    local_->put_meta(key, value);
  }
  if (!cycle.appends.empty()) {
    // One local append group per shipped cycle: on a FileBackend backup
    // that is one commit.log frame, so a crash mid-apply loses the whole
    // cycle and never tears a multi-shard group.
    append_group_durably(*local_, std::move(cycle.appends));
  }
  applied_ = cycle.rep_lsn;
  persist_floor_locked();
  return applied_;
}

Result<std::uint64_t> ReplicaApplier::install_snapshot(
    std::uint64_t rep_lsn, std::size_t shard,
    std::span<const std::uint8_t> bytes) {
  const std::lock_guard lock(mutex_);
  if (promoted_) {
    return ErrorCode::immutable;
  }
  if (rep_lsn <= applied_) {
    return applied_;
  }
  if (shard >= local_->shard_count()) {
    return ErrorCode::invalid_argument;
  }
  local_->install_snapshot(shard, bytes);
  // Adopt, don't gap-check: a snapshot subsumes every shipment behind it,
  // and in-order FIFO shipping already offered those to us.  This is what
  // lets a full resync land on any floor.
  applied_ = rep_lsn;
  persist_floor_locked();
  return applied_;
}

std::uint64_t ReplicaApplier::promote() {
  const std::lock_guard lock(mutex_);
  promoted_ = true;
  return applied_;
}

std::uint64_t ReplicaApplier::applied() const {
  const std::lock_guard lock(mutex_);
  return applied_;
}

bool ReplicaApplier::promoted() const {
  const std::lock_guard lock(mutex_);
  return promoted_;
}

}  // namespace amoeba::storage
