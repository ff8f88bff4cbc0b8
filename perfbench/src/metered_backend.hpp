// The benchmark's storage probe: a Backend decorator that forwards every
// call to the volume it wraps and times the writes on the way through.
//
// It must sit directly on a local volume and UNDER rpc::replicate_to,
// never above it: the group committer and Service::attach_durability find
// replication by dynamic_cast-ing the backend they are handed to
// storage::ReplicatedBackend, and a decorator above it would hide it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "amoeba/storage/backend.hpp"

namespace perfbench {

/// What one volume's writes cost, accumulated by a MeteredBackend.
/// Thread-safe; reset() starts a new measurement window.
class VolumeMeter {
 public:
  struct Snapshot {
    std::uint64_t cycles = 0;       // append calls (group, batch or single)
    std::uint64_t records = 0;      // framed journal records they carried
    std::uint64_t meta_writes = 0;  // put_meta calls
    std::uint64_t snapshots = 0;    // install_snapshot calls
    std::uint64_t bytes = 0;        // journal + metadata + snapshot bytes
    std::uint64_t busy_ns = 0;      // time inside the write calls
    std::uint64_t failures = 0;     // writes that threw or completed failed
    std::vector<double> append_us;  // per append call, submit to durable
    std::vector<double> meta_us;    // per put_meta call
  };

  void record_append(std::uint64_t records, std::uint64_t bytes,
                     std::uint64_t ns, bool failed);
  void record_meta(std::uint64_t bytes, std::uint64_t ns, bool failed);
  void record_snapshot(std::uint64_t bytes, std::uint64_t ns, bool failed);

  void reset();
  [[nodiscard]] Snapshot snapshot() const;

 private:
  mutable std::mutex mutex_;
  Snapshot data_;
};

/// Framed journal records in one append payload (storage/record.hpp
/// framing); a payload that does not parse counts as one record.
[[nodiscard]] std::uint64_t count_records(std::span<const std::uint8_t> bytes);

class MeteredBackend final : public amoeba::storage::Backend {
 public:
  MeteredBackend(std::shared_ptr<amoeba::storage::Backend> inner,
                 std::shared_ptr<VolumeMeter> meter);

  [[nodiscard]] std::size_t shard_count() const override;
  void append_journal(std::size_t shard,
                      std::span<const std::uint8_t> bytes) override;
  void append_journal_batch(
      std::vector<amoeba::storage::ShardAppend>&& appends) override;
  void submit_append_group(std::vector<amoeba::storage::ShardAppend>&& appends,
                           amoeba::storage::AppendCompletion complete) override;
  [[nodiscard]] amoeba::storage::AsyncIoStats async_io_stats() const override;
  [[nodiscard]] amoeba::Buffer read_journal(std::size_t shard) const override;
  void install_snapshot(std::size_t shard,
                        std::span<const std::uint8_t> bytes) override;
  [[nodiscard]] amoeba::Buffer read_snapshot(std::size_t shard) const override;
  void put_meta(std::string_view key,
                std::span<const std::uint8_t> value) override;
  [[nodiscard]] amoeba::Buffer get_meta(std::string_view key) const override;
  [[nodiscard]] std::vector<std::string> meta_keys() const override;
  [[nodiscard]] bool empty() const override;

 private:
  std::shared_ptr<amoeba::storage::Backend> inner_;
  std::shared_ptr<VolumeMeter> meter_;
};

}  // namespace perfbench
