#include "metered_backend.hpp"

#include <chrono>
#include <exception>
#include <utility>

#include "amoeba/storage/record.hpp"

namespace perfbench {

namespace storage = amoeba::storage;
using Clock = std::chrono::steady_clock;

namespace {

std::uint64_t elapsed_ns(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

std::uint64_t payload_bytes(const std::vector<storage::ShardAppend>& appends) {
  std::uint64_t bytes = 0;
  for (const auto& a : appends) bytes += a.bytes.size();
  return bytes;
}

std::uint64_t payload_records(
    const std::vector<storage::ShardAppend>& appends) {
  std::uint64_t records = 0;
  for (const auto& a : appends) records += count_records(a.bytes);
  return records;
}

/// Runs one forwarded write, timing it and recording a throw as a
/// failure before letting it propagate.
template <typename Fn, typename Record>
void timed_write(Fn&& fn, Record&& record) {
  const auto start = Clock::now();
  try {
    fn();
  } catch (...) {
    record(elapsed_ns(start), true);
    throw;
  }
  record(elapsed_ns(start), false);
}

}  // namespace

std::uint64_t count_records(std::span<const std::uint8_t> bytes) {
  if (bytes.empty()) return 0;
  const std::size_t n = storage::decode_journal(bytes).size();
  return n == 0 ? 1 : n;
}

void VolumeMeter::record_append(std::uint64_t records, std::uint64_t bytes,
                                std::uint64_t ns, bool failed) {
  const std::lock_guard lock(mutex_);
  ++data_.cycles;
  data_.records += records;
  data_.bytes += bytes;
  data_.busy_ns += ns;
  data_.failures += failed ? 1 : 0;
  data_.append_us.push_back(static_cast<double>(ns) / 1e3);
}

void VolumeMeter::record_meta(std::uint64_t bytes, std::uint64_t ns,
                              bool failed) {
  const std::lock_guard lock(mutex_);
  ++data_.meta_writes;
  data_.bytes += bytes;
  data_.busy_ns += ns;
  data_.failures += failed ? 1 : 0;
  data_.meta_us.push_back(static_cast<double>(ns) / 1e3);
}

void VolumeMeter::record_snapshot(std::uint64_t bytes, std::uint64_t ns,
                                  bool failed) {
  const std::lock_guard lock(mutex_);
  ++data_.snapshots;
  data_.bytes += bytes;
  data_.busy_ns += ns;
  data_.failures += failed ? 1 : 0;
}

void VolumeMeter::reset() {
  const std::lock_guard lock(mutex_);
  data_ = Snapshot{};
}

VolumeMeter::Snapshot VolumeMeter::snapshot() const {
  const std::lock_guard lock(mutex_);
  return data_;
}

MeteredBackend::MeteredBackend(std::shared_ptr<storage::Backend> inner,
                               std::shared_ptr<VolumeMeter> meter)
    : inner_(std::move(inner)), meter_(std::move(meter)) {}

std::size_t MeteredBackend::shard_count() const {
  return inner_->shard_count();
}

void MeteredBackend::append_journal(std::size_t shard,
                                    std::span<const std::uint8_t> bytes) {
  timed_write([&] { inner_->append_journal(shard, bytes); },
              [&](std::uint64_t ns, bool failed) {
                meter_->record_append(count_records(bytes), bytes.size(), ns,
                                      failed);
              });
}

void MeteredBackend::append_journal_batch(
    std::vector<storage::ShardAppend>&& appends) {
  const std::uint64_t records = payload_records(appends);
  const std::uint64_t bytes = payload_bytes(appends);
  timed_write([&] { inner_->append_journal_batch(std::move(appends)); },
              [&](std::uint64_t ns, bool failed) {
                meter_->record_append(records, bytes, ns, failed);
              });
}

void MeteredBackend::submit_append_group(
    std::vector<storage::ShardAppend>&& appends,
    storage::AppendCompletion complete) {
  const std::uint64_t records = payload_records(appends);
  const std::uint64_t bytes = payload_bytes(appends);
  const auto start = Clock::now();
  // The completion may run inline (synchronous volumes) or on a reaper
  // thread; either way the group is timed from submission to durable.
  inner_->submit_append_group(
      std::move(appends),
      [meter = meter_, records, bytes, start,
       complete = std::move(complete)](std::exception_ptr error) {
        meter->record_append(records, bytes, elapsed_ns(start),
                             error != nullptr);
        complete(std::move(error));
      });
}

storage::AsyncIoStats MeteredBackend::async_io_stats() const {
  return inner_->async_io_stats();
}

amoeba::Buffer MeteredBackend::read_journal(std::size_t shard) const {
  return inner_->read_journal(shard);
}

void MeteredBackend::install_snapshot(std::size_t shard,
                                      std::span<const std::uint8_t> bytes) {
  timed_write([&] { inner_->install_snapshot(shard, bytes); },
              [&](std::uint64_t ns, bool failed) {
                meter_->record_snapshot(bytes.size(), ns, failed);
              });
}

amoeba::Buffer MeteredBackend::read_snapshot(std::size_t shard) const {
  return inner_->read_snapshot(shard);
}

void MeteredBackend::put_meta(std::string_view key,
                              std::span<const std::uint8_t> value) {
  timed_write([&] { inner_->put_meta(key, value); },
              [&](std::uint64_t ns, bool failed) {
                meter_->record_meta(value.size(), ns, failed);
              });
}

amoeba::Buffer MeteredBackend::get_meta(std::string_view key) const {
  return inner_->get_meta(key);
}

std::vector<std::string> MeteredBackend::meta_keys() const {
  return inner_->meta_keys();
}

bool MeteredBackend::empty() const { return inner_->empty(); }

}  // namespace perfbench
