// Pluggable storage volumes behind the durable object store.
//
// A Backend is one "disk" holding, per shard, an append-only journal and
// the most recent snapshot, plus a small named-metadata area (the reply-
// cache floors of rpc::Service live there).  Journal bytes reach a volume
// one way only: submit_append_group(), which the group-commit flusher
// (storage/group_commit.hpp) calls once per flush cycle.  Two
// implementations:
//
//   * MemoryBackend -- per-shard journal buffers in process memory.  The
//     crash/restart test harness runs on it: an append hook fires at
//     every journal barrier (after each append group), and capture()
//     deep-copies the whole volume under its locks -- exactly the disk
//     image a machine losing power at that instant would leave behind.
//     Recovery from a captured image IS the simulated crash+restart.
//   * FileBackend -- one directory on the real filesystem holding
//     commit.log, shard-N.snap and meta-KEY.bin (docs/PROTOCOL.md §8.1).
//     Each append group lands in commit.log as ONE checksummed frame --
//     one write(2), one fsync(2), however many shards the group touches
//     -- so a torn frame drops the whole group at recovery.  Snapshots
//     and metadata are installed via write-temp + fsync + rename +
//     directory fsync.  This is the durable deployment shape and what
//     bench_e14 measures.
//
// Concurrency: every method is thread-safe.  An append group is atomic
// with respect to capture() and to recovery: a two-shard mutation (a bank
// transfer's debit+credit) is either entirely on the image or not at all,
// so a crash cannot tear money in half.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "amoeba/common/serial.hpp"

namespace amoeba::storage {

/// One shard-addressed journal append, for the multi-shard atomic form.
struct ShardAppend {
  std::size_t shard = 0;
  Buffer bytes;
};

/// Completion of an append group: invoked exactly once, with a null
/// exception_ptr on success or the failure that kept the group off the
/// disk.  May run on the submitting thread (synchronous volumes) or on a
/// backend reaper thread (io_uring) -- callers must not assume which.
using AppendCompletion = std::function<void(std::exception_ptr)>;

/// Counters an async backend exposes so callers can see the submission
/// pipeline (and tests can prove the flusher never blocks in write(2)).
struct AsyncIoStats {
  std::uint64_t sqe_submitted = 0;  // SQEs pushed to the ring (2 per group)
  std::uint64_t cqe_completed = 0;  // CQEs reaped off the ring
  std::uint64_t inflight = 0;       // groups submitted but not yet complete
  bool async = false;               // true only for a live io_uring backend
};

/// Per-thread blocking-syscall counters, bumped by every write(2)/writev(2)
/// and fsync(2)/fdatasync(2) the storage layer issues on the calling
/// thread.  Same spirit as PR 7's CountedMutex: the io_uring proof is a
/// runtime assertion that the mutator's and flusher's counters stay flat
/// across the steady-state mutate path, not a comment.
struct IoCounters {
  std::uint64_t writes = 0;  // blocking write/writev calls
  std::uint64_t fsyncs = 0;  // blocking fsync/fdatasync calls
};
[[nodiscard]] IoCounters& this_thread_io_counters();

class Backend {
 public:
  virtual ~Backend() = default;

  /// Fixed at volume creation; the object store adopting this backend must
  /// be sharded identically (object number -> shard mapping is layout).
  [[nodiscard]] virtual std::size_t shard_count() const = 0;

  /// THE journal write: appends the whole group atomically with respect
  /// to capture()/recovery images (all entries on the image or none) and
  /// invokes `complete` exactly once -- with a null exception_ptr when
  /// every byte is durable, with the failure otherwise.  Synchronous
  /// volumes complete inline on the calling thread; UringFileBackend
  /// completes from its reaping side.  The group-commit flusher is the
  /// caller in every deployment, so an async backend drops in without
  /// touching the object store.  Completions of successive calls fire in
  /// submission order (the commit log is a sequential structure; recovery
  /// depends on it having no gaps).
  virtual void submit_append_group(std::vector<ShardAppend>&& appends,
                                   AppendCompletion complete) = 0;

  /// Blocking single-record and multi-record forms of submit_append_group:
  /// submit, wait for the completion, rethrow a failure.  Defined once
  /// here over submit_append_group; kept virtual only for decorators that
  /// still override them.
  virtual void append_journal(std::size_t shard,
                              std::span<const std::uint8_t> bytes);
  virtual void append_journal_batch(std::vector<ShardAppend>&& appends);

  /// Submission-pipeline counters; all-zero/sync for blocking backends.
  [[nodiscard]] virtual AsyncIoStats async_io_stats() const { return {}; }

  /// Whole-journal read (recovery).
  [[nodiscard]] virtual Buffer read_journal(std::size_t shard) const = 0;

  /// Atomically replaces the shard's snapshot AND restarts its journal
  /// (log compaction): read_journal() returns only appends made after
  /// it.  Replay-idempotent records make the file-backend window between
  /// the snapshot rename and the journal restart harmless.
  virtual void install_snapshot(std::size_t shard,
                                std::span<const std::uint8_t> bytes) = 0;
  /// install_snapshot() of an image the caller hands over: a decorator
  /// that must keep the bytes past the call (replication ships them to
  /// its backups) takes them without a copy.  The default installs and
  /// drops them.
  virtual void adopt_snapshot(std::size_t shard, Buffer bytes) {
    install_snapshot(shard, bytes);
  }

  /// Whole-snapshot read (recovery); empty when none was installed.
  [[nodiscard]] virtual Buffer read_snapshot(std::size_t shard) const = 0;

  /// Small named metadata blobs, replaced atomically per put.
  virtual void put_meta(std::string_view key,
                        std::span<const std::uint8_t> value) = 0;
  [[nodiscard]] virtual Buffer get_meta(std::string_view key) const = 0;
  /// Every metadata key currently on the volume (unspecified order).  The
  /// replication resync path walks this to ship a new backup the whole
  /// metadata area.
  [[nodiscard]] virtual std::vector<std::string> meta_keys() const = 0;

  /// True when the volume holds no journal bytes, snapshots, or metadata
  /// (a fresh disk: the store initializes instead of recovering).
  [[nodiscard]] virtual bool empty() const = 0;
};

/// Submits one append group to `backend` and blocks until its completion
/// reports (inline on a synchronous volume, from the reaper under
/// io_uring); rethrows the failure.
void append_group_durably(Backend& backend,
                          std::vector<ShardAppend>&& appends);

/// In-memory volume with crash-capture hooks (the test harness backend).
class MemoryBackend final : public Backend {
 public:
  explicit MemoryBackend(std::size_t shards = 16);

  [[nodiscard]] std::size_t shard_count() const override { return shards_.size(); }
  /// Appends under every involved shard lock and completes inline.
  void submit_append_group(std::vector<ShardAppend>&& appends,
                           AppendCompletion complete) override;
  [[nodiscard]] Buffer read_journal(std::size_t shard) const override;
  void install_snapshot(std::size_t shard,
                        std::span<const std::uint8_t> bytes) override;
  [[nodiscard]] Buffer read_snapshot(std::size_t shard) const override;
  void put_meta(std::string_view key,
                std::span<const std::uint8_t> value) override;
  [[nodiscard]] Buffer get_meta(std::string_view key) const override;
  [[nodiscard]] std::vector<std::string> meta_keys() const override;
  [[nodiscard]] bool empty() const override;

  /// Installs the journal-barrier hook: invoked after every journal append
  /// group with the running append count, OUTSIDE the shard locks (so the
  /// hook may capture()).  The crash harness registers a hook that
  /// snapshots the volume at chosen barriers.
  void set_append_hook(std::function<void(std::uint64_t)> hook);

  /// Total journal appends so far (batch = one per entry).
  [[nodiscard]] std::uint64_t append_count() const {
    return appends_.load(std::memory_order_relaxed);
  }

  /// Deep copy of the volume as of now -- the disk image a crash at this
  /// instant would leave.  Takes every shard lock (ascending) plus the
  /// meta lock, so multi-shard append groups are never torn across it.
  [[nodiscard]] std::shared_ptr<MemoryBackend> capture() const;

 private:
  /// A journal or snapshot held in fixed-size pages.  Growing it never
  /// moves what it holds, and clearing it frees every page, so the
  /// volume's resident size follows what it holds now rather than the
  /// largest it ever was, and the allocator recycles equal-sized pages
  /// instead of ever-larger contiguous runs.
  class PagedBytes {
   public:
    void append(std::span<const std::uint8_t> bytes);
    void clear() { pages_.clear(); }
    [[nodiscard]] bool empty() const { return pages_.empty(); }
    [[nodiscard]] Buffer flatten() const;

   private:
    static constexpr std::size_t kPageBytes = 32 * 1024;
    std::vector<Buffer> pages_;  // all full but the last
  };

  struct Shard {
    mutable std::mutex mutex;
    PagedBytes journal;
    PagedBytes snapshot;
  };

  void hook_after_append();

  std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::mutex meta_mutex_;
  std::map<std::string, Buffer, std::less<>> meta_;
  std::atomic<std::uint64_t> appends_{0};
  std::atomic<bool> hook_set_{false};  // fast-path gate for hook_after_append
  mutable std::mutex hook_mutex_;
  std::function<void(std::uint64_t)> hook_;
};

/// Directory-on-disk volume: the durable deployment backend.  Not final:
/// UringFileBackend (storage/uring_backend.hpp) subclasses it, replacing
/// only the commit-log append with ring submission -- every recovery,
/// snapshot, and metadata path is shared.
class FileBackend : public Backend {
 public:
  /// Creates the directory if needed; an existing volume must have been
  /// written with the same shard count.  Refuses (UsageError) a directory
  /// holding a non-empty shard-N.journal: per-shard journals are an older
  /// on-disk format this version does not read.
  FileBackend(std::filesystem::path directory, std::size_t shards = 16);
  ~FileBackend() override;

  [[nodiscard]] std::size_t shard_count() const override {
    return snapshot_mutexes_.size();
  }
  /// The whole group goes down as ONE checksummed frame in commit.log --
  /// one write, one fsync, however many shards it spans.  Beyond
  /// amortizing the fsync (this is where the flusher's batching actually
  /// reaches the platter), the single frame gives a multi-shard group
  /// real on-disk atomicity: a torn frame drops the whole group at
  /// recovery.  Completes inline.
  void submit_append_group(std::vector<ShardAppend>&& appends,
                           AppendCompletion complete) override;
  /// The shard's entries of every intact commit.log frame, in append
  /// order, starting after its latest snapshot's restart marker.
  [[nodiscard]] Buffer read_journal(std::size_t shard) const override;
  void install_snapshot(std::size_t shard,
                        std::span<const std::uint8_t> bytes) override;
  [[nodiscard]] Buffer read_snapshot(std::size_t shard) const override;
  void put_meta(std::string_view key,
                std::span<const std::uint8_t> value) override;
  [[nodiscard]] Buffer get_meta(std::string_view key) const override;
  [[nodiscard]] std::vector<std::string> meta_keys() const override;
  [[nodiscard]] bool empty() const override;

  [[nodiscard]] const std::filesystem::path& directory() const {
    return directory_;
  }

 protected:
  /// Encodes `appends` as one complete commit-log group frame
  /// (`length u32 | checksum u32 | body`) into `frame` (cleared first).
  /// Shared by the sync append and the ring submission path.
  static void encode_group_frame(const std::vector<ShardAppend>& appends,
                                 Buffer& frame);

  /// Called with commit_mutex_ held before any read of commit.log that
  /// must observe every acknowledged frame (recovery, GC, empty()), before
  /// a synchronous write lands behind in-flight ones (the snapshot restart
  /// marker), and before gc_commit_log_locked() swaps commit_fd_ to a new
  /// inode.  The base backend writes synchronously, so there is never
  /// in-flight I/O to wait out; UringFileBackend overrides this to drain
  /// its ring.
  /// Must NOT be called from a completion/reaper context (commit_mutex_
  /// ordering: reaper threads never take it).
  virtual void quiesce_commit_locked() const {}

  /// Commit-log state, all guarded by commit_mutex_.  Lock order: a
  /// snapshot mutex (when held at all) is taken BEFORE commit_mutex_; the
  /// flusher takes only commit_mutex_.
  /// Protected rather than private so UringFileBackend's submission path
  /// can append to the same log under the same lock.
  mutable std::mutex commit_mutex_;
  int commit_fd_ = -1;  // O_APPEND; one fsync per group frame
  std::uint64_t commit_log_bytes_ = 0;
  Buffer commit_frame_;  // reused staging buffer for group frames

  [[nodiscard]] std::filesystem::path commit_log_path() const;

 private:
  [[nodiscard]] std::filesystem::path snapshot_path(std::size_t shard) const;
  [[nodiscard]] std::filesystem::path meta_path(std::string_view key) const;
  /// write-temp + fsync + rename + directory fsync (the full atomic
  /// replacement recipe -- a rename alone is not durable until the
  /// directory entry itself reaches the disk).
  void replace_file_durably(const std::filesystem::path& path,
                            std::span<const std::uint8_t> bytes,
                            const char* what);
  /// Writes and fsyncs one encoded frame at the end of commit.log.  Caller
  /// holds commit_mutex_ with no ring I/O in flight.
  void append_frame_locked(const Buffer& frame);
  /// Rewrites commit.log keeping only each shard's entries after its
  /// latest restart marker.  Caller holds commit_mutex_.
  void gc_commit_log_locked();

  std::filesystem::path directory_;
  int dir_fd_ = -1;  // fsync'd after every rename into the directory
  /// Per-shard: serializes snapshot replacement and reads.
  mutable std::vector<std::mutex> snapshot_mutexes_;
  mutable std::mutex meta_mutex_;
  std::uint64_t commit_gc_low_ = 0;  // log size after the last GC rewrite
};

}  // namespace amoeba::storage
