#include "amoeba/storage/backend.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <fstream>
#include <iterator>
#include <mutex>

#include "amoeba/common/error.hpp"
#include "amoeba/storage/record.hpp"

namespace amoeba::storage {
namespace {

void check_shards(std::size_t shards) {
  if (shards == 0) {
    throw UsageError("storage::Backend: need at least one shard");
  }
}

/// Runs a synchronous append and reports its outcome through `complete`,
/// inline (or rethrows a failure when the caller passed no completion).
template <typename Fn>
void complete_inline(const AppendCompletion& complete, Fn&& append) {
  std::exception_ptr error;
  try {
    append();
  } catch (...) {
    error = std::current_exception();
  }
  if (complete) {
    complete(error);
  } else if (error) {
    std::rethrow_exception(error);
  }
}

}  // namespace

IoCounters& this_thread_io_counters() {
  // One instance per thread: the mutator asserts ITS counters stayed flat
  // while the uring reaper was doing the writing, so the counters must not
  // be shared across threads.
  thread_local IoCounters counters;
  return counters;
}

// ----------------------------------------------------------------- Backend

void append_group_durably(Backend& backend,
                          std::vector<ShardAppend>&& appends) {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  std::exception_ptr error;
  backend.submit_append_group(std::move(appends), [&](std::exception_ptr e) {
    const std::lock_guard lock(mutex);
    error = std::move(e);
    done = true;
    cv.notify_one();
  });
  std::unique_lock lock(mutex);
  cv.wait(lock, [&] { return done; });
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
}

void Backend::append_journal(std::size_t shard,
                             std::span<const std::uint8_t> bytes) {
  std::vector<ShardAppend> group;
  group.push_back({shard, Buffer(bytes.begin(), bytes.end())});
  append_group_durably(*this, std::move(group));
}

void Backend::append_journal_batch(std::vector<ShardAppend>&& appends) {
  append_group_durably(*this, std::move(appends));
}

// ----------------------------------------------------------- MemoryBackend

MemoryBackend::MemoryBackend(std::size_t shards) {
  check_shards(shards);
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

void MemoryBackend::submit_append_group(std::vector<ShardAppend>&& appends,
                                        AppendCompletion complete) {
  complete_inline(complete, [&] {
    if (appends.empty()) {
      return;
    }
    // All involved shard locks held together (ascending order, matching
    // capture()), so a crash image contains the whole group or none of it.
    std::vector<std::size_t> order;
    order.reserve(appends.size());
    for (const ShardAppend& a : appends) {
      order.push_back(a.shard);
    }
    std::sort(order.begin(), order.end());
    order.erase(std::unique(order.begin(), order.end()), order.end());
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(order.size());
    for (const std::size_t s : order) {
      locks.emplace_back(shards_.at(s)->mutex);
    }
    for (const ShardAppend& a : appends) {
      Buffer& journal = shards_[a.shard]->journal;
      journal.insert(journal.end(), a.bytes.begin(), a.bytes.end());
    }
    locks.clear();
    appends_.fetch_add(appends.size(), std::memory_order_relaxed);
    hook_after_append();
  });
}

Buffer MemoryBackend::read_journal(std::size_t shard) const {
  const Shard& s = *shards_.at(shard);
  const std::lock_guard lock(s.mutex);
  return s.journal;
}

void MemoryBackend::install_snapshot(std::size_t shard,
                                     std::span<const std::uint8_t> bytes) {
  Shard& s = *shards_.at(shard);
  const std::lock_guard lock(s.mutex);
  s.snapshot.assign(bytes.begin(), bytes.end());
  s.journal.clear();  // compaction: the snapshot subsumes the log
}

Buffer MemoryBackend::read_snapshot(std::size_t shard) const {
  const Shard& s = *shards_.at(shard);
  const std::lock_guard lock(s.mutex);
  return s.snapshot;
}

void MemoryBackend::put_meta(std::string_view key,
                             std::span<const std::uint8_t> value) {
  const std::lock_guard lock(meta_mutex_);
  meta_[std::string(key)] = Buffer(value.begin(), value.end());
}

Buffer MemoryBackend::get_meta(std::string_view key) const {
  const std::lock_guard lock(meta_mutex_);
  const auto it = meta_.find(key);
  return it == meta_.end() ? Buffer{} : it->second;
}

std::vector<std::string> MemoryBackend::meta_keys() const {
  const std::lock_guard lock(meta_mutex_);
  std::vector<std::string> keys;
  keys.reserve(meta_.size());
  for (const auto& [key, value] : meta_) {
    keys.push_back(key);
  }
  return keys;
}

bool MemoryBackend::empty() const {
  for (const auto& shard : shards_) {
    const std::lock_guard lock(shard->mutex);
    if (!shard->journal.empty() || !shard->snapshot.empty()) {
      return false;
    }
  }
  const std::lock_guard lock(meta_mutex_);
  return meta_.empty();
}

void MemoryBackend::set_append_hook(std::function<void(std::uint64_t)> hook) {
  const std::lock_guard lock(hook_mutex_);
  hook_ = std::move(hook);
  hook_set_.store(hook_ != nullptr, std::memory_order_release);
}

void MemoryBackend::hook_after_append() {
  if (!hook_set_.load(std::memory_order_acquire)) {
    return;  // fast path: no barrier armed, no lock taken
  }
  std::function<void(std::uint64_t)> hook;
  {
    const std::lock_guard lock(hook_mutex_);
    hook = hook_;
  }
  if (hook) {
    // Outside every shard lock: the hook may capture() the volume.
    hook(appends_.load(std::memory_order_relaxed));
  }
}

std::shared_ptr<MemoryBackend> MemoryBackend::capture() const {
  auto image = std::make_shared<MemoryBackend>(shards_.size());
  // Every shard lock ascending, then meta: multi-shard append groups are
  // either fully on the image or fully absent.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) {
    locks.emplace_back(shard->mutex);
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    image->shards_[s]->journal = shards_[s]->journal;
    image->shards_[s]->snapshot = shards_[s]->snapshot;
  }
  {
    const std::lock_guard meta_lock(meta_mutex_);
    image->meta_ = meta_;
  }
  image->appends_.store(appends_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  return image;
}

// ------------------------------------------------------------- FileBackend

namespace {

/// Loops write(2) until every byte is on the fd (short writes, EINTR).
void write_all(int fd, std::span<const std::uint8_t> bytes,
               const std::filesystem::path& dir, const char* what) {
  ++this_thread_io_counters().writes;
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw UsageError(std::string("FileBackend: ") + what + " write failed (" +
                       std::strerror(errno) + ") in " + dir.string());
    }
    done += static_cast<std::size_t>(n);
  }
}

void fsync_or_throw(int fd, const std::filesystem::path& dir,
                    const char* what) {
  ++this_thread_io_counters().fsyncs;
  if (::fsync(fd) != 0) {
    throw UsageError(std::string("FileBackend: ") + what + " fsync failed (" +
                     std::strerror(errno) + ") in " + dir.string());
  }
}

[[nodiscard]] Buffer read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return {};
  }
  const std::streamsize size = std::max<std::streamsize>(in.tellg(), 0);
  Buffer out(static_cast<std::size_t>(size));
  in.seekg(0);
  if (size > 0) {
    in.read(reinterpret_cast<char*>(out.data()), size);
  }
  return out;
}

// Commit-log group frame: `length u32 | checksum u32 | body`, where body is
// `count u32 | count x (shard u32, len u32, len bytes)` and each entry's
// bytes are that shard's already-framed journal records.  The checksum
// covers the WHOLE body, so a group is on the recovered volume entirely or
// not at all -- the cross-shard atomicity a pile of per-shard files cannot
// provide.  An entry with no bytes is a snapshot's restart marker: the
// shard's journal begins again after it.
constexpr std::uint64_t kCommitLogGcBytes = std::uint64_t{8} << 20;

inline void put_u32(Buffer& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

inline void patch_u32(Buffer& out, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// Walks commit-log group frames, invoking `entry(shard, record_bytes)` for
/// every entry of every intact frame.  Stops silently at the first torn or
/// corrupt frame: a crash mid-append loses the unacknowledged tail group
/// and nothing before it.
template <typename Fn>
void for_each_commit_entry(std::span<const std::uint8_t> log, Fn&& entry) {
  std::size_t pos = 0;
  while (pos < log.size()) {
    Reader frame(log.subspan(pos));
    const std::uint32_t length = frame.u32();
    const std::uint32_t checksum = frame.u32();
    if (!frame.ok() || frame.remaining() < length) {
      return;  // torn tail: the final group never got acknowledged
    }
    const auto body = log.subspan(pos + 8, length);
    if (frame_checksum(body) != checksum) {
      return;
    }
    Reader r(body);
    const std::uint32_t count = r.u32();
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint32_t shard = r.u32();
      const Buffer bytes = r.bytes();
      if (!r.ok()) {
        return;  // checksummed body should never underrun; stop defensively
      }
      entry(static_cast<std::size_t>(shard), bytes);
    }
    pos += 8 + length;
  }
}

/// Applies one commit-log entry to a shard's reassembled journal.
void apply_commit_entry(Buffer& journal, const Buffer& bytes) {
  if (bytes.empty()) {
    journal.clear();  // restart marker: the snapshot subsumes the prefix
  } else {
    journal.insert(journal.end(), bytes.begin(), bytes.end());
  }
}

}  // namespace

FileBackend::FileBackend(std::filesystem::path directory, std::size_t shards)
    : directory_(std::move(directory)) {
  check_shards(shards);
  // Per-shard journal files are the pre-commit-log format: their records
  // would be silently ignored, so a volume still holding any is refused.
  // (Empty ones are what that format left on a primary whose every write
  // went through the commit log; they carry nothing.)
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(directory_, ec)) {
    const auto name = entry.path().filename().string();
    std::error_code size_ec;
    if (name.starts_with("shard-") && name.ends_with(".journal") &&
        entry.file_size(size_ec) > 0 && !size_ec) {
      throw UsageError(
          "FileBackend: " + entry.path().string() +
          " is a per-shard journal, an on-disk format this version no "
          "longer reads (journal records now live only in commit.log); "
          "refusing to open the volume");
    }
  }
  std::filesystem::create_directories(directory_);
  dir_fd_ = ::open(directory_.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd_ < 0) {
    throw UsageError("FileBackend: cannot open directory " +
                     directory_.string());
  }
  snapshot_mutexes_ = std::vector<std::mutex>(shards);
  commit_fd_ = ::open(commit_log_path().c_str(),
                      O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (commit_fd_ < 0) {
    throw UsageError("FileBackend: cannot open commit log in " +
                     directory_.string());
  }
  const off_t size = ::lseek(commit_fd_, 0, SEEK_END);
  commit_log_bytes_ = size > 0 ? static_cast<std::uint64_t>(size) : 0;
  // A newly created commit log lives in the directory inode; without this
  // fsync a crash could unlink it even after its contents were
  // acknowledged durable.
  fsync_or_throw(dir_fd_, directory_, "volume open");
}

FileBackend::~FileBackend() {
  if (commit_fd_ >= 0) {
    ::close(commit_fd_);
  }
  if (dir_fd_ >= 0) {
    ::close(dir_fd_);
  }
}

std::filesystem::path FileBackend::snapshot_path(std::size_t shard) const {
  return directory_ / ("shard-" + std::to_string(shard) + ".snap");
}

std::filesystem::path FileBackend::commit_log_path() const {
  return directory_ / "commit.log";
}

namespace {

/// Filename-safe, LOSSLESS key encoding: alphanumerics and '-' pass
/// through, every other byte becomes %XX.  Reversible so meta_keys() can
/// reconstruct the original keys from a directory listing (the replication
/// resync path replays them on the backup under their true names).
[[nodiscard]] std::string escape_meta_key(std::string_view key) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string safe;
  safe.reserve(key.size());
  for (const char c : key) {
    const auto byte = static_cast<unsigned char>(c);
    if (std::isalnum(byte) != 0 || c == '-') {
      safe.push_back(c);
    } else {
      safe.push_back('%');
      safe.push_back(kHex[byte >> 4]);
      safe.push_back(kHex[byte & 0xF]);
    }
  }
  return safe;
}

[[nodiscard]] std::string unescape_meta_key(std::string_view safe) {
  std::string key;
  key.reserve(safe.size());
  for (std::size_t i = 0; i < safe.size(); ++i) {
    if (safe[i] == '%' && i + 2 < safe.size()) {
      const auto nibble = [](char c) -> int {
        if (c >= '0' && c <= '9') {
          return c - '0';
        }
        if (c >= 'A' && c <= 'F') {
          return c - 'A' + 10;
        }
        return -1;
      };
      const int hi = nibble(safe[i + 1]);
      const int lo = nibble(safe[i + 2]);
      if (hi >= 0 && lo >= 0) {
        key.push_back(static_cast<char>((hi << 4) | lo));
        i += 2;
        continue;
      }
    }
    key.push_back(safe[i]);
  }
  return key;
}

}  // namespace

std::filesystem::path FileBackend::meta_path(std::string_view key) const {
  return directory_ / ("meta-" + escape_meta_key(key) + ".bin");
}

Buffer FileBackend::read_journal(std::size_t shard) const {
  const std::lock_guard lock(commit_mutex_);
  // An async subclass may still have acknowledged-to-nobody frames in
  // flight; recovery must read a log with every completed frame on it.
  quiesce_commit_locked();
  const Buffer log = read_file(commit_log_path());
  Buffer out;
  for_each_commit_entry(log, [&](std::size_t sh, const Buffer& bytes) {
    if (sh == shard) {
      apply_commit_entry(out, bytes);
    }
  });
  return out;
}

void FileBackend::encode_group_frame(const std::vector<ShardAppend>& appends,
                                     Buffer& frame) {
  frame.clear();
  std::size_t total = 12;
  for (const ShardAppend& a : appends) {
    total += 8 + a.bytes.size();
  }
  frame.reserve(total);
  put_u32(frame, 0);  // length placeholder
  put_u32(frame, 0);  // checksum placeholder
  const std::size_t body_at = frame.size();
  put_u32(frame, static_cast<std::uint32_t>(appends.size()));
  for (const ShardAppend& a : appends) {
    put_u32(frame, static_cast<std::uint32_t>(a.shard));
    put_u32(frame, static_cast<std::uint32_t>(a.bytes.size()));
    frame.insert(frame.end(), a.bytes.begin(), a.bytes.end());
  }
  const auto body = std::span<const std::uint8_t>(frame.data() + body_at,
                                                  frame.size() - body_at);
  patch_u32(frame, 0, static_cast<std::uint32_t>(body.size()));
  patch_u32(frame, 4, frame_checksum(body));
}

void FileBackend::append_frame_locked(const Buffer& frame) {
  write_all(commit_fd_, frame, directory_, "commit log");
  fsync_or_throw(commit_fd_, directory_, "commit log");
  commit_log_bytes_ += frame.size();
}

void FileBackend::submit_append_group(std::vector<ShardAppend>&& appends,
                                      AppendCompletion complete) {
  // Empty entries are restart markers on disk; an empty append is nothing.
  std::erase_if(appends,
                [](const ShardAppend& a) { return a.bytes.empty(); });
  complete_inline(complete, [&] {
    if (!appends.empty()) {
      const std::lock_guard lock(commit_mutex_);
      encode_group_frame(appends, commit_frame_);
      append_frame_locked(commit_frame_);
    }
  });
}

void FileBackend::replace_file_durably(const std::filesystem::path& path,
                                       std::span<const std::uint8_t> bytes,
                                       const char* what) {
  const auto tmp = path.string() + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    throw UsageError(std::string("FileBackend: cannot open temp ") + what +
                     " in " + directory_.string());
  }
  try {
    // Content must be on the platter BEFORE the rename makes it reachable:
    // an unwritten image must never replace the durable one (the old copy
    // is the shard's only recoverable state).
    write_all(fd, bytes, directory_, what);
    fsync_or_throw(fd, directory_, what);
  } catch (...) {
    ::close(fd);
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    throw;
  }
  ::close(fd);
  std::filesystem::rename(tmp, path);
  // The rename itself lives in the directory inode; without this fsync a
  // crash can roll the directory back to the old entry even though the
  // new file's content is safe.
  fsync_or_throw(dir_fd_, directory_, what);
}

void FileBackend::install_snapshot(std::size_t shard,
                                   std::span<const std::uint8_t> bytes) {
  const std::lock_guard lock(snapshot_mutexes_.at(shard));
  replace_file_durably(snapshot_path(shard), bytes, "snapshot");
  // Restart the shard's journal with a marker frame.  Records are
  // replay-idempotent and LSN-gated, so a crash between the rename and
  // the marker only replays records the snapshot already holds, and a
  // record framed before the snapshot but written after the marker (it
  // sat in the committer's queue) replays as a no-op.  The marker lands
  // behind every in-flight ring write, hence the quiesce.
  const std::lock_guard commit_lock(commit_mutex_);
  quiesce_commit_locked();
  encode_group_frame({ShardAppend{shard, {}}}, commit_frame_);
  append_frame_locked(commit_frame_);
  // Threshold plus a low-water doubling guard: when a rewrite barely
  // shrinks the log (other shards' records still live), the next one
  // waits until the log has doubled instead of thrashing rewrites at
  // every snapshot.
  if (commit_log_bytes_ >= kCommitLogGcBytes &&
      commit_log_bytes_ >= 2 * commit_gc_low_) {
    gc_commit_log_locked();
  }
}

void FileBackend::gc_commit_log_locked() {
  // The rewrite swaps commit_fd_ to a fresh inode; in-flight ring writes
  // against the old one would be silently dropped.  Drain them first.
  quiesce_commit_locked();
  // Each shard keeps exactly what read_journal() would return: its
  // entries after its latest restart marker, as opaque byte runs.
  const Buffer log = read_file(commit_log_path());
  std::vector<Buffer> per_shard(shard_count());
  for_each_commit_entry(log, [&](std::size_t sh, const Buffer& bytes) {
    if (sh < per_shard.size()) {
      apply_commit_entry(per_shard[sh], bytes);
    }
  });
  // Survivors collapse into ONE frame: the rewrite is an atomic whole-file
  // replacement, so per-group framing buys nothing here.
  std::vector<ShardAppend> survivors;
  for (std::size_t sh = 0; sh < per_shard.size(); ++sh) {
    if (!per_shard[sh].empty()) {
      survivors.push_back({sh, std::move(per_shard[sh])});
    }
  }
  Buffer rebuilt;  // nothing left: an empty log beats an empty frame
  if (!survivors.empty()) {
    encode_group_frame(survivors, rebuilt);
  }
  replace_file_durably(commit_log_path(), rebuilt, "commit log");
  // The O_APPEND fd still points at the replaced inode; reopen the new one.
  const int fresh = ::open(commit_log_path().c_str(),
                           O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fresh < 0) {
    throw UsageError("FileBackend: cannot reopen commit log in " +
                     directory_.string());
  }
  ::close(commit_fd_);
  commit_fd_ = fresh;
  commit_log_bytes_ = rebuilt.size();
  commit_gc_low_ = rebuilt.size();
}

Buffer FileBackend::read_snapshot(std::size_t shard) const {
  const std::lock_guard lock(snapshot_mutexes_.at(shard));
  return read_file(snapshot_path(shard));
}

void FileBackend::put_meta(std::string_view key,
                           std::span<const std::uint8_t> value) {
  const std::lock_guard lock(meta_mutex_);
  // An unwritten floor image must not replace the durable one (the
  // write-ahead ordering of §8.4 depends on it); replace_file_durably
  // fsyncs the content before the rename and the directory after it.
  replace_file_durably(meta_path(key), value, "metadata");
}

Buffer FileBackend::get_meta(std::string_view key) const {
  const std::lock_guard lock(meta_mutex_);
  return read_file(meta_path(key));
}

std::vector<std::string> FileBackend::meta_keys() const {
  const std::lock_guard lock(meta_mutex_);
  std::vector<std::string> keys;
  for (const auto& entry : std::filesystem::directory_iterator(directory_)) {
    const auto name = entry.path().filename().string();
    if (name.starts_with("meta-") && name.ends_with(".bin")) {
      keys.push_back(unescape_meta_key(
          std::string_view(name).substr(5, name.size() - 9)));
    }
  }
  return keys;
}

bool FileBackend::empty() const {
  for (std::size_t s = 0; s < shard_count(); ++s) {
    std::error_code ec;
    if (std::filesystem::exists(snapshot_path(s), ec)) {
      return false;
    }
  }
  {
    const std::lock_guard lock(commit_mutex_);
    quiesce_commit_locked();
    if (commit_log_bytes_ > 0) {
      return false;
    }
  }
  const std::lock_guard lock(meta_mutex_);
  for (const auto& entry :
       std::filesystem::directory_iterator(directory_)) {
    const auto name = entry.path().filename().string();
    if (name.starts_with("meta-")) {
      return false;
    }
  }
  return true;
}

}  // namespace amoeba::storage
