// Server-side object table: per-object payload plus the secret random
// number, bound to one protection scheme and one server put-port.
//
// This is the piece every Amoeba server shares: "the server would then
// pick a random number, store this number in its object table, and insert
// it into the newly-formed object capability" (§2.3).  It also implements
// the two owner operations the paper highlights:
//   * sub-capability fabrication ("send the capability back to the server
//     along with a bit mask and a request to fabricate a new capability
//     with fewer rights"), and
//   * instant revocation ("ask the server to change the random number
//     stored in its internal table and return a new capability"),
// plus destroy-with-slot-reuse, where a reused object number draws a fresh
// secret so stale capabilities for the dead object cannot resurrect.
//
// Concurrency model.  The table is sharded: object numbers are assigned so
// that `object % shard_count` names the owning shard, and each shard has
// its own mutex, slot chunks, free list and RNG.  All operations are
// thread-safe; independent objects in different shards proceed in
// parallel, which is what lets a multi-worker service drop its
// service-wide lock (the paper's premise that validation is a cheap table
// lookup only holds if the lookup does not serialize the whole server).
// open() returns an accessor that holds the shard lock for the accessor's
// lifetime, so the payload pointer stays valid and exclusive until the
// caller drops it.  Two-object operations (a bank transfer) go through
// open2()/open_with_peek(), which acquire the two shard locks in index
// order -- the deadlock-freedom argument is the classic total order on
// lock acquisition.
//
// Validation cache.  Each shard carries a small direct-mapped cache of
// successfully validated capabilities (the §2.4 soft-protection cache,
// generalized to every scheme): a repeat open() with a capability that
// validated before skips the Feistel/one-way recomputation.  Entries are
// keyed by (object, rights, check) and stamped with the slot's secret
// epoch; rotating the secret (create into a reused slot, revoke, destroy)
// bumps the epoch, so stale entries die without any scan -- revocation
// stays instant and exact.
//
// Lock-free repeat validation.  check() -- and the validation prefix of
// open() -- first runs validate_fast(): a pure-load probe that takes NO
// lock at all.  The probe reads the slot's lock-free header (live flag +
// secret epoch) and the shard's cache entry, each under a per-record
// common::SeqCount seqlock generation; writers (create, revoke, destroy,
// cache refill -- all already serialized by the shard mutex) wrap their
// stores in a SeqCount::WriteGuard, so a reader that overlaps any
// transition fails its generation recheck and falls back to the locked
// slow path.  A fast hit requires the cache entry's epoch to equal the
// epoch read from the slot IN THE SAME stable generation, which is
// exactly the revocation guarantee: the epoch bump is inside the slot's
// write guard, so no capability ever fast-validates against a rotated
// secret.  Anything short of a bit-exact hit -- cache miss, dead slot,
// unpublished index, busy seqlock -- is answered by the mutex path with
// identical semantics, never by the probe itself.  Slot storage is
// chunked and address-stable (chunks are published once via atomic
// pointer and never move or shrink) so probes hold no lock while shards
// grow; shard mutexes are common::CountedMutex, so the lock-counter test
// can PROVE the zero-acquisition claim rather than argue it.
//
// Durability (storage/).  A store constructed with a Durability handle
// write-ahead-journals every state change -- create, payload mutation,
// secret rotation, destroy -- into its backend, one append-only journal
// per shard, ENCODED under the owning shard's lock so journaling rides
// the per-shard concurrency instead of reintroducing a global lock.
// Records carry the object number, the secret check-field number, and the
// server-supplied serialized payload, so every capability issued before a
// crash still validates after recovery.  Payload mutations are explicit:
// a handler that writes through an accessor calls Opened::mark_dirty()
// (or mark_dirty_delta() with a byte-range patch, journaled as a compact
// delta record instead of the full image), and the record is framed when
// the accessor is released, still under the shard lock.  Pair accessors
// (Opened2) flush their two dirty payloads as ONE atomic journal group,
// so a crash image can never hold half a bank transfer.
//
// Group commit.  A durable store journals through its volume's
// Durability::committer (required with a backend): the framed record is
// ENQUEUED (under the shard lock) to the group-commit flusher with an
// assigned commit ticket; the mutating operation then releases the shard
// lock and blocks until the flusher reports the ticket durable, so
// "durable on return" holds while one backend write + one fsync per flush
// cycle covers every record that piled up meanwhile.  Handlers that can
// pipeline use Opened::release_async() to carry the ticket as a future and
// wait through ShardedObjectStore::wait_durable() later.  The release wait
// runs in accessor destructors, so a volume that failed meanwhile (disk
// full, a fenced replication primary) cannot throw there: the release
// notes it with storage::note_release_failure(), and the rpc request loop
// turns the note into an `internal` reply.
//
// Shards self-compact: after `compact_after` records a shard serializes
// its live slots into a snapshot and restarts its journal.  The recovery
// constructor (a Durability whose backend is non-empty) replays
// snapshot-then-journal to rebuild every shard -- secrets, payloads, free
// lists -- tolerating a torn final record.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "amoeba/common/epoch.hpp"
#include "amoeba/common/error.hpp"
#include "amoeba/common/rng.hpp"
#include "amoeba/common/serial.hpp"
#include "amoeba/core/capability.hpp"
#include "amoeba/core/schemes.hpp"
#include "amoeba/storage/backend.hpp"
#include "amoeba/storage/group_commit.hpp"
#include "amoeba/storage/record.hpp"

namespace amoeba::core {

/// Attaches a store to a storage volume.  `encode`/`decode` are the
/// payload codecs (a server declares how its object type serializes);
/// both are required when `backend` is set.  A non-empty backend triggers
/// recovery; an empty one starts a fresh durable store.
template <typename T>
struct Durability {
  std::shared_ptr<storage::Backend> backend;  // null = in-memory only
  /// Group-commit queue for `backend` (must wrap the same volume; required
  /// whenever `backend` is set).  Journal appends are enqueued and batched
  /// by the volume's flusher and mutators block -- after releasing the
  /// shard lock -- on their commit ticket.
  std::shared_ptr<storage::GroupCommitter> committer;
  std::function<void(Writer&, const T&)> encode;
  std::function<bool(Reader&, T&)> decode;
  /// Applies one RecordType::delta patch (journaled by a handler through
  /// Opened::mark_dirty_delta) to a live payload during recovery replay.
  /// Must be idempotent (replayed prefixes apply patches twice).  Required
  /// iff any handler journals deltas.
  std::function<bool(Reader&, T&)> apply_delta;
  /// Called during RECOVERY REPLAY before a decoded payload is overwritten
  /// or discarded (create-over-live, mutate, destroy) -- servers whose
  /// payloads own external resources (page-tree references) release them
  /// here.  Never called on the live operation paths, where handlers
  /// already manage those resources explicitly.
  std::function<void(T&)> dispose;
  /// Journal records a shard absorbs before it folds them into a fresh
  /// snapshot (log compaction); 0 disables auto-compaction.
  std::size_t compact_after = 4096;
};

template <typename T>
class ShardedObjectStore {
 public:
  /// Power of two; 16 shards keeps per-shard contention negligible for a
  /// service with a few dozen workers while costing ~1 KiB per shard.
  static constexpr std::size_t kDefaultShards = 16;

  ShardedObjectStore(std::shared_ptr<const ProtectionScheme> scheme,
                     Port server_port, std::uint64_t seed,
                     std::size_t shards = kDefaultShards,
                     Durability<T> durability = {})
      : scheme_(std::move(scheme)),
        server_port_(server_port),
        durability_(std::move(durability)) {
    if (scheme_ == nullptr) {
      throw UsageError("ObjectStore requires a protection scheme");
    }
    if (shards == 0 || (shards & (shards - 1)) != 0) {
      throw UsageError("ObjectStore shard count must be a power of two");
    }
    if (durability_.backend != nullptr) {
      if (!durability_.encode || !durability_.decode) {
        throw UsageError("ObjectStore: durable stores need payload codecs");
      }
      if (durability_.backend->shard_count() != shards) {
        throw UsageError(
            "ObjectStore: backend shard count must match the store's "
            "(object-number layout is per-shard)");
      }
    }
    if (durability_.backend != nullptr && durability_.committer == nullptr) {
      throw UsageError(
          "ObjectStore: durable stores need a group committer (it is the "
          "only journal write path)");
    }
    if (durability_.committer != nullptr &&
        durability_.committer->backend() != durability_.backend) {
      throw UsageError(
          "ObjectStore: the committer must wrap the store's own backend "
          "(tickets are per-volume)");
    }
    shards_.reserve(shards);
    // Highest slot index a shard can ever hold in the 24-bit object space
    // -- fixes the size of its chunk-pointer directory up front, so the
    // directory itself never reallocates under lock-free readers.
    const std::size_t max_slots = ObjectNumber::kMask / shards + 1;
    for (std::size_t s = 0; s < shards; ++s) {
      // Distinct per-shard RNG streams derived from the store seed.
      shards_.push_back(std::make_unique<Shard>(
          seed ^ (0x9E3779B97F4A7C15ULL * (s + 1)), max_slots));
    }
    if (durability_.backend != nullptr && !durability_.backend->empty()) {
      recover();
    }
  }

  /// Exclusive accessor to one live object.  Holds the owning shard's lock
  /// for its lifetime: `value` stays valid and data-race-free until the
  /// Opened is dropped.  Do not call single-capability store operations on
  /// the same store while one is held (use destroy(Opened&&) / open2 for
  /// the multi-step patterns); the shard mutex is not recursive.
  ///
  /// Durability hook: a handler that mutates `*value` calls mark_dirty();
  /// dropping the accessor then journals the re-serialized payload while
  /// the shard lock is still held.  Accessors of in-memory stores ignore
  /// the flag.
  class Opened {
   public:
    T* value = nullptr;
    Rights rights;
    ObjectNumber object;

    Opened() = default;
    Opened(Opened&& other) noexcept { *this = std::move(other); }
    Opened& operator=(Opened&& other) noexcept {
      if (this != &other) {
        finish();
        value = std::exchange(other.value, nullptr);
        rights = other.rights;
        object = other.object;
        store_ = std::exchange(other.store_, nullptr);
        dirty_ = std::exchange(other.dirty_, false);
        deltas_ = std::move(other.deltas_);
        other.deltas_.clear();
        pending_ = std::exchange(other.pending_, 0);
        lock_ = std::move(other.lock_);
      }
      return *this;
    }
    ~Opened() { finish(); }

    /// Declares that `*value` was (or will be) modified: the payload is
    /// journaled when this accessor is released.
    void mark_dirty() { dirty_ = true; }

    /// Declares that `*value` was patched in place: `patch` -- a
    /// server-defined byte-range patch the store's apply_delta codec can
    /// replay -- is journaled as a compact delta record when this accessor
    /// is released, instead of the payload's full image.  A full
    /// mark_dirty() on the same accessor supersedes every pending patch
    /// (the re-encoded payload already contains their effects).  Accessors
    /// of in-memory stores ignore it.  Throws UsageError on a durable
    /// store without an apply_delta codec -- validated HERE, at mark time,
    /// because the journaling itself runs inside release paths (accessor
    /// destructors) that must not throw.
    void mark_dirty_delta(Buffer patch) {
      if (store_ != nullptr && store_->durable() &&
          !store_->durability_.apply_delta) {
        throw UsageError(
            "ObjectStore: mark_dirty_delta needs an apply_delta codec "
            "(Durability::apply_delta is unset)");
      }
      deltas_.push_back(std::move(patch));
    }

    /// Journals a marked-dirty payload NOW, while the shard lock is still
    /// held, instead of at release (the durability wait still happens at
    /// release).  Required before destroy()ing the partner of a same-shard
    /// pair (the destroy drops the shared lock); harmless otherwise.
    void flush() { flush_dirty(); }

    /// Journals any dirty payload and releases the object WITHOUT blocking
    /// on group-commit durability: returns the commit ticket to hand to
    /// ShardedObjectStore::wait_durable() later (0 -- nothing to wait for
    /// -- for in-memory stores and clean releases).  The pipelined
    /// form: keep a bounded window of outstanding tickets and overlap many
    /// mutations against one flush cycle.
    [[nodiscard]] std::uint64_t release_async() {
      flush_dirty();
      const std::uint64_t ticket = pending_;
      pending_ = 0;
      value = nullptr;
      store_ = nullptr;
      if (lock_.owns_lock()) {
        lock_.unlock();
      }
      return ticket;
    }

   private:
    friend class ShardedObjectStore;
    friend struct Opened2;
    friend class OpenedWith;
    Opened(ShardedObjectStore* store, T* v, Rights r, ObjectNumber o,
           std::unique_lock<common::CountedMutex> lock)
        : value(v), rights(r), object(o), store_(store),
          lock_(std::move(lock)) {}

    /// Journals the payload if dirty (full image, or the pending delta
    /// patches when only mark_dirty_delta was called).  Runs while the
    /// owning shard's mutex is held -- by this accessor's own lock, or
    /// (for the lock-sharing member of a same-shard pair) by its
    /// partner's.  Group-committed stores only ENQUEUE here; the blocking
    /// wait belongs to finish(), after the lock drops.
    void flush_dirty() {
      if (store_ != nullptr && value != nullptr) {
        if (dirty_) {
          pending_ = store_->journal_mutate_locked(object, *value);
        } else {
          for (const Buffer& patch : deltas_) {
            pending_ = store_->journal_delta_locked(object, patch);
          }
        }
      }
      dirty_ = false;
      deltas_.clear();
    }

    /// Full release: journal under the lock, drop the lock, THEN block on
    /// the commit ticket -- waiting while holding the shard mutex would
    /// serialize every other object of the shard behind one fsync.
    void finish() {
      flush_dirty();
      const std::uint64_t ticket = std::exchange(pending_, 0);
      ShardedObjectStore* store = std::exchange(store_, nullptr);
      value = nullptr;
      if (lock_.owns_lock()) {
        lock_.unlock();
      }
      if (ticket != 0 && store != nullptr) {
        store->settle_release(ticket);
      }
    }

    ShardedObjectStore* store_ = nullptr;
    bool dirty_ = false;
    std::vector<Buffer> deltas_;    // pending mark_dirty_delta patches
    std::uint64_t pending_ = 0;     // commit ticket of the journaled flush
    std::unique_lock<common::CountedMutex> lock_;
  };

  /// Two objects opened atomically (both shard locks held, acquired in
  /// index order).  When both capabilities name the same shard, `b` shares
  /// `a`'s lock.  Dirty payloads of the pair are journaled as ONE atomic
  /// group when the pair is released -- a crash/restart cannot observe a
  /// debit without its credit.  Group-committed stores block ONCE on the
  /// group's ticket, after both shard locks have dropped.
  struct Opened2 {
    Opened a;
    Opened b;

    Opened2() = default;
    Opened2(Opened2&& other) noexcept = default;
    Opened2& operator=(Opened2&& other) noexcept {
      if (this != &other) {
        finish_pair();
        a = std::move(other.a);
        b = std::move(other.b);
      }
      return *this;
    }
    ~Opened2() { finish_pair(); }

   private:
    /// Journals both dirty payloads in one backend append group (locks
    /// still held), disarms the members' own flushes, releases both
    /// locks, THEN waits once on the group's commit ticket.
    void finish_pair() {
      ShardedObjectStore* store = a.store_ != nullptr ? a.store_ : b.store_;
      if (store == nullptr) {
        return;
      }
      std::uint64_t ticket = store->journal_pair_locked(a, b);
      // Tickets are one monotone volume-wide sequence: waiting for the
      // largest covers every earlier flush() of either member.
      ticket = std::max({ticket, std::exchange(a.pending_, std::uint64_t{0}),
                         std::exchange(b.pending_, std::uint64_t{0})});
      a = Opened();
      b = Opened();
      if (ticket != 0) {
        store->settle_release(ticket);
      }
    }
  };

  /// One validated object plus an unvalidated peek at a second (may be
  /// null when the second object is dead); both shard locks held.  A
  /// handler mutating the PEEKED payload calls mark_peeked_dirty(); the
  /// peeked object's payload is then journaled on release, together with
  /// the opened one's if that is dirty too.
  class OpenedWith {
   public:
    Opened opened;
    T* peeked = nullptr;

    OpenedWith() = default;
    OpenedWith(OpenedWith&& other) noexcept { *this = std::move(other); }
    OpenedWith& operator=(OpenedWith&& other) noexcept {
      if (this != &other) {
        finish_with();
        opened = std::move(other.opened);
        peeked = std::exchange(other.peeked, nullptr);
        other_ = other.other_;
        store_ = std::exchange(other.store_, nullptr);
        peek_dirty_ = std::exchange(other.peek_dirty_, false);
        other_lock_ = std::move(other.other_lock_);
      }
      return *this;
    }
    ~OpenedWith() { finish_with(); }

    void mark_peeked_dirty() { peek_dirty_ = true; }

   private:
    friend class ShardedObjectStore;
    /// Journals the peeked payload (if dirty) and the opened one's own
    /// flush while both shard locks are still held, releases both locks,
    /// THEN waits once on the largest commit ticket.
    void finish_with() {
      ShardedObjectStore* store =
          store_ != nullptr ? store_ : opened.store_;
      std::uint64_t ticket = 0;
      if (peek_dirty_ && store_ != nullptr && peeked != nullptr) {
        ticket = store_->journal_mutate_locked(other_, *peeked);
      }
      peek_dirty_ = false;
      peeked = nullptr;
      store_ = nullptr;
      opened.flush_dirty();
      ticket =
          std::max(ticket, std::exchange(opened.pending_, std::uint64_t{0}));
      if (other_lock_.owns_lock()) {
        other_lock_.unlock();
      }
      opened = Opened();  // drops the opened shard's lock; nothing to wait
      if (ticket != 0 && store != nullptr) {
        store->settle_release(ticket);
      }
    }

    ObjectNumber other_;
    ShardedObjectStore* store_ = nullptr;
    bool peek_dirty_ = false;
    std::unique_lock<common::CountedMutex> other_lock_;
  };

  struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };

  /// Journal/recovery counters (all zero for in-memory stores).
  struct DurabilityStats {
    std::uint64_t journal_records = 0;  // records appended since start
    std::uint64_t journal_bytes = 0;
    std::uint64_t snapshots = 0;            // compactions performed
    std::uint64_t recovered_objects = 0;    // live slots after recovery
    std::uint64_t replayed_records = 0;     // journal records applied
    bool recovered = false;                 // this store was rebuilt
    // Group-commit submission pipeline (zero without a committer; the
    // ring counters additionally stay zero on sync backends).  Mirrors
    // storage::GroupCommitter::Stats -- see that struct for semantics.
    std::uint64_t inflight_cycles = 0;
    std::uint64_t sqe_submitted = 0;
    std::uint64_t cqe_completed = 0;
    std::uint64_t linger_us_current = 0;
  };

  /// Creates an object and mints its owner capability carrying `rights`.
  /// Freed slots anywhere in the table are reused before any shard grows,
  /// so the object-number space stays dense and a destroy+create pair
  /// round-trips through the same number (with a fresh secret).
  [[nodiscard]] Capability create(T value, Rights rights = Rights::all()) {
    const std::size_t start =
        cursor_.fetch_add(1, std::memory_order_relaxed) & (shards_.size() - 1);
    std::size_t chosen = start;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const std::size_t s = (start + i) & (shards_.size() - 1);
      if (shards_[s]->free_count.load(std::memory_order_relaxed) > 0) {
        chosen = s;
        break;
      }
    }
    Shard& shard = *shards_[chosen];
    std::unique_lock lock(shard.mutex);
    std::uint32_t index;
    if (!shard.free_list.empty()) {
      index = shard.free_list.back();
      shard.free_list.pop_back();
      shard.free_count.fetch_sub(1, std::memory_order_relaxed);
    } else {
      index = shard.slot_limit.load(std::memory_order_relaxed);
      if (index > (ObjectNumber::kMask - chosen) / shards_.size()) {
        throw UsageError("ObjectStore: 24-bit object space exhausted");
      }
    }
    Slot& slot = slot_grow(shard, index);
    {
      // Seqlock transition: concurrent lock-free probes of this slot see
      // either the pre-create or post-create generation, never a torn mix.
      const common::SeqCount::WriteGuard guard(slot.seq);
      slot.secret = scheme_->new_secret(shard.rng);
      bump_epoch(slot);  // stale cache entries for a reused number die here
      slot.live.store(true, std::memory_order_relaxed);
    }
    slot.value = std::move(value);  // payload is mutex-guarded, not probed
    live_count_.fetch_add(1, std::memory_order_relaxed);
    const auto object = ObjectNumber(
        static_cast<std::uint32_t>(index * shards_.size() + chosen));
    const std::uint64_t secret = slot.secret;
    const std::uint64_t ticket = journal_locked(
        chosen, shard, storage::RecordType::create, object, secret,
        &slot.value);
    lock.unlock();
    wait_durable(ticket);  // minting needs no lock: the secret is copied
    return scheme_->mint(server_port_, object, secret, rights);
  }

  /// Blocks until the given group-commit ticket is durable (no-op for
  /// ticket 0, which in-memory stores hand out).  Pairs with
  /// Opened::release_async() for pipelined mutation windows.
  void wait_durable(std::uint64_t ticket) {
    if (ticket != 0) {
      durability_.committer->wait_durable(ticket);
    }
  }

  /// The server workhorse: look the object up by the (unencrypted) object
  /// field, validate the check field against the stored secret (through
  /// the per-shard validated-capability cache), and verify the granted
  /// rights cover `required`.
  ///
  /// The validation PREFIX is lock-free on a repeat capability: a
  /// validate_fast() hit proves the capability valid for the slot's
  /// current secret generation, and if the generation is unchanged once
  /// the shard lock is held (it must be held anyway -- the accessor owns
  /// the payload exclusively), the cached grant is reused and the
  /// crypto/cache machinery is skipped entirely.
  [[nodiscard]] Result<Opened> open(const Capability& cap, Rights required) {
    Shard& shard = shard_of(cap.object);
    const std::optional<FastHit> hit = validate_fast(shard, cap);
    if (hit.has_value() && !hit->granted.has_all(required)) {
      return ErrorCode::permission_denied;  // valid cap, insufficient rights
    }
    std::unique_lock lock(shard.mutex);
    Slot* slot = find(shard, cap.object);
    if (slot == nullptr) {
      return ErrorCode::no_such_object;
    }
    Rights granted;
    if (hit.has_value() &&
        slot->epoch.load(std::memory_order_relaxed) == hit->epoch) {
      granted = hit->granted;  // same secret generation: the hit stands
    } else {
      const Result<Rights> validated = validate_cached(shard, *slot, cap);
      if (!validated.ok()) {
        return validated.error();
      }
      granted = validated.value();
    }
    if (!granted.has_all(required)) {
      return ErrorCode::permission_denied;
    }
    return Opened(this, &slot->value, granted, cap.object, std::move(lock));
  }

  /// Validates a capability and the required rights WITHOUT keeping the
  /// object open.  This is the typed dispatcher's pre-handler check for
  /// multi-object operations, where the handler must take its own open2()
  /// locks afterwards (holding an accessor here would deadlock).
  ///
  /// Lock-free on a repeat capability: a validate_fast() hit answers with
  /// ZERO mutex acquisitions (the property tests/lockfree_validate_test
  /// proves through the CountedMutex counters).  Everything else --
  /// first-seen capability, rotated secret, dead object, seqlock
  /// collision -- falls back to check_locked() with identical semantics.
  [[nodiscard]] Result<Rights> check(const Capability& cap, Rights required) {
    if (const std::optional<FastHit> hit = validate_fast(shard_of(cap.object),
                                                         cap)) {
      if (!hit->granted.has_all(required)) {
        return ErrorCode::permission_denied;
      }
      return hit->granted;
    }
    return check_locked(cap, required);
  }

  /// The mutex slow path of check(): shard lock, slot lookup, validation
  /// through the per-shard cache.  Public so the bench contrast
  /// (bench_e11) can drive the locked and lock-free paths side by side;
  /// servers call check().
  [[nodiscard]] Result<Rights> check_locked(const Capability& cap,
                                            Rights required) {
    Shard& shard = shard_of(cap.object);
    const std::unique_lock lock(shard.mutex);
    Slot* slot = find(shard, cap.object);
    if (slot == nullptr) {
      return ErrorCode::no_such_object;
    }
    const Result<Rights> granted = validate_cached(shard, *slot, cap);
    if (!granted.ok()) {
      return granted.error();
    }
    if (!granted.value().has_all(required)) {
      return ErrorCode::permission_denied;
    }
    return granted;
  }

  /// Opens two objects atomically (the bank-transfer shape).  Locks the
  /// two owning shards in ascending index order, so concurrent pair
  /// operations cannot deadlock whatever their argument order.
  [[nodiscard]] Result<Opened2> open2(const Capability& cap_a,
                                      Rights required_a,
                                      const Capability& cap_b,
                                      Rights required_b) {
    const std::size_t sa = shard_index(cap_a.object);
    const std::size_t sb = shard_index(cap_b.object);
    std::unique_lock<common::CountedMutex> lock_a;
    std::unique_lock<common::CountedMutex> lock_b;
    lock_pair(sa, sb, lock_a, lock_b);

    Shard& shard_a = *shards_[sa];
    Slot* slot_a = find(shard_a, cap_a.object);
    if (slot_a == nullptr) {
      return ErrorCode::no_such_object;
    }
    const Result<Rights> granted_a = validate_cached(shard_a, *slot_a, cap_a);
    if (!granted_a.ok()) {
      return granted_a.error();
    }
    if (!granted_a.value().has_all(required_a)) {
      return ErrorCode::permission_denied;
    }
    Shard& shard_b = *shards_[sb];
    Slot* slot_b = find(shard_b, cap_b.object);
    if (slot_b == nullptr) {
      return ErrorCode::no_such_object;
    }
    const Result<Rights> granted_b = validate_cached(shard_b, *slot_b, cap_b);
    if (!granted_b.ok()) {
      return granted_b.error();
    }
    if (!granted_b.value().has_all(required_b)) {
      return ErrorCode::permission_denied;
    }
    Opened2 pair;
    pair.a = Opened(this, &slot_a->value, granted_a.value(), cap_a.object,
                    std::move(lock_a));
    pair.b = Opened(this, &slot_b->value, granted_b.value(), cap_b.object,
                    std::move(lock_b));
    return pair;
  }

  /// Validates `cap` and, under the same pair of shard locks, peeks the
  /// payload of `other` without a capability check (the multiversion
  /// commit shape: the draft capability is validated, the file it forked
  /// from is server-internal state).  `peeked` is null when `other` is
  /// dead or unknown.
  [[nodiscard]] Result<OpenedWith> open_with_peek(const Capability& cap,
                                                  Rights required,
                                                  ObjectNumber other) {
    const std::size_t sa = shard_index(cap.object);
    const std::size_t sb = shard_index(other);
    std::unique_lock<common::CountedMutex> lock_a;
    std::unique_lock<common::CountedMutex> lock_b;
    lock_pair(sa, sb, lock_a, lock_b);

    Shard& shard_a = *shards_[sa];
    Slot* slot_a = find(shard_a, cap.object);
    if (slot_a == nullptr) {
      return ErrorCode::no_such_object;
    }
    const Result<Rights> granted = validate_cached(shard_a, *slot_a, cap);
    if (!granted.ok()) {
      return granted.error();
    }
    if (!granted.value().has_all(required)) {
      return ErrorCode::permission_denied;
    }
    Slot* slot_b = find(*shards_[sb], other);
    OpenedWith result;
    result.opened = Opened(this, &slot_a->value, granted.value(), cap.object,
                           std::move(lock_a));
    result.peeked = slot_b == nullptr ? nullptr : &slot_b->value;
    result.other_ = other;
    result.store_ = this;
    result.other_lock_ = std::move(lock_b);
    return result;
  }

  /// Server-side sub-capability fabrication: any valid capability may be
  /// narrowed to `mask` (intersection).  No special right is required,
  /// exactly as in the paper -- you can only lose rights this way.
  [[nodiscard]] Result<Capability> restrict(const Capability& cap,
                                            Rights mask) {
    Shard& shard = shard_of(cap.object);
    const std::unique_lock lock(shard.mutex);
    Slot* slot = find(shard, cap.object);
    if (slot == nullptr) {
      return ErrorCode::no_such_object;
    }
    const Result<Rights> granted = validate_cached(shard, *slot, cap);
    if (!granted.ok()) {
      return granted.error();
    }
    return scheme_->mint(server_port_, cap.object, slot->secret,
                         granted.value().intersect(mask));
  }

  /// Revocation: draws a new secret, invalidating every outstanding
  /// capability for the object, and returns a fresh capability with the
  /// caller's rights.  Guarded by the admin bit ("obviously this operation
  /// must be protected with a bit in the RIGHTS field").
  [[nodiscard]] Result<Capability> revoke(const Capability& cap) {
    Shard& shard = shard_of(cap.object);
    std::unique_lock lock(shard.mutex);
    Slot* slot = find(shard, cap.object);
    if (slot == nullptr) {
      return ErrorCode::no_such_object;
    }
    const Result<Rights> granted = validate_cached(shard, *slot, cap);
    if (!granted.ok()) {
      return granted.error();
    }
    if (!granted.value().has_all(rights::kAdmin)) {
      return ErrorCode::permission_denied;
    }
    {
      // Seqlock transition: the epoch bump is what kills every cached
      // fast-path hit for the rotated secret -- instant, exact revocation.
      const common::SeqCount::WriteGuard guard(slot->seq);
      slot->secret = scheme_->new_secret(shard.rng);
      bump_epoch(*slot);
    }
    const std::uint64_t secret = slot->secret;
    const std::uint64_t ticket =
        journal_locked(shard_index(cap.object), shard,
                       storage::RecordType::rotate, cap.object, secret,
                       nullptr);
    lock.unlock();
    wait_durable(ticket);
    return scheme_->mint(server_port_, cap.object, secret, granted.value());
  }

  /// Destroys the object; its number returns to the owning shard's free
  /// list.
  [[nodiscard]] Result<void> destroy(const Capability& cap) {
    auto opened = open(cap, rights::kDestroy);
    if (!opened.ok()) {
      return opened.error();
    }
    return destroy(std::move(opened.value()));
  }

  /// Destroys through an already-held accessor (for handlers that opened
  /// the object, inspected it, and then decide to destroy -- re-opening
  /// would self-deadlock on the shard mutex).  Requires the destroy right
  /// on the accessor, like the capability form.
  [[nodiscard]] Result<void> destroy(Opened&& opened) {
    if (opened.value == nullptr || !opened.lock_.owns_lock()) {
      throw UsageError("ObjectStore::destroy: empty accessor");
    }
    if (!opened.rights.has_all(rights::kDestroy)) {
      return ErrorCode::permission_denied;
    }
    const std::size_t s = shard_index(opened.object);
    Shard& shard = *shards_[s];
    Slot& slot = slot_at(shard, opened.object.value() / shards_.size());
    {
      // Seqlock transition: a concurrent fast probe either sees the old
      // live generation (linearized before this destroy) or fails/misses.
      const common::SeqCount::WriteGuard guard(slot.seq);
      slot.live.store(false, std::memory_order_relaxed);
      bump_epoch(slot);
    }
    slot.value = T{};
    live_count_.fetch_sub(1, std::memory_order_relaxed);
    shard.free_list.push_back(
        static_cast<std::uint32_t>(opened.object.value() / shards_.size()));
    shard.free_count.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t ticket = journal_locked(s, shard,
                                          storage::RecordType::destroy,
                                          opened.object, 0, nullptr);
    // An earlier explicit flush() may have left a pending ticket; the
    // destroy record supersedes any still-unflushed mutation marks.
    ticket = std::max(ticket, std::exchange(opened.pending_, std::uint64_t{0}));
    opened.dirty_ = false;
    opened.deltas_.clear();
    opened.value = nullptr;
    opened.store_ = nullptr;
    opened.lock_.unlock();
    wait_durable(ticket);
    return {};
  }

  /// Server-internal mint (e.g. a directory server fabricating the
  /// capability for a freshly created root directory, or re-minting after
  /// administrative operations).  Returns no_such_object for dead slots.
  [[nodiscard]] Result<Capability> mint_for(ObjectNumber object,
                                            Rights rights) {
    Shard& shard = shard_of(object);
    const std::unique_lock lock(shard.mutex);
    Slot* slot = find(shard, object);
    if (slot == nullptr) {
      return ErrorCode::no_such_object;
    }
    return scheme_->mint(server_port_, object, slot->secret, rights);
  }

  /// Direct payload access without capability checks -- for server
  /// internals and test assertions only.  The returned pointer is not
  /// protected by any lock; concurrent destruction of the object leaves it
  /// dangling.  Concurrent code should use open()/open_with_peek().
  [[nodiscard]] T* peek(ObjectNumber object) {
    Shard& shard = shard_of(object);
    const std::unique_lock lock(shard.mutex);
    Slot* slot = find(shard, object);
    return slot == nullptr ? nullptr : &slot->value;
  }

  /// Visits every live object under its shard lock:
  /// fn(ObjectNumber, const T&).  One shard locked at a time -- the
  /// restart paths use this to rebuild derived server state (memory
  /// budgets, the bank's master account) after recovery.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      Shard& shard = *shards_[s];
      const std::unique_lock lock(shard.mutex);
      const std::uint32_t limit =
          shard.slot_limit.load(std::memory_order_relaxed);
      for (std::uint32_t i = 0; i < limit; ++i) {
        Slot& slot = slot_at(shard, i);
        if (slot.live.load(std::memory_order_relaxed)) {
          fn(ObjectNumber(static_cast<std::uint32_t>(i * shards_.size() + s)),
             static_cast<const T&>(slot.value));
        }
      }
    }
  }

  /// Folds every shard's journal into a fresh snapshot now (manual log
  /// compaction; also what a clean shutdown would call).  No-op for
  /// in-memory stores.
  void compact() {
    if (durability_.backend == nullptr) {
      return;
    }
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      Shard& shard = *shards_[s];
      const std::unique_lock lock(shard.mutex);
      snapshot_shard_locked(s, shard);
    }
  }

  [[nodiscard]] std::size_t live_count() const {
    return live_count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const ProtectionScheme& scheme() const { return *scheme_; }
  [[nodiscard]] Port server_port() const { return server_port_; }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] bool durable() const {
    return durability_.backend != nullptr;
  }

  /// Aggregate validated-capability cache statistics across shards.
  /// Lock-free: the counters are relaxed atomics bumped by both the
  /// fast probe and the locked path, so a stats scrape (metrics
  /// exporters poll these) never contends with the validate hot path.
  /// The aggregate is a moment-in-time approximation, not a snapshot.
  [[nodiscard]] CacheStats cache_stats() const {
    CacheStats total;
    for (const auto& shard : shards_) {
      total.hits += shard->cache_hits.load(std::memory_order_relaxed);
      total.misses += shard->cache_misses.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Journal/recovery counters (zeroes for an in-memory store).
  /// The store's group committer -- null for in-memory stores.  Exposed
  /// for flusher statistics (benchmarks print group sizes) and for sharing
  /// one committer across stores of a volume.
  [[nodiscard]] const std::shared_ptr<storage::GroupCommitter>& committer()
      const {
    return durability_.committer;
  }

  [[nodiscard]] DurabilityStats durability_stats() const {
    DurabilityStats total = recovery_stats_;
    for (const auto& shard : shards_) {
      const std::unique_lock lock(shard->mutex);
      total.journal_records += shard->journal_records;
      total.journal_bytes += shard->journal_bytes;
      total.snapshots += shard->snapshots;
    }
    if (durability_.committer != nullptr) {
      const auto gc = durability_.committer->stats();
      total.inflight_cycles = gc.inflight_cycles;
      total.sqe_submitted = gc.sqe_submitted;
      total.cqe_completed = gc.cqe_completed;
      total.linger_us_current = gc.linger_us_current;
    }
    return total;
  }

 private:
  /// wait_durable() for the accessor release paths, which run in
  /// destructors: a failed volume is noted for the request loop
  /// (storage::note_release_failure) instead of thrown into terminate.
  void settle_release(std::uint64_t ticket) noexcept {
    try {
      wait_durable(ticket);
    } catch (...) {
      storage::note_release_failure();
    }
  }

  struct Slot {
    /// Guards the lock-free-readable header below: every writer
    /// transition (create, revoke, destroy, recovery replay) holds the
    /// shard mutex AND wraps its header stores in a WriteGuard, so the
    /// no-lock probe can detect overlap and bail.
    common::SeqCount seq;
    std::atomic<std::uint32_t> epoch{0};  // bumped on every secret rotation
    std::atomic<bool> live{false};
    // Mutex-guarded only; NEVER read by the lock-free probe (the probe
    // trusts the epoch-stamped cache entry instead of the secret).
    std::uint64_t secret = 0;
    T value{};
  };

  /// Slots live in fixed-size chunks that never move once published:
  /// lock-free probes dereference Slot addresses without any lock, so
  /// the storage must be address-stable across shard growth (the old
  /// std::vector<Slot> would reallocate under the reader).
  static constexpr std::size_t kChunkSlots = 512;  // power of two
  struct SlotChunk {
    std::array<Slot, kChunkSlots> slots{};
  };

  /// Direct-mapped validated-capability cache entry.  `epoch` ties the
  /// entry to one secret generation of the slot.  Fields are relaxed
  /// atomics under the entry's own SeqCount: the single writer (the
  /// locked path's refill, serialized by the shard mutex) flips the
  /// generation odd around its stores, so the lock-free probe reads a
  /// consistent tuple or rejects.
  struct CacheEntry {
    common::SeqCount seq;
    std::atomic<std::uint32_t> object{0};
    std::atomic<std::uint32_t> epoch{0};
    std::atomic<std::uint64_t> check{0};
    std::atomic<std::uint8_t> rights{0};
    std::atomic<std::uint8_t> granted{0};
    std::atomic<bool> used{false};
  };
  static constexpr std::size_t kCacheEntries = 256;  // per shard, bounded

  struct Shard {
    Shard(std::uint64_t seed, std::size_t max_slots)
        : chunk_count((max_slots + kChunkSlots - 1) / kChunkSlots),
          chunks(std::make_unique<std::atomic<SlotChunk*>[]>(chunk_count)),
          rng(seed) {}
    ~Shard() {
      for (std::size_t c = 0; c < chunk_count; ++c) {
        delete chunks[c].load(std::memory_order_relaxed);
      }
    }
    Shard(const Shard&) = delete;
    Shard& operator=(const Shard&) = delete;

    mutable common::CountedMutex mutex;
    // ---- lock-free-readable state -------------------------------------
    // Chunk directory, sized at construction for the whole 24-bit object
    // space (so the directory itself never grows).  A chunk pointer is
    // null until the shard first reaches it, then immutable.
    const std::size_t chunk_count;
    std::unique_ptr<std::atomic<SlotChunk*>[]> chunks;
    // High-water mark of constructed slots; release-published after the
    // owning chunk pointer, acquire-read by probes before either.
    std::atomic<std::uint32_t> slot_limit{0};
    std::array<CacheEntry, kCacheEntries> cache{};
    // mutable: bumped from the const lock-free probe (validate_fast).
    mutable std::atomic<std::uint64_t> cache_hits{0};    // approximate
    mutable std::atomic<std::uint64_t> cache_misses{0};  // approximate
    // ---- mutex-guarded state ------------------------------------------
    std::vector<std::uint32_t> free_list;
    std::atomic<std::uint32_t> free_count{0};
    Rng rng;
    // Durability state, all guarded by mutex.
    std::uint64_t lsn = 0;            // last journal LSN issued
    std::uint64_t records_pending = 0;  // records since the last snapshot
    std::uint64_t journal_records = 0;
    std::uint64_t journal_bytes = 0;
    std::uint64_t snapshots = 0;
    Writer scratch_payload;  // reused per append: no steady-state allocs
    Buffer scratch_frame;
  };

  [[nodiscard]] std::size_t shard_index(ObjectNumber object) const {
    return object.value() & (shards_.size() - 1);
  }
  [[nodiscard]] Shard& shard_of(ObjectNumber object) {
    return *shards_[shard_index(object)];
  }

  /// Bumps the slot's secret epoch.  Caller holds the shard mutex and a
  /// WriteGuard on the slot (or runs single-threaded recovery).
  static void bump_epoch(Slot& slot) {
    slot.epoch.store(slot.epoch.load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
  }

  /// Slot by index for writers (caller holds the shard mutex and knows
  /// index < slot_limit).
  [[nodiscard]] static Slot& slot_at(Shard& shard, std::size_t index) {
    return shard.chunks[index / kChunkSlots]
        .load(std::memory_order_relaxed)
        ->slots[index % kChunkSlots];
  }

  /// Slot by index for the LOCK-FREE probe: null when the index is past
  /// the published high-water mark.  The acquire loads pair with
  /// slot_grow's release stores, so a non-null result is a fully
  /// constructed slot.
  [[nodiscard]] static const Slot* slot_peek_atomic(const Shard& shard,
                                                    std::size_t index) {
    if (index >= shard.slot_limit.load(std::memory_order_acquire)) {
      return nullptr;
    }
    const SlotChunk* chunk =
        shard.chunks[index / kChunkSlots].load(std::memory_order_acquire);
    return chunk == nullptr ? nullptr : &chunk->slots[index % kChunkSlots];
  }

  /// Grows the shard to cover `index`: materializes the owning chunk if
  /// needed and publishes the new high-water mark (chunk pointer FIRST,
  /// both release -- the probe's acquire loads see them in order).
  /// Caller holds the shard mutex and has bounds-checked `index`.
  Slot& slot_grow(Shard& shard, std::size_t index) {
    if (index / kChunkSlots >= shard.chunk_count) {
      throw UsageError("ObjectStore: slot index out of range");
    }
    // Materialize every chunk up to the owning one (recovery can land on
    // a high index first): slot_at may then address ANY index below
    // slot_limit without a null check.  Chunks below the current limit
    // already exist, so the scan starts at the limit's own chunk.
    const std::size_t first_gap =
        shard.slot_limit.load(std::memory_order_relaxed) / kChunkSlots;
    SlotChunk* chunk = nullptr;
    for (std::size_t c = std::min(first_gap, index / kChunkSlots);
         c <= index / kChunkSlots; ++c) {
      chunk = shard.chunks[c].load(std::memory_order_relaxed);
      if (chunk == nullptr) {
        chunk = new SlotChunk();
        shard.chunks[c].store(chunk, std::memory_order_release);
      }
    }
    if (index >= shard.slot_limit.load(std::memory_order_relaxed)) {
      shard.slot_limit.store(static_cast<std::uint32_t>(index) + 1,
                             std::memory_order_release);
    }
    return chunk->slots[index % kChunkSlots];
  }

  /// Caller holds the shard mutex.
  Slot* find(Shard& shard, ObjectNumber object) {
    const std::size_t index = object.value() / shards_.size();
    if (index >= shard.slot_limit.load(std::memory_order_relaxed)) {
      return nullptr;
    }
    Slot& slot = slot_at(shard, index);
    return slot.live.load(std::memory_order_relaxed) ? &slot : nullptr;
  }

  /// A successful lock-free validation: the granted rights plus the
  /// secret epoch they were proven against (open() re-checks the epoch
  /// under the shard lock to decide whether the proof still stands).
  struct FastHit {
    Rights granted;
    std::uint32_t epoch = 0;
  };

  /// The no-lock validate probe.  Returns a hit ONLY when, within one
  /// stable seqlock generation of both records, the slot is live and the
  /// shard's cache entry matches the capability bit for bit at the
  /// slot's current secret epoch -- i.e. this exact capability already
  /// validated against this exact secret and nothing rotated since.
  /// Every other outcome (miss, dead slot, unpublished index, torn read)
  /// is nullopt: the caller falls back to the mutex path, which is the
  /// sole authority for failures.  Performs zero lock acquisitions.
  [[nodiscard]] std::optional<FastHit> validate_fast(
      const Shard& shard, const Capability& cap) const {
    const Slot* slot =
        slot_peek_atomic(shard, cap.object.value() / shards_.size());
    if (slot == nullptr) {
      return std::nullopt;
    }
    const std::uint32_t slot_gen = slot->seq.read_begin();
    if (common::SeqCount::busy(slot_gen)) {
      ++common::this_thread_lock_counters().seqlock_fallbacks;
      return std::nullopt;
    }
    const std::uint32_t epoch = slot->epoch.load(std::memory_order_relaxed);
    const bool live = slot->live.load(std::memory_order_relaxed);
    if (!slot->seq.read_ok(slot_gen)) {
      ++common::this_thread_lock_counters().seqlock_fallbacks;
      return std::nullopt;
    }
    if (!live) {
      return std::nullopt;
    }
    const CacheEntry& entry = shard.cache[cache_slot(cap)];
    const std::uint32_t entry_gen = entry.seq.read_begin();
    if (common::SeqCount::busy(entry_gen)) {
      ++common::this_thread_lock_counters().seqlock_fallbacks;
      return std::nullopt;
    }
    const bool used = entry.used.load(std::memory_order_relaxed);
    const std::uint32_t entry_object =
        entry.object.load(std::memory_order_relaxed);
    const std::uint32_t entry_epoch =
        entry.epoch.load(std::memory_order_relaxed);
    const std::uint64_t entry_check =
        entry.check.load(std::memory_order_relaxed);
    const std::uint8_t entry_rights =
        entry.rights.load(std::memory_order_relaxed);
    const Rights granted(entry.granted.load(std::memory_order_relaxed));
    if (!entry.seq.read_ok(entry_gen)) {
      ++common::this_thread_lock_counters().seqlock_fallbacks;
      return std::nullopt;
    }
    if (!used || entry_object != cap.object.value() ||
        entry_epoch != epoch || entry_check != cap.check.value() ||
        entry_rights != cap.rights.bits()) {
      return std::nullopt;  // not proven for THIS epoch: slow path decides
    }
    shard.cache_hits.fetch_add(1, std::memory_order_relaxed);
    return FastHit{granted, epoch};
  }

  /// Locks the two shards' mutexes in ascending index order (one lock when
  /// they coincide).  lock_a/lock_b come back owning sa/sb respectively.
  void lock_pair(std::size_t sa, std::size_t sb,
                 std::unique_lock<common::CountedMutex>& lock_a,
                 std::unique_lock<common::CountedMutex>& lock_b) {
    if (sa == sb) {
      lock_a = std::unique_lock(shards_[sa]->mutex);
      return;
    }
    const std::size_t lo = sa < sb ? sa : sb;
    const std::size_t hi = sa < sb ? sb : sa;
    std::unique_lock first(shards_[lo]->mutex);
    std::unique_lock second(shards_[hi]->mutex);
    lock_a = sa == lo ? std::move(first) : std::move(second);
    lock_b = sb == hi ? std::move(second) : std::move(first);
  }

  /// Direct-mapped cache index of a capability (hash over the full
  /// key tuple so near-identical capabilities spread).
  [[nodiscard]] static std::size_t cache_slot(const Capability& cap) {
    const std::uint64_t mix =
        (static_cast<std::uint64_t>(cap.object.value()) << 8 |
         cap.rights.bits()) * 0x9E3779B97F4A7C15ULL ^
        cap.check.value() * 0xC2B2AE3D27D4EB4FULL;
    return (mix >> 32) & (kCacheEntries - 1);
  }

  /// Validation through the shard's cache; caller holds the shard mutex.
  /// The refill wraps its stores in the entry's WriteGuard so the
  /// lock-free probe never observes a half-written entry; the reads here
  /// can stay relaxed because the mutex already excludes every writer.
  Result<Rights> validate_cached(Shard& shard, Slot& slot,
                                 const Capability& cap) {
    CacheEntry& entry = shard.cache[cache_slot(cap)];
    const std::uint32_t slot_epoch =
        slot.epoch.load(std::memory_order_relaxed);
    if (entry.used.load(std::memory_order_relaxed) &&
        entry.object.load(std::memory_order_relaxed) == cap.object.value() &&
        entry.epoch.load(std::memory_order_relaxed) == slot_epoch &&
        entry.check.load(std::memory_order_relaxed) == cap.check.value() &&
        entry.rights.load(std::memory_order_relaxed) == cap.rights.bits()) {
      shard.cache_hits.fetch_add(1, std::memory_order_relaxed);
      return Rights(entry.granted.load(std::memory_order_relaxed));
    }
    shard.cache_misses.fetch_add(1, std::memory_order_relaxed);
    const Result<Rights> granted = scheme_->validate(cap, slot.secret);
    if (granted.ok()) {
      const common::SeqCount::WriteGuard guard(entry.seq);
      entry.object.store(cap.object.value(), std::memory_order_relaxed);
      entry.epoch.store(slot_epoch, std::memory_order_relaxed);
      entry.check.store(cap.check.value(), std::memory_order_relaxed);
      entry.rights.store(cap.rights.bits(), std::memory_order_relaxed);
      entry.granted.store(granted.value().bits(),
                          std::memory_order_relaxed);
      entry.used.store(true, std::memory_order_relaxed);
    }
    return granted;
  }

  // ---- durability internals (caller holds the shard mutex) --------------

  /// Frames one record with a pre-serialized payload view into the shard's
  /// scratch buffer (returned by reference; reused per append, so the
  /// steady-state hot path allocates nothing).  Framing -- under the shard
  /// lock -- is where the record's LSN is assigned, so a snapshot taken
  /// later under the same lock always covers every framed record, flushed
  /// or still queued.
  [[nodiscard]] const Buffer& frame_raw(Shard& shard, storage::RecordType type,
                                        ObjectNumber object,
                                        std::uint64_t secret,
                                        std::span<const std::uint8_t> payload) {
    shard.scratch_frame.clear();
    storage::encode_record_into(type, object, secret, ++shard.lsn, payload,
                                shard.scratch_frame);
    shard.journal_bytes += shard.scratch_frame.size();
    ++shard.journal_records;
    ++shard.records_pending;
    return shard.scratch_frame;
  }

  /// frame_raw with the payload serialized through the store's codec.
  /// `payload` may be null (destroy/rotate).
  [[nodiscard]] const Buffer& frame_record(Shard& shard,
                                           storage::RecordType type,
                                           ObjectNumber object,
                                           std::uint64_t secret,
                                           const T* payload) {
    shard.scratch_payload.clear();
    if (payload != nullptr) {
      durability_.encode(shard.scratch_payload, *payload);
    }
    return frame_raw(shard, type, object, secret,
                     shard.scratch_payload.buffer());
  }

  /// Appends one single-shard record to the volume: LSN assignment and
  /// shard counters here (under the shard lock), then the record is
  /// ENCODED DIRECTLY into the committer's staging buffer via
  /// enqueue_with(), skipping the frame-to-scratch copy the pre-encoded
  /// enqueue() path pays.  Caller holds the shard mutex and waits on the
  /// returned ticket AFTER dropping it.
  [[nodiscard]] std::uint64_t submit_raw_locked(
      std::size_t s, Shard& shard, storage::RecordType type,
      ObjectNumber object, std::uint64_t secret,
      std::span<const std::uint8_t> payload) {
    const std::uint64_t lsn = ++shard.lsn;
    ++shard.journal_records;
    ++shard.records_pending;
    std::size_t framed = 0;
    const std::uint64_t ticket =
        durability_.committer->enqueue_with(s, [&](Buffer& staging) {
          const std::size_t before = staging.size();
          storage::encode_record_into(type, object, secret, lsn, payload,
                                      staging);
          framed = staging.size() - before;
        });
    shard.journal_bytes += framed;
    maybe_compact_locked(s, shard);
    return ticket;
  }

  /// Appends one record to the shard's journal and runs the compaction
  /// check.  No-op without a backend (returns 0).
  [[nodiscard]] std::uint64_t journal_locked(std::size_t s, Shard& shard,
                                             storage::RecordType type,
                                             ObjectNumber object,
                                             std::uint64_t secret,
                                             const T* payload) {
    if (durability_.backend == nullptr) {
      return 0;
    }
    shard.scratch_payload.clear();
    if (payload != nullptr) {
      durability_.encode(shard.scratch_payload, *payload);
    }
    return submit_raw_locked(s, shard, type, object, secret,
                             shard.scratch_payload.buffer());
  }

  /// Journals one payload mutation.  The caller (an accessor flush) holds
  /// the owning shard's mutex.
  [[nodiscard]] std::uint64_t journal_mutate_locked(ObjectNumber object,
                                                    const T& value) {
    if (durability_.backend == nullptr) {
      return 0;
    }
    const std::size_t s = shard_index(object);
    return journal_locked(s, *shards_[s], storage::RecordType::mutate, object,
                          0, &value);
  }

  /// Journals one delta patch (Opened::mark_dirty_delta).  The caller
  /// holds the owning shard's mutex.
  [[nodiscard]] std::uint64_t journal_delta_locked(ObjectNumber object,
                                                   const Buffer& patch) {
    if (durability_.backend == nullptr) {
      return 0;
    }
    if (!durability_.apply_delta) {
      throw UsageError(
          "ObjectStore: mark_dirty_delta needs an apply_delta codec "
          "(recovery could not replay the patch)");
    }
    const std::size_t s = shard_index(object);
    return submit_raw_locked(s, *shards_[s], storage::RecordType::delta,
                             object, 0, patch);
  }

  /// Journals the dirty payloads (and pending delta patches) of a pair
  /// accessor as one atomic append group, then disarms the members' own
  /// flushes (their destructors run right after).  Caller holds both
  /// shard locks; the returned ticket is waited on after they drop.
  [[nodiscard]] std::uint64_t journal_pair_locked(Opened& a, Opened& b) {
    if (durability_.backend == nullptr) {
      a.dirty_ = false;
      b.dirty_ = false;
      a.deltas_.clear();
      b.deltas_.clear();
      return 0;
    }
    std::vector<storage::ShardAppend> group;
    for (Opened* member : {&a, &b}) {
      if (member->value == nullptr) {
        continue;
      }
      const std::size_t s = shard_index(member->object);
      Shard& shard = *shards_[s];
      // The group owns copies of the frames: both members may share one
      // shard (and its scratch buffer).
      if (member->dirty_) {
        group.push_back({s, frame_record(shard, storage::RecordType::mutate,
                                         member->object, 0, member->value)});
      } else {
        if (!member->deltas_.empty() && !durability_.apply_delta) {
          throw UsageError(
              "ObjectStore: mark_dirty_delta needs an apply_delta codec "
              "(recovery could not replay the patch)");
        }
        for (const Buffer& patch : member->deltas_) {
          group.push_back(
              {s, frame_raw(shard, storage::RecordType::delta, member->object,
                            0, patch)});
        }
      }
      member->dirty_ = false;
      member->deltas_.clear();
    }
    if (group.empty()) {
      return 0;
    }
    // One enqueue_group: no flush-cycle boundary can split the pair.
    const std::uint64_t ticket =
        durability_.committer->enqueue_group(std::move(group));
    for (Opened* member : {&a, &b}) {
      if (member->value != nullptr && member->store_ != nullptr) {
        const std::size_t s = shard_index(member->object);
        maybe_compact_locked(s, *shards_[s]);
      }
    }
    return ticket;
  }

  void maybe_compact_locked(std::size_t s, Shard& shard) {
    if (durability_.compact_after != 0 &&
        shard.records_pending >= durability_.compact_after) {
      snapshot_shard_locked(s, shard);
    }
  }

  /// Serializes the shard's live slots into a snapshot and restarts its
  /// journal.  Caller holds the shard mutex.
  ///
  /// Safe against the group-commit queue: records are LSN-stamped at frame
  /// time under this same lock, so `shard.lsn` here covers every record
  /// ever framed for the shard -- including ones still sitting in the
  /// committer's queue.  If the flusher writes such a record AFTER the
  /// install truncates the journal, replay skips it (lsn <= applied_lsn)
  /// and the snapshot, which already reflects its effect, wins.
  ///
  /// The image is encoded straight into one buffer (the bytes
  /// storage::encode_snapshot produces), each payload staged in the
  /// shard's reusable scratch writer: no per-slot buffers, whose transient
  /// peak would otherwise scale with the live object count.  The buffer
  /// is then handed to the backend, which may keep it (replication ships
  /// it) without a copy.
  void snapshot_shard_locked(std::size_t s, Shard& shard) {
    const std::uint32_t limit =
        shard.slot_limit.load(std::memory_order_relaxed);
    std::uint32_t live = 0;
    for (std::uint32_t i = 0; i < limit; ++i) {
      live += slot_at(shard, i).live.load(std::memory_order_relaxed) ? 1 : 0;
    }
    storage::SnapshotEncoder image(shard.lsn, live);
    bool sized = false;
    for (std::uint32_t i = 0; i < limit; ++i) {
      const Slot& slot = slot_at(shard, i);
      if (!slot.live.load(std::memory_order_relaxed)) {
        continue;
      }
      shard.scratch_payload.clear();
      durability_.encode(shard.scratch_payload, slot.value);
      const Buffer& payload = shard.scratch_payload.buffer();
      if (!sized) {
        // Sized from the first payload: one store's payloads are mostly
        // one size, so the image rarely grows past this.
        sized = true;
        image.reserve(payload.size());
      }
      image.add(
          ObjectNumber(static_cast<std::uint32_t>(i * shards_.size() + s)),
          slot.secret, payload);
    }
    durability_.backend->adopt_snapshot(s, image.take());
    shard.records_pending = 0;
    ++shard.snapshots;
  }

  /// Rebuilds every shard from snapshot-then-journal.  Runs from the
  /// constructor (no concurrency yet).
  void recover() {
    recovery_stats_.recovered = true;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      Shard& shard = *shards_[s];
      std::vector<storage::SnapshotSlot> snapshot;
      std::uint64_t applied_lsn = 0;
      if (!storage::decode_snapshot(durability_.backend->read_snapshot(s),
                                    snapshot, applied_lsn)) {
        throw UsageError("ObjectStore: corrupt shard snapshot on recovery");
      }
      for (storage::SnapshotSlot& image : snapshot) {
        Slot& slot = slot_for_recovery(shard, image.object);
        Reader r(image.payload);
        T value{};
        if (!durability_.decode(r, value)) {
          throw UsageError("ObjectStore: corrupt payload in shard snapshot");
        }
        slot.secret = image.secret;
        slot.value = std::move(value);
        slot.live.store(true, std::memory_order_relaxed);
      }
      shard.lsn = applied_lsn;
      const auto records =
          storage::decode_journal(durability_.backend->read_journal(s));
      for (const storage::Record& record : records) {
        if (record.lsn <= applied_lsn) {
          continue;  // already folded into the snapshot (compaction race)
        }
        apply_record(shard, record, s);
        shard.lsn = record.lsn;
        ++recovery_stats_.replayed_records;
      }
      // Free lists: every slot index below the high-water mark that is not
      // live was on the free list when the journal ended.
      std::uint32_t live_in_shard = 0;
      shard.free_list.clear();
      const std::uint32_t limit =
          shard.slot_limit.load(std::memory_order_relaxed);
      for (std::uint32_t i = 0; i < limit; ++i) {
        if (slot_at(shard, i).live.load(std::memory_order_relaxed)) {
          ++live_in_shard;
        } else {
          shard.free_list.push_back(i);
        }
      }
      shard.free_count.store(
          static_cast<std::uint32_t>(shard.free_list.size()),
          std::memory_order_relaxed);
      live_count_.fetch_add(live_in_shard, std::memory_order_relaxed);
    }
    recovery_stats_.recovered_objects = live_count();
  }

  /// Grows the shard's slot storage as needed and returns the slot for
  /// `object` (recovery only; intermediate slots stay dead until their own
  /// records arrive, then land on the free list).  Recovery runs from the
  /// constructor, before any reader exists, so plain stores suffice.
  Slot& slot_for_recovery(Shard& shard, ObjectNumber object) {
    const std::size_t index = object.value() / shards_.size();
    if (index / kChunkSlots >= shard.chunk_count) {
      throw UsageError("ObjectStore: journal names an out-of-range object");
    }
    return slot_grow(shard, index);
  }

  /// Applies one journal record idempotently (replaying a record the
  /// table already reflects converges to the same state).
  void apply_record(Shard& shard, const storage::Record& record,
                    std::size_t s) {
    if (shard_index(record.object) != s) {
      return;  // record addressed to the wrong shard: ignore
    }
    Slot& slot = slot_for_recovery(shard, record.object);
    // The old payload's external resources are released BEFORE the new
    // payload decodes: decode side effects may re-acquire the very same
    // resources (the block server re-claims its disk block on every
    // mutate replay), so the order must be release-then-rebuild.
    const auto dispose_old = [&] {
      if (slot.live.load(std::memory_order_relaxed) && durability_.dispose) {
        durability_.dispose(slot.value);
      }
    };
    switch (record.type) {
      case storage::RecordType::create: {
        dispose_old();
        Reader r(record.payload);
        T value{};
        if (!durability_.decode(r, value)) {
          throw UsageError("ObjectStore: corrupt create payload in journal");
        }
        slot.secret = record.secret;
        slot.value = std::move(value);
        slot.live.store(true, std::memory_order_relaxed);
        bump_epoch(slot);
        break;
      }
      case storage::RecordType::mutate: {
        if (!slot.live.load(std::memory_order_relaxed)) {
          break;  // mutation of an object destroyed later in a replayed
                  // prefix -- or noise; either way the slot stays dead
        }
        dispose_old();
        Reader r(record.payload);
        T value{};
        if (!durability_.decode(r, value)) {
          throw UsageError("ObjectStore: corrupt mutate payload in journal");
        }
        slot.value = std::move(value);
        break;
      }
      case storage::RecordType::delta: {
        if (!slot.live.load(std::memory_order_relaxed)) {
          break;  // patch for an object destroyed later in the prefix
        }
        // No dispose_old: the patch edits the live payload in place, and
        // the codec manages any external resources the edit touches.
        if (!durability_.apply_delta) {
          throw UsageError(
              "ObjectStore: delta record in journal but no apply_delta "
              "codec configured");
        }
        Reader r(record.payload);
        if (!durability_.apply_delta(r, slot.value)) {
          throw UsageError("ObjectStore: corrupt delta payload in journal");
        }
        break;
      }
      case storage::RecordType::rotate:
        if (slot.live.load(std::memory_order_relaxed)) {
          slot.secret = record.secret;
          bump_epoch(slot);
        }
        break;
      case storage::RecordType::destroy:
        dispose_old();
        slot.live.store(false, std::memory_order_relaxed);
        slot.value = T{};
        bump_epoch(slot);
        break;
    }
  }

  std::shared_ptr<const ProtectionScheme> scheme_;
  Port server_port_;
  Durability<T> durability_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::size_t> cursor_{0};
  std::atomic<std::size_t> live_count_{0};
  DurabilityStats recovery_stats_;  // written once during recovery
};

/// Every server's object table.  The sharded implementation keeps the
/// original single-threaded API, so the name the servers use is an alias.
template <typename T>
using ObjectStore = ShardedObjectStore<T>;

}  // namespace amoeba::core
