// Server-side service loop.
//
// A service chooses a secret get-port G, does GET(G), and serves requests
// arriving on P = F(G) (§2.2).  Concrete servers (file, directory, bank,
// ...) subclass Service and register an opcode handler table with on();
// the loop takes care of receiving, dispatching, replying to the frame's
// stamped source (including the automatic no_such_operation reply for
// opcodes the service does not implement), and clean shutdown.  A subclass
// with needs the table cannot express may instead override handle()
// wholesale.  Multiple worker threads may GET on the same port; the
// network delivers round-robin, exactly like multiple server processes
// comprising one service in Amoeba.
//
// Batch envelopes (rpc/batch.hpp): a frame carrying kBatchOpcode is
// unpacked here and each sub-request dispatched through the same handle()
// path, producing one batched reply with per-entry status.  Envelope-level
// checks (signature, filter) run once per frame; wide envelopes can
// optionally be fanned across transient helper threads
// (set_batch_fan_out), which is safe because handlers already tolerate
// multi-worker concurrency.
//
// At-most-once duplicate suppression (docs/PROTOCOL.md §5): requests
// stamped with kFlagAtMostOnce carry the issuing transport's (client, seq)
// identity, and the service keeps a per-client reply cache keyed by the
// stamped source machine plus that identity.  A retransmitted request
// whose original already completed re-sends the cached reply WITHOUT
// re-executing the handler (critical for non-idempotent operations like
// bank.transfer and std_destroy); one whose original is still executing is
// dropped silently (the client's next backoff tick retries).  The check
// runs after the signature and filter gates, so a replayed frame from the
// wrong machine can neither poison nor read the cache.  Batch envelopes
// are suppressed as a unit: the whole batched reply is cached under the
// envelope's (client, seq).
//
// The cache is SHARDED by client-key hash (16 stripes, each with its own
// mutex and map), so claim/store on the request path never serializes
// across workers -- this removed the last global lock on that path.  The
// window / client-cap limits stay GLOBAL (atomic totals; LRU eviction
// scans the stripes), so the observable bounds are unchanged from the
// single-map implementation.
//
// Restart semantics (docs/PROTOCOL.md §8): attach_durability() persists
// each client's suppression FLOOR -- the highest sequence number ever
// claimed by an op with effects -- to the storage backend's metadata area,
// durable no later than the claimed request's effects and before its
// reply or any nested call leaves, and restores the floors on
// construction.  After a crash+restart, a duplicate of any pre-crash
// transaction is therefore DROPPED (at most once survives the crash: an
// operation may be lost to the torn tail, but can never run twice).  A
// bounded window of recent reply BODIES per client rides the same
// metadata image (persisted best effort after each reply completes), so a
// post-restart duplicate of a recently COMPLETED transaction is
// re-answered from the restored cache instead of timing out at the
// client.  Floor persists are enqueued on the volume's group-commit flush
// cycles rather than each paying a private fsync, and the handler runs
// without waiting for them: the floor is enqueued first, so the effect's
// commit ticket is larger and the handler's own durable release covers
// the floor too.  The worker settles the floor's ticket before it
// publishes or sends the reply (nearly always already durable by then),
// and the transport settles it before a nested trans() from the handler
// leaves (rpc/pending_floor.hpp).  A claim arriving after the volume
// failed is refused with `internal` before its handler runs, and a store
// release that finds the volume failed turns the reply into `internal`.
// Ops declared read-only (rpc::kReadOnly) persist neither floor nor body:
// re-running one after a restart is indistinguishable from answering its
// duplicate, so their claims stay in memory and the persisted window
// holds only replies of ops with effects.  Untyped handlers and batch
// envelopes always persist.
#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <latch>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "amoeba/common/serial.hpp"
#include "amoeba/net/network.hpp"
#include "amoeba/rpc/filter.hpp"

namespace amoeba::storage {
class Backend;
class GroupCommitter;
}  // namespace amoeba::storage

namespace amoeba::rpc {

/// Runtime metadata of one typed operation descriptor registered on a
/// service -- what the generic std_ops / rights-matrix property tests
/// iterate.  Mirrors the fields of rpc::Op (rpc/op.hpp).
struct OpInfo {
  std::uint16_t opcode = 0;
  std::string name;
  Rights required;            // rights the header capability must grant
  Rights data_rights;         // rights demanded of data-field capabilities
  bool object = true;         // false: factory op, no header capability
  bool read_only = false;     // true: no effect, nothing persisted (§8.4)
};

class Service {
 public:
  /// Binds the service to a machine and its secret get-port.  The service
  /// does not listen until start() is called.
  Service(net::Machine& machine, Port get_port, std::string name);
  /// Joins the workers.  Concrete subclasses must call stop() in their own
  /// destructor: by the time this base destructor runs, the subclass state
  /// (stores, tables) is already gone and the vtable has been rewound, so
  /// a still-running worker would race both.
  virtual ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Spawns `workers` listener threads.  Idempotent start/stop pairs.
  /// Blocks until every worker's GET is registered, so a request issued
  /// right after start() cannot race the registrations.
  void start(int workers = 1);

  /// Stops all workers and waits for them to exit (jthread join).  Safe to
  /// call repeatedly; in-flight handlers finish before their worker exits.
  void stop();

  /// Moves a stopped service to another machine (process migration for the
  /// locate experiments).  Throws UsageError if the service is running.
  /// The reply cache survives the move (a client's retransmit after the
  /// migration is still suppressed).
  void rebind(net::Machine& machine);

  /// The public put-port clients use: P = F(G) under F-boxes, G otherwise.
  /// Constant after construction; safe from any thread.
  [[nodiscard]] Port put_port() const;

  /// Installs a message filter (capability sealing in F-box-less mode);
  /// applied to requests on arrival and replies on departure -- including
  /// replies re-sent from the reply cache, which are re-sealed per
  /// transmission.  Thread-safe; filters must be internally synchronized
  /// (workers run them concurrently).
  void set_filter(std::shared_ptr<MessageFilter> filter);

  /// Restricts the service to signed requests (§2.2 digital signatures):
  /// "each client chooses a random signature, S, and publishes F(S)".
  /// The service accepts a request only when its (F-box transformed)
  /// signature field matches one of the published values; everything else
  /// is refused with permission_denied.  An empty set (the default)
  /// disables the check.  Only meaningful under F-boxes -- without them a
  /// signature is replayable and §2.4's source addresses take over.
  /// Thread-safe; applies from the next delivered frame.
  void set_allowed_signatures(std::vector<Port> published_signatures);

  /// Fans sub-requests of one batch envelope across up to `helpers`
  /// transient threads (1 = in the receiving worker, the default; pays off
  /// when handlers block or compute, not for cheap table lookups).
  /// Thread-safe; takes effect on the next envelope.
  void set_batch_fan_out(int helpers);

  // ---- at-most-once reply cache ---------------------------------------

  /// Counters and occupancy of the duplicate-suppression table.  Snapshot
  /// under the cache lock; safe to call while workers run.
  struct ReplyCacheStats {
    std::uint64_t duplicates_suppressed = 0;  // retransmits not re-executed
    std::uint64_t replies_resent = 0;   // of those, answered from the cache
    std::uint64_t evicted_entries = 0;  // cached replies aged out
    std::uint64_t evicted_clients = 0;  // whole client entries aged out
    std::uint64_t entries = 0;          // live cached replies
    std::uint64_t clients = 0;          // live client entries
  };
  [[nodiscard]] ReplyCacheStats reply_cache_stats() const;

  /// Bounds the duplicate-suppression table: at most `window_per_client`
  /// cached replies per client (oldest completed entries evicted first;
  /// window 0 disables suppression entirely) and at most `max_clients`
  /// clients with live cached replies (least recently used demoted to a
  /// floor-only tombstone; 0 = unbounded).  Eviction never re-executes: a
  /// duplicate of an evicted transaction is dropped silently, so at-most-
  /// once degrades to "at most once + client timeout", never "twice" --
  /// but windows should comfortably exceed the deepest client pipeline so
  /// replies can still be RE-SENT (see docs/PROTOCOL.md §5.4 for the
  /// memory tradeoff).  Thread-safe.
  void set_reply_cache_limits(std::size_t window_per_client,
                              std::size_t max_clients);

  /// Drops every cached reply and client entry (the eviction hook tests
  /// use to force the cold path).  In-flight requests are unaffected
  /// beyond losing their suppression record.  Thread-safe.
  void flush_reply_cache();

  // ---- durable restart support ----------------------------------------

  /// Wires the at-most-once reply cache to a storage volume: restores the
  /// per-client suppression floors (and any persisted reply bodies) the
  /// previous incarnation left in the backend's metadata area, and
  /// enqueues updated floors before every freshly claimed at-most-once
  /// request executes (read-only ops excepted) -- the ordering that
  /// guarantees a post-restart duplicate of an executed transfer is
  /// dropped, never re-run.  Null backend: no-op.  Call once, from the
  /// server constructor, before start().
  ///
  /// Persists go through `committer`, the volume's group-commit flusher
  /// (required with a backend; UsageError otherwise): each floor write is
  /// enqueued as metadata on the current flush cycle (coalesced with every
  /// journal append and every other claim of the cycle) and is durable
  /// before the request's reply or any nested call leaves.
  void attach_durability(std::shared_ptr<storage::Backend> backend,
                         std::shared_ptr<storage::GroupCommitter> committer);

  /// Serialized per-client suppression state (src machine, client id,
  /// highest seq claimed, plus a bounded window of completed reply
  /// bodies); what attach_durability persists.  Thread-safe.
  [[nodiscard]] Buffer encode_reply_floors() const;

  /// Primes the cache with client entries from a previous incarnation's
  /// encode_reply_floors() image: floors always; completed replies where
  /// the image carries their bodies (those duplicates are re-answered
  /// instead of dropped).  Understands both the current body-carrying
  /// format and the floors-only image of earlier versions.  Malformed
  /// input is ignored.  Thread-safe, but intended for construction time.
  void restore_reply_floors(std::span<const std::uint8_t> floors);

  // ---- per-operation metrics (ROADMAP follow-up from PR 3) -------------

  /// Latency/error counters of one typed operation, keyed by
  /// OpInfo::name.  Readable remotely through std_info with the detail
  /// flag set (rpc/typed.hpp).
  struct OpMetricsSnapshot {
    std::string name;
    std::uint64_t calls = 0;      // handler executions (cache resends excluded)
    std::uint64_t errors = 0;     // replies with status != ok
    std::uint64_t total_us = 0;   // summed handler latency
    std::uint64_t max_us = 0;     // worst single handler latency
  };
  /// Snapshot in op-registration order.  Lock-free reads of relaxed
  /// atomics; safe while workers run.
  [[nodiscard]] std::vector<OpMetricsSnapshot> op_metrics() const;

  /// Installs the provider for the service's deployment line in detailed
  /// std_info replies (replication role, peers, lag).  Unset, info_detail()
  /// reports "role=standalone".  Call before start(); attach_durability
  /// installs one automatically when its backend is replicated.
  void set_info_detail(std::function<std::string()> provider);
  /// The current deployment line.  Safe while workers run: the provider
  /// reads its own thread-safe sources.
  [[nodiscard]] std::string info_detail() const;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] net::Machine& machine() { return *machine_; }
  /// Requests this service executed (handlers run + signature/filter
  /// refusals).  Duplicates suppressed by the reply cache do NOT count
  /// here; they are visible in reply_cache_stats().  Relaxed atomic read.
  [[nodiscard]] std::uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }
  /// Sub-requests unpacked from batch envelopes (each envelope also counts
  /// once in requests_served).  Relaxed atomic read.
  [[nodiscard]] std::uint64_t batched_requests() const {
    return batched_requests_.load(std::memory_order_relaxed);
  }

  /// One request processor: produces the reply message (status + payload;
  /// the loop fills in the destination from the request's reply port).
  /// Runs on worker threads; handlers guard any state they share.
  using Handler = std::function<net::Message(const net::Delivery&)>;

  /// Registers the handler for one opcode.  Must be called before start()
  /// (typically from the subclass constructor): the table is immutable
  /// while workers run, which is what lets dispatch read it without a
  /// lock.  Throws UsageError on duplicate registration or when running.
  /// Public so helpers (the shared owner-operation registrations) and
  /// table-driven services built without subclassing can use it.
  void on(std::uint16_t opcode, Handler handler);

  // ---- typed operation registration (defined in rpc/typed.hpp) --------
  // The declarative path: the dispatch layer decodes the request body,
  // validates the header capability against the op's declared rights
  // BEFORE the handler runs, encodes the reply, and maps Result errors to
  // statuses.  Including rpc/typed.hpp is required at the call site.

  /// Factory ops (op.object == false): no header capability, nothing to
  /// validate.  `handler`: (const Call<OpT>&) -> Outcome<OpT>.
  template <typename OpT, typename F>
    requires requires { typename OpT::Request; typename OpT::Reply; }
  void on(const OpT& op, F handler);

  /// Object ops.  When `handler` is (Call<OpT>&, Store::Opened&), the
  /// dispatcher opens the object with the op's declared rights and hands
  /// the handler the exclusive accessor (the common single-object shape).
  /// When it is (Call<OpT>&), the dispatcher validates rights via
  /// store.check() and the handler takes its own locks (open2 pair ops).
  template <typename OpT, typename Store, typename F>
    requires requires { typename OpT::Request; typename OpT::Reply; }
  void on(const OpT& op, Store& store, F handler);

  /// Every typed descriptor registered on this service, in registration
  /// order -- lets generic tests exercise any server without per-server
  /// case lists (and the docs/PROTOCOL.md consistency test verify the
  /// published opcode tables).  Immutable once workers run; lock-free.
  [[nodiscard]] const std::vector<OpInfo>& registered_ops() const {
    return typed_ops_;
  }

 protected:
  /// Processes one request and produces the reply message.  The default
  /// looks the opcode up in the on() table and replies no_such_operation
  /// for unknown opcodes; subclasses with dynamic dispatch needs may
  /// override it entirely.
  [[nodiscard]] virtual net::Message handle(const net::Delivery& request);

 private:
  /// Records a typed descriptor's metadata (called by the typed on()
  /// overloads after the raw registration validated the opcode).
  void note_op(OpInfo info);

  void run(std::stop_token stop, std::latch& ready);
  [[nodiscard]] net::Message handle_batch(const net::Delivery& request);
  [[nodiscard]] net::Message handle_one(const net::Delivery& request);

  // ---- duplicate-suppression internals (docs/PROTOCOL.md §5.3) --------

  /// One client's slice of the reply cache.  `replies` holds the states of
  /// its recent transactions ordered by seq; seqs at or below `floor` were
  /// evicted and are known stale (dropped without execution -- the
  /// at-most-once-safe answer for a seq we no longer remember).
  struct CachedReply {
    bool done = false;   // false: original still executing
    net::Message reply;  // valid once done (pre-filter, pre-dest form)
  };
  struct ClientEntry {
    std::map<std::uint64_t, CachedReply> replies;
    std::uint64_t floor = 0;
    std::uint64_t last_used = 0;   // LRU tick for client eviction
    std::size_t executing = 0;     // replies entries not yet done
  };
  /// Total client entries (live + floor-only tombstones) may reach
  /// kTombstoneFactor x max_clients before the LRU tombstone is erased
  /// outright -- the bound that keeps server memory finite against
  /// client-id churn (the id is a self-chosen wire field).
  static constexpr std::size_t kTombstoneFactor = 8;
  /// Clients are keyed by the UNFORGEABLE stamped source machine plus the
  /// self-chosen client id, so no machine can touch another's entries.
  struct ClientKey {
    std::uint32_t src = 0;
    std::uint64_t client = 0;
    friend bool operator==(const ClientKey&, const ClientKey&) = default;
  };
  struct ClientKeyHash {
    [[nodiscard]] std::size_t operator()(const ClientKey& k) const {
      return std::hash<std::uint64_t>{}(k.client ^
                                        (std::uint64_t{k.src} << 32));
    }
  };
  enum class DupVerdict {
    fresh,     // unseen seq, claimed as executing: run the handler
    drop,      // duplicate of an executing or evicted seq: say nothing
    resend,    // duplicate of a completed seq: cached reply copied out
  };
  /// Classifies one at-most-once request and, for `fresh`, claims its slot
  /// (marks it executing).  Fills `cached` on `resend`.  Holds only the
  /// owning stripe's lock; global-limit eviction runs after it drops.
  [[nodiscard]] DupVerdict claim_request(const net::Delivery& request,
                                         net::Message& cached);
  using ReplyCacheMap =
      std::unordered_map<ClientKey, ClientEntry, ClientKeyHash>;

  /// One stripe of the sharded reply cache; the stripe index is the
  /// client-key hash folded to kReplyCacheStripes.  Counters are
  /// per-stripe (summed for reply_cache_stats()).
  struct ReplyCacheStripe {
    mutable std::mutex mutex;
    ReplyCacheMap map;
    ReplyCacheStats counters;  // entries/clients fields derived on read
  };
  static constexpr std::size_t kReplyCacheStripes = 16;

  [[nodiscard]] ReplyCacheStripe& stripe_for(const ClientKey& key) const {
    return reply_cache_stripes_[ClientKeyHash{}(key) &
                                (kReplyCacheStripes - 1)];
  }
  /// Enforces the GLOBAL client cap / tombstone bound after a claim
  /// overflowed them: finds the least-recently-used eligible victim
  /// across all stripes (one stripe locked at a time) and demotes or
  /// erases it.  `excluded` protects the claiming client.
  void evict_reply_cache_client(const ClientKey& excluded,
                                bool want_tombstones);
  /// Publishes the reply of a claimed request and evicts beyond the
  /// per-client window; `persist_body` also adds it to the persisted
  /// image (false for read-only ops).
  void store_reply(const net::Delivery& request, const net::Message& reply,
                   bool persist_body);
  /// Advances the claiming client's persisted floor and enqueues the image
  /// on the attached committer, returning its ticket (called for every
  /// freshly claimed at-most-once request that is not read-only, BEFORE
  /// its handler runs -- write-ahead for the suppression state).  Update,
  /// encode, and enqueue happen under one mutex: persists are totally
  /// ordered and each contains all rows of every earlier one.  Nothing
  /// waits here: the floor is durable no later than the handler's effect
  /// (whose ticket is larger), and the request loop settles the ticket
  /// before the reply or any nested call leaves.
  [[nodiscard]] std::uint64_t persist_reply_floor(const ClientKey& key,
                                                  std::uint64_t seq);
  /// Adds one completed reply body to the client's persisted window and
  /// re-persists the image, best effort and WITHOUT waiting: the floor --
  /// durable since before the reply -- carries the never-twice
  /// guarantee; the body only upgrades a post-restart duplicate from
  /// "dropped" to "re-answered", so losing it to a crash is safe.
  void persist_reply_body(const ClientKey& key, std::uint64_t seq,
                          const net::Message& reply);
  /// Renders the suppression-state image; caller holds reply_floor_mutex_.
  [[nodiscard]] Buffer encode_reply_floors_locked() const;

  // ---- per-op state internals -----------------------------------------

  struct OpMetrics {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> errors{0};
    std::atomic<std::uint64_t> total_us{0};
    std::atomic<std::uint64_t> max_us{0};
  };
  /// What the request path needs of one typed op: whether its fresh
  /// claims skip the durable persists, and its metrics.
  struct OpState {
    bool read_only = false;
    OpMetrics metrics;
  };
  /// The typed op registered under `opcode`, or null (untyped handlers and
  /// batch envelopes).  Lock-free: the map is frozen at start().
  [[nodiscard]] OpState* op_state(std::uint16_t opcode) const;

  net::Machine* machine_;
  Port get_port_;
  std::string name_;
  std::vector<std::jthread> workers_;
  std::atomic<int> batch_fan_out_{1};
  std::atomic<std::uint64_t> requests_served_{0};
  std::atomic<std::uint64_t> batched_requests_{0};
  mutable std::mutex filter_mutex_;  // guards filter_ and signatures_
  std::shared_ptr<MessageFilter> filter_;
  std::vector<Port> allowed_signatures_;
  mutable std::mutex info_detail_mutex_;       // guards info_detail_
  std::function<std::string()> info_detail_;   // deployment-line provider
  // Floor persistence: the canonical suppression-state image is
  // maintained incrementally (O(1) per claim) and encoded+enqueued on the
  // committer under ONE mutex, so a later persist always contains every
  // earlier row -- a stale image can never overwrite a newer one (the
  // ordering §8.4's never-twice guarantee rests on).  Held only by
  // durable services.
  /// One client's persisted slice: its floor plus a bounded window of
  /// encoded completed reply bodies (seq -> wire-independent body image).
  struct PersistedClient {
    std::uint64_t floor = 0;
    std::map<std::uint64_t, Buffer> replies;
  };
  /// Persisted reply bodies per client; older ones age out of the image
  /// (their duplicates still drop via the floor).
  static constexpr std::size_t kPersistedRepliesPerClient = 8;
  /// Replies with bulk payloads beyond this are not persisted (their
  /// post-restart duplicates drop via the floor): the metadata image is
  /// rewritten whole per persist, so it must stay small.
  static constexpr std::size_t kPersistedReplyMaxBytes = 4096;
  mutable std::mutex reply_floor_mutex_;
  std::unordered_map<ClientKey, PersistedClient, ClientKeyHash>
      reply_floors_;
  /// Written once by attach_durability, then published by the flag (the
  /// persist paths read it only after an acquire load of the flag).
  std::shared_ptr<storage::GroupCommitter> reply_committer_;
  std::atomic<bool> reply_committer_set_{false};
  std::unordered_map<std::uint16_t, Handler> handlers_;  // frozen at start()
  std::vector<OpInfo> typed_ops_;                        // frozen at start()
  // Typed-op state keyed by opcode; the map is frozen at start() (the
  // counters inside stay hot), so dispatch reads it without a lock.
  std::unordered_map<std::uint16_t, std::unique_ptr<OpState>> op_states_;

  // Sharded reply cache.  Stripe locks are never held across a handler
  // (claim before, store after) nor across another stripe's lock; the
  // limits and occupancy totals are process-wide atomics.
  mutable std::array<ReplyCacheStripe, kReplyCacheStripes>
      reply_cache_stripes_;
  std::atomic<std::size_t> reply_cache_window_{128};
  std::atomic<std::size_t> reply_cache_max_clients_{4096};
  std::atomic<std::size_t> reply_cache_loaded_{0};   // clients with replies
  std::atomic<std::size_t> reply_cache_clients_{0};  // incl. tombstones
  std::atomic<std::uint64_t> reply_cache_tick_{0};   // LRU clock
};

}  // namespace amoeba::rpc
