#include "amoeba/rpc/server.hpp"

#include <algorithm>
#include <chrono>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "amoeba/common/error.hpp"
#include "amoeba/rpc/batch.hpp"
#include "amoeba/storage/backend.hpp"
#include "amoeba/storage/group_commit.hpp"
#include "amoeba/storage/replication/replicated_backend.hpp"
#include "pending_floor.hpp"

namespace amoeba::rpc {

namespace {
/// Metadata key the reply-cache suppression state persists under
/// (docs/PROTOCOL.md §8).
constexpr std::string_view kReplyFloorsKey = "reply-floors";
/// Leading magic of the body-carrying image ("RCV2").  The floors-only
/// image of earlier versions starts with its row count instead; the
/// magic's value is far above any plausible count, so the two parse
/// unambiguously.
constexpr std::uint32_t kReplyMetaMagic = 0x52435632u;

/// Serializes one completed reply in wire-independent form: everything a
/// re-send needs except the fields recomputed per transmission (dest,
/// opcode) or known from the persisted key (client, seq).
void encode_reply_body(const net::Message& reply, Writer& w) {
  w.u16(reply.header.flags);
  w.u16(static_cast<std::uint16_t>(reply.header.status));
  w.raw(reply.header.capability);
  for (const std::uint64_t p : reply.header.params) {
    w.u64(p);
  }
  w.bytes(reply.data);
}

[[nodiscard]] net::Message decode_reply_body(Reader& r, std::uint64_t client,
                                             std::uint64_t seq) {
  net::Message reply;
  reply.header.flags = r.u16();
  reply.header.status = static_cast<ErrorCode>(r.u16());
  r.raw(reply.header.capability);
  for (std::uint64_t& p : reply.header.params) {
    p = r.u64();
  }
  reply.data = r.bytes();
  reply.header.client = client;
  reply.header.seq = seq;
  return reply;
}
}  // namespace

Service::Service(net::Machine& machine, Port get_port, std::string name)
    : machine_(&machine), get_port_(get_port), name_(std::move(name)) {}

Service::~Service() { stop(); }

void Service::start(int workers) {
  if (!workers_.empty()) {
    throw UsageError("Service::start: already running");
  }
  if (workers < 1) {
    throw UsageError("Service::start: need at least one worker");
  }
  // Block until every worker has its GET registered, so a trans() issued
  // right after start() cannot race the registrations.
  std::latch ready(workers);
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back(
        [this, &ready](std::stop_token st) { run(st, ready); });
  }
  ready.wait();
}

void Service::stop() {
  for (auto& w : workers_) {
    w.request_stop();
  }
  workers_.clear();  // jthread destructor joins
}

void Service::rebind(net::Machine& machine) {
  if (!workers_.empty()) {
    throw UsageError("Service::rebind: stop the service first");
  }
  machine_ = &machine;
}

Port Service::put_port() const {
  return machine_->fbox().listen_port(get_port_);
}

void Service::set_filter(std::shared_ptr<MessageFilter> filter) {
  const std::lock_guard lock(filter_mutex_);
  filter_ = std::move(filter);
}

void Service::set_allowed_signatures(std::vector<Port> published_signatures) {
  const std::lock_guard lock(filter_mutex_);
  allowed_signatures_ = std::move(published_signatures);
}

void Service::set_batch_fan_out(int helpers) {
  if (helpers < 1) {
    throw UsageError("Service::set_batch_fan_out: need at least one helper");
  }
  batch_fan_out_.store(helpers, std::memory_order_relaxed);
}

void Service::on(std::uint16_t opcode, Handler handler) {
  if (!workers_.empty()) {
    throw UsageError("Service::on: register handlers before start()");
  }
  if (handler == nullptr) {
    throw UsageError("Service::on: null handler");
  }
  if (opcode == kBatchOpcode) {
    throw UsageError("Service::on: kBatchOpcode is reserved for envelopes");
  }
  if (!handlers_.emplace(opcode, std::move(handler)).second) {
    throw UsageError("Service::on: duplicate handler for opcode");
  }
}

void Service::note_op(OpInfo info) {
  auto state = std::make_unique<OpState>();
  state->read_only = info.read_only;
  op_states_.emplace(info.opcode, std::move(state));
  typed_ops_.push_back(std::move(info));
}

Service::OpState* Service::op_state(std::uint16_t opcode) const {
  const auto it = op_states_.find(opcode);
  return it != op_states_.end() ? it->second.get() : nullptr;
}

std::vector<Service::OpMetricsSnapshot> Service::op_metrics() const {
  std::vector<OpMetricsSnapshot> out;
  out.reserve(typed_ops_.size());
  for (const OpInfo& op : typed_ops_) {
    const OpState* state = op_state(op.opcode);
    if (state == nullptr) {
      continue;
    }
    const OpMetrics& m = state->metrics;
    out.push_back({op.name, m.calls.load(std::memory_order_relaxed),
                   m.errors.load(std::memory_order_relaxed),
                   m.total_us.load(std::memory_order_relaxed),
                   m.max_us.load(std::memory_order_relaxed)});
  }
  return out;
}

// ------------------------------------------------------- at-most-once cache

Service::ReplyCacheStats Service::reply_cache_stats() const {
  ReplyCacheStats stats;
  for (const ReplyCacheStripe& stripe : reply_cache_stripes_) {
    const std::lock_guard lock(stripe.mutex);
    stats.duplicates_suppressed += stripe.counters.duplicates_suppressed;
    stats.replies_resent += stripe.counters.replies_resent;
    stats.evicted_entries += stripe.counters.evicted_entries;
    stats.evicted_clients += stripe.counters.evicted_clients;
    stats.clients += stripe.map.size();
    for (const auto& [key, entry] : stripe.map) {
      stats.entries += entry.replies.size();
    }
  }
  return stats;
}

void Service::set_reply_cache_limits(std::size_t window_per_client,
                                     std::size_t max_clients) {
  reply_cache_window_.store(window_per_client, std::memory_order_relaxed);
  reply_cache_max_clients_.store(max_clients, std::memory_order_relaxed);
}

void Service::flush_reply_cache() {
  for (ReplyCacheStripe& stripe : reply_cache_stripes_) {
    const std::lock_guard lock(stripe.mutex);
    for (const auto& [key, entry] : stripe.map) {
      stripe.counters.evicted_entries += entry.replies.size();
    }
    stripe.counters.evicted_clients += stripe.map.size();
    reply_cache_clients_.fetch_sub(stripe.map.size(),
                                   std::memory_order_relaxed);
    stripe.map.clear();
  }
  reply_cache_loaded_.store(0, std::memory_order_relaxed);
}

void Service::evict_reply_cache_client(const ClientKey& excluded,
                                       bool want_tombstones) {
  // Phase 1: global LRU scan, one stripe locked at a time (eviction is
  // the rare overflow path; the request path never holds two stripes).
  bool found = false;
  ClientKey victim_key{};
  std::uint64_t victim_used = 0;
  std::size_t victim_stripe = 0;
  for (std::size_t s = 0; s < kReplyCacheStripes; ++s) {
    const ReplyCacheStripe& stripe = reply_cache_stripes_[s];
    const std::lock_guard lock(stripe.mutex);
    for (const auto& [key, entry] : stripe.map) {
      if (key == excluded || entry.replies.empty() != want_tombstones) {
        continue;
      }
      if (!want_tombstones && entry.executing != 0) {
        continue;
      }
      if (!found || entry.last_used < victim_used) {
        found = true;
        victim_key = key;
        victim_used = entry.last_used;
        victim_stripe = s;
      }
    }
  }
  if (!found) {
    return;
  }
  // Phase 2: re-lock the victim's stripe and re-verify eligibility (it
  // may have been touched between the scans; a stale pick is skipped and
  // the next overflow retries).
  ReplyCacheStripe& stripe = reply_cache_stripes_[victim_stripe];
  const std::lock_guard lock(stripe.mutex);
  const auto it = stripe.map.find(victim_key);
  if (it == stripe.map.end() ||
      it->second.replies.empty() != want_tombstones) {
    return;
  }
  ClientEntry& victim = it->second;
  if (want_tombstones) {
    // Tombstone pool bound: header.client is a self-chosen field, so an
    // id-churning peer must not grow the map without limit (see
    // PROTOCOL.md §5.4 for what erasing the floor forgets).
    ++stripe.counters.evicted_clients;
    stripe.map.erase(it);
    reply_cache_clients_.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  if (victim.executing != 0) {
    return;
  }
  // Demotion drops the cached replies -- the heavy part -- but KEEPS the
  // entry as a floor tombstone, so duplicates of the evicted transactions
  // still drop silently instead of re-executing (the at-most-once
  // guarantee survives eviction; see docs/PROTOCOL.md §5.4).
  stripe.counters.evicted_entries += victim.replies.size();
  ++stripe.counters.evicted_clients;
  victim.floor = std::max(victim.floor, victim.replies.rbegin()->first);
  victim.replies.clear();
  reply_cache_loaded_.fetch_sub(1, std::memory_order_relaxed);
}

Service::DupVerdict Service::claim_request(const net::Delivery& request,
                                           net::Message& cached) {
  const ClientKey key{request.src.value(), request.message.header.client};
  const std::uint64_t seq = request.message.header.seq;
  if (reply_cache_window_.load(std::memory_order_relaxed) == 0) {
    return DupVerdict::fresh;  // suppression disabled: execute everything
  }
  const std::size_t max_clients =
      reply_cache_max_clients_.load(std::memory_order_relaxed);
  bool evict_tombstone = false;
  bool evict_client = false;
  DupVerdict verdict = DupVerdict::fresh;
  {
    ReplyCacheStripe& stripe = stripe_for(key);
    const std::lock_guard lock(stripe.mutex);
    const auto [self, created] = stripe.map.try_emplace(key);
    ClientEntry& entry = self->second;
    entry.last_used =
        reply_cache_tick_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (created) {
      const std::size_t clients =
          reply_cache_clients_.fetch_add(1, std::memory_order_relaxed) + 1;
      evict_tombstone =
          max_clients != 0 && clients > kTombstoneFactor * max_clients;
    }
    // Replies are consulted BEFORE the floor: a reply body restored from
    // the volume after a restart sits at or below the recovered floor,
    // and must be re-sent, not dropped.
    if (const auto it = entry.replies.find(seq); it != entry.replies.end()) {
      ++stripe.counters.duplicates_suppressed;
      if (!it->second.done) {
        verdict = DupVerdict::drop;  // original still executing on a worker
      } else {
        ++stripe.counters.replies_resent;
        cached = it->second.reply;
        verdict = DupVerdict::resend;
      }
    } else if (seq <= entry.floor) {
      // Evicted region (or a pre-restart transaction whose floor was
      // recovered from the volume and whose body was not): the original
      // may or may not have executed, so the only at-most-once-safe
      // answer is silence (the client times out).
      ++stripe.counters.duplicates_suppressed;
      verdict = DupVerdict::drop;
    } else {
      if (entry.replies.empty()) {
        const std::size_t loaded =
            reply_cache_loaded_.fetch_add(1, std::memory_order_relaxed) + 1;
        evict_client = max_clients != 0 && loaded > max_clients;
      }
      entry.replies.emplace(seq, CachedReply{});  // claimed: executing
      ++entry.executing;
    }
  }
  // Global-limit enforcement runs OUTSIDE the stripe lock (the victim may
  // live on any stripe; two stripe locks are never held together).
  if (evict_tombstone) {
    evict_reply_cache_client(key, /*want_tombstones=*/true);
  }
  if (evict_client) {
    evict_reply_cache_client(key, /*want_tombstones=*/false);
  }
  return verdict;
}

void Service::store_reply(const net::Delivery& request,
                          const net::Message& reply, bool persist_body) {
  const ClientKey key{request.src.value(), request.message.header.client};
  const std::uint64_t seq = request.message.header.seq;
  bool published = false;
  {
    ReplyCacheStripe& stripe = stripe_for(key);
    const std::lock_guard lock(stripe.mutex);
    const auto cit = stripe.map.find(key);
    if (cit == stripe.map.end()) {
      return;  // flushed or evicted while the handler ran
    }
    auto& entry = cit->second;
    const auto rit = entry.replies.find(seq);
    if (rit == entry.replies.end()) {
      return;
    }
    if (!rit->second.done && entry.executing > 0) {
      --entry.executing;
    }
    rit->second.done = true;
    rit->second.reply = reply;
    published = true;
    // Per-client window: age out the oldest COMPLETED transactions (an
    // executing one blocks the sweep; the window may briefly overshoot).
    const std::size_t window =
        reply_cache_window_.load(std::memory_order_relaxed);
    while (entry.replies.size() > window &&
           entry.replies.begin()->second.done) {
      entry.floor = std::max(entry.floor, entry.replies.begin()->first);
      entry.replies.erase(entry.replies.begin());
      ++stripe.counters.evicted_entries;
    }
  }
  if (published && persist_body) {
    // Outside the stripe lock: the persisted image has its own mutex and
    // the two are never held together.
    persist_reply_body(key, seq, reply);
  }
}

// --------------------------------------------- durable restart (floors)

Buffer Service::encode_reply_floors_locked() const {
  Writer w;
  w.u32(kReplyMetaMagic);
  w.u32(static_cast<std::uint32_t>(reply_floors_.size()));
  for (const auto& [key, row] : reply_floors_) {
    w.u32(key.src);
    w.u64(key.client);
    w.u64(row.floor);
    w.u32(static_cast<std::uint32_t>(row.replies.size()));
    for (const auto& [seq, body] : row.replies) {
      w.u64(seq);
      w.bytes(body);
    }
  }
  return w.take();
}

Buffer Service::encode_reply_floors() const {
  const std::lock_guard lock(reply_floor_mutex_);
  return encode_reply_floors_locked();
}

void Service::restore_reply_floors(std::span<const std::uint8_t> floors) {
  if (floors.empty()) {
    return;
  }
  Reader r(floors);
  std::uint32_t count = r.u32();
  const bool with_bodies = count == kReplyMetaMagic;
  if (with_bodies) {
    count = r.u32();  // the magic-led image puts its row count second
  }
  for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
    ClientKey key{};
    key.src = r.u32();
    key.client = r.u64();
    const std::uint64_t floor = r.u64();
    std::vector<std::pair<std::uint64_t, Buffer>> bodies;
    if (with_bodies) {
      const std::uint32_t nbodies = r.u32();
      for (std::uint32_t b = 0; b < nbodies && r.ok(); ++b) {
        const std::uint64_t seq = r.u64();
        Buffer body = r.bytes();
        if (r.ok()) {
          bodies.emplace_back(seq, std::move(body));
        }
      }
    }
    if (!r.ok() || (floor == 0 && bodies.empty())) {
      continue;
    }
    {
      ReplyCacheStripe& stripe = stripe_for(key);
      const std::lock_guard lock(stripe.mutex);
      const auto [it, created] = stripe.map.try_emplace(key);
      ClientEntry& entry = it->second;
      entry.floor = std::max(entry.floor, floor);
      entry.last_used =
          reply_cache_tick_.fetch_add(1, std::memory_order_relaxed) + 1;
      if (created) {
        reply_cache_clients_.fetch_add(1, std::memory_order_relaxed);
      }
      const bool was_empty = entry.replies.empty();
      for (const auto& [seq, body] : bodies) {
        Reader body_reader(body);
        net::Message reply = decode_reply_body(body_reader, key.client, seq);
        if (!body_reader.ok()) {
          continue;  // malformed body: its duplicate drops via the floor
        }
        entry.replies.insert_or_assign(
            seq, CachedReply{/*done=*/true, std::move(reply)});
      }
      if (was_empty && !entry.replies.empty()) {
        reply_cache_loaded_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    const std::lock_guard lock(reply_floor_mutex_);
    PersistedClient& row = reply_floors_[key];
    row.floor = std::max(row.floor, floor);
    for (auto& [seq, body] : bodies) {
      row.replies.insert_or_assign(seq, std::move(body));
    }
    while (row.replies.size() > kPersistedRepliesPerClient) {
      row.replies.erase(row.replies.begin());
    }
  }
}

std::uint64_t Service::persist_reply_floor(const ClientKey& key,
                                          std::uint64_t seq) {
  // One mutex covers update + encode + enqueue: persists are totally
  // ordered, so a slower thread can never overwrite a newer image with a
  // stale one (the §8.4 never-twice ordering).  Concurrent claims pile
  // their floors into the same flush cycle (the committer coalesces the
  // per-key images; the newest -- containing every row here -- wins).
  const std::lock_guard lock(reply_floor_mutex_);
  PersistedClient& row = reply_floors_[key];
  row.floor = std::max(row.floor, seq);
  return reply_committer_->enqueue_meta(kReplyFloorsKey,
                                        encode_reply_floors_locked());
}

void Service::persist_reply_body(const ClientKey& key, std::uint64_t seq,
                                 const net::Message& reply) {
  if (!reply_committer_set_.load(std::memory_order_acquire)) {
    return;
  }
  if (reply.data.size() > kPersistedReplyMaxBytes) {
    return;  // too big for the rewritten-whole metadata image
  }
  Writer body;
  encode_reply_body(reply, body);
  const std::lock_guard lock(reply_floor_mutex_);
  PersistedClient& row = reply_floors_[key];
  row.replies.insert_or_assign(seq, body.take());
  while (row.replies.size() > kPersistedRepliesPerClient) {
    row.replies.erase(row.replies.begin());
  }
  // Best effort: no durability wait (see the header comment) -- the
  // enqueue rides whatever flush cycle comes next.
  (void)reply_committer_->enqueue_meta(kReplyFloorsKey,
                                       encode_reply_floors_locked());
}

void Service::set_info_detail(std::function<std::string()> provider) {
  const std::lock_guard lock(info_detail_mutex_);
  info_detail_ = std::move(provider);
}

std::string Service::info_detail() const {
  std::function<std::string()> provider;
  {
    const std::lock_guard lock(info_detail_mutex_);
    provider = info_detail_;
  }
  return provider != nullptr ? provider() : std::string("role=standalone");
}

void Service::attach_durability(
    std::shared_ptr<storage::Backend> backend,
    std::shared_ptr<storage::GroupCommitter> committer) {
  if (backend == nullptr) {
    return;
  }
  if (committer == nullptr) {
    throw UsageError(
        "Service::attach_durability: reply floors persist through the "
        "volume's group committer; none was given");
  }
  // A replicated volume makes this service a replication primary: publish
  // the role, peer count and shipping lag through std_info's detail line
  // (docs/PROTOCOL.md §9.5).  A group committer likewise publishes its
  // flush-pipeline counters (docs/PROTOCOL.md §8.5) -- under an async
  // backend these are the observable proof that submissions are riding the
  // ring (gc.sqe grows) rather than blocking the flusher.  The shared_ptrs
  // keep the decorator/committer alive as long as the provider.
  const auto replicated =
      std::dynamic_pointer_cast<storage::ReplicatedBackend>(backend);
  set_info_detail([replicated, committer] {
    std::string line;
    if (replicated != nullptr) {
      replicated->heartbeat();  // refresh acked floors before reporting
      const storage::ReplicatedBackend::Stats stats = replicated->stats();
      line = "role=primary mode=";
      line += to_string(stats.mode);
      line += " peers=" + std::to_string(stats.peers.size());
      line += " shipped=" + std::to_string(stats.shipped_lsn);
      for (const auto& peer : stats.peers) {
        line += " " + peer.name +
                ".lag=" + std::to_string(stats.shipped_lsn - peer.acked_lsn);
      }
    } else {
      line = "role=standalone";
    }
    const storage::GroupCommitter::Stats gc = committer->stats();
    line += " gc.groups=" + std::to_string(gc.groups);
    line += " gc.inflight=" + std::to_string(gc.inflight_cycles);
    line += " gc.sqe=" + std::to_string(gc.sqe_submitted);
    line += " gc.cqe=" + std::to_string(gc.cqe_completed);
    line += " gc.linger_us=" + std::to_string(gc.linger_us_current);
    return line;
  });
  restore_reply_floors(backend->get_meta(kReplyFloorsKey));
  reply_committer_ = std::move(committer);
  reply_committer_set_.store(true, std::memory_order_release);
}

net::Message Service::handle(const net::Delivery& request) {
  // The table is frozen once workers run (on() rejects late registration),
  // so this lookup is lock-free and race-free.
  const auto it = handlers_.find(request.message.header.opcode);
  if (it == handlers_.end()) {
    return net::make_reply(request.message, ErrorCode::no_such_operation);
  }
  return it->second(request);
}

net::Message Service::handle_one(const net::Delivery& request) {
  // Per-op metrics: the map is frozen at start(), so the lookup is
  // lock-free; only typed ops (registered through note_op) are timed.
  OpState* const state = op_state(request.message.header.opcode);
  OpMetrics* const metrics = state != nullptr ? &state->metrics : nullptr;
  const auto started = metrics != nullptr
                           ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point{};
  net::Message reply;
  try {
    reply = handle(request);
  } catch (const std::exception&) {
    // A handler failure (bad_alloc on an oversized request, a violated
    // precondition) must not take the whole service process down; the
    // offending client gets the invariant-failure status instead.
    reply = net::make_reply(request.message, ErrorCode::internal);
  }
  if (storage::take_release_failure()) {
    // A store release found the volume failed: the effect ran in memory
    // but is not durable, so the handler's answer must not reach the
    // client as if it were.
    reply = net::make_reply(request.message, ErrorCode::internal);
  }
  if (metrics != nullptr) {
    const auto elapsed_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - started)
            .count());
    metrics->calls.fetch_add(1, std::memory_order_relaxed);
    if (reply.header.status != ErrorCode::ok) {
      metrics->errors.fetch_add(1, std::memory_order_relaxed);
    }
    metrics->total_us.fetch_add(elapsed_us, std::memory_order_relaxed);
    std::uint64_t seen = metrics->max_us.load(std::memory_order_relaxed);
    while (elapsed_us > seen &&
           !metrics->max_us.compare_exchange_weak(
               seen, elapsed_us, std::memory_order_relaxed)) {
    }
  }
  return reply;
}

net::Message Service::handle_batch(const net::Delivery& request) {
  auto subs = decode_batch_request(request.message.data);
  if (!subs.has_value()) {
    return net::make_reply(request.message, ErrorCode::invalid_argument);
  }
  batched_requests_.fetch_add(subs->size(), std::memory_order_relaxed);
  std::vector<BatchReply> replies(subs->size());
  const auto process = [&](std::size_t i) {
    BatchRequest& sub = (*subs)[i];
    net::Delivery sub_request;
    sub_request.src = request.src;
    sub_request.message.header.dest = request.message.header.dest;
    sub_request.message.header.opcode = sub.opcode;
    sub_request.message.header.signature = request.message.header.signature;
    sub_request.message.header.capability = sub.capability;
    sub_request.message.header.params = sub.params;
    sub_request.message.data = std::move(sub.data);
    net::Message sub_reply;
    if (sub.opcode == kBatchOpcode) {
      // No nested envelopes: unbounded recursion for no amortization win.
      sub_reply =
          net::make_reply(sub_request.message, ErrorCode::invalid_argument);
    } else {
      sub_reply = handle_one(sub_request);
    }
    replies[i] = BatchReply{sub_reply.header.status,
                            sub_reply.header.capability,
                            sub_reply.header.params,
                            std::move(sub_reply.data)};
  };
  const std::size_t fan_out =
      std::min<std::size_t>(
          static_cast<std::size_t>(
              batch_fan_out_.load(std::memory_order_relaxed)),
          subs->size());
  if (fan_out <= 1) {
    for (std::size_t i = 0; i < subs->size(); ++i) {
      process(i);
    }
  } else {
    // Strided fan-out across transient helpers; handlers are already safe
    // under multi-worker concurrency, so this adds parallelism, not risk.
    // The helpers do not carry this worker's pending floor, so it settles
    // here: no sub-handler's nested call may leave ahead of it.
    if (!detail::settle_pending_floor()) {
      return net::make_reply(request.message, ErrorCode::internal);
    }
    std::vector<std::jthread> helpers;
    helpers.reserve(fan_out);
    for (std::size_t h = 0; h < fan_out; ++h) {
      helpers.emplace_back([&, h] {
        for (std::size_t i = h; i < replies.size(); i += fan_out) {
          process(i);
        }
      });
    }
  }
  net::Message reply = net::make_reply(request.message, ErrorCode::ok);
  reply.header.flags |= net::kFlagBatch;
  reply.data = encode_batch(replies);
  return reply;
}

void Service::run(std::stop_token stop, std::latch& ready) {
  // GET(G): the registration lives on this worker's stack, so a stopping
  // worker withdraws its F-box registration on exit.
  net::Receiver receiver = machine_->listen(get_port_);
  ready.count_down();
  while (!stop.stop_requested()) {
    auto delivery = receiver.receive(stop);
    if (!delivery.has_value()) {
      break;  // stop requested or mailbox closed
    }
    std::shared_ptr<MessageFilter> filter;
    std::vector<Port> allowed_signatures;
    {
      const std::lock_guard lock(filter_mutex_);
      filter = filter_;
      allowed_signatures = allowed_signatures_;
    }
    net::Message reply;
    bool executed = true;      // false: duplicate answered from the cache
    bool cache_reply = false;  // true: claimed fresh, publish after handling
    bool persist = false;      // true: the claim's floor and body persist
    if (!allowed_signatures.empty() &&
        std::find(allowed_signatures.begin(), allowed_signatures.end(),
                  delivery->message.header.signature) ==
            allowed_signatures.end()) {
      // Sender authentication (§2.2): only the true owner of S can make
      // the published F(S) appear here -- his F-box computes it from the
      // secret; an intruder submitting the observed F(S) ends up with
      // F(F(S)) on the wire.
      reply = net::make_reply(delivery->message, ErrorCode::permission_denied);
    } else if (filter != nullptr &&
               !filter->incoming(delivery->message, delivery->src)) {
      reply = net::make_reply(delivery->message, ErrorCode::unsealing_failed);
    } else {
      // Duplicate suppression runs after the signature and filter gates:
      // a frame replayed from the wrong machine can neither poison nor
      // read the cache (and the cache is keyed by the stamped source
      // machine on top of that).
      // seq 0 is malformed under the spec (sequences start at 1); such a
      // frame is served WITHOUT at-most-once semantics rather than
      // swallowed by the floor check.
      const bool at_most_once =
          (delivery->message.header.flags & net::kFlagAtMostOnce) != 0 &&
          delivery->message.header.client != 0 &&
          delivery->message.header.seq != 0;
      if (at_most_once) {
        switch (claim_request(*delivery, reply)) {
          case DupVerdict::drop:
            continue;  // executing elsewhere or evicted: say nothing
          case DupVerdict::resend:
            executed = false;  // cached reply already copied into `reply`
            break;
          case DupVerdict::fresh: {
            cache_reply = true;
            // A read-only op has no effect to guard: re-running it after a
            // restart is indistinguishable from answering its duplicate,
            // so its claim stays in memory (§8.4).
            const OpState* state = op_state(delivery->message.header.opcode);
            persist = state == nullptr || !state->read_only;
            if (!persist ||
                !reply_committer_set_.load(std::memory_order_acquire)) {
              break;
            }
            if (reply_committer_->failed()) {
              // The volume refuses durability -- a failed flush, or a
              // fenced deposed primary (§9.4).  No floor can become
              // durable, so nothing new executes; the client hears the
              // truth.
              reply = net::make_reply(delivery->message, ErrorCode::internal);
              executed = false;
              cache_reply = false;
              break;
            }
            // Write-ahead for the suppression state without a wait of its
            // own: the floor is enqueued before the handler can journal
            // any effect, so the effect's cycle is the floor's or a later
            // one and a crash image never holds the effect without the
            // floor.  The handler's own durable release therefore covers
            // it; the settle below (and before any nested call) covers
            // handlers that journal nothing.
            detail::t_pending_floor = {
                reply_committer_.get(),
                persist_reply_floor(
                    ClientKey{delivery->src.value(),
                              delivery->message.header.client},
                    delivery->message.header.seq)};
            break;
          }
        }
      }
      if (executed) {
        reply = delivery->message.header.opcode == kBatchOpcode
                    ? handle_batch(*delivery)
                    : handle_one(*delivery);
        // The floor is durable before the reply is published or sent:
        // nearly always already true, since the handler's release waited
        // for a later ticket.
        if (!detail::settle_pending_floor()) {
          reply = net::make_reply(delivery->message, ErrorCode::internal);
        }
        detail::t_pending_floor = {};
        if (cache_reply) {
          // Cached in pre-dest, pre-filter form; a re-send recomputes the
          // destination from the duplicate and re-seals per transmission.
          store_reply(*delivery, reply, persist);
        }
      }
    }
    if (executed) {
      requests_served_.fetch_add(1, std::memory_order_relaxed);
    }
    const Port reply_port = delivery->message.header.reply;
    if (reply_port.is_null()) {
      continue;  // one-way request
    }
    reply.header.dest = reply_port;
    reply.header.opcode = delivery->message.header.opcode;
    if (filter != nullptr) {
      filter->outgoing(reply, delivery->src);
    }
    // Reply straight to the stamped source machine; no locate needed.
    machine_->transmit(std::move(reply), delivery->src);
  }
}

}  // namespace amoeba::rpc
