#include "amoeba/rpc/transport.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>
#include <vector>

#include "pending_floor.hpp"

namespace amoeba::rpc {

using Clock = std::chrono::steady_clock;

namespace {
/// Process-wide transport nonce.  Server reply caches key on
/// (machine, client id), so two transports must never share an id --
/// including a transport recreated with the SAME machine and seed (the
/// RNG alone would then reproduce the old id and the old seq stream, and
/// a surviving server would answer the new transport's first transactions
/// from the old one's cached replies).  The counter makes ids distinct by
/// construction; the RNG spreads them.
std::atomic<std::uint64_t> next_transport_nonce{1};
}  // namespace

// ------------------------------------------------------------------- Future

bool Future::ready() const {
  if (state_ == nullptr) {
    return false;
  }
  const std::lock_guard lock(state_->mutex);
  return state_->outcome.has_value();
}

Result<net::Delivery> Future::get(std::stop_token stop) {
  if (state_ == nullptr) {
    throw UsageError("Future::get: invalid (empty or already consumed)");
  }
  const auto state = std::move(state_);
  std::unique_lock lock(state->mutex);
  if (!state->cv.wait(lock, stop,
                      [&] { return state->outcome.has_value(); })) {
    return ErrorCode::timeout;  // stop requested before completion
  }
  return std::move(*state->outcome);
}

bool Future::wait_for(std::chrono::milliseconds timeout) const {
  if (state_ == nullptr) {
    return false;
  }
  std::unique_lock lock(state_->mutex);
  return state_->cv.wait_for(lock, timeout,
                             [&] { return state_->outcome.has_value(); });
}

// ---------------------------------------------------------------- Transport

Transport::Transport(net::Machine& machine, std::uint64_t seed)
    : machine_(machine),
      rng_(seed ^ machine.id().value()),
      replies_(std::make_shared<net::Mailbox>(
          [this](net::Delivery delivery) { settle(std::move(delivery)); })),
      pump_wakes_at_(Clock::time_point::max()),
      pump_([this](std::stop_token st) { pump(st); }) {
  // The at-most-once client identity: nonzero (0 on the wire means "no
  // at-most-once semantics"), unique among all transports of this process
  // by the nonce, randomly spread by the seed.  Splitmix's odd constant
  // keeps distinct nonces distinct after the multiply.
  const std::uint64_t nonce =
      next_transport_nonce.fetch_add(1, std::memory_order_relaxed);
  do {
    client_id_ = rng_.bits(64) ^ (nonce * 0x9E3779B97F4A7C15ull);
  } while (client_id_ == 0);
}

Transport::~Transport() {
  // Closing the reply mailbox waits out every settle already running on a
  // delivering thread and stops new ones, so none outlives the transport.
  replies_->close();
  pump_.request_stop();  // the stop callback wakes the timer wait
  pump_.join();
  // Fail whatever is still in flight so no Future::get blocks forever.
  std::vector<Pending> leftovers;
  {
    const std::lock_guard lock(pending_mutex_);
    leftovers.reserve(pending_.size());
    for (auto& [port, pending] : pending_) {
      leftovers.push_back(std::move(pending));
    }
    pending_.clear();
  }
  for (auto& pending : leftovers) {
    complete(pending, ErrorCode::timeout);
  }
}

void Transport::set_retransmit(std::chrono::milliseconds initial,
                               std::chrono::milliseconds cap) {
  if (initial.count() < 0 || cap < initial) {
    throw UsageError("Transport::set_retransmit: need 0 <= initial <= cap");
  }
  retransmit_initial_ms_.store(initial.count(), std::memory_order_relaxed);
  retransmit_cap_ms_.store(cap.count(), std::memory_order_relaxed);
}

void Transport::set_signature(Port signature_get_port) {
  const std::lock_guard lock(mutex_);
  signature_ = signature_get_port;
}

void Transport::set_filter(std::shared_ptr<MessageFilter> filter) {
  const std::lock_guard lock(mutex_);
  filter_ = std::move(filter);
}

std::chrono::milliseconds Transport::adaptive_rto_locked() const {
  const auto floor = retransmit_initial();
  if (floor.count() == 0 || stats_.rtt_samples == 0) {
    return floor;  // disabled, or no sample yet: the configured seed
  }
  const std::uint64_t rto_us = stats_.srtt_us + 4 * stats_.rttvar_us;
  const auto rto = std::chrono::milliseconds((rto_us + 999) / 1000);
  return std::clamp(rto, floor, retransmit_cap());
}

void Transport::record_rtt_locked(std::chrono::microseconds sample) {
  // Jacobson/Karels in integer microseconds: srtt += err/8,
  // rttvar += (|err| - rttvar)/4.
  const auto us = static_cast<std::int64_t>(sample.count());
  auto srtt = static_cast<std::int64_t>(stats_.srtt_us);
  auto rttvar = static_cast<std::int64_t>(stats_.rttvar_us);
  if (stats_.rtt_samples == 0) {
    srtt = us;
    rttvar = us / 2;
  } else {
    const std::int64_t err = us - srtt;
    srtt += err / 8;
    rttvar += (std::abs(err) - rttvar) / 4;
  }
  stats_.srtt_us = static_cast<std::uint64_t>(std::max<std::int64_t>(srtt, 0));
  stats_.rttvar_us =
      static_cast<std::uint64_t>(std::max<std::int64_t>(rttvar, 0));
  ++stats_.rtt_samples;
}

Transport::Stats Transport::stats() const {
  const std::lock_guard lock(mutex_);
  Stats snapshot = stats_;
  snapshot.rto_ms =
      static_cast<std::uint64_t>(adaptive_rto_locked().count());
  return snapshot;
}

std::size_t Transport::in_flight() const {
  const std::lock_guard lock(pending_mutex_);
  return pending_.size();
}

void Transport::flush_cache() {
  const std::lock_guard lock(mutex_);
  cache_.clear();
}

std::optional<Transport::CacheEntry> Transport::resolve(Port put_port) {
  std::unique_lock lock(mutex_);
  for (;;) {
    auto it = cache_.find(put_port);
    if (it != cache_.end()) {
      ++stats_.cache_hits;
      return it->second;
    }
    if (!locating_.contains(put_port)) {
      break;
    }
    // Single-flight: another thread is already broadcasting a LOCATE for
    // this port; ride its answer instead of adding to the storm.
    locate_cv_.wait(lock);
  }
  ++stats_.cache_misses;
  locating_.insert(put_port);
  lock.unlock();
  const auto located = machine_.locate(put_port);
  lock.lock();
  locating_.erase(put_port);
  std::optional<CacheEntry> result;
  if (located.has_value()) {
    const CacheEntry entry{*located, ++next_generation_};
    cache_[put_port] = entry;
    result = entry;
  }
  locate_cv_.notify_all();
  return result;
}

void Transport::invalidate(Port put_port, std::uint64_t generation) {
  const std::lock_guard lock(mutex_);
  auto it = cache_.find(put_port);
  // Generation guard: when many in-flight transactions resolved through
  // one stale entry, only the first rejected frame evicts it; the rest
  // find a newer (or absent) entry and simply re-resolve.
  if (it != cache_.end() && it->second.generation == generation) {
    cache_.erase(it);
    ++stats_.cache_invalidations;
  }
}

Future Transport::trans_async(net::Message request,
                              std::chrono::milliseconds timeout) {
  auto state = std::make_shared<Future::State>();
  Future future(state);
  // A nested call from a service worker leaves only once the reply floor
  // of the request being served is durable (docs/PROTOCOL.md §8.4); if the
  // volume failed first, the call fails here and its effect never leaves.
  if (!detail::settle_pending_floor()) {
    state->outcome = Result<net::Delivery>(ErrorCode::internal);
    return future;
  }

  // One lock hold covers the per-transaction bookkeeping: stats, the
  // signature/filter snapshot, the at-most-once (client, seq) stamp, the
  // one-shot port draw, and a fast-path probe of the location cache (the
  // hot path never takes mutex_ twice).
  std::shared_ptr<MessageFilter> filter;
  Port reply_get_port;
  std::optional<CacheEntry> fast_dst;
  std::chrono::milliseconds backoff{0};
  {
    const std::lock_guard lock(mutex_);
    ++stats_.transactions;
    filter = filter_;
    request.header.signature = signature_;
    request.header.client = client_id_;
    request.header.seq = ++next_seq_;
    request.header.flags |= net::kFlagAtMostOnce;
    // RTT-seeded first-retransmit interval (floor = configured initial).
    backoff = adaptive_rto_locked();
    do {
      reply_get_port = Port(rng_.bits(Port::kBits));
    } while (reply_get_port.is_null());
    auto it = cache_.find(request.header.dest);
    if (it != cache_.end()) {
      ++stats_.cache_hits;
      fast_dst = it->second;
    }
  }

  // One-shot reply registration into the shared reply mailbox, whose sink
  // settles on the delivering thread.  Registered in the completion
  // registry BEFORE the frame goes out, so a reply cannot beat its own
  // bookkeeping.
  const auto now = Clock::now();
  const auto deadline = now + timeout;
  const auto next_send =
      backoff.count() > 0 ? now + backoff : Clock::time_point::max();
  Port registry_key;
  bool registered = false;
  bool wake_pump = false;
  for (int attempt = 0; attempt < 4 && !registered; ++attempt) {
    if (attempt > 0) {
      const std::lock_guard lock(mutex_);
      do {
        reply_get_port = Port(rng_.bits(Port::kBits));
      } while (reply_get_port.is_null());
    }
    net::Receiver receiver = machine_.listen(reply_get_port, replies_);
    registry_key = receiver.put_port();
    request.header.reply = reply_get_port;  // final once registered
    Pending pending{state,     std::move(receiver), deadline, {},
                    next_send, backoff,             now,      false};
    if (backoff.count() > 0) {
      pending.request = request;  // the copy the pump retransmits from
    }
    const std::lock_guard lock(pending_mutex_);
    if (pending_.contains(registry_key)) {
      continue;  // 2^-48 one-shot port collision: redraw
    }
    pending_.emplace(registry_key, std::move(pending));
    // Only an event earlier than the pump's next scheduled wake needs a
    // notify; later ones are picked up when it recomputes anyway.
    const auto wake_at = std::min(deadline, next_send);
    wake_pump = wake_at < pump_wakes_at_;
    if (wake_pump) {
      pump_wakes_at_ = wake_at;
    }
    registered = true;
  }
  if (!registered) {
    Pending failed{state, net::Receiver(),          deadline, {},
                   Clock::time_point::max(), {},    now,      false};
    complete(failed, ErrorCode::internal);
    return future;
  }
  if (wake_pump) {
    pump_cv_.notify_one();
  }

  const bool sent = send_request(request, filter, std::move(fast_dst));
  if (!sent) {
    // The reply can never come: withdraw the registration (unless the
    // pump already expired it) and fail the future now.
    std::optional<Pending> pending;
    {
      const std::lock_guard lock(pending_mutex_);
      auto it = pending_.find(registry_key);
      if (it != pending_.end()) {
        pending.emplace(std::move(it->second));
        pending_.erase(it);
      }
    }
    if (pending.has_value()) {
      complete(*pending, ErrorCode::no_such_port);
    }
  }
  return future;
}

bool Transport::send_request(const net::Message& request,
                             const std::shared_ptr<MessageFilter>& filter,
                             std::optional<CacheEntry> fast_dst) {
  // Two attempts: a stale cache entry (server migrated/died) costs one
  // rejected transmit, one invalidation, and a fresh LOCATE.
  bool sent = false;
  for (int attempt = 0; attempt < 2 && !sent; ++attempt) {
    const auto dst = fast_dst.has_value() ? std::exchange(fast_dst, {})
                                          : resolve(request.header.dest);
    if (!dst.has_value()) {
      break;
    }
    // Seal a copy: a retry to a different machine must re-seal the
    // original, not the already-sealed bytes.
    net::Message wire = request;
    if (filter != nullptr) {
      filter->outgoing(wire, dst->machine);
    }
    sent = machine_.transmit(std::move(wire), dst->machine);
    if (!sent) {
      invalidate(request.header.dest, dst->generation);
    }
  }
  return sent;
}

void Transport::complete(Pending& pending, Result<net::Delivery> outcome) {
  {
    const std::lock_guard lock(pending.state->mutex);
    pending.state->outcome.emplace(std::move(outcome));
  }
  pending.state->cv.notify_all();
}

void Transport::settle(net::Delivery delivery) {
  std::optional<Pending> pending;
  {
    const std::lock_guard lock(pending_mutex_);
    auto it = pending_.find(delivery.message.header.dest);
    if (it == pending_.end()) {
      return;  // duplicate frame or post-timeout straggler: dropped
    }
    pending.emplace(std::move(it->second));
    pending_.erase(it);
  }
  std::shared_ptr<MessageFilter> filter;
  {
    const std::lock_guard lock(mutex_);
    filter = filter_;
    // Karn's rule: only transactions answered without any retransmit
    // contribute RTT samples (a retransmitted one's reply is ambiguous).
    if (!pending->retransmitted) {
      record_rtt_locked(std::chrono::duration_cast<std::chrono::microseconds>(
          Clock::now() - pending->issued_at));
    }
  }
  // The filter runs under no lock: the delivery path never waits on it.
  if (filter != nullptr &&
      !filter->incoming(delivery.message, delivery.src)) {
    complete(*pending, ErrorCode::unsealing_failed);
  } else {
    complete(*pending, std::move(delivery));
  }
  // ~pending here withdraws the one-shot GET registration.
}

void Transport::expire_and_retransmit() {
  // The only full registry scan; it runs when a deadline or retransmit
  // timer actually fires, never per reply.  It also recomputes the next
  // wake time, repairing the staleness settle() leaves behind
  // (pump_wakes_at_ only ever errs early, so the worst case is one
  // spurious wake, not a missed timeout).
  const auto now = Clock::now();
  const auto cap = retransmit_cap();
  std::vector<Pending> overdue;
  std::vector<net::Message> resend;
  {
    const std::lock_guard lock(pending_mutex_);
    auto earliest = Clock::time_point::max();
    for (auto it = pending_.begin(); it != pending_.end();) {
      Pending& pending = it->second;
      if (pending.deadline <= now) {
        overdue.push_back(std::move(pending));
        it = pending_.erase(it);
        continue;
      }
      if (pending.next_send <= now) {
        // Unacknowledged past its backoff: queue another copy (flagged as
        // a retransmission) and double the interval, capped.
        net::Message copy = pending.request;
        copy.header.flags |= net::kFlagRetransmit;
        resend.push_back(std::move(copy));
        pending.retransmitted = true;  // Karn: its reply yields no sample
        pending.backoff = std::min(pending.backoff * 2, cap);
        pending.next_send = now + pending.backoff;
      }
      earliest =
          std::min(earliest, std::min(pending.deadline, pending.next_send));
      ++it;
    }
    pump_wakes_at_ = earliest;
  }
  if (!overdue.empty()) {
    {
      const std::lock_guard lock(mutex_);
      stats_.timeouts += overdue.size();
    }
    for (auto& pending : overdue) {
      complete(pending, ErrorCode::timeout);
    }
  }
  if (!resend.empty()) {
    std::shared_ptr<MessageFilter> filter;
    {
      const std::lock_guard lock(mutex_);
      filter = filter_;
      stats_.retransmits += resend.size();
    }
    for (const auto& request : resend) {
      // Best effort: a rejected retransmit (server mid-migration) is not
      // a failure -- the next backoff tick or the deadline settles it.
      (void)send_request(request, filter, std::nullopt);
    }
  }
}

void Transport::pump(std::stop_token stop) {
  std::unique_lock lock(pending_mutex_);
  while (!stop.stop_requested()) {
    const auto wakes_at = pump_wakes_at_;
    if (wakes_at <= Clock::now()) {
      lock.unlock();
      expire_and_retransmit();  // deadline / backoff tick
      lock.lock();
      continue;
    }
    // Sleep until the timer or until trans_async moves it earlier.
    const auto moved = [&] { return pump_wakes_at_ != wakes_at; };
    if (wakes_at == Clock::time_point::max()) {
      pump_cv_.wait(lock, stop, moved);
    } else {
      pump_cv_.wait_until(lock, stop, wakes_at, moved);
    }
  }
}

}  // namespace amoeba::rpc
