// A thread-safe message queue: the rendezvous between frame delivery (the
// sender's thread) and a process blocked in GET (the receiver's thread).
//
// A mailbox built with a sink queues nothing: push() hands each delivery
// straight to the sink on the delivering thread.  That is how a
// completion-based RPC client settles replies without a thread handoff.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <stop_token>

#include "amoeba/net/message.hpp"

namespace amoeba::net {

class Mailbox {
 public:
  using Sink = std::function<void(Delivery)>;

  Mailbox() = default;
  /// A sink mailbox: every push() runs `sink` on the pushing thread, with
  /// no mailbox lock held, until close().  The sink must not throw.
  explicit Mailbox(Sink sink) : sink_(std::move(sink)) {}

  /// Enqueues a message and wakes one waiter (or runs the sink).  Never
  /// blocks on receivers.
  void push(Delivery delivery);

  /// Blocks until a message arrives, the mailbox closes, the stop token is
  /// triggered, or the (optional) timeout elapses.  Returns nullopt in the
  /// latter three cases.
  [[nodiscard]] std::optional<Delivery> pop(
      std::stop_token stop,
      std::optional<std::chrono::milliseconds> timeout = std::nullopt);

  /// Non-blocking variant.
  [[nodiscard]] std::optional<Delivery> try_pop();

  /// Closes the mailbox: pending and future pops return nullopt and later
  /// pushes are discarded.  For a sink mailbox, close() also waits for
  /// every sink call already running to return, so the sink's owner may
  /// be destroyed right after it; it must not be called from the sink.
  void close();

  [[nodiscard]] bool closed() const;
  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::condition_variable_any cv_;
  std::deque<Delivery> queue_;
  bool closed_ = false;
  const Sink sink_;            // immutable: empty for a queueing mailbox
  std::size_t sinks_running_ = 0;
};

}  // namespace amoeba::net
