#include "amoeba/net/mailbox.hpp"

namespace amoeba::net {

void Mailbox::push(Delivery delivery) {
  {
    const std::lock_guard lock(mutex_);
    if (closed_) {
      return;  // late frame for a dead receiver: dropped, like real links
    }
    if (!sink_) {
      queue_.push_back(std::move(delivery));
    } else {
      ++sinks_running_;
    }
  }
  if (!sink_) {
    cv_.notify_one();
    return;
  }
  sink_(std::move(delivery));
  const std::lock_guard lock(mutex_);
  if (--sinks_running_ == 0 && closed_) {
    cv_.notify_all();  // the last running sink lets close() return
  }
}

std::optional<Delivery> Mailbox::pop(
    std::stop_token stop, std::optional<std::chrono::milliseconds> timeout) {
  std::unique_lock lock(mutex_);
  const auto ready = [this] { return closed_ || !queue_.empty(); };
  if (timeout.has_value()) {
    const auto deadline = std::chrono::steady_clock::now() + *timeout;
    // wait_until with a stop_token returns when ready(), stopped, or timed
    // out; loop is unnecessary because the predicate is re-checked inside.
    if (!cv_.wait_until(lock, stop, deadline, ready)) {
      return std::nullopt;
    }
  } else {
    if (!cv_.wait(lock, stop, ready)) {
      return std::nullopt;  // stop requested
    }
  }
  if (queue_.empty()) {
    return std::nullopt;  // closed
  }
  Delivery d = std::move(queue_.front());
  queue_.pop_front();
  return d;
}

std::optional<Delivery> Mailbox::try_pop() {
  const std::lock_guard lock(mutex_);
  if (queue_.empty()) {
    return std::nullopt;
  }
  Delivery d = std::move(queue_.front());
  queue_.pop_front();
  return d;
}

void Mailbox::close() {
  std::unique_lock lock(mutex_);
  closed_ = true;
  cv_.notify_all();
  cv_.wait(lock, [this] { return sinks_running_ == 0; });
}

bool Mailbox::closed() const {
  const std::lock_guard lock(mutex_);
  return closed_;
}

std::size_t Mailbox::size() const {
  const std::lock_guard lock(mutex_);
  return queue_.size();
}

}  // namespace amoeba::net
