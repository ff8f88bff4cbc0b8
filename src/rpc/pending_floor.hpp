// The reply floor a service worker has enqueued for the request it is
// executing but not yet seen durable (docs/PROTOCOL.md §8.4).  It lives in
// a thread-local so that the transport can settle it before a nested call
// from the handler leaves: no effect of a request may leave the process
// ahead of its floor.  Private to the rpc library (server.cpp sets and
// clears it, transport.cpp settles it).
#pragma once

#include "amoeba/storage/group_commit.hpp"

namespace amoeba::rpc::detail {

struct PendingFloor {
  storage::GroupCommitter* committer = nullptr;  // null: nothing pending
  storage::GroupCommitter::Ticket ticket = 0;
};

inline thread_local PendingFloor t_pending_floor;

/// Blocks until the calling thread's pending floor, if any, is durable,
/// then clears it.  False when the volume failed first: the floor stays
/// pending (every later settle fails too) and the caller must not let the
/// request's effects leave.
[[nodiscard]] inline bool settle_pending_floor() {
  PendingFloor& floor = t_pending_floor;
  if (floor.committer == nullptr) {
    return true;
  }
  try {
    floor.committer->wait_durable(floor.ticket);
  } catch (const std::exception&) {
    return false;
  }
  floor = {};
  return true;
}

}  // namespace amoeba::rpc::detail
