// Tracing from outside the program: frame events captured by wiretaps on
// every node, matched into transactions by their at-most-once identity
// (client, seq), and assembled with the client-stub timings into spans.
//
// A transaction leaves up to four tap events:
//
//   request out  (issuer node, before the socket write)
//   request in   (serving node, after decode)
//   reply out    (serving node)
//   reply in     (issuer node)
//
// Replies echo (client, seq), so all four share one key.  Client
// operations are tied to their request frame by the issuing transport's
// client id and the stub-call interval that contains the request.  Nested
// transactions (the file server's block calls, the bank's replication
// shipments) get as parent the client operation whose server-side
// interval on the issuing node contains them.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "amoeba/net/network.hpp"

namespace perfbench {

/// One frame seen by a node's wiretap.
struct FrameEvent {
  std::int64_t t_ns = 0;        // steady clock
  std::uint32_t node = 0;       // index of the node whose tap fired
  bool outbound = false;        // sent by this node (else received)
  bool reply = false;           // reply frame (no reply port)
  std::uint16_t opcode = 0;
  std::uint16_t flags = 0;
  std::uint64_t client = 0;     // at-most-once identity; 0 = none
  std::uint64_t seq = 0;
  std::uint32_t wire_bytes = 0;  // encoded frame size on the TCP link
  std::uint32_t data_bytes = 0;  // of which the message's data field
  std::uint64_t thread = 0;      // hash of the thread the tap ran on
};

/// Bytes one data frame occupies on a SocketNetwork link: the length
/// prefix, the frame kind and machine ids, the encoded header and the
/// length-prefixed data field.
[[nodiscard]] std::uint32_t wire_bytes(const amoeba::net::Message& msg);

/// Hash of the calling thread's id (what FrameEvent::thread holds).
[[nodiscard]] std::uint64_t this_thread_hash();

/// Caps the frame events all recorders of one run keep, so a traced run's
/// memory stays bounded however fast the workload goes, and remembers when
/// the cap was reached: the analysis covers the ops that ended before it.
class EventBudget {
 public:
  explicit EventBudget(std::int64_t cap) : left_(cap) {}

  /// Takes room for one event seen at `t_ns`; false once spent.
  bool take(std::int64_t t_ns);
  /// When the first event was refused; the maximum time if none was.
  [[nodiscard]] std::int64_t exhausted_at() const {
    return exhausted_at_.load();
  }

 private:
  std::atomic<std::int64_t> left_;
  std::atomic<std::int64_t> exhausted_at_{
      std::numeric_limits<std::int64_t>::max()};
};

/// Collects the frame events of one node's tap.  Thread-safe: taps run on
/// sender threads and socket reader threads concurrently.
class TapRecorder {
 public:
  /// `node` labels the events; `machine_base` is the node's machine id
  /// base, which tells frames it sent from frames it received.  Events
  /// beyond `budget` are dropped.
  TapRecorder(std::uint32_t node, std::uint32_t machine_base,
              EventBudget& budget);

  void on_frame(const amoeba::net::TapRecord& record);
  [[nodiscard]] std::vector<FrameEvent> take();

 private:
  std::uint32_t node_;
  std::uint32_t machine_base_;
  EventBudget& budget_;
  std::mutex mutex_;
  std::vector<FrameEvent> events_;
};

/// Machine ids of one node fall in (base, base + kNodeMachineSpan].
inline constexpr std::uint32_t kNodeMachineSpan = 1000;

/// One transaction reassembled from its tap events.  A time of -1 means
/// that event was not seen.
struct Transaction {
  std::uint64_t client = 0;
  std::uint64_t seq = 0;
  std::uint16_t opcode = 0;
  std::int64_t req_out = -1;
  std::int64_t req_in = -1;
  std::int64_t rep_out = -1;
  std::int64_t rep_in = -1;
  std::uint32_t issuer_node = 0;
  std::uint32_t server_node = 0;
  std::uint64_t req_thread = 0;   // thread that put the request out
  std::uint64_t rep_thread = 0;   // thread that put the reply out
  std::uint32_t req_data_bytes = 0;  // data-field bytes of the request

  [[nodiscard]] bool complete() const {
    return req_out >= 0 && req_in >= 0 && rep_out >= 0 && rep_in >= 0;
  }
};

/// Groups frame events by (client, seq) into transactions, sorted by
/// request-out time.  Frames without at-most-once identity (client 0)
/// are skipped.  For each of the four roles the first event wins
/// (retransmitted copies are ignored).
[[nodiscard]] std::vector<Transaction> match_transactions(
    std::vector<FrameEvent> events);

/// One timed client-stub call of a benchmark session.
struct ClientOp {
  std::uint64_t client_id = 0;  // the session transport's client id
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint16_t opcode = 0;     // the operation the stub issues
  bool ok = true;
};

/// For each client op, the index in `txns` of the transaction it issued
/// (-1 when none was seen): the transaction whose client id matches and
/// whose request-out time lies in the op's stub interval.
[[nodiscard]] std::vector<int> attach_ops(const std::vector<ClientOp>& ops,
                                          const std::vector<Transaction>& txns);

/// A server-side residence interval of a client op on one node.
struct Residence {
  std::uint32_t node = 0;
  std::int64_t start = 0;       // request in
  std::int64_t end = 0;         // reply out
  std::uint64_t thread = 0;     // thread that sent the reply
};

/// A nested transaction to be parented: issued from `node` at time `t`
/// by thread `thread`.
struct NestedCall {
  std::uint32_t node = 0;
  std::int64_t t = 0;
  std::uint64_t thread = 0;
};

/// For each nested call, the index of the residence interval that is its
/// parent, or -1.  Candidates are the intervals on the same node that
/// contain the call's time.  The one whose reply was sent by the thread
/// that issued the call wins (a server worker makes its nested calls
/// itself); otherwise, as for replication shipments sent from a shipper
/// thread, the earliest-started candidate wins.
[[nodiscard]] std::vector<int> assign_parents(
    const std::vector<Residence>& intervals,
    const std::vector<NestedCall>& calls);

/// One traced interval.  `parent` is an index into the same span list,
/// -1 for a root.
struct Span {
  const char* name = "";  // a string literal
  std::int64_t start = 0;
  std::int64_t end = 0;
  int parent = -1;
  std::uint64_t client = 0;
  std::uint64_t seq = 0;
  std::uint16_t opcode = 0;
};

/// The five client-path stages of one matched client op, in microseconds.
/// They partition the stub call: issue + request hop + residence + reply
/// hop + settle == latency.
struct Stages {
  double issue_us = 0;
  double request_hop_us = 0;
  double residence_us = 0;
  double reply_hop_us = 0;
  double settle_us = 0;
};

/// Everything the span assembly produces.
struct Trace {
  std::vector<Span> spans;
  std::vector<int> op_txn;         // per client op, index into txns or -1
  std::vector<Stages> stages;      // per matched client op
  std::size_t nested = 0;          // nested (server-issued) transactions
  std::size_t nested_orphans = 0;  // of those, with no parent found
};

/// Computes the stages of every client op and parents every nested
/// transaction.  Spans are built for the first `span_ops` client ops by
/// start time (a root "client.call" with the five stage children) and for
/// the nested transactions under them (a "nested.call" under the residence
/// span of its parent op, with hop and residence children), plus nested
/// transactions no op claimed.  `client_node` is the node hosting the
/// benchmark's sessions.
[[nodiscard]] Trace build_trace(const std::vector<ClientOp>& ops,
                                const std::vector<Transaction>& txns,
                                std::uint32_t client_node,
                                std::size_t span_ops);

}  // namespace perfbench
