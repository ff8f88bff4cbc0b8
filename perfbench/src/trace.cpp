#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <thread>
#include <unordered_map>

#include "amoeba/common/serial.hpp"

namespace perfbench {

namespace net = amoeba::net;

namespace {

/// Encoded size of a data frame with an empty data field, laid out as the
/// socket transport writes it (docs/PROTOCOL.md §10).
std::uint32_t empty_frame_bytes() {
  amoeba::Writer w;
  w.u8(0);   // frame kind
  w.u32(0);  // source machine
  w.u32(0);  // destination machine
  const net::Header header;
  w.port(header.dest);
  w.port(header.reply);
  w.port(header.signature);
  w.u16(header.opcode);
  w.u16(header.flags);
  w.u16(0);  // status
  w.raw(header.capability);
  for (const std::uint64_t p : header.params) w.u64(p);
  w.u64(header.client);
  w.u64(header.seq);
  w.bytes({});
  return static_cast<std::uint32_t>(w.take().size()) + 4;  // length prefix
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct KeyHash {
  std::size_t operator()(const std::pair<std::uint64_t, std::uint64_t>& k)
      const {
    return std::hash<std::uint64_t>{}(k.first ^
                                      (k.second * 0x9E3779B97F4A7C15ULL));
  }
};

double us_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e3;
}

}  // namespace

std::uint32_t wire_bytes(const net::Message& msg) {
  static const std::uint32_t kEmpty = empty_frame_bytes();
  return kEmpty + static_cast<std::uint32_t>(msg.data.size());
}

std::uint64_t this_thread_hash() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

bool EventBudget::take(std::int64_t t_ns) {
  if (left_.fetch_sub(1) > 0) return true;
  std::int64_t first = exhausted_at_.load();
  while (t_ns < first && !exhausted_at_.compare_exchange_weak(first, t_ns)) {
  }
  return false;
}

TapRecorder::TapRecorder(std::uint32_t node, std::uint32_t machine_base,
                         EventBudget& budget)
    : node_(node), machine_base_(machine_base), budget_(budget) {}

void TapRecorder::on_frame(const net::TapRecord& record) {
  if (record.kind != net::FrameKind::data) return;
  const std::int64_t t = now_ns();
  if (!budget_.take(t)) return;
  const net::Header& h = record.message.header;
  FrameEvent e;
  e.t_ns = t;
  e.node = node_;
  const std::uint32_t src = record.src.value();
  e.outbound = src > machine_base_ && src <= machine_base_ + kNodeMachineSpan;
  e.reply = h.reply.is_null();
  e.opcode = h.opcode;
  e.flags = h.flags;
  e.client = h.client;
  e.seq = h.seq;
  e.wire_bytes = wire_bytes(record.message);
  e.data_bytes = static_cast<std::uint32_t>(record.message.data.size());
  e.thread = this_thread_hash();
  const std::lock_guard lock(mutex_);
  events_.push_back(e);
}

std::vector<FrameEvent> TapRecorder::take() {
  const std::lock_guard lock(mutex_);
  return std::exchange(events_, {});
}

std::vector<Transaction> match_transactions(std::vector<FrameEvent> events) {
  std::sort(events.begin(), events.end(),
            [](const FrameEvent& a, const FrameEvent& b) {
              return a.t_ns < b.t_ns;
            });
  std::vector<Transaction> txns;
  std::unordered_map<std::pair<std::uint64_t, std::uint64_t>, std::size_t,
                     KeyHash>
      index;
  for (const FrameEvent& e : events) {
    if (e.client == 0) continue;
    const auto [it, fresh] = index.try_emplace({e.client, e.seq}, txns.size());
    if (fresh) {
      txns.emplace_back();
      txns.back().client = e.client;
      txns.back().seq = e.seq;
    }
    Transaction& t = txns[it->second];
    if (!e.reply) t.opcode = e.opcode;
    if (e.outbound && !e.reply) {
      if (t.req_out >= 0) continue;
      t.req_out = e.t_ns;
      t.issuer_node = e.node;
      t.req_thread = e.thread;
      t.req_data_bytes = e.data_bytes;
    } else if (!e.outbound && !e.reply) {
      if (t.req_in >= 0) continue;
      t.req_in = e.t_ns;
      t.server_node = e.node;
    } else if (e.outbound && e.reply) {
      if (t.rep_out >= 0) continue;
      t.rep_out = e.t_ns;
      t.rep_thread = e.thread;
    } else {
      if (t.rep_in < 0) t.rep_in = e.t_ns;
    }
  }
  std::stable_sort(txns.begin(), txns.end(),
                   [](const Transaction& a, const Transaction& b) {
                     return a.req_out < b.req_out;
                   });
  return txns;
}

std::vector<int> attach_ops(const std::vector<ClientOp>& ops,
                            const std::vector<Transaction>& txns) {
  // Per client id, the transactions it issued in request-out order.
  std::unordered_map<std::uint64_t, std::vector<int>> by_client;
  for (std::size_t j = 0; j < txns.size(); ++j) {
    if (txns[j].req_out >= 0) {
      by_client[txns[j].client].push_back(static_cast<int>(j));
    }
  }
  for (auto& [client, list] : by_client) {
    std::sort(list.begin(), list.end(), [&](int a, int b) {
      return txns[static_cast<std::size_t>(a)].req_out <
             txns[static_cast<std::size_t>(b)].req_out;
    });
  }
  std::vector<int> out(ops.size(), -1);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const auto it = by_client.find(ops[i].client_id);
    if (it == by_client.end()) continue;
    const auto& list = it->second;
    const auto pos = std::lower_bound(
        list.begin(), list.end(), ops[i].start_ns, [&](int j, std::int64_t t) {
          return txns[static_cast<std::size_t>(j)].req_out < t;
        });
    if (pos != list.end() &&
        txns[static_cast<std::size_t>(*pos)].req_out <= ops[i].end_ns) {
      out[i] = *pos;
    }
  }
  return out;
}

std::vector<int> assign_parents(const std::vector<Residence>& intervals,
                                const std::vector<NestedCall>& calls) {
  // Per node, interval indices by start time.
  std::map<std::uint32_t, std::vector<int>> by_node;
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    by_node[intervals[i].node].push_back(static_cast<int>(i));
  }
  for (auto& [node, list] : by_node) {
    std::sort(list.begin(), list.end(), [&](int a, int b) {
      return intervals[static_cast<std::size_t>(a)].start <
             intervals[static_cast<std::size_t>(b)].start;
    });
  }
  // Concurrency on a node is bounded by the client count, so the
  // intervals containing a time sit among the last few starts before it;
  // this bound only caps the walk.
  constexpr int kMaxWalk = 512;
  std::vector<int> parents(calls.size(), -1);
  for (std::size_t c = 0; c < calls.size(); ++c) {
    const NestedCall& call = calls[c];
    const auto it = by_node.find(call.node);
    if (it == by_node.end()) continue;
    const auto& list = it->second;
    auto pos = std::upper_bound(
        list.begin(), list.end(), call.t, [&](std::int64_t t, int i) {
          return t < intervals[static_cast<std::size_t>(i)].start;
        });
    int earliest = -1;
    int same_thread = -1;
    for (int walked = 0; pos != list.begin() && walked < kMaxWalk; ++walked) {
      --pos;
      const Residence& r = intervals[static_cast<std::size_t>(*pos)];
      if (r.end < call.t) continue;
      earliest = *pos;  // walking backwards: the last hit started first
      if (same_thread < 0 && r.thread == call.thread) same_thread = *pos;
    }
    parents[c] = same_thread >= 0 ? same_thread : earliest;
  }
  return parents;
}

Trace build_trace(const std::vector<ClientOp>& ops,
                  const std::vector<Transaction>& txns,
                  std::uint32_t client_node, std::size_t span_ops) {
  Trace trace;
  trace.op_txn = attach_ops(ops, txns);

  // Spans are kept for ops that started no later than the span_ops-th.
  std::int64_t span_cutoff = std::numeric_limits<std::int64_t>::max();
  if (ops.size() > span_ops) {
    std::vector<std::int64_t> starts;
    starts.reserve(ops.size());
    for (const ClientOp& op : ops) starts.push_back(op.start_ns);
    const auto nth = starts.begin() + static_cast<std::ptrdiff_t>(span_ops);
    std::nth_element(starts.begin(), nth, starts.end());
    span_cutoff = span_ops == 0 ? std::numeric_limits<std::int64_t>::min()
                                : *std::max_element(starts.begin(), nth);
  }

  auto add = [&](const char* name, std::int64_t start, std::int64_t end,
                 int parent, const Transaction* t, std::uint16_t opcode) {
    Span s;
    s.name = name;
    s.start = start;
    s.end = end;
    s.parent = parent;
    if (t != nullptr) {
      s.client = t->client;
      s.seq = t->seq;
    }
    s.opcode = opcode;
    trace.spans.push_back(std::move(s));
    return static_cast<int>(trace.spans.size() - 1);
  };

  std::vector<Residence> residences;
  std::vector<int> residence_span;  // per residence: its span, or -1
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const ClientOp& op = ops[i];
    const int j = trace.op_txn[i];
    const Transaction* t =
        j >= 0 ? &txns[static_cast<std::size_t>(j)] : nullptr;
    const bool spans = op.start_ns <= span_cutoff;
    const int root =
        spans ? add("client.call", op.start_ns, op.end_ns, -1, t, op.opcode)
              : -1;
    if (t == nullptr || !t->complete()) continue;
    int res = -1;
    if (spans) {
      add("rpc.issue", op.start_ns, t->req_out, root, t, op.opcode);
      add("net.request_hop", t->req_out, t->req_in, root, t, op.opcode);
      res = add("rpc.server_residence", t->req_in, t->rep_out, root, t,
                op.opcode);
      add("net.reply_hop", t->rep_out, t->rep_in, root, t, op.opcode);
      add("rpc.settle", t->rep_in, op.end_ns, root, t, op.opcode);
    }
    trace.stages.push_back(Stages{us_between(op.start_ns, t->req_out),
                                  us_between(t->req_out, t->req_in),
                                  us_between(t->req_in, t->rep_out),
                                  us_between(t->rep_out, t->rep_in),
                                  us_between(t->rep_in, op.end_ns)});
    residences.push_back(
        Residence{t->server_node, t->req_in, t->rep_out, t->rep_thread});
    residence_span.push_back(res);
  }

  std::vector<int> nested;
  std::vector<NestedCall> calls;
  for (std::size_t j = 0; j < txns.size(); ++j) {
    const Transaction& t = txns[j];
    if (t.req_out < 0 || t.issuer_node == client_node) continue;
    nested.push_back(static_cast<int>(j));
    calls.push_back(NestedCall{t.issuer_node, t.req_out, t.req_thread});
  }
  const std::vector<int> parents = assign_parents(residences, calls);
  trace.nested = nested.size();
  for (std::size_t k = 0; k < nested.size(); ++k) {
    const Transaction& t = txns[static_cast<std::size_t>(nested[k])];
    const int r = parents[k];
    int parent_span = -1;
    if (r >= 0) {
      parent_span = residence_span[static_cast<std::size_t>(r)];
      if (parent_span < 0) continue;  // its op has no spans kept
    } else {
      ++trace.nested_orphans;
      if (t.req_out > span_cutoff) continue;
    }
    const int call = add("nested.call", t.req_out,
                         t.rep_in >= 0 ? t.rep_in : t.req_out, parent_span,
                         &t, t.opcode);
    if (!t.complete()) continue;
    add("net.request_hop", t.req_out, t.req_in, call, &t, t.opcode);
    add("rpc.server_residence", t.req_in, t.rep_out, call, &t, t.opcode);
    add("net.reply_hop", t.rep_out, t.rep_in, call, &t, t.opcode);
  }
  return trace;
}

}  // namespace perfbench
