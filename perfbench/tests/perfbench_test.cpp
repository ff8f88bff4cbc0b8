// Unit tests of the benchmark's own code: statistics, tap matching, span
// parents, the storage probe's forwarding, and the process counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <numeric>
#include <regex>

#include "amoeba/storage/backend.hpp"
#include "amoeba/storage/record.hpp"
#include "host.hpp"
#include "metered_backend.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace storage = amoeba::storage;

std::vector<double> iota_sample(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

// ---- percentiles and normalisation ----------------------------------------

TEST(Percentile, NearestRank) {
  const auto v = iota_sample(100);
  EXPECT_EQ(percentile(v, 0.50).value(), 50.0);
  EXPECT_EQ(percentile(v, 0.99).value(), 99.0);
  EXPECT_EQ(percentile(v, 1.0).value(), 100.0);
  EXPECT_EQ(percentile(iota_sample(1), 0.5).value(), 1.0);
  EXPECT_FALSE(percentile({}, 0.5).has_value());
}

TEST(Percentile, TenBeyondRule) {
  // 1000 samples: the p99 is the 990th value, with exactly 10 beyond it.
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(percentile(iota_sample(1000), 0.99, kMinBeyond).value(), 990.0);
  // 999 samples leave only 9 beyond: no p99.
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  EXPECT_FALSE(percentile(iota_sample(999), 0.99, kMinBeyond).has_value());

  std::vector<double> small = iota_sample(500);
  std::reverse(small.begin(), small.end());
  const LatencySummary s = summarize(small);
  EXPECT_EQ(s.p50.value(), 250.0);
  EXPECT_FALSE(s.p99.has_value());
}

TEST(Normalisation, PerOpAndRatio) {
  EXPECT_DOUBLE_EQ(per_op(10, 4), 2.5);
  EXPECT_DOUBLE_EQ(per_op(10, 0), 0.0);
  EXPECT_DOUBLE_EQ(ratio(3, 4), 0.75);
  EXPECT_DOUBLE_EQ(ratio(3, 0), 0.0);
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 2, 3}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Slices, QuantileIsTheMedianAcrossSlices) {
  // Three slices of 1000; the middle one is a burst of slow samples.
  SliceQuantiles q;
  for (int slice = 0; slice < 3; ++slice) {
    for (int i = 1; i <= 1000; ++i) q.add(slice == 1 ? 1e6 : i);
  }
  q.add(1e9);  // an open slice does not move closed ones
  EXPECT_EQ(q.count(), 3001u);
  EXPECT_EQ(q.p50().value(), 500.0);
  EXPECT_EQ(q.p99().value(), 990.0);
}

TEST(Slices, FewerSamplesThanASlicePool) {
  SliceQuantiles a;
  SliceQuantiles b;
  for (int i = 1; i <= 500; ++i) a.add(i);
  for (int i = 501; i <= 999; ++i) b.add(i);
  SliceQuantiles merged;
  merged.merge(a);
  merged.merge(b);
  EXPECT_EQ(merged.count(), 999u);
  EXPECT_EQ(merged.p50().value(), 500.0);
  EXPECT_FALSE(merged.p99().has_value());  // 9 beyond: below the rule
  b.add(1000);
  SliceQuantiles thousand;
  thousand.merge(a);
  thousand.merge(b);
  EXPECT_EQ(thousand.p99().value(), 990.0);  // exactly 10 beyond
  EXPECT_FALSE(SliceQuantiles().p50().has_value());
}

TEST(Slices, MergeKeepsEachStreamsSlices) {
  SliceQuantiles fast;
  SliceQuantiles slow;
  for (int i = 0; i < 2000; ++i) fast.add(10);
  for (int i = 0; i < 1000; ++i) slow.add(1000);
  SliceQuantiles all;
  all.merge(fast);
  all.merge(slow);
  EXPECT_EQ(all.p50().value(), 10.0);  // median of {10, 10, 1000}
}

TEST(Slices, MedianRatioSkipsEmptySlices) {
  EXPECT_DOUBLE_EQ(median_ratio({10, 20, 30}, {1, 0, 3}), 10.0);
  EXPECT_DOUBLE_EQ(median_ratio({10}, {0}), 0.0);
}

// ---- tap matching and span parents ------------------------------------------

constexpr std::uint32_t kClientNode = 0;
constexpr std::uint32_t kFileNode = 1;
constexpr std::uint32_t kBlockNode = 2;
constexpr std::uint32_t kReplicaNode = 3;

FrameEvent ev(std::int64_t t, std::uint32_t node, bool outbound, bool reply,
              std::uint64_t client, std::uint64_t seq,
              std::uint64_t thread = 0, std::uint16_t opcode = 0) {
  FrameEvent e;
  e.t_ns = t;
  e.node = node;
  e.outbound = outbound;
  e.reply = reply;
  e.client = client;
  e.seq = seq;
  e.thread = thread;
  e.opcode = opcode;
  return e;
}

/// The four tap events of one transaction from `issuer` to `server`.
void txn(std::vector<FrameEvent>& out, std::uint64_t client,
         std::uint64_t seq, std::uint32_t issuer, std::uint32_t server,
         std::int64_t req_out, std::int64_t req_in, std::int64_t rep_out,
         std::int64_t rep_in, std::uint64_t req_thread = 0,
         std::uint64_t rep_thread = 0, std::uint16_t opcode = 0) {
  out.push_back(
      ev(req_out, issuer, true, false, client, seq, req_thread, opcode));
  out.push_back(ev(req_in, server, false, false, client, seq, 0, opcode));
  out.push_back(
      ev(rep_out, server, true, true, client, seq, rep_thread, opcode));
  out.push_back(ev(rep_in, issuer, false, true, client, seq, 0, opcode));
}

TEST(Matching, GroupsByClientAndSeq) {
  std::vector<FrameEvent> events;
  // A client file read, a nested block read issued by file-server worker
  // 7, and a replication shipment -- interleaved in time.
  txn(events, /*client=*/100, /*seq=*/1, kClientNode, kFileNode, 10, 20, 90,
      100, 0, /*rep_thread=*/7, 0x0203);
  txn(events, /*client=*/200, /*seq=*/5, kFileNode, kBlockNode, 30, 40, 50,
      60, /*req_thread=*/7, 0, 0x0102);
  txn(events, /*client=*/300, /*seq=*/9, kFileNode, kReplicaNode, 35, 45, 55,
      65, /*req_thread=*/8, 0, 0x0701);
  // A frame without at-most-once identity is ignored, and so is a
  // retransmitted request copy.
  events.push_back(ev(15, kClientNode, true, false, 0, 0));
  events.push_back(ev(70, kFileNode, true, false, 200, 5, 7));
  std::reverse(events.begin(), events.end());  // order must not matter

  const auto txns = match_transactions(events);
  ASSERT_EQ(txns.size(), 3u);
  EXPECT_EQ(txns[0].client, 100u);
  EXPECT_EQ(txns[0].req_out, 10);
  EXPECT_EQ(txns[0].req_in, 20);
  EXPECT_EQ(txns[0].rep_out, 90);
  EXPECT_EQ(txns[0].rep_in, 100);
  EXPECT_EQ(txns[0].issuer_node, kClientNode);
  EXPECT_EQ(txns[0].server_node, kFileNode);
  EXPECT_EQ(txns[0].rep_thread, 7u);
  EXPECT_EQ(txns[0].opcode, 0x0203);
  EXPECT_TRUE(txns[0].complete());

  EXPECT_EQ(txns[1].client, 200u);
  EXPECT_EQ(txns[1].issuer_node, kFileNode);
  EXPECT_EQ(txns[1].server_node, kBlockNode);
  EXPECT_EQ(txns[1].req_out, 30);  // the first copy, not the retransmit

  EXPECT_EQ(txns[2].client, 300u);
  EXPECT_EQ(txns[2].server_node, kReplicaNode);
  EXPECT_EQ(txns[2].opcode, 0x0701);
}

TEST(Matching, AttachesOpsByClientAndInterval) {
  std::vector<FrameEvent> events;
  txn(events, 100, 1, kClientNode, kFileNode, 10, 20, 30, 40);
  txn(events, 100, 2, kClientNode, kFileNode, 60, 70, 80, 90);
  txn(events, 101, 1, kClientNode, kFileNode, 12, 22, 32, 42);
  const auto txns = match_transactions(events);
  const std::vector<ClientOp> ops = {
      {100, 55, 95, 0, true},   // second transaction of client 100
      {101, 5, 45, 0, true},    // the only one of client 101
      {100, 5, 8, 0, false},    // nothing issued inside this interval
      {999, 0, 100, 0, false},  // unknown client
  };
  const auto attached = attach_ops(ops, txns);
  ASSERT_EQ(attached.size(), 4u);
  EXPECT_EQ(txns[static_cast<std::size_t>(attached[0])].seq, 2u);
  EXPECT_EQ(txns[static_cast<std::size_t>(attached[1])].client, 101u);
  EXPECT_EQ(attached[2], -1);
  EXPECT_EQ(attached[3], -1);
}

TEST(Parents, ThreadMatchThenEarliestContaining) {
  const std::vector<Residence> intervals = {
      {kFileNode, 10, 100, /*thread=*/1},
      {kFileNode, 20, 80, /*thread=*/2},
      {kBlockNode, 0, 1000, 3},
  };
  const std::vector<NestedCall> calls = {
      {kFileNode, 50, 2},    // both contain it; issued by worker 2
      {kFileNode, 50, 9},    // shipper thread: earliest-started wins
      {kFileNode, 90, 9},    // only the first still open
      {kFileNode, 200, 1},   // after every interval closed
      {kReplicaNode, 50, 1}, // no interval on that node
  };
  const auto parents = assign_parents(intervals, calls);
  EXPECT_EQ(parents, (std::vector<int>{1, 0, 0, -1, -1}));
}

TEST(Trace, NestedSpansHangUnderTheirClientOp) {
  std::vector<FrameEvent> events;
  // Two concurrent client ops on the file node, served by workers 7 and 8.
  txn(events, 100, 1, kClientNode, kFileNode, 10, 20, 90, 100, 0, 7);
  txn(events, 101, 1, kClientNode, kFileNode, 15, 25, 95, 105, 0, 8);
  // Worker 8 issues a block read inside both residence intervals.
  txn(events, 200, 1, kFileNode, kBlockNode, 40, 45, 50, 55, 8, 0);
  const auto txns = match_transactions(events);
  const std::vector<ClientOp> ops = {{100, 5, 110, 0, true},
                                     {101, 12, 120, 0, true}};
  const Trace trace = build_trace(ops, txns, kClientNode, ops.size());

  ASSERT_EQ(trace.stages.size(), 2u);
  const Stages& s = trace.stages[1];
  EXPECT_DOUBLE_EQ(s.issue_us + s.request_hop_us + s.residence_us +
                       s.reply_hop_us + s.settle_us,
                   (120 - 12) / 1e3);
  EXPECT_EQ(trace.nested, 1u);
  EXPECT_EQ(trace.nested_orphans, 0u);

  const auto nested = std::find_if(
      trace.spans.begin(), trace.spans.end(),
      [](const Span& sp) { return std::string(sp.name) == "nested.call"; });
  ASSERT_NE(nested, trace.spans.end());
  ASSERT_GE(nested->parent, 0);
  const Span& parent = trace.spans[static_cast<std::size_t>(nested->parent)];
  EXPECT_STREQ(parent.name, "rpc.server_residence");
  EXPECT_EQ(parent.client, 101u);  // worker 8's op, not the earlier one
  const Span& root = trace.spans[static_cast<std::size_t>(parent.parent)];
  EXPECT_STREQ(root.name, "client.call");
  EXPECT_EQ(root.parent, -1);
  // Every span of one transaction carries its (client, seq).
  for (const Span& sp : trace.spans) {
    if (sp.parent >= 0 &&
        trace.spans[static_cast<std::size_t>(sp.parent)].client == 200) {
      EXPECT_EQ(sp.client, 200u);
    }
  }
}

TEST(Trace, SpanCapKeepsTheFirstOpsAndTheirNestedCalls) {
  std::vector<FrameEvent> events;
  txn(events, 100, 1, kClientNode, kFileNode, 10, 20, 90, 100, 0, 7);
  txn(events, 101, 1, kClientNode, kFileNode, 15, 25, 95, 105, 0, 8);
  txn(events, 200, 1, kFileNode, kBlockNode, 40, 45, 50, 55, 8, 0);
  const auto txns = match_transactions(events);
  const std::vector<ClientOp> ops = {{100, 5, 110, 0, true},
                                     {101, 12, 120, 0, true}};
  const Trace trace = build_trace(ops, txns, kClientNode, /*span_ops=*/1);
  EXPECT_EQ(trace.stages.size(), 2u);  // stages cover every op
  EXPECT_EQ(trace.nested, 1u);
  EXPECT_EQ(trace.nested_orphans, 0u);
  ASSERT_EQ(trace.spans.size(), 6u);  // op 100 only; its sibling's block
  for (const Span& sp : trace.spans) EXPECT_EQ(sp.client, 100u);  // call too
}

TEST(EventBudget, RefusesBeyondTheCapAndRemembersWhen) {
  EventBudget budget(2);
  EXPECT_EQ(budget.exhausted_at(), std::numeric_limits<std::int64_t>::max());
  EXPECT_TRUE(budget.take(10));
  EXPECT_TRUE(budget.take(20));
  EXPECT_FALSE(budget.take(30));
  EXPECT_FALSE(budget.take(25));  // a late caller with an earlier stamp
  EXPECT_EQ(budget.exhausted_at(), 25);
}

TEST(Trace, WireBytesFollowTheFrameLayout) {
  amoeba::net::Message msg;
  // length prefix 4, kind 1, machine ids 8, three ports 18, opcode/flags/
  // status 6, capability 16, params 32, client+seq 16, data length 4.
  EXPECT_EQ(wire_bytes(msg), 105u);
  msg.data.resize(4096);
  EXPECT_EQ(wire_bytes(msg), 105u + 4096u);
}

// ---- the storage probe ----------------------------------------------------

class TempDir {
 public:
  TempDir() {
    // Under the working directory: the benchmark keeps to its checkout.
    path_ = fs::current_path() / ".bench_out" /
            ("perfbench_test_" + std::to_string(counter_++));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  fs::path path_;
};

amoeba::Buffer records(std::uint64_t first_lsn, int n) {
  amoeba::Buffer out;
  for (int i = 0; i < n; ++i) {
    storage::Record r;
    r.type = storage::RecordType::create;
    r.object = amoeba::ObjectNumber(static_cast<std::uint32_t>(i + 1));
    r.secret = 42 + static_cast<std::uint64_t>(i);
    r.lsn = first_lsn + static_cast<std::uint64_t>(i);
    r.payload = amoeba::Buffer(8, static_cast<std::uint8_t>(i));
    storage::encode_record(r, out);
  }
  return out;
}

/// The same write sequence, applied to any backend.
void write_sequence(storage::Backend& b) {
  b.append_journal(0, records(1, 2));
  b.append_journal_batch({{1, records(1, 1)}, {2, records(1, 3)}});
  bool completed = false;
  b.submit_append_group({{3, records(1, 1)}}, [&](std::exception_ptr e) {
    completed = e == nullptr;
  });
  EXPECT_TRUE(completed);
  b.install_snapshot(4, storage::encode_snapshot({}, 0));
  const amoeba::Buffer meta = {1, 2, 3, 4};
  b.put_meta("floors", meta);
}

TEST(MeteredBackend, ForwardsEveryWriteAndRecoversIdentically) {
  TempDir metered_dir;
  TempDir plain_dir;
  auto meter = std::make_shared<VolumeMeter>();
  {
    MeteredBackend metered(
        std::make_shared<storage::FileBackend>(metered_dir.path()), meter);
    storage::FileBackend plain(plain_dir.path());
    EXPECT_EQ(metered.shard_count(), plain.shard_count());
    EXPECT_TRUE(metered.empty());
    write_sequence(metered);
    write_sequence(plain);
    EXPECT_FALSE(metered.empty());
    EXPECT_EQ(metered.async_io_stats().async, plain.async_io_stats().async);
    // Reads forward to the live volume too.
    EXPECT_EQ(metered.read_journal(0), plain.read_journal(0));
    EXPECT_EQ(metered.get_meta("floors"), plain.get_meta("floors"));
  }
  // Reopened from disk, the volume written through the probe is the same
  // volume the plain backend wrote.
  storage::FileBackend a(metered_dir.path());
  storage::FileBackend b(plain_dir.path());
  for (std::size_t shard = 0; shard < a.shard_count(); ++shard) {
    EXPECT_EQ(a.read_journal(shard), b.read_journal(shard)) << shard;
    EXPECT_EQ(a.read_snapshot(shard), b.read_snapshot(shard)) << shard;
  }
  auto ka = a.meta_keys();
  auto kb = b.meta_keys();
  std::sort(ka.begin(), ka.end());
  std::sort(kb.begin(), kb.end());
  EXPECT_EQ(ka, kb);
  for (const auto& key : ka) EXPECT_EQ(a.get_meta(key), b.get_meta(key));
  EXPECT_EQ(a.empty(), b.empty());

  const VolumeMeter::Snapshot m = meter->snapshot();
  EXPECT_EQ(m.cycles, 3u);       // one per append call
  EXPECT_EQ(m.records, 2u + 4u + 1u);
  EXPECT_EQ(m.meta_writes, 1u);
  EXPECT_EQ(m.snapshots, 1u);
  EXPECT_EQ(m.failures, 0u);
  EXPECT_EQ(m.append_us.size(), 3u);
  EXPECT_EQ(m.meta_us.size(), 1u);
  EXPECT_GT(m.bytes, 0u);
  meter->reset();
  EXPECT_EQ(meter->snapshot().cycles, 0u);
}

TEST(MeteredBackend, CountsRecords) {
  EXPECT_EQ(count_records({}), 0u);
  EXPECT_EQ(count_records(records(1, 5)), 5u);
  const amoeba::Buffer junk = {1, 2, 3};
  EXPECT_EQ(count_records(junk), 1u);  // unparseable payload: one record
}

// ---- process counters ----------------------------------------------------

TEST(ProcessUsage, PeakRssCoversThisProcessMemory) {
  const double before = process_usage().max_rss_mb;
  EXPECT_GT(before, 0.0);
  std::vector<char> block(64u << 20);
  for (std::size_t i = 0; i < block.size(); i += 4096) block[i] = 1;
  const double after = process_usage().max_rss_mb;
  EXPECT_GE(after, before);
  EXPECT_GE(after, 64.0);  // the block alone is resident
  EXPECT_EQ(block[4096], 1);
}

// ---- BENCHMARK.json ------------------------------------------------------

TEST(BenchmarkJson, DeclaresWhatTheProgramReports) {
  std::ifstream in(fs::path(PERFBENCH_SOURCE_DIR) / ".." / "BENCHMARK.json");
  ASSERT_TRUE(in.good());
  const std::string json((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  // The text from one top-level key to the next (or to the end).
  const auto section = [&](const std::string& key, const std::string& next) {
    const auto begin = json.find("\"" + key + "\"");
    const auto end = next.empty() ? std::string::npos
                                  : json.find("\"" + next + "\"", begin);
    return json.substr(begin, end == std::string::npos ? end : end - begin);
  };

  std::vector<std::string> workloads;
  const std::regex name_re(R"re("name": "([^"]+)")re");
  const std::string wl = section("workloads", "end_to_end");
  for (std::sregex_iterator it(wl.begin(), wl.end(), name_re), end; it != end;
       ++it) {
    workloads.push_back((*it)[1]);
  }
  // The gated workloads are among those the program runs (bank-session
  // and file-stack run but are not gated; see README.md).
  EXPECT_FALSE(workloads.empty());
  for (const std::string& w : workloads) {
    EXPECT_NE(std::find(workload_names().begin(), workload_names().end(), w),
              workload_names().end())
        << w;
  }

  const std::regex layer_re(R"re("name": "([^"]+)",\s*"unit": "([^"]+)",)re"
                            R"re(\s*"better": "(higher|lower)")re");
  const std::string pl = section("per_layer", "");
  std::vector<LayerMetric> declared;
  for (std::sregex_iterator it(pl.begin(), pl.end(), layer_re), end;
       it != end; ++it) {
    declared.push_back({(*it)[1], (*it)[2]});
  }
  const std::vector<LayerMetric> reported = per_layer_metrics();
  ASSERT_EQ(declared.size(), reported.size());
  for (std::size_t i = 0; i < reported.size(); ++i) {
    EXPECT_EQ(declared[i].name, reported[i].name) << i;
    EXPECT_EQ(declared[i].unit, reported[i].unit) << reported[i].name;
  }
}

}  // namespace
}  // namespace perfbench
