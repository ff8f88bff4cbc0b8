// The benchmark's three workloads, each hosting the deployed service roles
// in this process -- one net::SocketNetwork node per role on 127.0.0.1
// TCP, durable roles on storage::FileBackend volumes, two workers per
// service -- and driving them with a closed loop of client sessions, one
// thread and one rpc::Transport each.
//
//   bank-read     in-memory bank, 1,024 accounts, bank.balance on a
//                 Zipf(1.1) pick
//   bank-session  the cluster session without faults: dir.lookup,
//                 bank.balance, bank.create_account, bank.transfer against
//                 a bank whose volume is replicated (ack_one) to a backup
//   file-stack    flat file server over a block server, 256 files of
//                 16 KiB; 80% whole-file reads, 20% 4 KiB block writes
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "host.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

[[nodiscard]] const std::vector<std::string>& workload_names();

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Untimed closed-loop load between set-up and the measured window, so
  /// caches, connections and allocator pools are warm when timing starts.
  double warmup_s = 0.0;
  bool traced = false;
  int sessions = 4;  // main() runs min(4, nproc)
  /// Worlds set up in this run; all but the last are torn down without
  /// being measured (the median of their set-up times is setup_s).
  int setups = 1;
  std::filesystem::path work_dir;  // volumes are created under it
};

struct RunResult {
  std::string backend;              // the volume backend actually live
  std::vector<double> setup_s;      // one per setup
  double window_s = 0;              // first measured op to last completion
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;         // failed or timed-out client ops
  // Latencies (µs) of completed ops: all, and by class.
  SliceQuantiles all_us;
  SliceQuantiles read_us;
  SliceQuantiles write_us;
  // Per whole second of the window: completed ops, and process CPU µs.
  std::vector<double> done_per_s;
  std::vector<double> cpu_us_per_s;
  double cpu_s = 0;                 // process CPU over the window
  std::uint64_t ctx_switches = 0;   // process switches over the window
  double peak_rss_mb = 0;
  double steal_s = 0;               // host steal time over the window
  std::vector<std::string> violations;  // correctness failures
  // Traced runs only.
  std::map<std::string, double> layers;  // per-layer metrics
  std::vector<Span> spans;
  std::int64_t t0_ns = 0;           // start of the measured window

  [[nodiscard]] std::uint64_t completed() const { return attempted - failed; }
  [[nodiscard]] bool correct() const { return violations.empty(); }
};

/// Sets up, runs, checks and tears down one workload.  Throws on set-up
/// failure (a benchmark that cannot build its world has no result).
[[nodiscard]] RunResult run_workload(const RunConfig& config);

struct LayerMetric {
  std::string name;
  std::string unit;
};

/// Every per-layer metric a traced run reports, with its unit, in report
/// order -- the same for every workload (metrics of layers a workload does
/// not reach read 0).  BENCHMARK.json lists exactly these.
[[nodiscard]] std::vector<LayerMetric> per_layer_metrics();

}  // namespace perfbench
