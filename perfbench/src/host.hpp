// The host record every result carries, and the process counters the
// end-to-end metrics are computed from.  Results are only comparable with
// rows from a matching host record.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct HostInfo {
  std::string cpu_model;
  unsigned nproc = 0;
  std::string kernel;
  std::string build_type;
};

[[nodiscard]] HostInfo host_info();

/// Cumulative steal time of all CPUs from /proc/stat, in seconds (0 when
/// unreadable).
[[nodiscard]] double steal_seconds();

/// Process-wide resource usage (all threads), from getrusage and, for the
/// peak resident set, /proc/self/status.
struct Usage {
  double cpu_s = 0;            // user + system
  std::uint64_t ctx_switches = 0;  // voluntary + involuntary
  double max_rss_mb = 0;       // peak resident set so far (VmHWM)
};

[[nodiscard]] Usage process_usage();

}  // namespace perfbench
