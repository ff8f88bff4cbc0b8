#include "host.hpp"

#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

HostInfo host_info() {
  HostInfo info;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        info.cpu_model = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  if (info.cpu_model.empty()) info.cpu_model = "unknown";
  info.nproc = std::thread::hardware_concurrency();
  utsname u{};
  info.kernel = ::uname(&u) == 0 ? std::string(u.sysname) + " " + u.release
                                 : "unknown";
  info.build_type = PERFBENCH_BUILD_TYPE;
  return info;
}

double steal_seconds() {
  std::ifstream stat("/proc/stat");
  std::string line;
  if (!std::getline(stat, line) || line.rfind("cpu ", 0) != 0) return 0.0;
  std::istringstream fields(line.substr(4));
  // user nice system idle iowait irq softirq steal ...
  std::uint64_t value = 0;
  std::uint64_t steal = 0;
  for (int i = 0; i < 8 && fields >> value; ++i) {
    if (i == 7) steal = value;
  }
  const long hz = ::sysconf(_SC_CLK_TCK);
  return hz > 0 ? static_cast<double>(steal) / static_cast<double>(hz) : 0.0;
}

namespace {

/// VmHWM from /proc/self/status: the peak resident set of this process's
/// own address space.  getrusage's ru_maxrss is not used because Linux
/// carries it across exec, so a process started from a larger parent (the
/// Python runner) would report the parent's peak.
double peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6));  // "VmHWM:    1234 kB"
    }
  }
  return 0.0;
}

}  // namespace

Usage process_usage() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  Usage u;
  u.cpu_s = secs(ru.ru_utime) + secs(ru.ru_stime);
  u.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw) +
                   static_cast<std::uint64_t>(ru.ru_nivcsw);
  u.max_rss_mb = peak_rss_kib() / 1024.0;
  return u;
}

}  // namespace perfbench
