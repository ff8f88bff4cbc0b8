// The repository benchmark: entry point and report.
//
//   perfbench --workload bank-read|bank-session|bank-session-mem|file-stack
//             [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]
//             [--git-sha SHA] [--source-digest HEX]
//   perfbench --smoke   every workload for a moment, untraced and traced
//
// --trace 0 prints every end-to-end metric; --trace 1 runs the workload
// untraced and then traced, each for half of --seconds, prints every
// per-layer metric plus the tracing overhead, and writes the traced run's
// spans to DIR/spans-<workload>.tsv.  The whole process (servers and
// sessions alike) is pinned to one CPU: on a shared VM, wake-ups across
// virtual CPUs stall on steal time and made results vary twofold from run
// to run, while a pinned process repeats within a few percent.
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A correctness violation voids the run: the metrics are left out and the
// exit code is 1.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "host.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path out_dir = ".bench_out";
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  bool smoke = false;
};

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 9;

/// Untimed load before every measured window (not part of setup_s).
constexpr double kWarmupS = 2.0;

/// Client sessions: min(4, nproc), the paper's closed-loop client model.
int session_count() {
  return static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opt.workload = next();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(next());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(next());
      } else if (arg == "--trace") {
        opt.trace = next() == "1";
      } else if (arg == "--out-dir") {
        opt.out_dir = next();
      } else if (arg == "--git-sha") {
        opt.git_sha = next();
      } else if (arg == "--source-digest") {
        opt.source_digest = next();
      } else if (arg == "--smoke") {
        opt.smoke = true;
      } else {
        usage("unknown flag " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!(opt.seconds > 0)) usage("--seconds must be > 0");
  if (!opt.smoke) {
    const auto& names = workload_names();
    if (std::find(names.begin(), names.end(), opt.workload) == names.end()) {
      usage("--workload must be bank-read, bank-session, bank-session-mem "
            "or file-stack");
    }
  }
  return opt;
}

/// Shortest decimal that reads back as the same double.
std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += quoted(metrics[i].name) + ": {\"value\": " + num(metrics[i].value) +
           ", \"unit\": " + quoted(metrics[i].unit) + "}";
  }
  return out + "}";
}

/// Pins the process to the last CPU of its affinity mask (CPU 0 takes
/// most of a VM's device interrupts), before any thread starts so every
/// thread inherits it.  Returns that CPU for the host record, or "all"
/// when pinning failed.
std::string pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return "all";
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return ::sched_setaffinity(0, sizeof(one), &one) == 0 ? std::to_string(cpu)
                                                          : "all";
  }
  return "all";
}

std::string host_json(const Options& opt, const RunResult& r,
                      const std::string& cpus) {
  const HostInfo h = host_info();
  std::ostringstream out;
  out << "{\"git_sha\": " << quoted(opt.git_sha)
      << ", \"source_digest\": " << quoted(opt.source_digest)
      << ", \"cpu_model\": " << quoted(h.cpu_model)
      << ", \"nproc\": " << h.nproc << ", \"kernel\": " << quoted(h.kernel)
      << ", \"build_type\": " << quoted(h.build_type)
      << ", \"backend\": " << quoted(r.backend)
      << ", \"transport\": \"SocketNetwork over 127.0.0.1 TCP (loopback)\""
      << ", \"pinned_cpus\": " << quoted(cpus)
      << ", \"sessions\": " << session_count() << ", \"seed\": " << opt.seed
      << ", \"workload\": " << quoted(opt.workload)
      << ", \"seconds\": " << num(opt.seconds)
      << ", \"trace\": " << (opt.trace ? 1 : 0)
      << ", \"steal_s\": " << num(r.steal_s) << "}";
  return out.str();
}

/// The end-to-end metrics of one run, in BENCHMARK.json order.  Rates and
/// CPU per op are medians across the window's whole seconds; latency
/// quantiles are medians across slices of kSliceOps completions.  A p99
/// the sample cannot support (fewer than ten samples beyond it) is left
/// out.
std::vector<Metric> end_to_end(const RunResult& r) {
  const double goodput =
      r.done_per_s.empty()
          ? ratio(static_cast<double>(r.completed()), r.window_s)
          : median(r.done_per_s);
  const double cpu_per_op =
      r.done_per_s.empty() || r.cpu_us_per_s.empty()
          ? per_op(r.cpu_s * 1e6, r.completed())
          : median_ratio(r.cpu_us_per_s, r.done_per_s);
  std::vector<Metric> m;
  m.push_back({"goodput_ops_s", goodput, "1/s"});
  if (const auto v = r.all_us.p50()) m.push_back({"p50_us", *v, "us"});
  if (const auto v = r.all_us.p99()) m.push_back({"p99_us", *v, "us"});
  if (const auto v = r.read_us.p50()) m.push_back({"read_p50_us", *v, "us"});
  if (const auto v = r.read_us.p99()) m.push_back({"read_p99_us", *v, "us"});
  m.push_back({"cpu_us_per_op", cpu_per_op, "us"});
  m.push_back({"peak_rss_mb", r.peak_rss_mb, "MB"});
  m.push_back({"setup_s", median(r.setup_s), "s"});
  return m;
}

/// Write-class latencies, printed for the workloads that issue writes
/// (BENCHMARK.json gates only metrics every workload has).
std::vector<Metric> write_metrics(const RunResult& r) {
  std::vector<Metric> m;
  if (const auto v = r.write_us.p50()) m.push_back({"write_p50_us", *v, "us"});
  if (const auto v = r.write_us.p99()) m.push_back({"write_p99_us", *v, "us"});
  return m;
}

/// Human-readable report of one run: every end-to-end number, including
/// those BENCHMARK.json does not gate on, with sample counts.
void print_end_to_end(const char* label, const RunResult& r) {
  for (const Metric& m : end_to_end(r)) {
    std::printf("%s %-16s %14s %s\n", label, m.name.c_str(),
                num(m.value).c_str(), m.unit.c_str());
  }
  for (const Metric& m : write_metrics(r)) {
    std::printf("%s %-16s %14s %s\n", label, m.name.c_str(),
                num(m.value).c_str(), m.unit.c_str());
  }
  std::printf("%s %-16s %14s ratio\n", label, "failed_ratio",
              num(ratio(static_cast<double>(r.failed),
                        static_cast<double>(r.attempted)))
                  .c_str());
  std::printf(
      "%s samples all=%zu read=%zu write=%zu (quantiles: median across "
      "slices of %zu completions)\n",
      label, r.all_us.count(), r.read_us.count(), r.write_us.count(),
      kSliceOps);
  std::string setups;
  for (const double s : r.setup_s) {
    setups += ' ';
    setups += num(s);
  }
  std::printf("%s setups_s%s; window_s %s; cpu_s %s; steal_s %s\n", label,
              setups.c_str(), num(r.window_s).c_str(), num(r.cpu_s).c_str(),
              num(r.steal_s).c_str());
}

void print_violations(const RunResult& r) {
  for (const std::string& v : r.violations) {
    std::printf("VIOLATION %s\n", v.c_str());
  }
}

void write_spans(const fs::path& path, const RunResult& r) {
  std::ofstream out(path, std::ios::trunc);
  out << "id\tparent\tname\tstart_us\tend_us\tclient\tseq\topcode\n";
  for (std::size_t i = 0; i < r.spans.size(); ++i) {
    const Span& s = r.spans[i];
    out << i << '\t' << s.parent << '\t' << s.name << '\t'
        << num(static_cast<double>(s.start - r.t0_ns) / 1e3) << '\t'
        << num(static_cast<double>(s.end - r.t0_ns) / 1e3) << '\t' << std::hex
        << s.client << std::dec << '\t' << s.seq << "\t0x" << std::hex
        << s.opcode << std::dec << '\n';
  }
}

void append_history(const fs::path& path, const std::string& host,
                    const std::string& result_line) {
  std::ofstream out(path, std::ios::app);
  out << "{\"host\": " << host << ", \"result\": " << result_line << "}\n";
}

/// Where this process creates its volumes (removed when it exits).
fs::path work_dir(const Options& opt) {
  return opt.out_dir / ("work-" + std::to_string(::getpid()));
}

RunConfig config_for(const Options& opt, const std::string& workload,
                     bool traced, int setups, double seconds) {
  RunConfig c;
  c.workload = workload;
  c.seed = opt.seed;
  c.seconds = seconds;
  c.warmup_s = opt.smoke ? 0.1 : kWarmupS;
  c.traced = traced;
  c.sessions = session_count();
  c.setups = setups;
  c.work_dir = work_dir(opt);
  return c;
}

std::string result_line(bool correct, const RunResult& r,
                        const std::vector<Metric>& metrics) {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed) +
         ", \"metrics\": " + metrics_json(correct ? metrics
                                                  : std::vector<Metric>{}) +
         "}";
}

int run_untraced(const Options& opt, const std::string& cpus) {
  const RunResult r = run_workload(
      config_for(opt, opt.workload, false, kSetups, opt.seconds));
  const std::string host = host_json(opt, r, cpus);
  std::printf("{\"host\": %s}\n", host.c_str());
  print_end_to_end("e2e", r);
  print_violations(r);
  const std::string line = result_line(r.correct(), r, end_to_end(r));
  append_history(opt.out_dir / "results.jsonl", host, line);
  std::printf("%s\n", line.c_str());
  return r.correct() ? 0 : 1;
}

int run_traced(const Options& opt, const std::string& cpus) {
  const double half = opt.seconds / 2;
  const RunResult plain =
      run_workload(config_for(opt, opt.workload, false, 1, half));
  RunResult traced = run_workload(config_for(opt, opt.workload, true, 1, half));
  const auto e2e_of = [](const RunResult& r) {
    std::map<std::string, double> m;
    for (const Metric& x : end_to_end(r)) m[x.name] = x.value;
    return m;
  };
  const auto plain_e2e = e2e_of(plain);
  const auto traced_e2e = e2e_of(traced);
  const auto get = [](const std::map<std::string, double>& m, const char* k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  traced.layers["trace.overhead_p50_ratio"] =
      ratio(get(traced_e2e, "p50_us"), get(plain_e2e, "p50_us"));
  traced.layers["trace.goodput_ops_s"] = get(traced_e2e, "goodput_ops_s");
  traced.layers["trace.p50_us"] = get(traced_e2e, "p50_us");
  traced.layers["trace.overhead_goodput_ratio"] =
      ratio(get(traced_e2e, "goodput_ops_s"), get(plain_e2e, "goodput_ops_s"));

  const std::string host = host_json(opt, traced, cpus);
  std::printf("{\"host\": %s}\n", host.c_str());
  print_end_to_end("untraced", plain);
  print_end_to_end("traced  ", traced);
  std::vector<Metric> layers;
  for (const LayerMetric& lm : per_layer_metrics()) {
    layers.push_back({lm.name, traced.layers[lm.name], lm.unit});
    std::printf("layer %-40s %14s %s\n", lm.name.c_str(),
                num(layers.back().value).c_str(), layers.back().unit.c_str());
  }
  print_violations(plain);
  print_violations(traced);
  const fs::path spans = opt.out_dir / ("spans-" + opt.workload + ".tsv");
  write_spans(spans, traced);
  std::printf("spans %zu written to %s\n", traced.spans.size(),
              spans.c_str());
  const bool correct = plain.correct() && traced.correct();
  const std::string line = result_line(correct, traced, layers);
  append_history(opt.out_dir / "results.jsonl", host, line);
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}

int run_smoke(const Options& opt) {
  bool ok = true;
  for (const std::string& w : workload_names()) {
    for (const bool traced : {false, true}) {
      const RunResult r = run_workload(config_for(opt, w, traced, 1, 0.5));
      const bool pass = r.correct() && r.failed == 0 && r.completed() > 0 &&
                        (!traced || r.layers.at("trace.matched_ratio") > 0.99);
      std::printf("smoke %-16s %-8s ops=%llu failed=%llu %s\n", w.c_str(),
                  traced ? "traced" : "untraced",
                  static_cast<unsigned long long>(r.completed()),
                  static_cast<unsigned long long>(r.failed),
                  pass ? "ok" : "FAIL");
      print_violations(r);
      ok = ok && pass;
    }
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse(argc, argv);
  const std::string cpus = pin_to_one_cpu();
  int status = 1;
  try {
    std::filesystem::create_directories(opt.out_dir);
    if (opt.smoke) {
      status = run_smoke(opt);
    } else {
      status = opt.trace ? run_traced(opt, cpus) : run_untraced(opt, cpus);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
  }
  std::error_code ignored;
  std::filesystem::remove_all(work_dir(opt), ignored);
  return status;
}
