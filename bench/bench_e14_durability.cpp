// E14: durability cost and recovery time of the journaled object store.
//
// The acceptance bar (PR 6): PURE-MUTATE throughput on the durable store
// -- real FileBackend, real fsync -- must stay within 1.5x of the
// in-memory store.  Group commit is what buys this: mutators encode under
// the shard lock, enqueue to the volume's flusher, and pipeline a bounded
// window of commit tickets (release_async + wait_durable) instead of
// paying one fsync per record.  One flusher cycle = one gather write + one
// fsync covering every record that piled up while the previous fsync was
// in flight.
//
// Every durable store journals through its volume's group committer (the
// one write path).  The per-record baselines are the same committed store
// waiting on EVERY ticket -- a durability window of 1, one flush cycle
// (one fsync on FileBackend) per record -- and the grouped legs pipeline
// a window of kWindow tickets.
//
// Benchmarked:
//   * open() validation (read path: identical for both stores -- reads
//     never journal),
//   * mutate through the accessor hook, in-memory vs. per-record durable
//     waits vs. pipelined group commit, on MemoryBackend and FileBackend,
//   * pair mutation (the bank-transfer shape, one atomic append group),
//   * recovery time vs. journal length (and with compaction folding the
//     log into snapshots -- the log-length knee is the point of E14).
//
// The contrast report at the end prints the durable/in-memory ratios,
// appends one JSON line to BENCH_durability.json (in the working
// directory), and ENFORCES the ordering invariant -- grouped FileBackend
// must beat per-record FileBackend per op -- exiting nonzero on failure
// so CI's bench-smoke catches a group-commit regression.
//
// Knobs:
//   --smoke               token repetitions + reduced contrast ops (CI)
//   --flush-interval=N    flusher linger CEILING in microseconds (0, the
//                         default, leaves the adaptive waiter-gated linger
//                         its built-in ceiling)
//   --backend=KIND        uring  force the io_uring contrast leg (prints a
//                                waiver note + skips its gate on fallback)
//                         file   skip the io_uring leg entirely
//                         (default: run it when the runtime probe passes)
#include <benchmark/benchmark.h>

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string_view>
#include <vector>

#include "smoke.hpp"

#include "amoeba/common/rng.hpp"
#include "amoeba/core/object_store.hpp"
#include "amoeba/core/schemes.hpp"
#include "amoeba/storage/backend.hpp"
#include "amoeba/storage/group_commit.hpp"
#include "amoeba/storage/uring_backend.hpp"

namespace {

using namespace amoeba;

constexpr Port kPort{0xD07A51E5EEDULL};
constexpr int kObjects = 4096;
/// Pipelined durability window: outstanding release_async tickets before
/// the mutator blocks on the newest one (tickets are monotone, so one
/// wait covers the whole window).
constexpr int kWindow = 4096;

std::chrono::microseconds g_flush_interval{0};  // --flush-interval=N
enum class UringLeg : std::uint8_t { automatic, forced, off };
UringLeg g_uring_leg = UringLeg::automatic;  // --backend=uring|file

[[nodiscard]] std::shared_ptr<const core::ProtectionScheme> scheme() {
  static const std::shared_ptr<const core::ProtectionScheme> shared = [] {
    Rng rng(17);
    return std::shared_ptr<const core::ProtectionScheme>(
        core::make_scheme(core::SchemeKind::encrypted, rng));
  }();
  return shared;
}

/// Payload: a small fixed struct, the typical object-table entry shape.
struct Payload {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

[[nodiscard]] core::Durability<Payload> codec(
    std::shared_ptr<storage::Backend> backend,
    std::size_t compact_after = 16384) {
  if (backend == nullptr) {
    return {};
  }
  core::Durability<Payload> d;
  d.backend = backend;
  d.committer = storage::GroupCommitter::create(
      backend, {.flush_interval = g_flush_interval});
  d.encode = [](Writer& w, const Payload& p) {
    w.u64(p.a);
    w.u64(p.b);
  };
  d.decode = [](Reader& r, Payload& p) {
    p.a = r.u64();
    p.b = r.u64();
    return r.ok();
  };
  d.compact_after = compact_after;
  return d;
}

struct Rig {
  explicit Rig(std::shared_ptr<storage::Backend> backend) {
    store = std::make_unique<core::ObjectStore<Payload>>(
        scheme(), kPort, 17, core::ObjectStore<Payload>::kDefaultShards,
        codec(std::move(backend)));
    caps.reserve(kObjects);
    for (int i = 0; i < kObjects; ++i) {
      caps.push_back(store->create({static_cast<std::uint64_t>(i), 0}));
    }
  }
  std::unique_ptr<core::ObjectStore<Payload>> store;
  std::vector<core::Capability> caps;
};

/// Synchronous mutate: every release blocks until its record is durable
/// (in-memory stores return from release immediately; durable stores pay
/// a whole flush cycle per record -- the per-record baseline the pipelined
/// loop below exists to beat).
void mutate_loop(benchmark::State& state, Rig& rig) {
  Rng rng(99);
  for (auto _ : state) {
    const auto& cap = rig.caps[rng.below(kObjects)];
    auto opened = rig.store->open(cap, core::rights::kWrite);
    if (!opened.ok()) {
      state.SkipWithError("open failed");
      break;
    }
    ++opened.value().value->b;
    opened.value().mark_dirty();
  }
  state.SetItemsProcessed(state.iterations());
}

/// Pipelined mutate: release_async carries the commit ticket; the loop
/// blocks once per kWindow releases and once at the end, so up to kWindow
/// records overlap each flusher fsync.
void mutate_loop_pipelined(benchmark::State& state, Rig& rig) {
  Rng rng(99);
  std::uint64_t ticket = 0;
  int outstanding = 0;
  for (auto _ : state) {
    const auto& cap = rig.caps[rng.below(kObjects)];
    auto opened = rig.store->open(cap, core::rights::kWrite);
    if (!opened.ok()) {
      state.SkipWithError("open failed");
      break;
    }
    ++opened.value().value->b;
    opened.value().mark_dirty();
    ticket = opened.value().release_async();
    if (++outstanding >= kWindow) {
      rig.store->wait_durable(ticket);
      outstanding = 0;
    }
  }
  rig.store->wait_durable(ticket);
  state.SetItemsProcessed(state.iterations());
}

void BM_OpenInMemory(benchmark::State& state) {
  Rig rig(nullptr);
  Rng rng(7);
  for (auto _ : state) {
    auto opened =
        rig.store->open(rig.caps[rng.below(kObjects)], core::rights::kRead);
    benchmark::DoNotOptimize(opened);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OpenInMemory);

void BM_OpenJournaled(benchmark::State& state) {
  // Reads never journal: this must match BM_OpenInMemory.
  Rig rig(std::make_shared<storage::MemoryBackend>(16));
  Rng rng(7);
  for (auto _ : state) {
    auto opened =
        rig.store->open(rig.caps[rng.below(kObjects)], core::rights::kRead);
    benchmark::DoNotOptimize(opened);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OpenJournaled);

void BM_MutateInMemory(benchmark::State& state) {
  Rig rig(nullptr);
  mutate_loop(state, rig);
}
BENCHMARK(BM_MutateInMemory);

void BM_MutateJournaledMemoryBackend(benchmark::State& state) {
  Rig rig(std::make_shared<storage::MemoryBackend>(16));
  mutate_loop(state, rig);
}
BENCHMARK(BM_MutateJournaledMemoryBackend);

void BM_MutateGroupedMemoryBackend(benchmark::State& state) {
  Rig rig(std::make_shared<storage::MemoryBackend>(16));
  mutate_loop_pipelined(state, rig);
}
BENCHMARK(BM_MutateGroupedMemoryBackend);

void BM_MutateJournaledFileBackend(benchmark::State& state) {
  const auto dir = std::filesystem::temp_directory_path() / "amoeba-e14-bm";
  std::filesystem::remove_all(dir);
  {
    Rig rig(std::make_shared<storage::FileBackend>(dir, 16));
    mutate_loop(state, rig);
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_MutateJournaledFileBackend);

void BM_MutateGroupedFileBackend(benchmark::State& state) {
  const auto dir = std::filesystem::temp_directory_path() / "amoeba-e14-bmg";
  std::filesystem::remove_all(dir);
  {
    Rig rig(std::make_shared<storage::FileBackend>(dir, 16));
    mutate_loop_pipelined(state, rig);
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_MutateGroupedFileBackend);

void BM_MutateGroupedUringBackend(benchmark::State& state) {
  if (!storage::UringFileBackend::available()) {
    state.SkipWithError("io_uring unavailable (probe or AMOEBA_NO_URING)");
    return;
  }
  const auto dir = std::filesystem::temp_directory_path() / "amoeba-e14-bmu";
  std::filesystem::remove_all(dir);
  {
    Rig rig(std::make_shared<storage::UringFileBackend>(dir, 16));
    mutate_loop_pipelined(state, rig);
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_MutateGroupedUringBackend);

void BM_PairMutateJournaled(benchmark::State& state) {
  // The transfer shape: two objects, one atomic journal append group.
  Rig rig(std::make_shared<storage::MemoryBackend>(16));
  Rng rng(5);
  for (auto _ : state) {
    const auto& a = rig.caps[rng.below(kObjects)];
    const auto& b = rig.caps[rng.below(kObjects)];
    auto pair = rig.store->open2(a, core::rights::kWrite, b,
                                 core::rights::kWrite);
    if (!pair.ok()) {
      state.SkipWithError("open2 failed");
      break;
    }
    ++pair.value().a.value->b;
    --pair.value().b.value->b;
    pair.value().a.mark_dirty();
    pair.value().b.mark_dirty();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PairMutateJournaled);

/// Recovery time as a function of journal length: Arg = mutations
/// journaled before the "crash".  The paired /Compacted variant folds the
/// log every 512 records, so recovery replays snapshots + a short tail.
void recovery_bench(benchmark::State& state, std::size_t compact_after) {
  const int mutations = static_cast<int>(state.range(0));
  auto backend = std::make_shared<storage::MemoryBackend>(16);
  {
    core::ObjectStore<Payload> store(
        scheme(), kPort, 17, 16,
        codec(backend, compact_after));
    std::vector<core::Capability> caps;
    for (int i = 0; i < 256; ++i) {
      caps.push_back(store.create({static_cast<std::uint64_t>(i), 0}));
    }
    Rng rng(3);
    for (int i = 0; i < mutations; ++i) {
      auto opened = store.open(caps[rng.below(256)], core::rights::kWrite);
      ++opened.value().value->b;
      opened.value().mark_dirty();
    }
  }
  std::uint64_t recovered = 0;
  for (auto _ : state) {
    core::ObjectStore<Payload> store(scheme(), kPort, 18, 16,
                                     codec(backend, compact_after));
    recovered = store.live_count();
    benchmark::DoNotOptimize(recovered);
  }
  state.counters["objects"] = static_cast<double>(recovered);
  state.SetItemsProcessed(state.iterations() * mutations);
}

void BM_RecoveryVsLogLength(benchmark::State& state) {
  recovery_bench(state, /*compact_after=*/1 << 30);  // never auto-compact
}
BENCHMARK(BM_RecoveryVsLogLength)->Arg(1024)->Arg(8192)->Arg(65536);

void BM_RecoveryVsLogLengthCompacted(benchmark::State& state) {
  recovery_bench(state, /*compact_after=*/512);
}
BENCHMARK(BM_RecoveryVsLogLengthCompacted)->Arg(1024)->Arg(8192)->Arg(65536);

/// One pure-mutate timing: `ops` mutations through the pipelined release
/// path, blocking on the newest ticket every `window` releases (in-memory
/// stores return ticket 0, so the same loop shape serves every mode -- the
/// comparison stays apples-to-apples).  A window of 1 waits on every
/// ticket: the per-record baseline.
[[nodiscard]] double timed_mutates(Rig& rig, int ops, int window) {
  Rng rng(1);
  return amoeba::bench::timed_ms([&] {
    std::uint64_t ticket = 0;
    int outstanding = 0;
    for (int i = 0; i < ops; ++i) {
      auto opened = rig.store->open(rig.caps[rng.below(kObjects)],
                                    core::rights::kWrite);
      ++opened.value().value->b;
      opened.value().mark_dirty();
      ticket = opened.value().release_async();
      if (++outstanding >= window) {
        rig.store->wait_durable(ticket);
        outstanding = 0;
      }
    }
    rig.store->wait_durable(ticket);
  });
}

/// Contrast report: the PR-6 acceptance numbers, printed for humans,
/// appended as one JSON line to BENCH_durability.json, and (ordering
/// invariant only) enforced.  Returns the process exit code.
///
/// The headline is PURE MUTATE -- every op journals, the worst case for
/// durability -- on the real FileBackend with real fsyncs.  Group commit
/// pays ~one fsync per flush cycle instead of one per record; the
/// pipelined window keeps kWindow records in flight against it.
[[nodiscard]] int report(bool smoke) {
  const int ops = smoke ? 40'000 : 400'000;
  // Per-record fsync is ~100 us/op: cap its op count and compare per-op.
  const int sync_file_ops = smoke ? 500 : 4'000;
  const auto tmp = std::filesystem::temp_directory_path();

  const double memory_ms = [&] {
    Rig rig(nullptr);
    return timed_mutates(rig, ops, kWindow);
  }();
  const double sync_mem_ms = [&] {
    Rig rig(std::make_shared<storage::MemoryBackend>(16));
    return timed_mutates(rig, ops, 1);
  }();
  const double grouped_mem_ms = [&] {
    Rig rig(std::make_shared<storage::MemoryBackend>(16));
    return timed_mutates(rig, ops, kWindow);
  }();
  const double sync_file_ms = [&] {
    const auto dir = tmp / "amoeba-e14-sync";
    std::filesystem::remove_all(dir);
    double ms = 0;
    {
      Rig rig(std::make_shared<storage::FileBackend>(dir, 16));
      ms = timed_mutates(rig, sync_file_ops, 1);
    }
    std::filesystem::remove_all(dir);
    return ms;
  }();
  double grouped_file_ms = 0;
  storage::GroupCommitter::Stats flusher_stats;
  {
    const auto dir = tmp / "amoeba-e14-grouped";
    std::filesystem::remove_all(dir);
    {
      Rig rig(std::make_shared<storage::FileBackend>(dir, 16));
      grouped_file_ms = timed_mutates(rig, ops, kWindow);
      flusher_stats = rig.store->committer()->stats();
    }
    std::filesystem::remove_all(dir);
  }

  // The io_uring leg: same grouped pipeline, but the flusher SUBMITS the
  // commit-log frame instead of blocking in write+fsync.  The mutator
  // thread's own blocking-I/O counter delta is reported alongside
  // (nonzero only for compaction snapshots, which stay synchronous).
  const bool uring_requested = g_uring_leg != UringLeg::off;
  const bool uring_ok =
      uring_requested && storage::UringFileBackend::available();
  double uring_file_ms = 0;
  storage::GroupCommitter::Stats uring_stats;
  std::uint64_t mutator_blocked_syscalls = 0;
  if (uring_ok) {
    const auto dir = tmp / "amoeba-e14-uring";
    std::filesystem::remove_all(dir);
    {
      Rig rig(std::make_shared<storage::UringFileBackend>(dir, 16));
      const storage::IoCounters before = storage::this_thread_io_counters();
      uring_file_ms = timed_mutates(rig, ops, kWindow);
      const storage::IoCounters after = storage::this_thread_io_counters();
      mutator_blocked_syscalls = (after.writes - before.writes) +
                                 (after.fsyncs - before.fsyncs);
      uring_stats = rig.store->committer()->stats();
    }
    std::filesystem::remove_all(dir);
  }

  const double per_op_sync_file_us = sync_file_ms * 1e3 / sync_file_ops;
  const double per_op_grouped_file_us = grouped_file_ms * 1e3 / ops;
  const double per_op_uring_us = uring_ok ? uring_file_ms * 1e3 / ops : 0;
  const double headline = grouped_file_ms / memory_ms;
  const bool bar_pass = headline <= 1.5;
  std::printf(
      "\nE14 durability contrast (pure mutate: every op journals)\n"
      "  in-memory store               : %9.1f ms  (%6.2f us/op)\n"
      "  per-record,   MemoryBackend   : %9.1f ms  (%6.2f us/op)\n"
      "  grouped,      MemoryBackend   : %9.1f ms  (%6.2f us/op)\n"
      "  per-record,   FileBackend     : %9.1f ms  (%6.2f us/op, fsync "
      "per record, %d ops)\n"
      "  grouped,      FileBackend     : %9.1f ms  (%6.2f us/op, window "
      "%d)\n"
      "  flusher: %llu groups, %llu records, max group %llu\n"
      "  grouped-file / in-memory      : %9.2fx  (acceptance bar: <= "
      "1.5x)%s\n"
      "  grouped-file / per-record-file: %9.3fx per op (must be < 1)\n",
      memory_ms, memory_ms * 1e3 / ops, sync_mem_ms, sync_mem_ms * 1e3 / ops,
      grouped_mem_ms, grouped_mem_ms * 1e3 / ops, sync_file_ms,
      per_op_sync_file_us, sync_file_ops, grouped_file_ms,
      per_op_grouped_file_us, kWindow,
      static_cast<unsigned long long>(flusher_stats.groups),
      static_cast<unsigned long long>(flusher_stats.records),
      static_cast<unsigned long long>(flusher_stats.max_group),
      headline, bar_pass ? "  PASS" : "  FAIL",
      per_op_grouped_file_us / per_op_sync_file_us);
  if (uring_ok) {
    std::printf(
        "  grouped,      UringBackend    : %9.1f ms  (%6.2f us/op)\n"
        "  uring flusher: %llu groups, %llu SQEs, %llu CQEs, "
        "%llu blocking flusher syscalls, %llu blocking mutator syscalls\n"
        "  uring-file / grouped-file     : %9.3fx per op\n",
        uring_file_ms, per_op_uring_us,
        static_cast<unsigned long long>(uring_stats.groups),
        static_cast<unsigned long long>(uring_stats.sqe_submitted),
        static_cast<unsigned long long>(uring_stats.cqe_completed),
        static_cast<unsigned long long>(uring_stats.flusher_io_syscalls),
        static_cast<unsigned long long>(mutator_blocked_syscalls),
        per_op_uring_us / per_op_grouped_file_us);
  } else {
    std::printf(
        "  grouped,      UringBackend    : %s -- gate waived\n",
        uring_requested ? "io_uring unavailable (probe or AMOEBA_NO_URING)"
                        : "skipped (--backend=file)");
  }

  if (std::FILE* json = std::fopen("BENCH_durability.json", "a")) {
    std::fprintf(
        json,
        "{\"bench\": \"e14\", \"mode\": \"%s\", \"ops\": %d, "
        "\"window\": %d, \"flush_interval_us\": %lld, "
        "\"in_memory_ms\": %.3f, \"sync_memory_ms\": %.3f, "
        "\"grouped_memory_ms\": %.3f, \"sync_file_us_per_op\": %.3f, "
        "\"grouped_file_ms\": %.3f, \"grouped_file_us_per_op\": %.3f, "
        "\"grouped_file_vs_in_memory\": %.3f, \"bar_1_5x_pass\": %s, "
        "\"flush_groups\": %llu, \"max_group\": %llu",
        smoke ? "smoke" : "full", ops, kWindow,
        static_cast<long long>(g_flush_interval.count()), memory_ms,
        sync_mem_ms, grouped_mem_ms, per_op_sync_file_us, grouped_file_ms,
        per_op_grouped_file_us, headline, bar_pass ? "true" : "false",
        static_cast<unsigned long long>(flusher_stats.groups),
        static_cast<unsigned long long>(flusher_stats.max_group));
    if (uring_ok) {
      std::fprintf(
          json,
          ", \"uring_file_ms\": %.3f, \"uring_file_us_per_op\": %.3f, "
          "\"uring_vs_grouped_file\": %.3f, "
          "\"mutator_blocked_syscalls\": %llu, "
          "\"uring_flusher_io_syscalls\": %llu, \"uring_sqe\": %llu, "
          "\"uring_cqe\": %llu",
          uring_file_ms, per_op_uring_us,
          per_op_uring_us / per_op_grouped_file_us,
          static_cast<unsigned long long>(mutator_blocked_syscalls),
          static_cast<unsigned long long>(uring_stats.flusher_io_syscalls),
          static_cast<unsigned long long>(uring_stats.sqe_submitted),
          static_cast<unsigned long long>(uring_stats.cqe_completed));
    } else {
      std::fprintf(json, ", \"uring\": \"unavailable\"");
    }
    std::fprintf(json, "}\n");
    std::fclose(json);
  }

  // The enforced invariant: group commit must beat per-record fsync per
  // op.  (The 1.5x headline is reported above and recorded as
  // bar_1_5x_pass; it is load- and disk-dependent, so CI enforces only the
  // ordering, which a broken flusher cannot fake.)
  if (per_op_grouped_file_us >= per_op_sync_file_us) {
    std::fprintf(stderr,
                 "E14 FAIL: grouped FileBackend (%.2f us/op) did not beat "
                 "per-record fsync (%.2f us/op)\n",
                 per_op_grouped_file_us, per_op_sync_file_us);
    return 1;
  }
  // The async gate: submitting the commit log must not be SLOWER than
  // blocking in it.  The grace absorbs single-core scheduler noise -- the
  // failure this guards against (a serialized ring, a reaper that blocks
  // the flusher) costs 40%+ -- and is wider in smoke mode, whose 40k-op
  // legs land within ~±20% run to run on a loaded 1-core CI box (the
  // 400k-op full run amortizes to ~±10%).  Waived (with the note printed
  // above) when the probe or AMOEBA_NO_URING forced the fallback.
  const double uring_grace = smoke ? 1.35 : 1.15;
  if (uring_ok && per_op_uring_us > per_op_grouped_file_us * uring_grace) {
    std::fprintf(stderr,
                 "E14 FAIL: uring backend (%.2f us/op) regressed past "
                 "grouped sync (%.2f us/op)\n",
                 per_op_uring_us, per_op_grouped_file_us);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::vector<char*> args;  // --flush-interval is ours, not benchmark's
  args.reserve(static_cast<std::size_t>(argc));
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    smoke |= arg == "--smoke";
    if (constexpr std::string_view prefix = "--flush-interval=";
        arg.starts_with(prefix)) {
      long long us = 0;
      const auto* begin = arg.data() + prefix.size();
      std::from_chars(begin, arg.data() + arg.size(), us);
      g_flush_interval = std::chrono::microseconds(us);
      continue;
    }
    if (constexpr std::string_view prefix = "--backend=";
        arg.starts_with(prefix)) {
      const std::string_view kind = arg.substr(prefix.size());
      g_uring_leg = kind == "uring" ? UringLeg::forced : UringLeg::off;
      continue;
    }
    args.push_back(argv[i]);
  }
  int n = static_cast<int>(args.size());
  amoeba::bench::initialize(n, args.data());
  ::benchmark::RunSpecifiedBenchmarks();
  return report(smoke);
}
