#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <latch>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>

#include "amoeba/common/rng.hpp"
#include "amoeba/core/capability.hpp"
#include "amoeba/core/schemes.hpp"
#include "amoeba/net/socket_network.hpp"
#include "amoeba/rpc/replication.hpp"
#include "amoeba/rpc/transport.hpp"
#include "amoeba/servers/bank_server.hpp"
#include "amoeba/servers/block_server.hpp"
#include "amoeba/servers/directory_server.hpp"
#include "amoeba/servers/flat_file_server.hpp"
#include "amoeba/storage/uring_backend.hpp"
#include "metered_backend.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace core = amoeba::core;
namespace net = amoeba::net;
namespace rpc = amoeba::rpc;
namespace servers = amoeba::servers;
namespace storage = amoeba::storage;
using amoeba::Buffer;
using amoeba::Port;
using amoeba::Rng;
using namespace std::chrono_literals;

constexpr int kBankAccounts = 1024;
constexpr int kHotAccounts = 64;
constexpr std::int64_t kMintPerAccount = 1'000'000;
constexpr std::int64_t kTransferAmount = 5;
constexpr int kFiles = 256;
constexpr std::size_t kFileBytes = 16 * 1024;
constexpr std::size_t kChunkBytes = 4096;  // one block
constexpr int kWorkers = 2;                // per service, as cluster_node
constexpr double kZipfS = 1.1;
// Spans kept (and written out) for this many client ops of a traced run.
constexpr std::size_t kSpanOps = 20'000;

// Service GET-ports (any fixed values; the cluster uses the same idea).
constexpr std::uint64_t kBankGetPort = 0x10AD;
constexpr std::uint64_t kDirectoryGetPort = 0xD1C7;
constexpr std::uint64_t kReplicaGetPort = 0x7B01;
constexpr std::uint64_t kBlockGetPort = 0xB10C;
constexpr std::uint64_t kFileGetPort = 0xF11E;

constexpr std::array<const char*, 5> kVolumes = {"bank", "replica", "dir",
                                                 "files", "blocks"};
constexpr std::array<const char*, 9> kHandlerOps = {
    "bank.balance", "bank.create_account", "bank.transfer",
    "dir.lookup",   "file.read",           "file.write",
    "block.read",   "block.write",         "rep.append_group"};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string hex(const core::Capability& cap) {
  std::string out;
  for (const std::uint8_t b : core::pack(cap)) {
    static constexpr char kDigits[] = "0123456789abcdef";
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

bool same(const core::Capability& a, const core::Capability& b) {
  return core::pack(a) == core::pack(b);
}

/// Zipf(s) over [0, n): precomputed CDF, sampled by inverse transform.
class Zipf {
 public:
  Zipf(int n, double s) {
    cdf_.reserve(static_cast<std::size_t>(n));
    double total = 0.0;
    for (int i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  [[nodiscard]] int sample(Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform01());
    return static_cast<int>(
        std::min<std::ptrdiff_t>(it - cdf_.begin(),
                                 static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
  }

 private:
  std::vector<double> cdf_;
};

enum class OpClass : std::uint8_t { read, write };

/// One client session: its own machine on the client node, its own
/// transport, and its own generator seeded from the workload seed.
struct Session {
  Session(int index_, int count_, net::Machine& machine, std::uint64_t seed)
      : index(index_),
        count(count_),
        transport(machine, seed * 7919 + static_cast<std::uint64_t>(index_)),
        rng(seed * 1'000'003 + static_cast<std::uint64_t>(index_) + 1) {
    // Durable operations wait for fsync and replication; give them room.
    transport.set_default_timeout(30'000ms);
  }

  /// Runs one client-stub call, timing it when the session is measuring.
  template <typename Fn>
  bool timed(std::uint16_t opcode, OpClass cls, Fn&& fn) {
    const std::int64_t start = now_ns();
    const bool ok = fn();
    const std::int64_t end = now_ns();
    if (measuring) {
      record(ClientOp{transport.client_id(), start, end, opcode, ok}, cls);
    }
    return ok;
  }

  void record(const ClientOp& op, OpClass cls) {
    ++attempted;
    if (keep_ops) {
      ops.push_back(op);
      classes.push_back(cls);
    }
    if (!op.ok) {
      ++failed;
      return;
    }
    const double us = static_cast<double>(op.end_ns - op.start_ns) / 1e3;
    all_us.add(us);
    (cls == OpClass::read ? read_us : write_us).add(us);
    const auto second =
        static_cast<std::size_t>((op.end_ns - t0_ns) / 1'000'000'000);
    if (second >= done_per_s.size()) done_per_s.resize(second + 1, 0.0);
    done_per_s[second] += 1;
    last_end_ns = std::max(last_end_ns, op.end_ns);
  }

  void violation(std::string what) { violations.push_back(std::move(what)); }

  /// Indices this session owns among `n` items: index, index + count, ...
  [[nodiscard]] int owned(int n) const {
    return (n - index + count - 1) / count;
  }
  [[nodiscard]] int nth_owned(int i) const { return index + i * count; }

  const int index;
  const int count;
  rpc::Transport transport;
  Rng rng;
  // Measurement state, set before the window opens.
  bool measuring = false;
  bool keep_ops = false;  // traced runs keep every op for span matching
  std::int64_t t0_ns = 0;
  // What the window recorded.
  std::vector<ClientOp> ops;
  std::vector<OpClass> classes;
  SliceQuantiles all_us;
  SliceQuantiles read_us;
  SliceQuantiles write_us;
  std::vector<double> done_per_s;
  std::int64_t last_end_ns = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;
  std::int64_t checked_sum = 0;  // money seen by verify()
};

/// One SocketNetwork node on 127.0.0.1 hosting one role.
class Node {
 public:
  Node(const std::string& name, std::uint32_t index,
       std::vector<net::PeerAddress> peers, bool listen)
      : index_(index), base_((index + 1) * kNodeMachineSpan) {
    net::SocketNetwork::SocketConfig config;
    config.net.seed = 1000 + index;
    config.net.machine_id_base = base_;
    config.listen = listen;
    config.peers = std::move(peers);
    net_ = std::make_unique<net::SocketNetwork>(config);
    machine_ = &net_->add_machine(name);
    for (std::size_t i = 0; i < config.peers.size(); ++i) {
      if (!net_->wait_connected(i, 10'000ms)) {
        throw std::runtime_error("node " + name + ": peer unreachable");
      }
    }
  }

  [[nodiscard]] net::PeerAddress address() const {
    return {"127.0.0.1", net_->listen_port()};
  }
  [[nodiscard]] net::Machine& machine() { return *machine_; }
  [[nodiscard]] net::Machine& add_machine(const std::string& name) {
    return net_->add_machine(name);
  }
  [[nodiscard]] net::SocketNetwork::SocketStats stats() const {
    return net_->socket_stats();
  }
  [[nodiscard]] std::uint32_t index() const { return index_; }
  [[nodiscard]] std::uint32_t base() const { return base_; }

  void trace_into(TapRecorder& recorder) {
    tap_ = net_->attach_tap(
        [&recorder](const net::TapRecord& r) { recorder.on_frame(r); });
  }
  void stop_tracing() { tap_ = net::TapHandle(); }

 private:
  std::uint32_t index_;
  std::uint32_t base_;
  std::unique_ptr<net::SocketNetwork> net_;
  net::Machine* machine_ = nullptr;
  net::TapHandle tap_;  // declared after net_: detached before it dies
};

/// The deployed roles of one workload plus its client node.  Subclasses
/// declare their servers as members, so servers stop before the nodes
/// (base-class members) they are bound to go away.
class World {
 public:
  World(const RunConfig& config, fs::path volumes, bool traced,
        storage::BackendKind volume_kind = storage::BackendKind::file)
      : config_(config),
        volumes_(std::move(volumes)),
        traced_(traced),
        volume_kind_(volume_kind) {
    Rng scheme_rng(31);
    scheme_ = core::make_scheme(core::SchemeKind::commutative, scheme_rng);
  }
  virtual ~World() = default;
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] virtual std::string backend() const {
    return std::string(storage::to_string(volume_kind_));
  }
  /// Operations the sessions call directly.
  [[nodiscard]] virtual std::vector<std::string> client_ops() const = 0;
  /// Runs once, on session 0, before the parallel population.
  virtual void prepare(Session&) {}
  /// Populates this session's share of the initial state.
  virtual void populate(Session& s) = 0;
  /// Issues one unit of the closed loop (one or more client ops).
  virtual void step(Session& s) = 0;
  /// Checks this session's share of the final state.
  virtual void verify(Session& s) = 0;
  /// Checks that need every session's share.
  virtual void verify_total(std::vector<std::unique_ptr<Session>>&,
                            std::vector<std::string>&) {}

  [[nodiscard]] Node& client_node() { return *nodes_.back(); }
  [[nodiscard]] std::vector<std::unique_ptr<Node>>& nodes() { return nodes_; }
  [[nodiscard]] const std::vector<rpc::Service*>& services() const {
    return services_;
  }
  [[nodiscard]] const std::map<std::string, std::shared_ptr<VolumeMeter>>&
  meters() const {
    return meters_;
  }
  [[nodiscard]] storage::ReplicatedBackend* replicated() const {
    return replicated_;
  }
  [[nodiscard]] TapRecorder& recorder(std::size_t node) {
    return *recorders_[node];
  }
  [[nodiscard]] const EventBudget& event_budget() const {
    return event_budget_;
  }

 protected:
  /// A volume of the world's kind, wrapped in the storage probe when
  /// traced.
  std::shared_ptr<storage::Backend> volume(const std::string& name) {
    auto local = storage::make_backend(volume_kind_, volumes_ / name);
    if (!traced_) return local;
    auto meter = std::make_shared<VolumeMeter>();
    meters_[name] = meter;
    return std::make_shared<MeteredBackend>(std::move(local), meter);
  }

  Node& add_node(const std::string& name, std::vector<net::PeerAddress> peers,
                 bool listen = true) {
    const auto index = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(
        std::make_unique<Node>(name, index, std::move(peers), listen));
    recorders_.push_back(std::make_unique<TapRecorder>(
        index, nodes_.back()->base(), event_budget_));
    return *nodes_.back();
  }

  /// The sessions' node, dialing every server node that takes clients.
  /// Always added last.
  void add_client_node(std::vector<net::PeerAddress> peers) {
    add_node("clients", std::move(peers), /*listen=*/false);
  }

  void serve(rpc::Service& service) {
    service.start(kWorkers);
    services_.push_back(&service);
  }

  const RunConfig& config_;
  std::shared_ptr<const core::ProtectionScheme> scheme_;
  storage::ReplicatedBackend* replicated_ = nullptr;

 private:
  fs::path volumes_;
  bool traced_;
  storage::BackendKind volume_kind_;
  // Frame events kept by all taps of a traced run: ~50 MB.  bank-read
  // fills it in about five seconds; the rest of the window still counts
  // in every counter-based metric.
  EventBudget event_budget_{1'000'000};
  std::vector<std::unique_ptr<TapRecorder>> recorders_;  // outlive the taps
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<rpc::Service*> services_;
  std::map<std::string, std::shared_ptr<VolumeMeter>> meters_;
};

// ---- bank-read -----------------------------------------------------------

class BankRead final : public World {
 public:
  BankRead(const RunConfig& config, fs::path volumes, bool traced)
      : World(config, std::move(volumes), traced),
        zipf_(kBankAccounts, kZipfS),
        accounts_(kBankAccounts),
        expected_(kBankAccounts) {
    Node& bank_node = add_node("bank", {});
    bank_ = std::make_unique<servers::BankServer>(
        bank_node.machine(), Port(kBankGetPort), scheme_, 11);
    serve(*bank_);
    add_client_node({bank_node.address()});
    Rng amounts(config.seed ^ 0xB4A7'0000'0001ULL);
    for (auto& amount : expected_) {
      amount = 1 + static_cast<std::int64_t>(amounts.below(kMintPerAccount));
    }
  }

  [[nodiscard]] std::string backend() const override {
    return "none (in-memory bank)";
  }
  [[nodiscard]] std::vector<std::string> client_ops() const override {
    return {"bank.balance"};
  }

  void populate(Session& s) override {
    servers::BankClient bank(s.transport, bank_->put_port());
    for (int i = 0; i < s.owned(kBankAccounts); ++i) {
      const auto k = static_cast<std::size_t>(s.nth_owned(i));
      auto account = bank.create_account();
      if (!account.ok() ||
          !bank.mint(bank_->master_capability(), account.value(),
                     servers::currency::kDollar, expected_[k])
               .ok()) {
        s.violation("setup: account " + std::to_string(k) + " not minted");
        return;
      }
      accounts_[k] = account.value();
    }
  }

  void step(Session& s) override {
    const auto k = static_cast<std::size_t>(zipf_.sample(s.rng));
    servers::BankClient bank(s.transport, bank_->put_port());
    s.timed(servers::bank_ops::kBalance.opcode, OpClass::read, [&] {
      const auto balance =
          bank.balance(accounts_[k], servers::currency::kDollar);
      if (balance.ok() && balance.value() != expected_[k]) {
        s.violation("bank-read: account " + std::to_string(k) + " reads " +
                    std::to_string(balance.value()) + ", setup left " +
                    std::to_string(expected_[k]));
      }
      return balance.ok();
    });
  }

  void verify(Session& s) override {
    servers::BankClient bank(s.transport, bank_->put_port());
    for (int i = 0; i < s.owned(kBankAccounts); ++i) {
      const auto k = static_cast<std::size_t>(s.nth_owned(i));
      const auto balance =
          bank.balance(accounts_[k], servers::currency::kDollar);
      if (!balance.ok() || balance.value() != expected_[k]) {
        s.violation("bank-read: final balance of account " +
                    std::to_string(k) + " differs from setup");
      }
    }
  }

 private:
  Zipf zipf_;
  std::vector<core::Capability> accounts_;
  std::vector<std::int64_t> expected_;
  std::unique_ptr<servers::BankServer> bank_;
};

// ---- bank-session --------------------------------------------------------

class BankSession final : public World {
 public:
  BankSession(const RunConfig& config, fs::path volumes, bool traced,
              storage::BackendKind volume_kind)
      : World(config, std::move(volumes), traced, volume_kind),
        zipf_(kHotAccounts, kZipfS),
        hot_(kHotAccounts),
        sinks_(static_cast<std::size_t>(config.sessions)) {
    Node& replica_node = add_node("replica", {});
    replica_ = std::make_unique<rpc::ReplicaServer>(
        replica_node.machine(), Port(kReplicaGetPort), scheme_, 21,
        volume("replica"));
    serve(*replica_);
    Node& bank_node = add_node("bank", {replica_node.address()});
    auto backend = rpc::replicate_to(
        volume("bank"), storage::AckMode::ack_one, bank_node.machine(), 22,
        {{"replica", replica_->volume_capability()}});
    replicated_ = backend.get();
    bank_ = std::make_unique<servers::BankServer>(
        bank_node.machine(), Port(kBankGetPort), scheme_, 23, backend);
    serve(*bank_);
    Node& dir_node = add_node("dir", {});
    dir_ = std::make_unique<servers::DirectoryServer>(
        dir_node.machine(), Port(kDirectoryGetPort), scheme_, 24,
        volume("dir"));
    serve(*dir_);
    add_client_node({bank_node.address(), dir_node.address()});
  }

  [[nodiscard]] std::vector<std::string> client_ops() const override {
    return {"dir.lookup", "bank.balance", "bank.create_account",
            "bank.transfer"};
  }

  void prepare(Session& s) override {
    auto root = servers::DirectoryClient(s.transport, dir_->put_port())
                    .create_dir();
    if (!root.ok()) throw std::runtime_error("bank-session: create_dir failed");
    root_ = root.value();
  }

  void populate(Session& s) override {
    servers::BankClient bank(s.transport, bank_->put_port());
    servers::DirectoryClient dir(s.transport, dir_->put_port());
    for (int i = 0; i < s.owned(kHotAccounts); ++i) {
      const int h = s.nth_owned(i);
      auto account = bank.create_account();
      if (!account.ok() ||
          !bank.mint(bank_->master_capability(), account.value(),
                     servers::currency::kDollar, kMintPerAccount)
               .ok() ||
          !dir.enter(root_, name(h), account.value()).ok()) {
        s.violation("setup: hot account " + std::to_string(h) + " not made");
        return;
      }
      hot_[static_cast<std::size_t>(h)] = account.value();
    }
  }

  void step(Session& s) override {
    servers::BankClient bank(s.transport, bank_->put_port());
    servers::DirectoryClient dir(s.transport, dir_->put_port());
    const int h = zipf_.sample(s.rng);
    core::Capability source = hot_[static_cast<std::size_t>(h)];
    s.timed(servers::dir_ops::kLookup.opcode, OpClass::read, [&] {
      auto r = dir.lookup(root_, name(h));
      if (r.ok()) {
        if (!same(r.value(), source)) {
          s.violation("bank-session: " + name(h) + " resolves to " +
                      hex(r.value()));
        }
        source = r.value();
      }
      return r.ok();
    });
    s.timed(servers::bank_ops::kBalance.opcode, OpClass::read, [&] {
      return bank.balance(source, servers::currency::kDollar).ok();
    });
    core::Capability sink;
    if (!s.timed(servers::bank_ops::kCreateAccount.opcode, OpClass::write,
                 [&] {
                   auto r = bank.create_account();
                   if (r.ok()) sink = r.value();
                   return r.ok();
                 })) {
      return;
    }
    const bool confirmed =
        s.timed(servers::bank_ops::kTransfer.opcode, OpClass::write, [&] {
          return bank
              .transfer(source, sink, servers::currency::kDollar,
                        kTransferAmount)
              .ok();
        });
    sinks_[static_cast<std::size_t>(s.index)].push_back({sink, confirmed});
  }

  void verify(Session& s) override {
    servers::BankClient bank(s.transport, bank_->put_port());
    for (int i = 0; i < s.owned(kHotAccounts); ++i) {
      const int h = s.nth_owned(i);
      const auto balance = bank.balance(hot_[static_cast<std::size_t>(h)],
                                        servers::currency::kDollar);
      if (!balance.ok()) {
        s.violation("bank-session: hot account " + std::to_string(h) +
                    " no longer validates");
        continue;
      }
      s.checked_sum += balance.value();
    }
    for (const Sink& sink : sinks_[static_cast<std::size_t>(s.index)]) {
      const auto balance = bank.balance(sink.cap, servers::currency::kDollar);
      if (!balance.ok()) {
        s.violation("bank-session: sink " + hex(sink.cap) +
                    " no longer validates");
        continue;
      }
      const std::int64_t v = balance.value();
      s.checked_sum += v;
      if (sink.confirmed ? v != kTransferAmount
                         : (v != 0 && v != kTransferAmount)) {
        s.violation("bank-session: sink " + hex(sink.cap) + " holds " +
                    std::to_string(v) +
                    (sink.confirmed ? " after a confirmed transfer"
                                    : " after an in-doubt transfer"));
      }
    }
  }

  void verify_total(std::vector<std::unique_ptr<Session>>& sessions,
                    std::vector<std::string>& violations) override {
    std::int64_t total = 0;
    for (const auto& s : sessions) total += s->checked_sum;
    const std::int64_t minted = kHotAccounts * kMintPerAccount;
    if (total != minted) {
      violations.push_back("bank-session: balances sum to " +
                           std::to_string(total) + ", minted " +
                           std::to_string(minted));
    }
  }

 private:
  struct Sink {
    core::Capability cap;
    bool confirmed = false;
  };

  static std::string name(int h) { return "acct-" + std::to_string(h); }

  Zipf zipf_;
  core::Capability root_;
  std::vector<core::Capability> hot_;
  std::vector<std::vector<Sink>> sinks_;  // per session, owner-written
  // Declaration order: the replica outlives the bank shipping to it.
  std::unique_ptr<rpc::ReplicaServer> replica_;
  std::unique_ptr<servers::BankServer> bank_;
  std::unique_ptr<servers::DirectoryServer> dir_;
};

// ---- file-stack ----------------------------------------------------------

class FileStack final : public World {
 public:
  FileStack(const RunConfig& config, fs::path volumes, bool traced)
      : World(config, std::move(volumes), traced),
        caps_(kFiles),
        contents_(kFiles),
        in_doubt_(kFiles, 0) {
    Node& block_node = add_node("blocks", {});
    blocks_ = std::make_unique<servers::BlockServer>(
        block_node.machine(), Port(kBlockGetPort), scheme_, 31,
        servers::BlockServer::Geometry{
            .block_count = static_cast<std::uint32_t>(
                2 * kFiles * (kFileBytes / kChunkBytes)),
            .block_size = static_cast<std::uint32_t>(kChunkBytes),
            .write_once = false},
        volume("blocks"));
    serve(*blocks_);
    Node& file_node = add_node("files", {block_node.address()});
    files_ = std::make_unique<servers::FlatFileServer>(
        file_node.machine(), Port(kFileGetPort), scheme_, 32,
        blocks_->put_port(), volume("files"));
    serve(*files_);
    add_client_node({file_node.address()});
  }

  [[nodiscard]] std::vector<std::string> client_ops() const override {
    return {"file.read", "file.write"};
  }

  void populate(Session& s) override {
    servers::FlatFileClient files(s.transport, files_->put_port());
    for (int i = 0; i < s.owned(kFiles); ++i) {
      const auto k = static_cast<std::size_t>(s.nth_owned(i));
      Buffer content(kFileBytes);
      Rng fill(config_.seed * 31 + k);
      fill.fill(content);
      auto file = files.create();
      const auto written = file.ok() ? files.write(file.value(), 0, content)
                                     : amoeba::Result<void>(file.error());
      if (!written.ok()) {
        s.violation("setup: file " + std::to_string(k) + " not written: " +
                    amoeba::error_name(written.error()));
        return;
      }
      caps_[k] = file.value();
      contents_[k] = std::move(content);
    }
  }

  void step(Session& s) override {
    servers::FlatFileClient files(s.transport, files_->put_port());
    if (s.rng.below(10) < 8) {
      const auto k = static_cast<std::size_t>(s.rng.below(kFiles));
      const bool mine = static_cast<int>(k) % s.count == s.index;
      s.timed(servers::file_ops::kRead.opcode, OpClass::read, [&] {
        auto r = files.read(caps_[k], 0, kFileBytes);
        if (r.ok()) {
          const bool wrong = mine && in_doubt_[k] == 0
                                 ? r.value() != contents_[k]
                                 : r.value().size() != kFileBytes;
          if (wrong) {
            s.violation("file-stack: read of file " + std::to_string(k) +
                        " returned unexpected bytes");
          }
        }
        return r.ok();
      });
      return;
    }
    const auto k = static_cast<std::size_t>(s.nth_owned(
        static_cast<int>(s.rng.below(static_cast<std::uint64_t>(
            s.owned(kFiles))))));
    const std::size_t offset =
        kChunkBytes * s.rng.below(kFileBytes / kChunkBytes);
    Buffer chunk(kChunkBytes);
    s.rng.fill(chunk);
    const bool ok =
        s.timed(servers::file_ops::kWrite.opcode, OpClass::write, [&] {
          return files.write(caps_[k], offset, chunk).ok();
        });
    if (ok) {
      std::memcpy(contents_[k].data() + offset, chunk.data(), chunk.size());
    } else {
      in_doubt_[k] = 1;  // the write may or may not have landed
    }
  }

  void verify(Session& s) override {
    servers::FlatFileClient files(s.transport, files_->put_port());
    for (int i = 0; i < s.owned(kFiles); ++i) {
      const auto k = static_cast<std::size_t>(s.nth_owned(i));
      if (in_doubt_[k] != 0) continue;
      const auto r = files.read(caps_[k], 0, kFileBytes);
      if (!r.ok() || r.value() != contents_[k]) {
        s.violation("file-stack: file " + std::to_string(k) +
                    " does not hold what its session last wrote");
      }
    }
  }

 private:
  std::vector<core::Capability> caps_;
  std::vector<Buffer> contents_;        // per file, owner-written
  std::vector<std::uint8_t> in_doubt_;  // per file, owner-written
  std::unique_ptr<servers::BlockServer> blocks_;
  std::unique_ptr<servers::FlatFileServer> files_;
};

std::unique_ptr<World> make_world(const RunConfig& config,
                                  const fs::path& volumes, bool traced) {
  if (config.workload == "bank-read") {
    return std::make_unique<BankRead>(config, volumes, traced);
  }
  if (config.workload == "bank-session") {
    return std::make_unique<BankSession>(config, volumes, traced,
                                         storage::BackendKind::file);
  }
  if (config.workload == "bank-session-mem") {
    return std::make_unique<BankSession>(config, volumes, traced,
                                         storage::BackendKind::memory);
  }
  if (config.workload == "file-stack") {
    return std::make_unique<FileStack>(config, volumes, traced);
  }
  throw std::invalid_argument("unknown workload " + config.workload);
}

// ---- measurement -----------------------------------------------------------

/// Layer counters read at the window's edges in a traced run.
struct Probe {
  std::vector<net::SocketNetwork::SocketStats> sockets;  // per node
  std::map<std::string, rpc::Service::OpMetricsSnapshot> ops;  // by op name
  std::uint64_t duplicates_suppressed = 0;
  std::uint64_t errors = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t shipped_lsn = 0;
};

Probe probe(World& world,
            const std::vector<std::unique_ptr<Session>>& sessions) {
  Probe p;
  for (const auto& node : world.nodes()) p.sockets.push_back(node->stats());
  for (rpc::Service* service : world.services()) {
    for (const auto& m : service->op_metrics()) {
      p.ops[m.name] = m;
      p.errors += m.errors;
    }
    p.duplicates_suppressed +=
        service->reply_cache_stats().duplicates_suppressed;
  }
  for (const auto& s : sessions) {
    const rpc::Transport::Stats t = s->transport.stats();
    p.timeouts += t.timeouts;
    p.cache_hits += t.cache_hits;
    p.cache_misses += t.cache_misses;
  }
  if (world.replicated() != nullptr) {
    p.shipped_lsn = world.replicated()->stats().shipped_lsn;
  }
  return p;
}

/// Calls `tick` on its own thread at start + k * period (k = 1, 2, ...)
/// until stopped: the window's samplers (CPU marks, replication lag).
class Ticker {
 public:
  Ticker(std::int64_t start_ns, std::chrono::nanoseconds period,
         std::function<void()> tick)
      : tick_(std::move(tick)) {
    thread_ = std::jthread([this, start_ns,
                            period](const std::stop_token& stop) {
      std::unique_lock lock(mutex_);
      auto at = std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(start_ns));
      while (true) {
        at += period;
        (void)cv_.wait_until(lock, stop, at, [] { return false; });
        if (stop.stop_requested()) return;
        tick_();
      }
    });
  }
  Ticker(const Ticker&) = delete;
  Ticker& operator=(const Ticker&) = delete;
  ~Ticker() { stop(); }

  void stop() {
    if (thread_.joinable()) {
      thread_.request_stop();
      thread_.join();
    }
  }

 private:
  std::function<void()> tick_;
  std::mutex mutex_;
  std::condition_variable_any cv_;
  std::jthread thread_;  // last: joins before the members it uses die
};

void put_latency(std::map<std::string, double>& layers,
                 const std::string& prefix, std::vector<double> samples) {
  const LatencySummary s = summarize(samples);
  layers[prefix + "_p50"] = s.p50.value_or(0.0);
  layers[prefix + "_p99"] = s.p99.value_or(0.0);
}

/// Turns one traced window into the per-layer metrics.
void compute_layers(World& world,
                    const std::vector<std::unique_ptr<Session>>& sessions,
                    const Probe& before, const Probe& after,
                    std::vector<FrameEvent> events, std::uint64_t lag_max,
                    const RunResult& run, std::map<std::string, double>& out,
                    std::vector<Span>& spans) {
  for (const LayerMetric& m : per_layer_metrics()) out[m.name] = 0.0;
  // Counter-based metrics cover the whole window; event-based ones the
  // ops that ended before the event budget ran out, all of whose frames
  // were kept.
  const std::uint64_t ops = run.completed();
  const std::int64_t cut = world.event_budget().exhausted_at();
  std::vector<ClientOp> client_ops;
  std::vector<OpClass> classes;
  std::uint64_t analyzed = 0;  // completed ops among client_ops
  for (const auto& s : sessions) {
    for (std::size_t i = 0; i < s->ops.size(); ++i) {
      if (s->ops[i].end_ns >= cut) continue;
      client_ops.push_back(s->ops[i]);
      classes.push_back(s->classes[i]);
      analyzed += s->ops[i].ok ? 1 : 0;
    }
  }

  // net
  std::uint64_t frames = 0;
  std::uint64_t send_failures = 0;
  for (std::size_t i = 0; i < after.sockets.size(); ++i) {
    frames += after.sockets[i].frames_sent - before.sockets[i].frames_sent;
    send_failures +=
        (after.sockets[i].send_failures - before.sockets[i].send_failures) +
        (after.sockets[i].unrouted - before.sockets[i].unrouted);
  }
  std::uint64_t wire = 0;
  std::uint64_t retransmits = 0;
  for (const FrameEvent& e : events) {
    if (!e.outbound) continue;
    wire += e.wire_bytes;
    retransmits += (e.flags & net::kFlagRetransmit) != 0 ? 1 : 0;
  }
  out["net.frames_per_op"] = per_op(static_cast<double>(frames), ops);
  out["net.wire_bytes_per_op"] = per_op(static_cast<double>(wire), analyzed);
  out["net.send_failures"] = static_cast<double>(send_failures);

  const std::uint32_t client_node = world.client_node().index();
  const std::vector<Transaction> txns = match_transactions(std::move(events));
  Trace trace = build_trace(client_ops, txns, client_node, kSpanOps);

  std::vector<double> request_hop, reply_hop, issue, settle, residence;
  double payload = 0;
  for (std::size_t i = 0; i < client_ops.size(); ++i) {
    const int j = trace.op_txn[i];
    if (j < 0) continue;
    const Transaction& t = txns[static_cast<std::size_t>(j)];
    if (classes[i] == OpClass::write) payload += t.req_data_bytes;
  }
  for (const Stages& st : trace.stages) {
    issue.push_back(st.issue_us);
    request_hop.push_back(st.request_hop_us);
    residence.push_back(st.residence_us);
    reply_hop.push_back(st.reply_hop_us);
    settle.push_back(st.settle_us);
  }
  put_latency(out, "net.request_hop_us", request_hop);
  put_latency(out, "net.reply_hop_us", reply_hop);

  // rpc
  out["rpc.client_issue_us_p50"] = summarize(issue).p50.value_or(0.0);
  put_latency(out, "rpc.client_settle_us", settle);
  out["process.ctx_switches_per_op"] =
      per_op(static_cast<double>(run.ctx_switches), ops);
  put_latency(out, "rpc.server_residence_us", residence);

  const auto delta = [&](const std::string& op) {
    rpc::Service::OpMetricsSnapshot d;
    const auto a = after.ops.find(op);
    if (a == after.ops.end()) return d;
    d = a->second;
    const auto b = before.ops.find(op);
    if (b != before.ops.end()) {
      d.calls -= b->second.calls;
      d.errors -= b->second.errors;
      d.total_us -= b->second.total_us;
    }
    return d;
  };
  double handler_us = 0;
  double handler_calls = 0;
  for (const std::string& op : world.client_ops()) {
    const auto d = delta(op);
    handler_us += static_cast<double>(d.total_us);
    handler_calls += static_cast<double>(d.calls);
  }
  out["rpc.server_wait_us_mean"] =
      mean(residence) - ratio(handler_us, handler_calls);
  out["rpc.retransmits_per_op"] =
      per_op(static_cast<double>(retransmits), analyzed);
  out["rpc.timeouts_per_op"] =
      per_op(static_cast<double>(after.timeouts - before.timeouts), ops);
  out["rpc.duplicates_suppressed_per_op"] = per_op(
      static_cast<double>(after.duplicates_suppressed -
                          before.duplicates_suppressed),
      ops);
  const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const double misses =
      static_cast<double>(after.cache_misses - before.cache_misses);
  out["rpc.locate_hit_ratio"] = ratio(hits, hits + misses);

  // servers
  for (const char* op : kHandlerOps) {
    const auto d = delta(op);
    out[std::string("servers.") + op + ".handler_us_mean"] =
        ratio(static_cast<double>(d.total_us), static_cast<double>(d.calls));
  }
  double block_calls = 0;
  double file_calls = 0;
  for (const auto& [name, snap] : after.ops) {
    const double calls = static_cast<double>(delta(name).calls);
    if (name.rfind("block.", 0) == 0) block_calls += calls;
    if (name.rfind("file.", 0) == 0) file_calls += calls;
  }
  out["servers.file.block_calls_per_op"] = ratio(block_calls, file_calls);
  out["servers.errors_per_op"] =
      per_op(static_cast<double>(after.errors - before.errors), ops);

  // storage
  double volume_bytes = 0;
  double failures = 0;
  for (const char* vol : kVolumes) {
    const auto it = world.meters().find(vol);
    if (it == world.meters().end()) continue;
    VolumeMeter::Snapshot m = it->second->snapshot();
    const std::string p = std::string("storage.") + vol + ".";
    out[p + "cycles_per_op"] = per_op(static_cast<double>(m.cycles), ops);
    out[p + "records_per_cycle"] =
        ratio(static_cast<double>(m.records), static_cast<double>(m.cycles));
    put_latency(out, p + "append_us", std::move(m.append_us));
    out[p + "meta_writes_per_op"] =
        per_op(static_cast<double>(m.meta_writes), ops);
    put_latency(out, p + "meta_us", std::move(m.meta_us));
    out[p + "bytes_per_op"] = per_op(static_cast<double>(m.bytes), ops);
    out[p + "busy_us_per_op"] =
        per_op(static_cast<double>(m.busy_ns) / 1e3, ops);
    out[p + "snapshots_per_op"] = per_op(static_cast<double>(m.snapshots), ops);
    volume_bytes += static_cast<double>(m.bytes);
    failures += static_cast<double>(m.failures);
  }
  out["storage.write_amplification"] =
      ratio(volume_bytes, per_op(payload, analyzed) * static_cast<double>(ops));
  out["storage.failures"] = failures;

  // storage/replication
  std::vector<double> ship_rtt;
  for (const Transaction& t : txns) {
    if (t.opcode == rpc::rep_ops::kAppendGroup.opcode && t.req_out >= 0 &&
        t.rep_in >= 0) {
      ship_rtt.push_back(static_cast<double>(t.rep_in - t.req_out) / 1e3);
    }
  }
  out["replication.shipments_per_op"] =
      per_op(static_cast<double>(after.shipped_lsn - before.shipped_lsn), ops);
  put_latency(out, "replication.ship_rtt_us", std::move(ship_rtt));
  out["replication.lag_lsn_max"] = static_cast<double>(lag_max);

  // the client path, stage by stage
  const double stage_sum = mean(issue) + mean(request_hop) + mean(residence) +
                           mean(reply_hop) + mean(settle);
  out["trace.stage_issue_us_mean"] = mean(issue);
  out["trace.stage_request_hop_us_mean"] = mean(request_hop);
  out["trace.stage_residence_us_mean"] = mean(residence);
  out["trace.stage_reply_hop_us_mean"] = mean(reply_hop);
  out["trace.stage_settle_us_mean"] = mean(settle);
  out["trace.stage_sum_us_mean"] = stage_sum;
  std::vector<double> latency;
  for (const ClientOp& op : client_ops) {
    if (op.ok) {
      latency.push_back(static_cast<double>(op.end_ns - op.start_ns) / 1e3);
    }
  }
  out["trace.client_us_mean"] = mean(latency);
  out["trace.stage_coverage"] = ratio(stage_sum, mean(latency));
  out["trace.matched_ratio"] =
      ratio(static_cast<double>(trace.stages.size()),
            static_cast<double>(client_ops.size()));
  out["trace.nested_parented_ratio"] =
      trace.nested == 0
          ? 1.0
          : 1.0 - static_cast<double>(trace.nested_orphans) /
                      static_cast<double>(trace.nested);
  out["trace.spans"] = static_cast<double>(trace.spans.size());
  out["trace.analyzed_ops"] = static_cast<double>(client_ops.size());
  spans = std::move(trace.spans);
}

/// Set-up that failed leaves no world to measure: throws the first
/// violation a session met while populating.
void collect_setup_violations(
    const std::vector<std::unique_ptr<Session>>& sessions) {
  for (const auto& s : sessions) {
    if (!s->violations.empty()) {
      throw std::runtime_error(s->violations.front());
    }
  }
}

/// Builds one world, populates it, and -- when `measured` -- runs the
/// closed loop for the configured window, probes the layers (traced) and
/// checks the final state.
void run_one(const RunConfig& config, const fs::path& volumes, bool measured,
             RunResult& result) {
  const bool traced = config.traced && measured;
  const std::int64_t setup_start = now_ns();
  auto world = make_world(config, volumes, traced);
  result.backend = world->backend();
  std::vector<std::unique_ptr<Session>> sessions;
  for (int i = 0; i < config.sessions; ++i) {
    net::Machine& machine =
        world->client_node().add_machine("session-" + std::to_string(i));
    sessions.push_back(
        std::make_unique<Session>(i, config.sessions, machine, config.seed));
  }
  world->prepare(*sessions.front());

  // Population runs on the session threads, which then wait at `go`, run
  // the untimed warm-up, and wait at `open` so the window opens with every
  // thread already running.
  std::latch populated(config.sessions);
  std::latch go(1);
  std::latch warmed(config.sessions);
  std::latch open(1);
  std::int64_t warm_until_ns = 0;  // published to the threads by `go`
  std::int64_t deadline_ns = 0;    // published to the threads by `open`
  std::vector<std::jthread> threads;
  for (auto& s : sessions) {
    threads.emplace_back([&, session = s.get()] {
      world->populate(*session);
      populated.count_down();
      go.wait();
      while (now_ns() < warm_until_ns) world->step(*session);
      warmed.count_down();
      open.wait();
      while (now_ns() < deadline_ns) world->step(*session);
    });
  }
  bool warming = false;
  const auto warm_up = [&](std::int64_t until) {
    if (std::exchange(warming, true)) return;
    warm_until_ns = until;
    go.count_down();
    warmed.wait();
  };
  bool released = false;
  const auto release = [&](std::int64_t deadline) {
    if (std::exchange(released, true)) return;
    warm_up(0);
    deadline_ns = deadline;
    open.count_down();
    threads.clear();  // joins
  };
  // Whatever throws below, the waiting threads are let go and joined
  // before the stack unwinds past what they use.
  struct ReleaseOnExit {
    const decltype(release)& fn;
    ~ReleaseOnExit() { fn(0); }
  } release_on_exit{release};
  populated.wait();
  collect_setup_violations(sessions);
  const std::int64_t setup_end = now_ns();
  result.setup_s.push_back(static_cast<double>(setup_end - setup_start) / 1e9);
  if (!measured) {
    release(0);
    return;
  }
  warm_up(now_ns() + static_cast<std::int64_t>(config.warmup_s * 1e9));

  Probe before;
  if (traced) {
    for (auto& node : world->nodes()) {
      node->trace_into(world->recorder(node->index()));
    }
    for (const auto& [name, meter] : world->meters()) meter->reset();
    before = probe(*world, sessions);
  }
  const Usage usage0 = process_usage();
  const double steal0 = steal_seconds();
  result.t0_ns = now_ns();
  for (auto& s : sessions) {
    s->measuring = true;
    s->keep_ops = traced;
    s->t0_ns = result.t0_ns;
  }
  // Process CPU at every whole second, for CPU per op slice by slice; the
  // worst replication lag (shipped minus acknowledged LSN), every 2 ms.
  std::vector<double> cpu_marks = {usage0.cpu_s};
  Ticker cpu_ticker(result.t0_ns, 1s,
                    [&] { cpu_marks.push_back(process_usage().cpu_s); });
  std::uint64_t lag_max = 0;
  std::optional<Ticker> lag_ticker;
  if (traced && world->replicated() != nullptr) {
    lag_ticker.emplace(result.t0_ns, 2ms, [&] {
      const auto stats = world->replicated()->stats();
      for (const auto& peer : stats.peers) {
        if (stats.shipped_lsn > peer.acked_lsn) {
          lag_max = std::max(lag_max, stats.shipped_lsn - peer.acked_lsn);
        }
      }
    });
  }
  release(result.t0_ns +
          static_cast<std::int64_t>(config.seconds * 1e9));
  cpu_ticker.stop();
  if (lag_ticker) lag_ticker->stop();
  const Usage usage1 = process_usage();
  result.steal_s = steal_seconds() - steal0;
  Probe after;
  std::vector<FrameEvent> events;
  if (traced) {
    after = probe(*world, sessions);
    for (auto& node : world->nodes()) {
      node->stop_tracing();
      auto e = world->recorder(node->index()).take();
      events.insert(events.end(), e.begin(), e.end());
    }
  }
  for (auto& s : sessions) s->measuring = false;

  std::int64_t last_end = result.t0_ns;
  for (const auto& s : sessions) {
    result.attempted += s->attempted;
    result.failed += s->failed;
    result.all_us.merge(s->all_us);
    result.read_us.merge(s->read_us);
    result.write_us.merge(s->write_us);
    if (s->done_per_s.size() > result.done_per_s.size()) {
      result.done_per_s.resize(s->done_per_s.size(), 0.0);
    }
    for (std::size_t k = 0; k < s->done_per_s.size(); ++k) {
      result.done_per_s[k] += s->done_per_s[k];
    }
    last_end = std::max(last_end, s->last_end_ns);
  }
  result.window_s = static_cast<double>(last_end - result.t0_ns) / 1e9;
  // Only whole seconds count; a trailing partial second is dropped.
  const auto whole = static_cast<std::size_t>(result.window_s);
  result.done_per_s.resize(std::min(result.done_per_s.size(), whole));
  for (std::size_t k = 0; k + 1 < cpu_marks.size() && k < whole; ++k) {
    result.cpu_us_per_s.push_back((cpu_marks[k + 1] - cpu_marks[k]) * 1e6);
  }
  result.cpu_s = usage1.cpu_s - usage0.cpu_s;
  result.ctx_switches = usage1.ctx_switches - usage0.ctx_switches;

  // Correctness: every session checks its share, then the totals.
  {
    std::vector<std::jthread> checkers;
    for (auto& s : sessions) {
      checkers.emplace_back(
          [&world, session = s.get()] { world->verify(*session); });
    }
  }  // joins
  for (const auto& s : sessions) {
    result.violations.insert(result.violations.end(), s->violations.begin(),
                             s->violations.end());
  }
  world->verify_total(sessions, result.violations);

  if (traced) {
    compute_layers(*world, sessions, before, after, std::move(events),
                   lag_max, result, result.layers, result.spans);
  }
  result.peak_rss_mb = process_usage().max_rss_mb;
}

/// The unit a per-layer metric is reported in, from its name.
std::string unit_for(const std::string& name) {
  const auto ends = [&](std::string_view suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
               0;
  };
  if (ends("busy_us_per_op")) return "us/op";
  if (ends("bytes_per_op")) return "B/op";
  if (ends("_per_op")) return "1/op";
  if (ends("_per_cycle")) return "1/cycle";
  if (ends("_p50") || ends("_p99") || ends("_mean") || ends("p50_us")) {
    return "us";
  }
  if (ends("goodput_ops_s")) return "1/s";
  if (ends("lag_lsn_max")) return "lsn";
  if (ends("_ratio") || ends("coverage") || ends("amplification")) {
    return "ratio";
  }
  return "count";
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {
      "bank-read", "bank-session", "bank-session-mem", "file-stack"};
  return kNames;
}

std::vector<LayerMetric> per_layer_metrics() {
  std::vector<std::string> names = {
      "net.frames_per_op",
      "net.wire_bytes_per_op",
      "net.request_hop_us_p50",
      "net.request_hop_us_p99",
      "net.reply_hop_us_p50",
      "net.reply_hop_us_p99",
      "net.send_failures",
      "rpc.client_issue_us_p50",
      "rpc.client_settle_us_p50",
      "rpc.client_settle_us_p99",
      "process.ctx_switches_per_op",
      "rpc.server_residence_us_p50",
      "rpc.server_residence_us_p99",
      "rpc.server_wait_us_mean",
      "rpc.retransmits_per_op",
      "rpc.timeouts_per_op",
      "rpc.duplicates_suppressed_per_op",
      "rpc.locate_hit_ratio",
  };
  for (const char* op : kHandlerOps) {
    names.push_back(std::string("servers.") + op + ".handler_us_mean");
  }
  names.push_back("servers.file.block_calls_per_op");
  names.push_back("servers.errors_per_op");
  for (const char* vol : kVolumes) {
    for (const char* m :
         {"cycles_per_op", "records_per_cycle", "append_us_p50",
          "append_us_p99", "meta_writes_per_op", "meta_us_p50", "meta_us_p99",
          "bytes_per_op", "busy_us_per_op", "snapshots_per_op"}) {
      names.push_back(std::string("storage.") + vol + "." + m);
    }
  }
  names.push_back("storage.write_amplification");
  names.push_back("storage.failures");
  for (const char* m : {"replication.shipments_per_op",
                        "replication.ship_rtt_us_p50",
                        "replication.ship_rtt_us_p99",
                        "replication.lag_lsn_max"}) {
    names.push_back(m);
  }
  for (const char* m :
       {"trace.stage_issue_us_mean", "trace.stage_request_hop_us_mean",
        "trace.stage_residence_us_mean", "trace.stage_reply_hop_us_mean",
        "trace.stage_settle_us_mean", "trace.stage_sum_us_mean",
        "trace.client_us_mean", "trace.stage_coverage", "trace.matched_ratio",
        "trace.nested_parented_ratio", "trace.spans", "trace.analyzed_ops",
        "trace.goodput_ops_s",
        "trace.p50_us", "trace.overhead_p50_ratio",
        "trace.overhead_goodput_ratio"}) {
    names.push_back(m);
  }
  std::vector<LayerMetric> metrics;
  for (std::string& name : names) {
    std::string unit = unit_for(name);
    metrics.push_back({std::move(name), std::move(unit)});
  }
  return metrics;
}

RunResult run_workload(const RunConfig& config) {
  if (config.sessions < 1) throw std::invalid_argument("sessions must be >= 1");
  RunResult result;
  for (int k = 0; k < config.setups; ++k) {
    const fs::path volumes = config.work_dir / ("setup-" + std::to_string(k));
    fs::remove_all(volumes);
    fs::create_directories(volumes);
    try {
      run_one(config, volumes, k + 1 == config.setups, result);
    } catch (...) {
      fs::remove_all(volumes);
      throw;
    }
    fs::remove_all(volumes);
  }
  return result;
}

}  // namespace perfbench
