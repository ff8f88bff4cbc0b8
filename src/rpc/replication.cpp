#include "amoeba/rpc/replication.hpp"

#include <utility>

#include "amoeba/rpc/typed.hpp"

namespace amoeba::rpc {

ReplicaServer::ReplicaServer(net::Machine& machine, Port get_port,
                             std::shared_ptr<const core::ProtectionScheme> scheme,
                             std::uint64_t seed,
                             std::shared_ptr<storage::Backend> local)
    : Service(machine, get_port, "replica"),
      applier_(std::move(local)),
      store_(std::move(scheme), machine.fbox().listen_port(get_port), seed) {
  // The control-plane store is deliberately in-memory: the volume
  // capability is deployment configuration (minted fresh per incarnation
  // and handed to the primary), not replicated state.  The DATA the
  // applier maintains lives in the local backend and survives restarts.
  volume_ = store_.create(Volume{});

  register_std_ops(*this, store_);
  set_info_detail([this] {
    std::string line =
        applier_.promoted() ? "role=promoted" : "role=backup";
    line += " applied=" + std::to_string(applier_.applied());
    return line;
  });

  on(rep_ops::kAppendGroup, store_,
     [this](const auto& call) -> Result<rep_ops::AckReply> {
       const auto applied = applier_.apply_cycle(call.body.frame);
       if (!applied.ok()) {
         return applied.error();
       }
       return rep_ops::AckReply{applied.value()};
     });
  on(rep_ops::kInstallSnapshot, store_,
     [this](const auto& call) -> Result<rep_ops::AckReply> {
       const auto applied = applier_.install_snapshot(
           call.body.rep_lsn, static_cast<std::size_t>(call.body.shard),
           call.body.bytes);
       if (!applied.ok()) {
         return applied.error();
       }
       return rep_ops::AckReply{applied.value()};
     });
  on(rep_ops::kHeartbeat, store_,
     [this](const auto&) -> Result<rep_ops::AckReply> {
       return rep_ops::AckReply{applier_.applied()};
     });
  on(rep_ops::kPromote, store_,
     [this](const auto&) -> Result<rep_ops::AckReply> {
       return rep_ops::AckReply{applier_.promote()};
     });
}

TransportReplicationLink::TransportReplicationLink(net::Machine& machine,
                                                   std::uint64_t seed,
                                                   std::string peer_name,
                                                   core::Capability volume)
    : transport_(machine, seed),
      peer_name_(std::move(peer_name)),
      volume_(volume) {}

std::string TransportReplicationLink::peer_name() const { return peer_name_; }

namespace {

/// One rep.* transaction whose data field is `bytes`: they are copied once,
/// straight into the wire message, where filling the request's own
/// Buffer first would copy them twice (both ops' RawData field is the
/// whole data field).
template <typename OpT>
[[nodiscard]] Result<std::uint64_t> ship(Transport& transport,
                                         const core::Capability& volume,
                                         const OpT& op,
                                         const typename OpT::Request& params,
                                         std::span<const std::uint8_t> bytes) {
  net::Message request =
      make_request(volume.server_port, op, volume, params);
  request.data.assign(bytes.begin(), bytes.end());
  const auto reply =
      TypedFuture<OpT>(transport.trans_async(std::move(request))).get();
  if (!reply.ok()) {
    return reply.error();
  }
  return reply.value().applied;
}

}  // namespace

Result<std::uint64_t> TransportReplicationLink::ship_cycle(
    std::span<const std::uint8_t> frame) {
  return ship(transport_, volume_, rep_ops::kAppendGroup, {}, frame);
}

Result<std::uint64_t> TransportReplicationLink::ship_snapshot(
    std::uint64_t rep_lsn, std::size_t shard,
    std::span<const std::uint8_t> bytes) {
  return ship(transport_, volume_, rep_ops::kInstallSnapshot,
              {rep_lsn, shard, {}}, bytes);
}

Result<std::uint64_t> TransportReplicationLink::heartbeat(
    std::uint64_t shipped) {
  const auto reply = call(transport_, volume_.server_port,
                          rep_ops::kHeartbeat, volume_, {shipped});
  if (!reply.ok()) {
    return reply.error();
  }
  return reply.value().applied;
}

std::shared_ptr<storage::ReplicatedBackend> replicate_to(
    std::shared_ptr<storage::Backend> local, storage::AckMode mode,
    net::Machine& machine, std::uint64_t seed,
    const std::vector<ReplicaTarget>& targets) {
  auto replicated =
      std::make_shared<storage::ReplicatedBackend>(std::move(local), mode);
  for (const ReplicaTarget& target : targets) {
    replicated->attach_peer(std::make_shared<TransportReplicationLink>(
        machine, seed, target.name, target.volume));
  }
  return replicated;
}

Result<std::uint64_t> rep_promote(Transport& transport,
                                  const core::Capability& volume) {
  const auto reply =
      call(transport, volume.server_port, rep_ops::kPromote, volume);
  if (!reply.ok()) {
    return reply.error();
  }
  return reply.value().applied;
}

}  // namespace amoeba::rpc
