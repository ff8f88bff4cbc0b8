// Journal record and snapshot framing for the durable object store.
//
// The write-ahead discipline (the recoverable-server treatment in Aspnes's
// notes, and Amoeba's durable bullet/directory servers in spirit): every
// state change of an object-store shard is first appended to that shard's
// journal as one self-delimiting record; a snapshot is a compact image of
// every live slot, after which the journal restarts empty.  Recovery
// replays snapshot-then-journal.  Records carry everything a capability
// needs to survive a crash -- the object number, the secret check-field
// number, and the serialized payload -- so capabilities issued before the
// crash validate unchanged after restart.
//
// Framing.  Each record is `length u32 | checksum u32 | body`, where the
// checksum is FNV-1a over the body.  A crash can tear the tail of an
// append-only journal; decode_journal() stops cleanly at the first
// truncated or corrupt frame instead of failing recovery, which is exactly
// the contract a torn final write needs.  Replay is idempotent: applying a
// prefix of the journal twice (snapshot installed, journal not yet
// truncated when the power died) converges to the same table.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "amoeba/common/serial.hpp"
#include "amoeba/common/types.hpp"

namespace amoeba::storage {

/// One journaled state change of one object slot.
enum class RecordType : std::uint8_t {
  create = 1,   // slot became live: secret + payload
  mutate = 2,   // payload overwritten (secret unchanged)
  destroy = 3,  // slot freed; its number returns to the free list
  rotate = 4,   // secret replaced (revocation); payload unchanged
  delta = 5,    // payload patched in place: server-defined byte-range
                // patch applied by the Durability::apply_delta codec (a
                // one-page write no longer journals the whole file image)
};

/// Decoded journal record.  `payload` is the server-defined serialized
/// object image (valid for create/mutate); `secret` is the check-field
/// secret (valid for create/rotate).  `lsn` is the shard-local log
/// sequence number: replay skips records at or below the snapshot's
/// applied LSN, which makes the file backend's crash window between
/// snapshot rename and journal truncate harmless (stale records replay as
/// no-ops instead of regressing payloads).
struct Record {
  RecordType type = RecordType::create;
  ObjectNumber object;
  std::uint64_t secret = 0;
  std::uint64_t lsn = 0;
  Buffer payload;
};

/// FNV-1a over `bytes`: the checksum every frame in the storage layer uses
/// (journal records here, and the file backend's commit-log group frames).
[[nodiscard]] std::uint32_t frame_checksum(std::span<const std::uint8_t> bytes);

/// Appends one framed record to `out` (length + checksum + body).
void encode_record(const Record& record, Buffer& out);

/// Field-wise form of encode_record for the journaling hot path: the
/// payload arrives as a view (typically a reused scratch buffer), so one
/// append costs no intermediate allocations.
void encode_record_into(RecordType type, ObjectNumber object,
                        std::uint64_t secret, std::uint64_t lsn,
                        std::span<const std::uint8_t> payload, Buffer& out);

/// Parses a journal byte run into records, tolerating a torn tail: a
/// truncated or checksum-failing frame ends the parse (everything before
/// it is returned).  `torn_tail`, when non-null, reports whether the
/// journal ended mid-frame.
[[nodiscard]] std::vector<Record> decode_journal(
    std::span<const std::uint8_t> journal, bool* torn_tail = nullptr);

/// One live slot inside a shard snapshot.
struct SnapshotSlot {
  ObjectNumber object;
  std::uint64_t secret = 0;
  Buffer payload;
};

/// Streams a shard snapshot into one buffer, slot by slot, for encoders
/// that hold no slot images; produces the bytes encode_snapshot() makes
/// of the same slots.  Slots are framed with a varint object delta from
/// the previous slot and a varint payload length (docs/PROTOCOL.md §8.3),
/// so adding them in ascending object order keeps the frame small; any
/// order decodes.
class SnapshotEncoder {
 public:
  /// Writes the header announcing `slots` slots; exactly that many add()
  /// calls must follow.
  SnapshotEncoder(std::uint64_t applied_lsn, std::uint32_t slots);
  /// Pre-sizes the image for the announced slots, assuming payloads of
  /// `payload_bytes` each.
  void reserve(std::size_t payload_bytes);
  void add(ObjectNumber object, std::uint64_t secret,
           std::span<const std::uint8_t> payload);
  [[nodiscard]] Buffer take() { return out_.take(); }

 private:
  Writer out_;
  std::uint32_t slots_;
  std::uint32_t previous_ = 0;  // object number of the last slot added
};

/// Serializes a shard snapshot (magic + version + applied LSN + slot
/// images).  `applied_lsn` is the LSN of the last journal record the
/// snapshot subsumes.
[[nodiscard]] Buffer encode_snapshot(const std::vector<SnapshotSlot>& slots,
                                     std::uint64_t applied_lsn);

/// Parses a shard snapshot; empty input decodes as an empty snapshot with
/// applied LSN 0.  Reads the current format and the fixed-width slot
/// framing of version 1.  Returns false on a malformed (non-empty,
/// non-conforming) image.
[[nodiscard]] bool decode_snapshot(std::span<const std::uint8_t> bytes,
                                   std::vector<SnapshotSlot>& out,
                                   std::uint64_t& applied_lsn);

}  // namespace amoeba::storage
