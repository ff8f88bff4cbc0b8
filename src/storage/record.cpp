#include "amoeba/storage/record.hpp"

namespace amoeba::storage {
namespace {

constexpr std::uint32_t kSnapshotMagic = 0x414D534Eu;  // "AMSN"
/// Version 2 frames each slot with a varint object delta and a varint
/// payload length; version 1 used a u32 object number and a u32 length.
constexpr std::uint16_t kSnapshotVersion = 2;
constexpr std::uint16_t kSnapshotVersionFixedWidth = 1;

}  // namespace

std::uint32_t frame_checksum(std::span<const std::uint8_t> bytes) {
  std::uint32_t h = 0x811C9DC5u;  // FNV-1a
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x01000193u;
  }
  return h;
}

namespace {

inline void put_u32(Buffer& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

inline void put_u64(Buffer& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

inline void patch_u32(Buffer& out, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
  }
}

}  // namespace

void encode_record_into(RecordType type, ObjectNumber object,
                        std::uint64_t secret, std::uint64_t lsn,
                        std::span<const std::uint8_t> payload, Buffer& out) {
  // Framed in place (this is the journaling hot path: one reserve, no
  // temporary buffers): length u32 | checksum u32 | body, both patched
  // once the body is written.  Growth stays geometric when records
  // accumulate into one buffer (recovery merges, commit-log GC): a bare
  // reserve(size + frame) would reallocate -- and copy the whole journal
  // -- once per record.
  const std::size_t need = out.size() + 8 + 25 + payload.size();
  if (out.capacity() < need) {
    out.reserve(std::max(need, out.capacity() * 2));
  }
  const std::size_t frame_at = out.size();
  put_u32(out, 0);  // length placeholder
  put_u32(out, 0);  // checksum placeholder
  const std::size_t body_at = out.size();
  out.push_back(static_cast<std::uint8_t>(type));
  put_u32(out, object.value());
  put_u64(out, secret);
  put_u64(out, lsn);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  const auto body = std::span<const std::uint8_t>(out.data() + body_at,
                                                  out.size() - body_at);
  patch_u32(out, frame_at, static_cast<std::uint32_t>(body.size()));
  patch_u32(out, frame_at + 4, frame_checksum(body));
}

void encode_record(const Record& record, Buffer& out) {
  encode_record_into(record.type, record.object, record.secret, record.lsn,
                     record.payload, out);
}

std::vector<Record> decode_journal(std::span<const std::uint8_t> journal,
                                   bool* torn_tail) {
  std::vector<Record> records;
  if (torn_tail != nullptr) {
    *torn_tail = false;
  }
  std::size_t pos = 0;
  while (pos < journal.size()) {
    Reader frame(journal.subspan(pos));
    const std::uint32_t length = frame.u32();
    const std::uint32_t checksum = frame.u32();
    if (!frame.ok() || frame.remaining() < length) {
      if (torn_tail != nullptr) {
        *torn_tail = true;  // torn final append: recovery stops here
      }
      break;
    }
    const auto body = journal.subspan(pos + 8, length);
    if (frame_checksum(body) != checksum) {
      if (torn_tail != nullptr) {
        *torn_tail = true;
      }
      break;
    }
    Reader r(body);
    Record record;
    record.type = static_cast<RecordType>(r.u8());
    record.object = r.object();
    record.secret = r.u64();
    record.lsn = r.u64();
    record.payload = r.bytes();
    if (!r.ok() || record.type < RecordType::create ||
        record.type > RecordType::delta) {
      if (torn_tail != nullptr) {
        *torn_tail = true;
      }
      break;
    }
    records.push_back(std::move(record));
    pos += 8 + length;
  }
  return records;
}

SnapshotEncoder::SnapshotEncoder(std::uint64_t applied_lsn,
                                 std::uint32_t slots)
    : slots_(slots) {
  out_.u32(kSnapshotMagic);
  out_.u16(kSnapshotVersion);
  out_.u64(applied_lsn);
  out_.u32(slots);
}

void SnapshotEncoder::reserve(std::size_t payload_bytes) {
  // Header, then per slot: a one-byte delta (ascending objects of one
  // shard), the secret, the payload length and the payload.
  const std::size_t length_bytes = payload_bytes < 0x80 ? 1 : 2;
  out_.reserve(4 + 2 + 8 + 4 +
               std::size_t{slots_} * (1 + 8 + length_bytes + payload_bytes));
}

void SnapshotEncoder::add(ObjectNumber object, std::uint64_t secret,
                          std::span<const std::uint8_t> payload) {
  // Unsigned wrap-around: an out-of-order slot costs a long delta, not a
  // wrong object.
  out_.varint(object.value() - previous_);
  previous_ = object.value();
  out_.u64(secret);
  out_.varbytes(payload);
}

Buffer encode_snapshot(const std::vector<SnapshotSlot>& slots,
                       std::uint64_t applied_lsn) {
  SnapshotEncoder encoder(applied_lsn,
                          static_cast<std::uint32_t>(slots.size()));
  for (const SnapshotSlot& slot : slots) {
    encoder.add(slot.object, slot.secret, slot.payload);
  }
  return encoder.take();
}

bool decode_snapshot(std::span<const std::uint8_t> bytes,
                     std::vector<SnapshotSlot>& out,
                     std::uint64_t& applied_lsn) {
  out.clear();
  applied_lsn = 0;
  if (bytes.empty()) {
    return true;  // fresh shard: no snapshot installed yet
  }
  Reader r(bytes);
  if (r.u32() != kSnapshotMagic) {
    return false;
  }
  const std::uint16_t version = r.u16();
  if (version != kSnapshotVersion && version != kSnapshotVersionFixedWidth) {
    return false;
  }
  applied_lsn = r.u64();
  const std::uint32_t count = r.u32();
  out.reserve(count);
  std::uint32_t object = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    SnapshotSlot slot;
    if (version == kSnapshotVersionFixedWidth) {
      slot.object = r.object();
      slot.secret = r.u64();
      slot.payload = r.bytes();
    } else {
      object += static_cast<std::uint32_t>(r.varint());
      slot.object = ObjectNumber(object);
      slot.secret = r.u64();
      slot.payload = r.varbytes();
    }
    if (!r.ok()) {
      out.clear();
      return false;
    }
    out.push_back(std::move(slot));
  }
  return r.exhausted();
}

}  // namespace amoeba::storage
