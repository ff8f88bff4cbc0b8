// Typed operation descriptors over the standard message format (§2.1).
//
// Every Amoeba operation has the same wire anatomy: an opcode, the
// capability of the object being operated on in the header slot, up to
// four scalar parameters, and a bulk data field that may carry strings,
// further capabilities, or raw bytes.  Instead of every server hand-coding
// that mapping (magic opcode constants, raw params[i] casts, per-field
// Writer/Reader loops), an Op<Request, Reply> descriptor states it once,
// declaratively:
//
//   struct TransferRequest {
//     std::uint32_t currency = 0;
//     std::int64_t amount = 0;
//     core::Capability to;
//     using Wire = rpc::Layout<TransferRequest,
//                              rpc::Param<0, &TransferRequest::currency>,
//                              rpc::Param<1, &TransferRequest::amount>,
//                              rpc::Data<&TransferRequest::to>>;
//   };
//   inline constexpr rpc::Op<TransferRequest, rpc::Empty> kTransfer{
//       0x0503, "bank.transfer", bank_rights::kWithdraw,
//       bank_rights::kDeposit};
//
// The descriptor carries the opcode, a diagnostic name, and the rights the
// header capability must grant -- the §2.3 rights-restriction model made
// declarative, so the dispatch layer (rpc/typed.hpp) can validate before
// any handler code runs.  The field codecs reproduce the existing wire
// format exactly (same slots, same little-endian serial layout), so typed
// and untyped peers interoperate frame for frame.
//
// Field kinds:
//   Param<slot, &T::member>  scalar in header params[slot] (integral,
//                            enum, or Rights)
//   Data<&T::member>         serialized into the data field in declaration
//                            order (strings are u32-length-prefixed,
//                            capabilities are 16 raw bytes, vectors are
//                            u32-count-prefixed; extend via ADL
//                            wire_write/wire_read overloads)
//   RawData<&T::member>      a Buffer member that IS the unprefixed tail
//                            of the data field (bulk payloads); must be
//                            the last field
//   CapSlot<&T::member>      a capability in the header capability slot
//                            (the shape of every "here is your new
//                            capability" reply)
//
// Decoding is total and strict: any underflow, malformed element, or
// trailing garbage yields nullopt, which the dispatcher maps to
// invalid_argument with an op-named diagnostic.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "amoeba/common/serial.hpp"
#include "amoeba/common/types.hpp"
#include "amoeba/core/capability.hpp"
#include "amoeba/net/message.hpp"

namespace amoeba {

// ---------------------------------------------------------------------
// Data-field element codecs.  Overloads live in namespace amoeba (found
// through Writer/Reader by ADL); server headers add their own for domain
// types (e.g. DirEntry).  Readers return false on malformation.

inline void wire_write(Writer& w, const std::string& s) { w.str(s); }
[[nodiscard]] inline bool wire_read(Reader& r, std::string& s) {
  s = r.str();
  return r.ok();
}

inline void wire_write(Writer& w, const core::Capability& cap) {
  w.raw(core::pack(cap));  // 16 raw bytes, the Fig. 2 image
}
[[nodiscard]] inline bool wire_read(Reader& r, core::Capability& cap) {
  core::CapabilityBytes bytes{};
  r.raw(bytes);
  cap = core::unpack(bytes);
  return r.ok();
}

/// u32-count-prefixed sequence (the directory list / MAKE PROCESS shape).
template <typename E>
void wire_write(Writer& w, const std::vector<E>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (const auto& e : v) {
    wire_write(w, e);
  }
}
template <typename E>
[[nodiscard]] bool wire_read(Reader& r, std::vector<E>& v) {
  const std::uint32_t count = r.u32();
  // Every element encoding occupies at least one byte, so a count beyond
  // the remaining bytes is hostile; reject before allocating.
  if (!r.ok() || count > r.remaining()) {
    return false;
  }
  v.clear();
  v.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    E element{};
    if (!wire_read(r, element)) {
      return false;
    }
    v.push_back(std::move(element));
  }
  return r.ok();
}

/// Trailing-optional: present = encoded as usual, absent = nothing.  Only
/// meaningful as the last field of a layout (absence is "no bytes left").
template <typename T>
void wire_write(Writer& w, const std::optional<T>& v) {
  if (v.has_value()) {
    wire_write(w, *v);
  }
}
template <typename T>
[[nodiscard]] bool wire_read(Reader& r, std::optional<T>& v) {
  if (r.remaining() == 0) {
    v.reset();
    return r.ok();
  }
  T inner{};
  if (!wire_read(r, inner)) {
    return false;
  }
  v = std::move(inner);
  return true;
}

}  // namespace amoeba

namespace amoeba::rpc {

// ---------------------------------------------------------------------
// Wire images: where a request/reply body materializes on the standard
// message format.  WireImage owns (encoding), WireView borrows (decoding).

struct WireImage {
  net::CapabilityBytes capability{};
  std::array<std::uint64_t, 4> params{};
  Buffer data;
};

struct WireView {
  net::CapabilityBytes capability{};
  std::array<std::uint64_t, 4> params{};
  std::span<const std::uint8_t> data;
};

[[nodiscard]] inline WireView view_of(const net::Message& msg) {
  return WireView{msg.header.capability, msg.header.params, msg.data};
}

// ---------------------------------------------------------------------
// Param-slot codecs: how a field type round-trips through a u64 slot.

template <typename T>
struct ParamCodec {
  static_assert(std::is_integral_v<T> || std::is_enum_v<T>,
                "params[] fields must be integral, enum, or Rights");
  [[nodiscard]] static constexpr std::uint64_t put(T v) {
    return static_cast<std::uint64_t>(v);
  }
  [[nodiscard]] static constexpr T get(std::uint64_t raw) {
    return static_cast<T>(raw);
  }
};

template <>
struct ParamCodec<Rights> {
  [[nodiscard]] static constexpr std::uint64_t put(Rights r) {
    return r.bits();
  }
  [[nodiscard]] static constexpr Rights get(std::uint64_t raw) {
    return Rights(static_cast<std::uint8_t>(raw));
  }
};

namespace detail {
template <typename M>
struct MemberPtr;
template <typename C, typename T>
struct MemberPtr<T C::*> {
  using Class = C;
  using Type = T;
};
}  // namespace detail

// ---------------------------------------------------------------------
// Field descriptors.  Each provides encode(body, image, writer) and
// decode(body, view, reader); Layout folds them in declaration order.

template <std::size_t Slot, auto Member>
struct Param {
  static_assert(Slot < 4, "the header carries four scalar params");
  using Body = typename detail::MemberPtr<decltype(Member)>::Class;
  using Type = typename detail::MemberPtr<decltype(Member)>::Type;

  static void encode(const Body& body, WireImage& image, Writer&) {
    image.params[Slot] = ParamCodec<Type>::put(body.*Member);
  }
  [[nodiscard]] static bool decode(Body& body, const WireView& view,
                                   Reader&) {
    body.*Member = ParamCodec<Type>::get(view.params[Slot]);
    return true;
  }
};

template <auto Member>
struct Data {
  using Body = typename detail::MemberPtr<decltype(Member)>::Class;

  static void encode(const Body& body, WireImage&, Writer& w) {
    wire_write(w, body.*Member);
  }
  [[nodiscard]] static bool decode(Body& body, const WireView&, Reader& r) {
    return wire_read(r, body.*Member);
  }
};

template <auto Member>
struct RawData {
  using Body = typename detail::MemberPtr<decltype(Member)>::Class;
  static_assert(
      std::is_same_v<typename detail::MemberPtr<decltype(Member)>::Type,
                     Buffer>,
      "RawData fields must be Buffers");

  static void encode(const Body& body, WireImage&, Writer& w) {
    w.raw(body.*Member);
  }
  [[nodiscard]] static bool decode(Body& body, const WireView&, Reader& r) {
    (body.*Member).resize(r.remaining());
    r.raw(body.*Member);
    return r.ok();
  }
};

template <auto Member>
struct CapSlot {
  using Body = typename detail::MemberPtr<decltype(Member)>::Class;
  static_assert(
      std::is_same_v<typename detail::MemberPtr<decltype(Member)>::Type,
                     core::Capability>,
      "CapSlot fields must be core::Capability");

  static void encode(const Body& body, WireImage& image, Writer&) {
    image.capability = core::pack(body.*Member);
  }
  [[nodiscard]] static bool decode(Body& body, const WireView& view,
                                   Reader&) {
    body.*Member = core::unpack(view.capability);
    return true;
  }
};

// ---------------------------------------------------------------------
// Layout: the ordered field list of one body type.

template <typename Body, typename... Fields>
struct Layout {
  static void encode(const Body& body, WireImage& image) {
    Writer w;
    (Fields::encode(body, image, w), ...);
    image.data = w.take();
  }

  [[nodiscard]] static std::optional<Body> decode(const WireView& view) {
    Body body{};
    Reader r(view.data);
    const bool fields_ok = (Fields::decode(body, view, r) && ...);
    if (!fields_ok || !r.exhausted()) {
      return std::nullopt;  // underflow, bad element, or trailing bytes
    }
    return body;
  }
};

/// A request or reply with no payload at all.
struct Empty {
  using Wire = Layout<Empty>;
};

/// The shape of every "here is your new capability" reply: the capability
/// travels in the header slot, exactly where clients always found it.
struct CapabilityReply {
  core::Capability capability;
  using Wire = Layout<CapabilityReply, CapSlot<&CapabilityReply::capability>>;
};

/// Bulk payload request/reply: the whole data field, unprefixed (file and
/// segment reads/writes).
struct BytesRequest {
  Buffer bytes;
  using Wire = Layout<BytesRequest, RawData<&BytesRequest::bytes>>;
};
struct BytesReply {
  Buffer bytes;
  using Wire = Layout<BytesReply, RawData<&BytesReply::bytes>>;
};

/// Anything with a declared wire layout.
template <typename T>
concept WireBody = requires { typename T::Wire; };

// ---------------------------------------------------------------------
// The operation descriptor.

/// Tag for operations that create objects rather than addressing one: the
/// header capability slot is unused and nothing is validated.
struct FactoryTag {};
inline constexpr FactoryTag kFactoryOp{};

/// Tag for operations with no effect: the handler journals nothing, marks
/// nothing dirty, mints and destroys nothing, and every nested call it
/// makes is itself read-only.  Re-running such an op after a crash cannot
/// be told apart from answering its duplicate, so the service persists
/// neither a reply-cache floor nor a reply body for it
/// (docs/PROTOCOL.md §8.4).
struct ReadOnlyTag {};
inline constexpr ReadOnlyTag kReadOnly{};

/// One declared operation: opcode, diagnostic name, the rights the header
/// capability must grant (validated by the dispatch layer before the
/// handler runs), and -- for operations that consume further capabilities
/// from the data field -- the rights handlers demand of those, so every
/// rights requirement of the op lives in this one declaration.
template <typename RequestT, typename ReplyT>
struct Op {
  using Request = RequestT;
  using Reply = ReplyT;
  static_assert(WireBody<RequestT> && WireBody<ReplyT>,
                "Op bodies must declare a Wire layout");

  std::uint16_t opcode = 0;
  const char* name = "";
  Rights required = Rights::none();     // header capability must grant these
  Rights data_rights = Rights::none();  // demanded of data-field capabilities
  bool object = true;      // false: factory op, no header capability
  bool read_only = false;  // true: no effect (kReadOnly)

  constexpr Op(std::uint16_t opcode_, const char* name_, Rights required_,
               Rights data_rights_ = Rights::none())
      : opcode(opcode_),
        name(name_),
        required(required_),
        data_rights(data_rights_) {}

  constexpr Op(std::uint16_t opcode_, const char* name_, Rights required_,
               ReadOnlyTag)
      : opcode(opcode_), name(name_), required(required_), read_only(true) {}

  constexpr Op(std::uint16_t opcode_, const char* name_, FactoryTag,
               Rights data_rights_ = Rights::none())
      : opcode(opcode_),
        name(name_),
        data_rights(data_rights_),
        object(false) {}

  constexpr Op(std::uint16_t opcode_, const char* name_, FactoryTag,
               ReadOnlyTag)
      : opcode(opcode_), name(name_), object(false), read_only(true) {}
};

}  // namespace amoeba::rpc
