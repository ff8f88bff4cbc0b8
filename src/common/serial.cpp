#include "amoeba/common/serial.hpp"

#include <cstring>

namespace amoeba {

void Writer::u8(std::uint8_t v) { out_.push_back(v); }

void Writer::u16(std::uint16_t v) {
  out_.push_back(static_cast<std::uint8_t>(v));
  out_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Writer::u48(std::uint64_t v) {
  for (int i = 0; i < 6; ++i) {
    out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Writer::bytes(std::span<const std::uint8_t> data) {
  u32(static_cast<std::uint32_t>(data.size()));
  out_.insert(out_.end(), data.begin(), data.end());
}

void Writer::varint(std::uint64_t v) {
  while (v >= 0x80) {
    out_.push_back(static_cast<std::uint8_t>(v | 0x80));
    v >>= 7;
  }
  out_.push_back(static_cast<std::uint8_t>(v));
}

void Writer::varbytes(std::span<const std::uint8_t> data) {
  varint(data.size());
  out_.insert(out_.end(), data.begin(), data.end());
}

void Writer::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  out_.insert(out_.end(), s.begin(), s.end());
}

void Writer::raw(std::span<const std::uint8_t> data) {
  out_.insert(out_.end(), data.begin(), data.end());
}

bool Reader::take(std::size_t n, const std::uint8_t** out) {
  if (failed_ || data_.size() - pos_ < n) {
    failed_ = true;
    return false;
  }
  *out = data_.data() + pos_;
  pos_ += n;
  return true;
}

std::uint8_t Reader::u8() {
  const std::uint8_t* p = nullptr;
  return take(1, &p) ? *p : 0;
}

std::uint16_t Reader::u16() {
  const std::uint8_t* p = nullptr;
  if (!take(2, &p)) return 0;
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t Reader::u32() {
  const std::uint8_t* p = nullptr;
  if (!take(4, &p)) return 0;
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t Reader::u48() {
  const std::uint8_t* p = nullptr;
  if (!take(6, &p)) return 0;
  std::uint64_t v = 0;
  for (int i = 5; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t Reader::u64() {
  const std::uint8_t* p = nullptr;
  if (!take(8, &p)) return 0;
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

Buffer Reader::bytes() {
  const std::uint32_t n = u32();
  const std::uint8_t* p = nullptr;
  if (!take(n, &p)) return {};
  return Buffer(p, p + n);
}

std::uint64_t Reader::varint() {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    const std::uint8_t b = u8();
    v |= std::uint64_t{b & 0x7Fu} << shift;
    if ((b & 0x80) == 0) {
      return failed_ ? 0 : v;
    }
  }
  failed_ = true;  // overlong: no u64 needs an 11th byte
  return 0;
}

Buffer Reader::varbytes() {
  const std::uint64_t n = varint();
  const std::uint8_t* p = nullptr;
  if (n > remaining() || !take(static_cast<std::size_t>(n), &p)) {
    failed_ = true;
    return {};
  }
  return Buffer(p, p + n);
}

std::string Reader::str() {
  const std::uint32_t n = u32();
  const std::uint8_t* p = nullptr;
  if (!take(n, &p)) return {};
  return std::string(reinterpret_cast<const char*>(p), n);
}

void Reader::raw(std::span<std::uint8_t> out) {
  if (out.empty()) {
    return;  // nothing to fill; memcpy/memset forbid null even for n = 0
  }
  const std::uint8_t* p = nullptr;
  if (!take(out.size(), &p)) {
    std::memset(out.data(), 0, out.size());
    return;
  }
  std::memcpy(out.data(), p, out.size());
}

}  // namespace amoeba
