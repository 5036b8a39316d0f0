// Byte-order-safe binary encoding, used by the SION multifile format.
//
// Everything on disk is little-endian regardless of host order, so multifiles
// written on one machine are readable on another (the paper's multifile is
// explicitly accessible "both from a parallel and a serial application",
// possibly on a different frontend architecture).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace sion {

namespace detail {
template <typename T>
inline T load_le(const std::byte* p) {
  T v{};
  std::memcpy(&v, p, sizeof(T));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  if constexpr (sizeof(T) == 2) v = static_cast<T>(__builtin_bswap16(v));
  if constexpr (sizeof(T) == 4) v = static_cast<T>(__builtin_bswap32(v));
  if constexpr (sizeof(T) == 8) v = static_cast<T>(__builtin_bswap64(v));
#endif
  return v;
}

template <typename T>
inline void store_le(std::byte* p, T v) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  if constexpr (sizeof(T) == 2) v = static_cast<T>(__builtin_bswap16(v));
  if constexpr (sizeof(T) == 4) v = static_cast<T>(__builtin_bswap32(v));
  if constexpr (sizeof(T) == 8) v = static_cast<T>(__builtin_bswap64(v));
#endif
  std::memcpy(p, &v, sizeof(T));
}
}  // namespace detail

// Append-only encoder producing a contiguous byte buffer.
class ByteWriter {
 public:
  ByteWriter() = default;

  void put_u8(std::uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }

  template <typename T>
  void put_le(T v) {
    static_assert(sizeof(T) == 2 || sizeof(T) == 4 || sizeof(T) == 8);
    const std::size_t at = buf_.size();
    buf_.resize(at + sizeof(T));
    detail::store_le(buf_.data() + at, v);
  }

  void put_u16(std::uint16_t v) { put_le(v); }
  void put_u32(std::uint32_t v) { put_le(v); }
  void put_u64(std::uint64_t v) { put_le(v); }
  void put_i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }

  void put_f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    put_u64(bits);
  }

  void put_bytes(std::span<const std::byte> bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  // Length-prefixed (u32) string.
  void put_string(std::string_view s) {
    put_u32(static_cast<std::uint32_t>(s.size()));
    const auto* p = reinterpret_cast<const std::byte*>(s.data());
    buf_.insert(buf_.end(), p, p + s.size());
  }

  // Length-prefixed (u64 count) array of u64 values.
  void put_u64_array(std::span<const std::uint64_t> values) {
    put_u64(values.size());
    for (std::uint64_t v : values) put_u64(v);
  }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] const std::vector<std::byte>& bytes() const { return buf_; }
  [[nodiscard]] std::vector<std::byte> take() { return std::move(buf_); }

  // Pad the buffer with zero bytes up to `target` size.
  void pad_to(std::size_t target) {
    if (buf_.size() < target) buf_.resize(target, std::byte{0});
  }

 private:
  std::vector<std::byte> buf_;
};

// Cursor-based decoder over a byte span. All reads are bounds-checked and
// report kCorrupt on truncation, because the dominant caller is the multifile
// metadata parser reading possibly-damaged files.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] std::size_t position() const { return pos_; }

  Status skip(std::size_t n) {
    if (remaining() < n) return Corrupt("truncated input while skipping");
    pos_ += n;
    return Status::Ok();
  }

  Result<std::uint8_t> get_u8() {
    if (remaining() < 1) return Corrupt("truncated u8");
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  template <typename T>
  Result<T> get_le() {
    static_assert(sizeof(T) == 2 || sizeof(T) == 4 || sizeof(T) == 8);
    if (remaining() < sizeof(T)) return Corrupt("truncated integer");
    T v = detail::load_le<T>(data_.data() + pos_);
    pos_ += sizeof(T);
    return v;
  }

  Result<std::uint16_t> get_u16() { return get_le<std::uint16_t>(); }
  Result<std::uint32_t> get_u32() { return get_le<std::uint32_t>(); }
  Result<std::uint64_t> get_u64() { return get_le<std::uint64_t>(); }
  Result<std::int64_t> get_i64() {
    SION_ASSIGN_OR_RETURN(std::uint64_t raw, get_u64());
    return static_cast<std::int64_t>(raw);
  }

  Result<double> get_f64() {
    SION_ASSIGN_OR_RETURN(std::uint64_t bits, get_u64());
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  Result<std::string> get_string() {
    SION_ASSIGN_OR_RETURN(std::uint32_t n, get_u32());
    if (remaining() < n) return Corrupt("truncated string payload");
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  Result<std::vector<std::uint64_t>> get_u64_array() {
    SION_ASSIGN_OR_RETURN(std::uint64_t n, get_u64());
    if (remaining() / sizeof(std::uint64_t) < n) {
      return Corrupt("truncated u64 array");
    }
    std::vector<std::uint64_t> out;
    out.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      out.push_back(detail::load_le<std::uint64_t>(data_.data() + pos_));
      pos_ += sizeof(std::uint64_t);
    }
    return out;
  }

  Result<std::span<const std::byte>> get_bytes(std::size_t n) {
    if (remaining() < n) return Corrupt("truncated byte payload");
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

 private:
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace sion
