#include "ext/slz.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/codec.h"
#include "common/log.h"

namespace sion::ext {

namespace {

constexpr char kSlzMagic[4] = {'S', 'L', 'Z', '1'};
constexpr std::size_t kSlzHeaderBytes = 12;  // magic + u64 size

std::byte* put_varint(std::byte* op, std::uint64_t v) {
  while (v >= 0x80) {
    *op++ = static_cast<std::byte>((v & 0x7F) | 0x80);
    v >>= 7;
  }
  *op++ = static_cast<std::byte>(v);
  return op;
}

// Canonical LEB128 only: at most 10 bytes, the 10th byte may carry nothing
// but bit 63, and a terminating 0x00 byte is canonical only for the
// single-byte encoding of zero. Anything else means two byte sequences
// would alias to one value (overlong encodings) or high bits would be
// silently dropped (overflow past 64 bits) — both hide corruption, so both
// are decode failures.
bool get_varint_slow(const std::byte*& ip, const std::byte* iend,
                     std::uint64_t& v) {
  v = 0;
  for (int shift = 0; shift <= 63 && ip < iend; shift += 7) {
    const auto b = std::to_integer<std::uint64_t>(*ip++);
    if (shift == 63 && (b & 0x7E) != 0) return false;  // bits >= 64
    v |= (b & 0x7F) << shift;
    if ((b & 0x80) == 0) {
      return b != 0 || shift == 0;  // overlong: zero high byte
    }
  }
  return false;  // truncated, or continuation past the 10th byte
}

// Almost every control and distance fits one byte (always canonical).
inline bool get_varint(const std::byte*& ip, const std::byte* iend,
                       std::uint64_t& v) {
  if (ip < iend && (std::to_integer<unsigned>(*ip) & 0x80U) == 0) {
    v = std::to_integer<std::uint64_t>(*ip++);
    return true;
  }
  return get_varint_slow(ip, iend, v);
}

std::uint32_t hash4(const std::byte* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> 19;  // 13-bit table
}

std::uint64_t load64(const std::byte* p) {
  return sion::detail::load_le<std::uint64_t>(p);
}

void copy8(std::byte* dst, const std::byte* src) { std::memcpy(dst, src, 8); }
void copy16(std::byte* dst, const std::byte* src) {
  std::memcpy(dst, src, 16);
}

// Length of the common prefix of [a, end) and [b, ...), b < a: 8 bytes per
// step, the first differing byte located by the XOR's trailing zeros.
std::size_t match_length(const std::byte* a, const std::byte* b,
                         const std::byte* end) {
  const std::byte* const start = a;
  while (end - a >= 8) {
    const std::uint64_t x = load64(a) ^ load64(b);
    if (x != 0) {
      return static_cast<std::size_t>(a - start) +
             static_cast<std::size_t>(std::countr_zero(x) / 8);
    }
    a += 8;
    b += 8;
  }
  while (a < end && *a == *b) {
    ++a;
    ++b;
  }
  return static_cast<std::size_t>(a - start);
}

std::byte* flush_literals(std::byte* op, const std::byte* lit,
                          std::size_t run) {
  if (run == 0) return op;
  op = put_varint(op, static_cast<std::uint64_t>(run) << 1);  // even = literals
  std::memcpy(op, lit, run);
  return op + run;
}

std::uint64_t header_size(std::span<const std::byte> input) {
  return load64(input.data() + 4);
}

bool has_magic(std::span<const std::byte> input) {
  return input.size() >= kSlzHeaderBytes &&
         std::memcmp(input.data(), kSlzMagic, 4) == 0;
}

// Output the tokens after the header would produce, walked without copying
// and abandoned once it passes `limit` (so a forged header cannot make the
// vector API allocate more than the stream can actually fill).
std::uint64_t token_extent(std::span<const std::byte> input,
                           std::uint64_t limit) {
  const std::byte* ip = input.data() + kSlzHeaderBytes;
  const std::byte* const iend = input.data() + input.size();
  std::uint64_t produced = 0;
  while (produced <= limit && ip < iend) {
    std::uint64_t control = 0;
    if (!get_varint(ip, iend, control)) break;
    if ((control & 1) == 0) {
      const std::uint64_t run = control >> 1;
      if (run > static_cast<std::uint64_t>(iend - ip)) break;
      ip += run;
      produced += run;
    } else {
      std::uint64_t dist = 0;
      if (!get_varint(ip, iend, dist)) break;
      produced += std::min<std::uint64_t>((control >> 1) + kSlzMinMatch,
                                          limit + 1);
    }
  }
  return produced;
}

}  // namespace

std::size_t slz_compress_into(std::span<const std::byte> input,
                              std::span<std::byte> out) {
  SION_CHECK(out.size() >= slz_compress_bound(input.size()));
  std::byte* op = out.data();
  std::memcpy(op, kSlzMagic, 4);
  sion::detail::store_le<std::uint64_t>(op + 4, input.size());
  op += kSlzHeaderBytes;

  constexpr std::size_t kTableSize = 1 << 13;
  std::vector<std::size_t> table(kTableSize, SIZE_MAX);

  const std::byte* const in = input.data();
  const std::size_t n = input.size();
  std::size_t pos = 0;
  std::size_t lit_start = 0;
  while (pos + kSlzMinMatch <= n) {
    const std::uint32_t h = hash4(in + pos) & (kTableSize - 1);
    const std::size_t candidate = table[h];
    table[h] = pos;
    if (candidate != SIZE_MAX && pos - candidate <= kSlzWindow &&
        std::memcmp(in + candidate, in + pos, kSlzMinMatch) == 0) {
      // Extend the match as far as it goes.
      const std::size_t len =
          kSlzMinMatch + match_length(in + pos + kSlzMinMatch,
                                      in + candidate + kSlzMinMatch, in + n);
      op = flush_literals(op, in + lit_start, pos - lit_start);
      const std::uint64_t control =
          (static_cast<std::uint64_t>(len - kSlzMinMatch) << 1) | 1;
      op = put_varint(op, control);
      op = put_varint(op, static_cast<std::uint64_t>(pos - candidate));
      // Seed the table sparsely inside the match to keep compression O(n).
      const std::size_t end = pos + len;
      for (std::size_t p = pos + 1; p + kSlzMinMatch <= end && p < pos + 16;
           ++p) {
        table[hash4(in + p) & (kTableSize - 1)] = p;
      }
      pos = end;
      lit_start = pos;
    } else {
      ++pos;
    }
  }
  op = flush_literals(op, in + lit_start, n - lit_start);
  return static_cast<std::size_t>(op - out.data());
}

std::vector<std::byte> slz_compress(std::span<const std::byte> input) {
  std::vector<std::byte> out(slz_compress_bound(input.size()));
  out.resize(slz_compress_into(input, out));
  return out;
}

Status slz_decompress_into(std::span<const std::byte> input,
                           std::span<std::byte> out) {
  if (!has_magic(input)) return Corrupt("not an slz stream");
  if (header_size(input) != out.size()) {
    return Corrupt("slz stream size differs from the output buffer");
  }
  const std::byte* ip = input.data() + kSlzHeaderBytes;
  const std::byte* const iend = input.data() + input.size();
  std::byte* const obegin = out.data();
  std::byte* op = obegin;
  std::byte* const oend = obegin + out.size();
  // Copies may run up to 16 bytes past the token's end while both buffers
  // have that much room (the excess is overwritten by the next token); near
  // either end they fall back to exact copies.
  while (op < oend) {
    std::uint64_t control = 0;
    if (!get_varint(ip, iend, control)) return Corrupt("truncated token");
    const auto out_room = static_cast<std::uint64_t>(oend - op);
    if ((control & 1) == 0) {
      const std::uint64_t run = control >> 1;
      const auto in_room = static_cast<std::uint64_t>(iend - ip);
      if (run > in_room) return Corrupt("truncated literal run");
      if (run > out_room) return Corrupt("literal run overflows");
      if (run <= 16 && in_room >= 16 && out_room >= 16) {
        copy16(op, ip);
      } else {
        std::memcpy(op, ip, static_cast<std::size_t>(run));
      }
      ip += run;
      op += run;
      continue;
    }
    const std::uint64_t len = (control >> 1) + kSlzMinMatch;
    std::uint64_t dist = 0;
    if (!get_varint(ip, iend, dist)) return Corrupt("truncated distance");
    if (dist == 0 || dist > static_cast<std::uint64_t>(op - obegin)) {
      return Corrupt("bad match distance");
    }
    if (len > out_room) return Corrupt("match overflows");
    const std::byte* src = op - dist;
    std::byte* const mend = op + len;
    // Each step reads only bytes written before it: a step of s bytes from
    // src = op - dist needs dist >= s, which is what makes matches that
    // overlap themselves (RLE-style) come out right.
    if (dist >= 16 && out_room - len >= 16) {
      for (; op < mend; op += 16, src += 16) copy16(op, src);
    } else if (dist >= 8) {
      for (; mend - op >= 8; op += 8, src += 8) copy8(op, src);
      while (op < mend) *op++ = *src++;
    } else {
      while (op < mend) *op++ = *src++;
    }
    op = mend;
  }
  if (ip != iend) return Corrupt("trailing garbage after stream");
  return Status::Ok();
}

Result<std::vector<std::byte>> slz_decompress(std::span<const std::byte> input,
                                              std::uint64_t max_bytes) {
  if (!has_magic(input)) return Corrupt("not an slz stream");
  const std::uint64_t usize = header_size(input);
  if (usize > kSlzMaxDecode || usize > max_bytes) {
    return Corrupt("absurd uncompressed size");
  }
  // The header size is corruption-controlled: allocate only once the tokens
  // are known to produce exactly that much, so a forged multi-TiB size over
  // a short stream costs a token walk, not a reservation.
  if (token_extent(input, usize) != usize) {
    return Corrupt("slz tokens do not produce the stream's size");
  }
  std::vector<std::byte> out(static_cast<std::size_t>(usize));
  SION_RETURN_IF_ERROR(slz_decompress_into(input, out));
  return out;
}

}  // namespace sion::ext
