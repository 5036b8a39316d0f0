#include "ext/compress.h"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

#include "common/codec.h"
#include "common/log.h"
#include "common/strings.h"
#include "ext/slz.h"

namespace sion::ext {

namespace {

// Slicing-by-8 tables: kCrc32cTables[0] is the classic bytewise table and
// kCrc32cTables[k][b] advances byte b through k further zero bytes, so one
// step folds 8 input bytes with 8 independent lookups.
constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrc32cTables = [] {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = ((c & 1u) != 0u) ? (0x82F63B78u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}();

std::uint32_t crc32c_update_sliced(std::uint32_t crc, const std::byte* p,
                                   std::size_t n) {
  const auto& t = kCrc32cTables;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint64_t w = sion::detail::load_le<std::uint64_t>(p) ^ crc;
    crc = t[7][w & 0xFFu] ^ t[6][(w >> 8) & 0xFFu] ^ t[5][(w >> 16) & 0xFFu] ^
          t[4][(w >> 24) & 0xFFu] ^ t[3][(w >> 32) & 0xFFu] ^
          t[2][(w >> 40) & 0xFFu] ^ t[1][(w >> 48) & 0xFFu] ^ t[0][w >> 56];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ std::to_integer<std::uint32_t>(*p)) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__)
// The SSE4.2 crc32 instruction computes exactly this polynomial; the target
// attribute enables it for this function alone, and crc32c() calls it only
// on CPUs that report the feature.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_update_sse42(
    std::uint32_t crc, const std::byte* p, std::size_t n) {
  std::uint64_t c = crc;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    c = _mm_crc32_u64(c, w);
  }
  auto c32 = static_cast<std::uint32_t>(c);
  for (; n > 0; ++p, --n) {
    c32 = _mm_crc32_u8(c32, std::to_integer<std::uint8_t>(*p));
  }
  return c32;
}
#endif

std::uint32_t get_u32(std::span<const std::byte> in, std::size_t off) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    v |= std::to_integer<std::uint32_t>(in[off + i]) << (8 * i);
  }
  return v;
}

struct Header {
  std::uint32_t comp_bytes = 0;
  std::uint32_t raw_bytes = 0;
};

// Validates sync, header CRC and the format caps; the lengths of a valid
// header are trustworthy (a random flip cannot also fix the CRC).
bool parse_header(std::span<const std::byte> hdr, Header* out) {
  if (hdr.size() < kFrameHeaderBytes) return false;
  if (std::memcmp(hdr.data(), kFrameSync.data(), kFrameSync.size()) != 0) {
    return false;
  }
  if (crc32c(hdr.first(16)) != get_u32(hdr, 16)) return false;
  out->comp_bytes = get_u32(hdr, 8);
  out->raw_bytes = get_u32(hdr, 12);
  return out->raw_bytes <= kMaxFrameRawBytes &&
         out->comp_bytes <= kMaxFrameCompBytes;
}

// First offset >= `from` where the sync marker starts, or `end` if none;
// reads the encoded stream in overlapping windows.
Result<std::uint64_t> scan_for_sync(std::uint64_t from, std::uint64_t end,
                                    const ReadAtFn& read_at) {
  const std::uint64_t kWindow = 64 * kKiB;
  std::vector<std::byte> buf(static_cast<std::size_t>(
      std::min<std::uint64_t>(kWindow, end > from ? end - from : 0)));
  std::uint64_t pos = from;
  while (end - pos >= kFrameSync.size()) {
    const std::uint64_t want = std::min<std::uint64_t>(kWindow, end - pos);
    SION_ASSIGN_OR_RETURN(
        const std::uint64_t got,
        read_at(pos, std::span<std::byte>(buf.data(),
                                          static_cast<std::size_t>(want))));
    if (got < kFrameSync.size()) return end;
    const auto hay = std::span<const std::byte>(
        buf.data(), static_cast<std::size_t>(got));
    const auto it = std::search(hay.begin(), hay.end(), kFrameSync.begin(),
                                kFrameSync.end());
    if (it != hay.end()) {
      return pos + static_cast<std::uint64_t>(it - hay.begin());
    }
    if (got < want) return end;  // stream ended early
    pos += got - (kFrameSync.size() - 1);  // overlap a partial marker
  }
  return end;
}

// Verify one frame body (slz stream + payload CRC) and decode it into `out`,
// which the caller sized from the CRC-checked header's raw_bytes. False when
// the frame is damaged; `out` is then unspecified.
bool decode_body(std::span<const std::byte> body, std::span<std::byte> out) {
  const auto payload = body.first(body.size() - kFrameTrailerBytes);
  return crc32c(payload) == get_u32(body, payload.size()) &&
         slz_decompress_into(payload, out).ok();
}

void count_frame(StreamLossReport& loss, const FrameEntry& e, bool damaged) {
  if (damaged) {
    loss.frames_skipped += 1;
    loss.bytes_zero_filled += e.decoded_bytes;
  } else {
    loss.frames_decoded += 1;
  }
}

}  // namespace

namespace detail {

std::uint32_t crc32c_portable(std::span<const std::byte> data) {
  return ~crc32c_update_sliced(0xFFFFFFFFu, data.data(), data.size());
}

#if defined(__x86_64__)
bool crc32c_hw_available() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return has;
}

std::uint32_t crc32c_hw(std::span<const std::byte> data) {
  SION_CHECK(crc32c_hw_available());
  return ~crc32c_update_sse42(0xFFFFFFFFu, data.data(), data.size());
}
#else
bool crc32c_hw_available() { return false; }

std::uint32_t crc32c_hw(std::span<const std::byte> data) {
  return crc32c_portable(data);
}
#endif

}  // namespace detail

std::uint32_t crc32c(std::span<const std::byte> data) {
  return detail::crc32c_hw_available() ? detail::crc32c_hw(data)
                                       : detail::crc32c_portable(data);
}

Result<std::vector<std::byte>> compress_stream(std::span<const std::byte> input,
                                               const CompressionSpec& spec) {
  const std::uint64_t chunk =
      std::clamp<std::uint64_t>(spec.chunk_bytes, 512, kMaxFrameRawBytes);
  std::vector<std::byte> out;
  out.reserve(input.size() / 2 + 64);
  for (std::uint64_t pos = 0; pos < input.size(); pos += chunk) {
    const auto raw = input.subspan(
        static_cast<std::size_t>(pos),
        static_cast<std::size_t>(
            std::min<std::uint64_t>(chunk, input.size() - pos)));
    // slz writes straight into the stream, which grows by the frame's worst
    // case and is trimmed back to the bytes actually produced.
    const std::size_t at = out.size();
    const auto bound = static_cast<std::size_t>(slz_compress_bound(raw.size()));
    out.resize(at + kFrameHeaderBytes + bound + kFrameTrailerBytes);
    std::byte* const frame = out.data() + at;
    const std::size_t comp = slz_compress_into(
        raw, std::span<std::byte>(frame + kFrameHeaderBytes, bound));
    std::memcpy(frame, kFrameSync.data(), kFrameSync.size());
    sion::detail::store_le(frame + 8, static_cast<std::uint32_t>(comp));
    sion::detail::store_le(frame + 12, static_cast<std::uint32_t>(raw.size()));
    sion::detail::store_le(frame + 16,
                           crc32c(std::span<const std::byte>(frame, 16)));
    sion::detail::store_le(
        frame + kFrameHeaderBytes + comp,
        crc32c(std::span<const std::byte>(frame + kFrameHeaderBytes, comp)));
    out.resize(at + kFrameHeaderBytes + comp + kFrameTrailerBytes);
  }
  // Give back the last frame's unused worst-case room: callers hold many
  // encoded streams at once (one per task until the collective write).
  out.shrink_to_fit();
  return out;
}

Result<FrameIndex> index_frames(std::uint64_t encoded_bytes,
                                const ReadAtFn& read_at) {
  FrameIndex idx;
  idx.encoded_bytes = encoded_bytes;
  std::array<std::byte, kFrameHeaderBytes> hdr{};
  std::uint64_t pos = 0;
  while (pos < encoded_bytes) {
    Header h;
    bool valid = false;
    if (encoded_bytes - pos >= kFrameHeaderBytes) {
      SION_ASSIGN_OR_RETURN(const std::uint64_t got,
                            read_at(pos, std::span<std::byte>(hdr)));
      valid = got == hdr.size() &&
              parse_header(std::span<const std::byte>(hdr), &h);
    }
    if (valid) {
      FrameEntry e;
      e.encoded_offset = pos;
      e.decoded_offset = idx.decoded_bytes;
      e.decoded_bytes = h.raw_bytes;
      e.comp_bytes = h.comp_bytes;
      const std::uint64_t body_end =
          pos + kFrameHeaderBytes + h.comp_bytes + kFrameTrailerBytes;
      if (body_end > encoded_bytes) {
        e.encoded_bytes = encoded_bytes - pos;
        e.torn = true;
        pos = encoded_bytes;
      } else {
        e.encoded_bytes = body_end - pos;
        pos = body_end;
      }
      idx.decoded_bytes += e.decoded_bytes;
      idx.frames.push_back(e);
    } else {
      // No frame here: discard up to the next sync marker. The extent of
      // whatever lived in this region is unknowable, so it contributes no
      // decoded bytes — one damaged region counts as one skipped frame.
      SION_ASSIGN_OR_RETURN(const std::uint64_t next,
                            scan_for_sync(pos + 1, encoded_bytes, read_at));
      idx.scan_loss.frames_skipped += 1;
      idx.scan_loss.bytes_discarded += next - pos;
      pos = next;
    }
  }
  return idx;
}

FrameStreamReader::FrameStreamReader(FrameIndex index, ReadAtFn read_at,
                                     StreamLossReport* loss)
    : index_(std::move(index)),
      read_at_(std::move(read_at)),
      loss_(loss),
      loss_counted_(index_.frames.size(), false) {
  if (loss_ != nullptr) loss_->merge(index_.scan_loss);
}

Status FrameStreamReader::materialize(std::size_t frame_i) {
  const FrameEntry& e = index_.frames[frame_i];
  // Sized from the CRC-checked header (at most kMaxFrameRawBytes) and
  // replaced rather than resized, so a reader never holds more than the
  // current frame. The decoder or the zero fill below overwrites every byte.
  cache_ = std::vector<std::byte>(static_cast<std::size_t>(e.decoded_bytes));
  cache_i_ = frame_i;
  bool damaged = e.torn;
  if (!damaged) {
    std::vector<std::byte> body(
        static_cast<std::size_t>(e.comp_bytes + kFrameTrailerBytes));
    SION_ASSIGN_OR_RETURN(
        const std::uint64_t got,
        read_at_(e.encoded_offset + kFrameHeaderBytes,
                 std::span<std::byte>(body)));
    encoded_read_ += kFrameHeaderBytes + got;
    damaged = got != body.size() || !decode_body(body, cache_);
  }
  if (damaged) std::fill(cache_.begin(), cache_.end(), std::byte{0});
  if (!loss_counted_[frame_i] && loss_ != nullptr) {
    count_frame(*loss_, e, damaged);
  }
  loss_counted_[frame_i] = true;
  return Status::Ok();
}

Status FrameStreamReader::read_decoded(std::uint64_t offset,
                                       std::span<std::byte> out) {
  if (offset + out.size() > index_.decoded_bytes) {
    return OutOfRange(strformat(
        "decoded read [%llu, %llu) past stream end %llu",
        static_cast<unsigned long long>(offset),
        static_cast<unsigned long long>(offset + out.size()),
        static_cast<unsigned long long>(index_.decoded_bytes)));
  }
  // First frame whose decoded range reaches `offset`.
  std::size_t i = static_cast<std::size_t>(
      std::upper_bound(index_.frames.begin(), index_.frames.end(), offset,
                       [](std::uint64_t off, const FrameEntry& e) {
                         return off < e.decoded_offset;
                       }) -
      index_.frames.begin());
  if (i > 0) --i;
  std::uint64_t done = 0;
  while (done < out.size()) {
    const FrameEntry& e = index_.frames[i];
    const std::uint64_t cur = offset + done;
    if (cur >= e.decoded_offset + e.decoded_bytes) {
      ++i;
      continue;
    }
    if (cache_i_ != i) SION_RETURN_IF_ERROR(materialize(i));
    const std::uint64_t in_frame = cur - e.decoded_offset;
    const std::uint64_t n = std::min<std::uint64_t>(
        e.decoded_bytes - in_frame, out.size() - done);
    std::memcpy(out.data() + done, cache_.data() + in_frame,
                static_cast<std::size_t>(n));
    done += n;
  }
  return Status::Ok();
}

Result<std::vector<std::byte>> decompress_stream(
    std::span<const std::byte> encoded, StreamLossReport* loss) {
  const ReadAtFn read_at =
      [encoded](std::uint64_t offset,
                std::span<std::byte> out) -> Result<std::uint64_t> {
    if (offset >= encoded.size()) return std::uint64_t{0};
    const std::uint64_t n =
        std::min<std::uint64_t>(out.size(), encoded.size() - offset);
    std::memcpy(out.data(), encoded.data() + offset,
                static_cast<std::size_t>(n));
    return n;
  };
  SION_ASSIGN_OR_RETURN(const FrameIndex index,
                        index_frames(encoded.size(), read_at));
  // The whole stream is in memory: every frame decodes straight from
  // `encoded` into its place in the output.
  StreamLossReport local = index.scan_loss;
  std::vector<std::byte> out(static_cast<std::size_t>(index.decoded_bytes));
  for (const FrameEntry& e : index.frames) {
    const auto dst = std::span<std::byte>(out).subspan(
        static_cast<std::size_t>(e.decoded_offset),
        static_cast<std::size_t>(e.decoded_bytes));
    bool damaged = e.torn;
    if (!damaged) {
      const auto body = encoded.subspan(
          static_cast<std::size_t>(e.encoded_offset + kFrameHeaderBytes),
          e.comp_bytes + kFrameTrailerBytes);
      damaged = !decode_body(body, dst);
    }
    if (damaged) std::fill(dst.begin(), dst.end(), std::byte{0});
    count_frame(local, e, damaged);
  }
  if (loss != nullptr) loss->merge(local);
  return out;
}

bool stream_is_framed(std::span<const std::byte> head) {
  return head.size() >= kFrameSync.size() &&
         std::memcmp(head.data(), kFrameSync.data(), kFrameSync.size()) == 0;
}

}  // namespace sion::ext
