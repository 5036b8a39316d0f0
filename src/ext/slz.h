// slz: a small, self-contained LZ77-style byte codec.
//
// The paper's section 6 lists "transparent file compression ... (e.g., via
// integrating zlib)" as planned work, and the Scalasca use case (section
// 5.2) compresses trace data with zlib before writing. No external
// compression library exists in this reproduction, so slz provides the same
// role from scratch: greedy hash-chain matching over a 64 KiB window with a
// varint token stream. It favours simplicity and speed over ratio.
//
// Stream format (little-endian):
//   magic "SLZ1" (4 B) | u64 uncompressed size | tokens...
// Token: control varint C.
//   C even:  literal run of C/2 bytes, which follow verbatim.
//   C odd:   match; C>>1 = length - kMinMatch, followed by varint distance.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"

namespace sion::ext {

inline constexpr std::size_t kSlzMinMatch = 4;
inline constexpr std::size_t kSlzWindow = 64 * 1024;

// Hard ceiling on the self-described uncompressed size a stream may claim.
// Callers that know the expected output (e.g. the ext/compress.h framing
// layer, whose frame header carries the raw size) should pass a tighter
// `max_bytes` so a forged header cannot drive large allocations.
inline constexpr std::uint64_t kSlzMaxDecode = 1ULL << 40;

// Largest stream slz_compress can emit for `n` input bytes. A match token
// never outgrows the >= 4 bytes it replaces (one control byte up to length
// 67, at most 3 distance bytes inside the 64 KiB window), and literal runs
// cost at most one varint byte per 5 input bytes (a 1-byte run between two
// 4-byte matches), so n + n/4 plus the header bounds it.
[[nodiscard]] constexpr std::uint64_t slz_compress_bound(std::uint64_t n) {
  return n + n / 4 + 32;
}

std::vector<std::byte> slz_compress(std::span<const std::byte> input);

// Compress into caller memory of at least slz_compress_bound(input.size())
// bytes; returns the stream length. Same bytes as slz_compress.
std::size_t slz_compress_into(std::span<const std::byte> input,
                              std::span<std::byte> out);

// Decode into exactly `out`: a stream whose header size differs from
// out.size() is Corrupt, as is any malformed token (non-canonical varint,
// match distance reaching before the output, run past either buffer,
// trailing bytes). Never writes outside `out`; on failure its contents are
// unspecified.
[[nodiscard]] Status slz_decompress_into(std::span<const std::byte> input,
                                         std::span<std::byte> out);

// Self-describing: the uncompressed size comes from the stream header.
// Streams claiming more than `max_bytes` are rejected as Corrupt, and the
// output is allocated only after a walk over the tokens shows they produce
// exactly the header's size, so a forged size never drives the allocation.
Result<std::vector<std::byte>> slz_decompress(std::span<const std::byte> input,
                                              std::uint64_t max_bytes =
                                                  kSlzMaxDecode);

// Compress/decompress with framing suitable for appending to a SION logical
// file: [u32 frame bytes][slz stream]. Returns bytes consumed from `input`.
// The u32 length field cannot represent a >= 4 GiB compressed stream; such
// inputs are rejected (kOutOfRange) — split at a higher framing layer
// (ext/compress.h chunks streams well below this bound).
Result<std::vector<std::byte>> slz_frame(std::span<const std::byte> input);
Result<std::pair<std::vector<std::byte>, std::size_t>> slz_unframe(
    std::span<const std::byte> framed);

// Exposed for the frame writers (slz_frame, ext/compress.h) and for tests:
// checks that a compressed stream of `stream_bytes` fits a u32 length field.
[[nodiscard]] Status slz_validate_frame_size(std::uint64_t stream_bytes);

}  // namespace sion::ext
