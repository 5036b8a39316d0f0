#include "ext/gf256.h"

#include <algorithm>
#include <utility>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/log.h"
#include "common/strings.h"

namespace sion::ext {

namespace {

// dst[i] ^= row[src[i]] for i in [0, n).
void mul_add_bytes(const std::array<std::uint8_t, 256>& row, std::byte* dst,
                   const std::byte* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] ^= static_cast<std::byte>(
        row[static_cast<std::size_t>(std::to_integer<std::uint8_t>(src[i]))]);
  }
}

#if defined(__x86_64__)
// The split-nibble loop over the whole 32-byte steps of [0, n); returns the
// bytes it covered. vpshufb looks up within each 128-bit lane, so both
// lanes carry the same 16-entry table. The target attribute enables AVX2
// for this function alone; gf_mul_add_avx2 calls it only on CPUs that
// report the feature.
__attribute__((target("avx2"))) std::size_t mul_add_avx2_steps(
    const std::uint8_t* lo16, const std::uint8_t* hi16, std::byte* dst,
    const std::byte* src, std::size_t n) {
  const __m256i lo = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(lo16)));
  const __m256i hi = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(hi16)));
  const __m256i nibble = _mm256_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; n - i >= 32; i += 32) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i product = _mm256_xor_si256(
        _mm256_shuffle_epi8(lo, _mm256_and_si256(s, nibble)),
        _mm256_shuffle_epi8(hi,
                            _mm256_and_si256(_mm256_srli_epi16(s, 4), nibble)));
    auto* d = reinterpret_cast<__m256i*>(dst + i);
    _mm256_storeu_si256(d, _mm256_xor_si256(_mm256_loadu_si256(d), product));
  }
  return i;
}
#endif

}  // namespace

namespace detail {

void gf_mul_add_portable(const GfMulTable& t, std::span<std::byte> dst,
                         std::span<const std::byte> src) {
  const std::size_t n = std::min(dst.size(), src.size());
  if (t.c_ == 0) return;
  if (t.c_ == 1) {
    for (std::size_t i = 0; i < n; ++i) dst[i] ^= src[i];
    return;
  }
  mul_add_bytes(t.row_, dst.data(), src.data(), n);
}

#if defined(__x86_64__)
bool gf_mul_add_avx2_available() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return has;
}

void gf_mul_add_avx2(const GfMulTable& t, std::span<std::byte> dst,
                     std::span<const std::byte> src) {
  SION_CHECK(gf_mul_add_avx2_available());
  const std::size_t n = std::min(dst.size(), src.size());
  const std::size_t done = mul_add_avx2_steps(t.row_.data(), t.hi_.data(),
                                              dst.data(), src.data(), n);
  mul_add_bytes(t.row_, dst.data() + done, src.data() + done, n - done);
}
#else
bool gf_mul_add_avx2_available() { return false; }

void gf_mul_add_avx2(const GfMulTable& t, std::span<std::byte> dst,
                     std::span<const std::byte> src) {
  gf_mul_add_portable(t, dst, src);
}
#endif

}  // namespace detail

void GfMulTable::mul_add(std::span<std::byte> dst,
                         std::span<const std::byte> src) const {
  if (detail::gf_mul_add_avx2_available()) {
    detail::gf_mul_add_avx2(*this, dst, src);
  } else {
    detail::gf_mul_add_portable(*this, dst, src);
  }
}

Status gf_invert_matrix(std::span<std::uint8_t> m, int k) {
  const auto at = [&](int r, int c) -> std::uint8_t& {
    return m[static_cast<std::size_t>(r) * static_cast<std::size_t>(k) +
             static_cast<std::size_t>(c)];
  };
  // Augment with the identity, reduce, read the inverse back out.
  std::vector<std::uint8_t> inv(
      static_cast<std::size_t>(k) * static_cast<std::size_t>(k), 0);
  const auto iat = [&](int r, int c) -> std::uint8_t& {
    return inv[static_cast<std::size_t>(r) * static_cast<std::size_t>(k) +
               static_cast<std::size_t>(c)];
  };
  for (int i = 0; i < k; ++i) iat(i, i) = 1;

  for (int col = 0; col < k; ++col) {
    int pivot = -1;
    for (int r = col; r < k; ++r) {
      if (at(r, col) != 0) {
        pivot = r;
        break;
      }
    }
    if (pivot < 0) {
      return Internal(strformat(
          "gf256: singular %dx%d survivor matrix (corrupt ECC geometry)", k,
          k));
    }
    if (pivot != col) {
      for (int c = 0; c < k; ++c) {
        std::swap(at(pivot, c), at(col, c));
        std::swap(iat(pivot, c), iat(col, c));
      }
    }
    const std::uint8_t scale = gf_inv(at(col, col));
    for (int c = 0; c < k; ++c) {
      at(col, c) = gf_mul(at(col, c), scale);
      iat(col, c) = gf_mul(iat(col, c), scale);
    }
    for (int r = 0; r < k; ++r) {
      if (r == col || at(r, col) == 0) continue;
      const std::uint8_t factor = at(r, col);
      for (int c = 0; c < k; ++c) {
        at(r, c) = static_cast<std::uint8_t>(at(r, c) ^
                                             gf_mul(factor, at(col, c)));
        iat(r, c) = static_cast<std::uint8_t>(iat(r, c) ^
                                              gf_mul(factor, iat(col, c)));
      }
    }
  }
  std::copy(inv.begin(), inv.end(), m.begin());
  return Status::Ok();
}

}  // namespace sion::ext
