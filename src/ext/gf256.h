// GF(256) arithmetic for the Reed-Solomon parity layer (ext/ecc.h).
//
// The field is GF(2^8) with the AES-unrelated primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11D), the conventional choice of storage
// erasure codes. Multiplication goes through log/antilog tables built at
// compile time; the bulk operation every encode and decode loop reduces to
// is `dst ^= c * src` over a byte range, which GfMulTable serves from
// per-coefficient product tables (see GfMulTable).
//
// The encode matrix is systematic Cauchy: parity row j has elements
// c[j][d] = 1 / ((k + j) XOR d) over data columns d in [0, k). The index
// sets {0..k-1} and {k..k+m-1} are disjoint, so every element exists, and
// every square submatrix of a Cauchy matrix is nonsingular — stacking the
// identity on top yields an MDS code: ANY k of the k+m data+parity rows
// reconstruct the data, i.e. any m losses are survivable. Decode builds the
// k x k matrix of the surviving rows and inverts it by Gauss-Jordan.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"

namespace sion::ext {

namespace gf_internal {

struct Tables {
  std::array<std::uint8_t, 256> log{};
  std::array<std::uint8_t, 512> exp{};  // doubled so mul needs no mod 255
};

constexpr Tables make_tables() {
  Tables t{};
  std::uint32_t x = 1;
  for (int i = 0; i < 255; ++i) {
    t.exp[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(x);
    t.log[x] = static_cast<std::uint8_t>(i);
    x <<= 1;
    if ((x & 0x100U) != 0) x ^= 0x11DU;
  }
  for (int i = 255; i < 512; ++i) {
    t.exp[static_cast<std::size_t>(i)] =
        t.exp[static_cast<std::size_t>(i - 255)];
  }
  return t;
}

inline constexpr Tables kTables = make_tables();

}  // namespace gf_internal

[[nodiscard]] inline std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b) {
  if (a == 0 || b == 0) return 0;
  const auto& t = gf_internal::kTables;
  return t.exp[static_cast<std::size_t>(t.log[a]) +
               static_cast<std::size_t>(t.log[b])];
}

// Multiplicative inverse; a must be nonzero.
[[nodiscard]] inline std::uint8_t gf_inv(std::uint8_t a) {
  const auto& t = gf_internal::kTables;
  return t.exp[static_cast<std::size_t>(255 - t.log[a])];
}

// Element [j][d] of the Cauchy parity matrix for k data domains: row index
// j in [0, m), column d in [0, k). Requires k + j <= 255.
[[nodiscard]] inline std::uint8_t gf_cauchy(int k, int j, int d) {
  return gf_inv(static_cast<std::uint8_t>((k + j) ^ d));
}

class GfMulTable;

namespace detail {
// The two implementations behind GfMulTable::mul_add, exposed so tests can
// compare them. gf_mul_add_avx2 requires gf_mul_add_avx2_available() (and is
// the byte loop on hosts without the instructions).
void gf_mul_add_portable(const GfMulTable& t, std::span<std::byte> dst,
                         std::span<const std::byte> src);
[[nodiscard]] bool gf_mul_add_avx2_available();
void gf_mul_add_avx2(const GfMulTable& t, std::span<std::byte> dst,
                     std::span<const std::byte> src);
}  // namespace detail

// One coefficient's product tables; mul_add computes dst[i] ^= c * src[i].
// The byte loop looks each byte up in the 256-entry row, with coefficients
// 0 (no-op) and 1 (plain XOR) special-cased. On x86-64 CPUs that report
// AVX2 a vector loop uses c * v = c * (v & 0x0F) ^ c * (v & 0xF0): two
// 16-entry nibble tables, one vpshufb lookup per nibble, 32 bytes per step;
// the byte loop finishes the last bytes. Both give the same bytes.
class GfMulTable {
 public:
  explicit GfMulTable(std::uint8_t c) : c_(c) {
    for (int v = 0; v < 256; ++v) {
      row_[static_cast<std::size_t>(v)] =
          gf_mul(c, static_cast<std::uint8_t>(v));
    }
    for (std::size_t v = 0; v < 16; ++v) hi_[v] = row_[v << 4];
  }

  [[nodiscard]] std::uint8_t coefficient() const { return c_; }

  // dst ^= c * src over min(dst.size(), src.size()) bytes.
  void mul_add(std::span<std::byte> dst, std::span<const std::byte> src) const;

 private:
  friend void detail::gf_mul_add_portable(const GfMulTable& t,
                                          std::span<std::byte> dst,
                                          std::span<const std::byte> src);
  friend void detail::gf_mul_add_avx2(const GfMulTable& t,
                                      std::span<std::byte> dst,
                                      std::span<const std::byte> src);

  std::uint8_t c_ = 0;
  // row_[v] = c * v; its first 16 entries are the low-nibble table.
  std::array<std::uint8_t, 256> row_{};
  // hi_[v] = c * (v << 4), the high-nibble table.
  std::array<std::uint8_t, 16> hi_{};
};

// Invert the k x k matrix `m` (row-major) in place by Gauss-Jordan with
// row pivoting. Fails on a singular matrix — which the Cauchy construction
// guarantees never happens for survivor matrices of this code, so a failure
// here means corrupted geometry, not data loss.
Status gf_invert_matrix(std::span<std::uint8_t> m, int k);

}  // namespace sion::ext
