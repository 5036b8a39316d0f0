// Tests for the paper's "future work" extensions: the slz compression codec
// (property roundtrips on adversarial inputs), the CRC32C and GF(256)
// kernels, metablock-2 recovery from chunk frames.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "common/codec.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/api.h"
#include "ext/compress.h"
#include "ext/gf256.h"
#include "ext/recovery.h"
#include "ext/slz.h"
#include "fs/sim/machine.h"
#include "fs/sim/simfs.h"
#include "par/comm.h"
#include "par/engine.h"
#include "workloads/tracer.h"

namespace sion::ext {
namespace {

using fs::DataView;

// ---------------------------------------------------------------------------
// slz codec
// ---------------------------------------------------------------------------

TEST(SlzTest, EmptyInput) {
  const auto compressed = slz_compress({});
  auto back = slz_decompress(compressed);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().empty());
}

TEST(SlzTest, ShortLiteralOnly) {
  const std::vector<std::byte> in{std::byte{1}, std::byte{2}, std::byte{3}};
  auto back = slz_decompress(slz_compress(in));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), in);
}

TEST(SlzTest, HighlyRepetitiveCompressesWell) {
  std::vector<std::byte> in(100000, std::byte{'A'});
  const auto compressed = slz_compress(in);
  EXPECT_LT(compressed.size(), in.size() / 50);
  auto back = slz_decompress(compressed);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), in);
}

TEST(SlzTest, OverlappingMatchRle) {
  // "abcabcabc..." forces matches with distance < length.
  std::vector<std::byte> in;
  for (int i = 0; i < 10000; ++i) {
    in.push_back(static_cast<std::byte>('a' + (i % 3)));
  }
  auto back = slz_decompress(slz_compress(in));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), in);
}

TEST(SlzTest, RandomDataStaysIntactAndDoesNotExplode) {
  std::vector<std::byte> in(50000);
  Rng rng(99);
  rng.fill_bytes(in);
  const auto compressed = slz_compress(in);
  EXPECT_LT(compressed.size(), in.size() + in.size() / 8 + 64);
  auto back = slz_decompress(compressed);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), in);
}

TEST(SlzTest, DecompressRejectsGarbage) {
  std::vector<std::byte> junk(100, std::byte{0x33});
  EXPECT_FALSE(slz_decompress(junk).ok());
  EXPECT_FALSE(slz_decompress({}).ok());
}

TEST(SlzTest, DecompressRejectsTruncation) {
  std::vector<std::byte> in(10000, std::byte{'x'});
  auto compressed = slz_compress(in);
  compressed.resize(compressed.size() / 2);
  EXPECT_FALSE(slz_decompress(compressed).ok());
}

namespace {

// Hand-built slz stream: magic, u64 uncompressed size, then raw token bytes.
std::vector<std::byte> forge_slz_stream(std::uint64_t usize,
                                        std::initializer_list<int> tokens) {
  std::vector<std::byte> s;
  const char magic[4] = {'S', 'L', 'Z', '1'};
  for (const char c : magic) s.push_back(static_cast<std::byte>(c));
  for (int i = 0; i < 8; ++i) {
    s.push_back(static_cast<std::byte>((usize >> (8 * i)) & 0xFF));
  }
  for (const int t : tokens) s.push_back(static_cast<std::byte>(t));
  return s;
}

}  // namespace

TEST(SlzTest, ForgedSizeStreamRejectedWithoutHugeAllocation) {
  // A single flipped header byte used to drive out.reserve(usize) with a
  // corruption-controlled size (up to 1 TiB). The forged stream claims
  // 512 GiB but carries two literal bytes: the decoder must fail cleanly,
  // without allocating for the claimed size.
  auto forged = forge_slz_stream(1ULL << 39, {0x04, 'h', 'i'});
  auto back = slz_decompress(forged);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), ErrorCode::kCorrupt);

  // A caller-supplied bound rejects sizes the context rules out entirely.
  auto honest = slz_compress(std::vector<std::byte>(100, std::byte{'x'}));
  EXPECT_TRUE(slz_decompress(honest, 100).ok());
  EXPECT_FALSE(slz_decompress(honest, 99).ok());
}

TEST(SlzTest, NonCanonicalVarintRejected) {
  // [0x06] and [0x86, 0x00] both decode to control 6 under a permissive
  // reader; the overlong form must be Corrupt, not an alias.
  auto canonical = forge_slz_stream(3, {0x06, 'a', 'b', 'c'});
  ASSERT_TRUE(slz_decompress(canonical).ok());
  auto overlong = forge_slz_stream(3, {0x86, 0x00, 'a', 'b', 'c'});
  auto back = slz_decompress(overlong);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), ErrorCode::kCorrupt);
}

TEST(SlzTest, OverflowingVarintRejected) {
  // Ten 0xFF-continuation bytes would need bits >= 64: the old decoder
  // silently dropped the high bits at shift 63 and wrapped the control.
  auto overflow = forge_slz_stream(
      3, {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 'a'});
  EXPECT_FALSE(slz_decompress(overflow).ok());
  // Continuation past the 10th byte is truncation-of-canonical territory.
  auto too_long = forge_slz_stream(
      3, {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01});
  EXPECT_FALSE(slz_decompress(too_long).ok());
  // The canonical top-bit encoding still decodes: bit 63 alone in byte 10.
  std::vector<std::byte> in(64, std::byte{'z'});
  auto round = slz_decompress(slz_compress(in));
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round.value(), in);
}

TEST(SlzTest, CompressedBytesArePinned) {
  // slz output is on-disk format: the word-at-a-time match extension and
  // in-place token writer must emit exactly the bytes the original bytewise
  // encoder did. Constants recorded from that encoder.
  const auto raw = workloads::trace_serialize(
      workloads::trace_generate(3, 20000, 0x5EED));
  ASSERT_EQ(raw.size(), 320000u);
  const auto stream = slz_compress(raw);
  EXPECT_EQ(stream.size(), 167391u);
  EXPECT_EQ(crc32c(stream), 0xFDB30351u);
  auto framed = compress_stream(raw);
  ASSERT_TRUE(framed.ok());
  EXPECT_EQ(framed.value().size(), 167513u);
  EXPECT_EQ(crc32c(framed.value()), 0xD60A4216u);
}

namespace {

// Builds a token stream by hand and, alongside, the output the format
// defines for it (matches copied one byte at a time, so self-overlapping
// matches repeat their period).
class SlzTokenWriter {
 public:
  void literal(std::span<const std::byte> bytes) {
    put_varint(static_cast<std::uint64_t>(bytes.size()) << 1);
    tokens_.insert(tokens_.end(), bytes.begin(), bytes.end());
    expected_.insert(expected_.end(), bytes.begin(), bytes.end());
  }
  void literal_pattern(std::size_t n, int salt) {
    std::vector<std::byte> bytes(n);
    for (std::size_t i = 0; i < n; ++i) {
      bytes[i] = static_cast<std::byte>(
          (i * 37 + static_cast<std::size_t>(salt)) & 0xFF);
    }
    literal(bytes);
  }
  void match(std::size_t len, std::size_t dist) {
    put_varint((static_cast<std::uint64_t>(len - kSlzMinMatch) << 1) | 1);
    put_varint(dist);
    for (std::size_t i = 0; i < len; ++i) {
      expected_.push_back(expected_[expected_.size() - dist]);
    }
  }
  [[nodiscard]] std::vector<std::byte> stream() const {
    std::vector<std::byte> s;
    for (const char c : {'S', 'L', 'Z', '1'}) {
      s.push_back(static_cast<std::byte>(c));
    }
    for (int i = 0; i < 8; ++i) {
      s.push_back(static_cast<std::byte>((expected_.size() >> (8 * i)) & 0xFF));
    }
    s.insert(s.end(), tokens_.begin(), tokens_.end());
    return s;
  }
  [[nodiscard]] const std::vector<std::byte>& expected() const {
    return expected_;
  }

 private:
  void put_varint(std::uint64_t v) {
    while (v >= 0x80) {
      tokens_.push_back(static_cast<std::byte>((v & 0x7F) | 0x80));
      v >>= 7;
    }
    tokens_.push_back(static_cast<std::byte>(v));
  }

  std::vector<std::byte> tokens_;
  std::vector<std::byte> expected_;
};

// Both decoder entry points must deliver exactly the writer's output.
void expect_decodes(const SlzTokenWriter& b, const std::string& what) {
  const std::vector<std::byte> stream = b.stream();
  std::vector<std::byte> out(b.expected().size(), std::byte{0xEE});
  const Status st = slz_decompress_into(stream, out);
  ASSERT_TRUE(st.ok()) << what << ": " << st.to_string();
  ASSERT_EQ(out, b.expected()) << what;
  auto vec = slz_decompress(stream);
  ASSERT_TRUE(vec.ok()) << what;
  ASSERT_EQ(vec.value(), b.expected()) << what;
}

}  // namespace

TEST(SlzTest, OverlappingMatchesAtEveryShortDistance) {
  // Distances below the copy width replicate a period shorter than one
  // copy step; with and without a trailing literal, so both the exact tail
  // path and the wide-copy path run.
  for (std::size_t dist = 1; dist <= 20; ++dist) {
    for (std::size_t len = 4; len <= 40; ++len) {
      for (const std::size_t tail : {0, 20}) {
        SlzTokenWriter b;
        b.literal_pattern(dist, static_cast<int>(len));
        b.match(len, dist);
        if (tail > 0) b.literal_pattern(tail, 7);
        expect_decodes(b, "dist " + std::to_string(dist) + " len " +
                              std::to_string(len) + " tail " +
                              std::to_string(tail));
      }
    }
  }
}

TEST(SlzTest, LastTokensNearTheEndOfTheOutput) {
  // The final tokens end 0..16 bytes before the end of an exactly sized
  // output, where the 16-byte copies no longer fit and exact copies take
  // over: a match followed by a `gap`-byte literal, and a literal followed
  // by a `gap`-byte match.
  for (std::size_t gap = 0; gap <= 16; ++gap) {
    for (const std::size_t dist : {3, 9, 16, 33}) {
      SlzTokenWriter a;
      a.literal_pattern(40, static_cast<int>(gap));
      a.match(24, dist);
      if (gap > 0) a.literal_pattern(gap, 1);
      expect_decodes(a, "match then literal, gap " + std::to_string(gap) +
                            " dist " + std::to_string(dist));
      if (gap < kSlzMinMatch) continue;
      SlzTokenWriter b;
      b.literal_pattern(40, 3);
      b.literal_pattern(5, static_cast<int>(gap));
      b.match(gap, dist);
      expect_decodes(b, "literal then match, gap " + std::to_string(gap) +
                            " dist " + std::to_string(dist));
    }
  }
  // Whole streams of every short length round-trip through the encoder.
  for (std::size_t n = 0; n <= 100; ++n) {
    std::vector<std::byte> in(n);
    for (std::size_t i = 0; i < n; ++i) {
      in[i] = static_cast<std::byte>((i % 5 == 4) ? i : i / 7);
    }
    const auto stream = slz_compress(in);
    EXPECT_LE(stream.size(), slz_compress_bound(n));
    std::vector<std::byte> out(n);
    ASSERT_TRUE(slz_decompress_into(stream, out).ok()) << n;
    ASSERT_EQ(out, in) << n;
  }
}

TEST(SlzTest, DecompressIntoRejectsAMisSizedBuffer) {
  const std::vector<std::byte> in(300, std::byte{'k'});
  const auto stream = slz_compress(in);
  std::vector<std::byte> small(299);
  std::vector<std::byte> big(301);
  EXPECT_EQ(slz_decompress_into(stream, small).code(), ErrorCode::kCorrupt);
  EXPECT_EQ(slz_decompress_into(stream, big).code(), ErrorCode::kCorrupt);
  std::vector<std::byte> exact(300);
  ASSERT_TRUE(slz_decompress_into(stream, exact).ok());
  EXPECT_EQ(exact, in);
}

TEST(SlzTest, CompressBoundHoldsOnAdversarialInput) {
  // One literal byte between 4-byte matches is the worst case the bound is
  // derived from; random bytes are the all-literal case.
  std::vector<std::byte> in;
  Rng rng(5);
  for (int i = 0; i < 4000; ++i) {
    in.push_back(static_cast<std::byte>(rng.next_below(256)));
    for (int k = 0; k < 4; ++k) in.push_back(std::byte{'m'});
  }
  std::vector<std::byte> noise(20000);
  rng.fill_bytes(noise);
  for (const auto* input : {&in, &noise}) {
    const auto stream = slz_compress(*input);
    EXPECT_LE(stream.size(), slz_compress_bound(input->size()));
    auto back = slz_decompress(stream);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), *input);
  }
}

// ---------------------------------------------------------------------------
// frame layer (ext/compress.h)
// ---------------------------------------------------------------------------

TEST(CompressTest, Crc32cKnownAnswer) {
  const char digits[] = "123456789";
  std::vector<std::byte> in(9);
  std::memcpy(in.data(), digits, 9);
  EXPECT_EQ(crc32c(in), 0xE3069283u);
  EXPECT_EQ(crc32c({}), 0u);
}

namespace {

// CRC32C from its definition, one bit at a time.
std::uint32_t crc32c_bitwise(std::span<const std::byte> data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::byte b : data) {
    crc ^= std::to_integer<std::uint32_t>(b);
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) != 0u ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
  }
  return ~crc;
}

}  // namespace

TEST(CompressTest, Crc32cPathsAgreeAtEveryLengthAndAlignment) {
  // Every length 0..300 (all slicing-by-8 and crc32-instruction tails) at
  // every start offset mod 8: the hardware path (when the CPU has it), the
  // portable path and crc32c() itself must equal the bitwise definition.
  std::vector<std::byte> buf(300 + 8);
  Rng rng(0xC2C);
  rng.fill_bytes(buf);
  const bool hw = detail::crc32c_hw_available();
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const auto data = std::span<const std::byte>(buf).subspan(off, len);
      const std::uint32_t want = crc32c_bitwise(data);
      ASSERT_EQ(detail::crc32c_portable(data), want) << off << "+" << len;
      if (hw) {
        ASSERT_EQ(detail::crc32c_hw(data), want) << off << "+" << len;
      }
      ASSERT_EQ(crc32c(data), want) << off << "+" << len;
    }
  }
}

// ---------------------------------------------------------------------------
// GF(256) arithmetic (ext/gf256.h)
// ---------------------------------------------------------------------------

namespace {

// GF(2^8) product from its definition: shift-and-add, reduced modulo the
// field polynomial 0x11D.
std::uint8_t gf_mul_shift_add(std::uint8_t a, std::uint8_t b) {
  unsigned x = a;
  unsigned product = 0;
  for (unsigned y = b; y != 0; y >>= 1) {
    if ((y & 1u) != 0u) product ^= x;
    x <<= 1;
    if ((x & 0x100u) != 0u) x ^= 0x11Du;
  }
  return static_cast<std::uint8_t>(product);
}

// (a * b) for k x k row-major matrices over GF(256).
std::vector<std::uint8_t> gf_matmul(std::span<const std::uint8_t> a,
                                    std::span<const std::uint8_t> b, int k) {
  const auto n = static_cast<std::size_t>(k);
  std::vector<std::uint8_t> out(n * n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      std::uint8_t sum = 0;
      for (std::size_t l = 0; l < n; ++l) {
        sum = static_cast<std::uint8_t>(sum ^
                                        gf_mul(a[i * n + l], b[l * n + j]));
      }
      out[i * n + j] = sum;
    }
  }
  return out;
}

}  // namespace

TEST(Gf256Test, MulMatchesShiftAndAddOverTheWholeField) {
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      const auto x = static_cast<std::uint8_t>(a);
      const auto y = static_cast<std::uint8_t>(b);
      ASSERT_EQ(gf_mul(x, y), gf_mul_shift_add(x, y)) << a << "*" << b;
    }
  }
}

TEST(Gf256Test, FieldIdentities) {
  const auto& t = gf_internal::kTables;
  // exp walks the 255 nonzero elements once (0x02 generates the group),
  // log is its inverse, and the doubled half repeats the first.
  for (std::size_t i = 0; i < 255; ++i) {
    ASSERT_NE(t.exp[i], 0) << i;
    ASSERT_EQ(t.log[t.exp[i]], i) << i;
    ASSERT_EQ(t.exp[i + 255], t.exp[i]) << i;
  }
  for (unsigned a = 1; a < 256; ++a) {
    const auto x = static_cast<std::uint8_t>(a);
    ASSERT_EQ(t.exp[t.log[x]], x) << a;
    ASSERT_EQ(gf_mul(x, gf_inv(x)), 1) << a;
    ASSERT_EQ(gf_mul(x, 1), x) << a;
    ASSERT_EQ(gf_mul(x, 0), 0) << a;
  }
}

TEST(Gf256Test, MulAddPathsAgreeWithTheBytewiseReference) {
  // Every coefficient (0 and 1 are special cases of the byte loop) at every
  // length 0..100 and at 64 KiB + 7: whole vector steps, tails of 0..31
  // bytes, and ranges shorter than one step. Each (coefficient, length)
  // case takes the next of the 32 x 32 (dst, src) start offsets in turn, so
  // every offset pair runs about 25 times. The AVX2 path (when the CPU has
  // it), the byte loop and the dispatched mul_add must all equal
  // dst ^ gf_mul(c, src).
  constexpr std::size_t kLong = 64 * kKiB + 7;
  std::vector<std::byte> src(kLong + 32);
  std::vector<std::byte> dst0(kLong + 64);
  Rng rng(0x6F256);
  rng.fill_bytes(src);
  rng.fill_bytes(dst0);
  std::vector<std::size_t> lengths(101);
  for (std::size_t len = 0; len <= 100; ++len) lengths[len] = len;
  lengths.push_back(kLong);
  const bool avx2 = detail::gf_mul_add_avx2_available();
  std::size_t pair = 0;
  std::vector<std::byte> want;
  std::vector<std::byte> got;
  for (unsigned c = 0; c < 256; ++c) {
    const GfMulTable table(static_cast<std::uint8_t>(c));
    ASSERT_EQ(table.coefficient(), c);
    for (const std::size_t len : lengths) {
      const std::size_t doff = pair % 32;
      const std::size_t soff = (pair / 32) % 32;
      ++pair;
      const auto in = std::span<const std::byte>(src).subspan(soff, len);
      // The destination range, the bytes before it and 32 bytes after it:
      // none but the range may change.
      const auto base =
          std::span<const std::byte>(dst0).first(doff + len + 32);
      want.assign(base.begin(), base.end());
      for (std::size_t i = 0; i < len; ++i) {
        want[doff + i] ^= static_cast<std::byte>(
            gf_mul(static_cast<std::uint8_t>(c),
                   std::to_integer<std::uint8_t>(in[i])));
      }
      // The bytes the kernel leaves equal `want`.
      const auto agrees = [&](auto&& kernel) {
        got.assign(base.begin(), base.end());
        kernel(std::span<std::byte>(got).subspan(doff, len), in);
        return got == want;
      };
      const auto where = [&] {
        return testing::Message() << " c=" << c << " len=" << len << " dst+"
                                  << doff << " src+" << soff;
      };
      ASSERT_TRUE(agrees([&](std::span<std::byte> d,
                             std::span<const std::byte> s) {
        detail::gf_mul_add_portable(table, d, s);
      })) << "portable" << where();
      if (avx2) {
        ASSERT_TRUE(agrees([&](std::span<std::byte> d,
                               std::span<const std::byte> s) {
          detail::gf_mul_add_avx2(table, d, s);
        })) << "avx2" << where();
      }
      ASSERT_TRUE(agrees([&](std::span<std::byte> d,
                             std::span<const std::byte> s) {
        table.mul_add(d, s);
      })) << "mul_add" << where();
    }
  }
}

TEST(Gf256Test, MulAddStopsAtTheShorterRange) {
  // mul_add runs over min(dst.size(), src.size()) bytes and leaves the rest
  // of dst alone, with dst shorter than src and then src shorter than dst.
  const GfMulTable table(0x8E);
  const std::vector<std::byte> src(70, std::byte{0xFF});
  for (const auto& [dlen, slen] :
       {std::pair<std::size_t, std::size_t>{33, 70}, {70, 45}}) {
    std::vector<std::byte> dst(80, std::byte{0});
    table.mul_add(std::span<std::byte>(dst).first(dlen),
                  std::span<const std::byte>(src).first(slen));
    const std::size_t n = std::min(dlen, slen);
    for (std::size_t i = 0; i < dst.size(); ++i) {
      ASSERT_EQ(std::to_integer<std::uint8_t>(dst[i]),
                i < n ? gf_mul(0x8E, 0xFF) : 0)
          << dlen << "/" << slen << " at " << i;
    }
  }
}

TEST(Gf256Test, EverySurvivorChoiceOfTheCauchyCodeInverts) {
  // The MDS property decode relies on: for every (k, m) with k <= 8 and
  // m <= 3, any k of the k + m rows [identity; Cauchy] form an invertible
  // matrix, and gf_invert_matrix returns its inverse.
  int inverted = 0;
  for (int k = 1; k <= 8; ++k) {
    for (int m = 1; m <= 3; ++m) {
      const int rows = k + m;
      for (unsigned pick = 0; pick < (1u << rows); ++pick) {
        if (std::popcount(pick) != k) continue;
        const auto n = static_cast<std::size_t>(k);
        std::vector<std::uint8_t> a;
        for (int r = 0; r < rows; ++r) {
          if ((pick & (1u << r)) == 0) continue;
          for (int d = 0; d < k; ++d) {
            a.push_back(r < k ? (r == d ? 1 : 0) : gf_cauchy(k, r - k, d));
          }
        }
        ASSERT_EQ(a.size(), n * n);
        std::vector<std::uint8_t> inv = a;
        const Status st = gf_invert_matrix(inv, k);
        ASSERT_TRUE(st.ok()) << "k=" << k << " m=" << m << " rows=" << pick
                             << ": " << st.to_string();
        std::vector<std::uint8_t> identity(n * n, 0);
        for (std::size_t i = 0; i < n; ++i) identity[i * n + i] = 1;
        ASSERT_EQ(gf_matmul(a, inv, k), identity)
            << "k=" << k << " m=" << m << " rows=" << pick;
        ASSERT_EQ(gf_matmul(inv, a, k), identity)
            << "k=" << k << " m=" << m << " rows=" << pick;
        ++inverted;
      }
    }
  }
  // The sum over k <= 8 and m <= 3 of C(k + m, k).
  EXPECT_EQ(inverted, 702);
}

TEST(Gf256Test, SingularMatrixIsInternal) {
  // A zero column leaves no pivot: corrupt geometry, reported as Internal.
  std::vector<std::uint8_t> m = {1, 0, 7,  //
                                 5, 0, 9,  //
                                 2, 0, 3};
  EXPECT_EQ(gf_invert_matrix(m, 3).code(), ErrorCode::kInternal);
}

TEST(CompressTest, EmptyStreamRoundtrip) {
  auto enc = compress_stream({});
  ASSERT_TRUE(enc.ok());
  EXPECT_TRUE(enc.value().empty());
  StreamLossReport loss;
  auto dec = decompress_stream(enc.value(), &loss);
  ASSERT_TRUE(dec.ok());
  EXPECT_TRUE(dec.value().empty());
  EXPECT_TRUE(loss.clean());
}

TEST(CompressTest, SingleFrameRoundtrip) {
  std::vector<std::byte> in(4000);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<std::byte>((i / 37) % 11);
  }
  auto enc = compress_stream(in);
  ASSERT_TRUE(enc.ok());
  ASSERT_GE(enc.value().size(), kFrameSync.size());
  EXPECT_TRUE(stream_is_framed(
      std::span<const std::byte>(enc.value()).first(kFrameSync.size())));
  StreamLossReport loss;
  auto dec = decompress_stream(enc.value(), &loss);
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(dec.value(), in);
  EXPECT_EQ(loss.frames_decoded, 1u);
  EXPECT_TRUE(loss.clean());
}

TEST(CompressTest, MultiFrameRoundtripWithSmallChunks) {
  std::vector<std::byte> in(10 * 1024);
  Rng rng(0xC0DEC);
  rng.fill_bytes(in);
  CompressionSpec spec;
  spec.chunk_bytes = 1024;
  auto enc = compress_stream(in, spec);
  ASSERT_TRUE(enc.ok());
  StreamLossReport loss;
  auto dec = decompress_stream(enc.value(), &loss);
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(dec.value(), in);
  EXPECT_EQ(loss.frames_decoded, 10u);
  EXPECT_TRUE(loss.clean());
}

TEST(CompressTest, ChunkBytesAreClampedNotFatal) {
  // chunk_bytes below the floor must still produce a decodable stream.
  std::vector<std::byte> in(2048, std::byte{'q'});
  CompressionSpec spec;
  spec.chunk_bytes = 1;  // clamped up to 512
  auto enc = compress_stream(in, spec);
  ASSERT_TRUE(enc.ok());
  auto dec = decompress_stream(enc.value());
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(dec.value(), in);
}

TEST(CompressTest, UnframedStreamIsDetected) {
  std::vector<std::byte> plain(64, std::byte{'p'});
  EXPECT_FALSE(stream_is_framed(
      std::span<const std::byte>(plain).first(kFrameSync.size())));
}

TEST(CompressTest, FrameIndexMatchesDeliveredBytes) {
  // The Remap::open rank-0 scan and the restore-time decoder must agree on
  // the decoded size; index_frames is that contract.
  std::vector<std::byte> in(5000);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<std::byte>(i % 251);
  }
  CompressionSpec spec;
  spec.chunk_bytes = 1500;
  auto enc = compress_stream(in, spec);
  ASSERT_TRUE(enc.ok());
  const std::vector<std::byte>& bytes = enc.value();
  auto read_at = [&bytes](std::uint64_t off,
                          std::span<std::byte> o) -> Result<std::uint64_t> {
    const std::uint64_t n =
        std::min<std::uint64_t>(o.size(), bytes.size() - off);
    std::memcpy(o.data(), bytes.data() + off, static_cast<std::size_t>(n));
    return n;
  };
  auto idx = index_frames(bytes.size(), read_at);
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(idx.value().decoded_bytes, in.size());
  EXPECT_EQ(idx.value().encoded_bytes, bytes.size());
  EXPECT_EQ(idx.value().frames.size(), 4u);
  EXPECT_TRUE(idx.value().scan_loss.clean());

  // Random access through the reader: a slice from the middle crossing a
  // frame boundary comes back byte-identical.
  StreamLossReport loss;
  FrameStreamReader reader(std::move(idx).value(), read_at, &loss);
  std::vector<std::byte> slice(2000);
  ASSERT_TRUE(reader.read_decoded(1000, slice).ok());
  EXPECT_TRUE(std::equal(slice.begin(), slice.end(), in.begin() + 1000));
  EXPECT_TRUE(loss.clean());
  EXPECT_FALSE(reader.read_decoded(4000, slice).ok());  // past the end
}

TEST(CompressTest, LossReportMergeAndFormat) {
  StreamLossReport a{.frames_decoded = 2,
                     .frames_skipped = 1,
                     .bytes_zero_filled = 100,
                     .bytes_discarded = 0};
  StreamLossReport b{.frames_decoded = 3,
                     .frames_skipped = 0,
                     .bytes_zero_filled = 0,
                     .bytes_discarded = 7};
  a.merge(b);
  EXPECT_EQ(a.frames_decoded, 5u);
  EXPECT_EQ(a.frames_skipped, 1u);
  EXPECT_EQ(a.bytes_zero_filled, 100u);
  EXPECT_EQ(a.bytes_discarded, 7u);
  EXPECT_FALSE(a.clean());
  EXPECT_FALSE(a.to_string().empty());
  EXPECT_TRUE(StreamLossReport{}.clean());
}

class SlzPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SlzPropertyTest, RoundtripOnStructuredRandomInputs) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 20; ++iter) {
    // Mix of runs, copies of earlier content, and random bytes — the three
    // regimes an LZ codec must handle.
    std::vector<std::byte> in;
    const int segments = 1 + static_cast<int>(rng.next_below(12));
    for (int s = 0; s < segments; ++s) {
      const std::uint64_t len = rng.next_below(3000);
      switch (rng.next_below(3)) {
        case 0:
          in.insert(in.end(), len,
                    static_cast<std::byte>(rng.next_below(256)));
          break;
        case 1: {
          if (in.empty()) break;
          const std::uint64_t start = rng.next_below(in.size());
          for (std::uint64_t i = 0; i < len; ++i) {
            in.push_back(in[start + (i % (in.size() - start))]);
          }
          break;
        }
        default: {
          const std::size_t old = in.size();
          in.resize(old + len);
          rng.fill_bytes(std::span<std::byte>(in.data() + old, len));
        }
      }
    }
    auto back = slz_decompress(slz_compress(in));
    ASSERT_TRUE(back.ok()) << back.status().to_string();
    ASSERT_EQ(back.value(), in) << "iter " << iter;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlzPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// ---------------------------------------------------------------------------
// recovery
// ---------------------------------------------------------------------------

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest() : fs_(fs::TestbedConfig()) {}

  // Write with frames; if `crash`, skip the collective close so metablock 2
  // is missing — the failure mode the paper's section 6 describes.
  void write_frames(const std::string& name, int ntasks, int nfiles,
                    std::uint64_t bytes_per_task, bool crash) {
    par::Engine engine;
    engine.run(ntasks, [&](par::Comm& world) {
      core::ParOpenSpec spec;
      spec.filename = name;
      spec.chunksize = 50000;
      spec.nfiles = nfiles;
      spec.chunk_frames = true;
      auto open = core::SionParFile::open_write(fs_, world, spec);
      ASSERT_TRUE(open.ok()) << open.status().to_string();
      std::vector<std::byte> data(bytes_per_task);
      Rng rng(7000 + static_cast<std::uint64_t>(world.rank()));
      rng.fill_bytes(data);
      ASSERT_TRUE(open.value()->write(DataView(data)).ok());
      if (!crash) {
        ASSERT_TRUE(open.value()->close().ok());
      }
    });
  }

  void verify_readable(const std::string& name, int ntasks,
                       std::uint64_t bytes_per_task) {
    par::Engine engine;
    engine.run(ntasks, [&](par::Comm& world) {
      auto ropen = core::SionParFile::open_read(fs_, world, name);
      ASSERT_TRUE(ropen.ok()) << ropen.status().to_string();
      std::vector<std::byte> expect(bytes_per_task);
      Rng rng(7000 + static_cast<std::uint64_t>(world.rank()));
      rng.fill_bytes(expect);
      std::vector<std::byte> back(bytes_per_task);
      auto got = ropen.value()->read(back);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got.value(), bytes_per_task);
      EXPECT_EQ(back, expect);
      ASSERT_TRUE(ropen.value()->close().ok());
    });
  }

  fs::SimFs fs_;
};

TEST_F(RecoveryTest, RepairsCrashedSingleFile) {
  write_frames("c1.sion", 4, 1, 30000, /*crash=*/true);
  // Unreadable before repair...
  {
    par::Engine engine;
    engine.run(4, [&](par::Comm& world) {
      EXPECT_FALSE(core::SionParFile::open_read(fs_, world, "c1.sion").ok());
    });
  }
  auto report = repair_multifile(fs_, "c1.sion");
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_EQ(report.value().repaired_files, 1);
  EXPECT_GE(report.value().chunks_recovered, 4u);
  verify_readable("c1.sion", 4, 30000);
}

TEST_F(RecoveryTest, RepairsMultiplePhysicalFilesAndBlocks) {
  // 120000 bytes with ~50 KiB usable chunks -> 3 blocks per task.
  write_frames("c2.sion", 6, 3, 120000, /*crash=*/true);
  auto report = repair_multifile(fs_, "c2.sion");
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_EQ(report.value().repaired_files, 3);
  verify_readable("c2.sion", 6, 120000);
}

TEST_F(RecoveryTest, IntactFileLeftAlone) {
  write_frames("ok.sion", 4, 2, 10000, /*crash=*/false);
  auto report = repair_multifile(fs_, "ok.sion");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().repaired_files, 0);
  EXPECT_EQ(report.value().intact_files, 2);
  verify_readable("ok.sion", 4, 10000);
}

TEST_F(RecoveryTest, WithoutFramesRepairRefuses) {
  par::Engine engine;
  engine.run(2, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "nf.sion";
    spec.chunksize = 1000;
    auto open = core::SionParFile::open_write(fs_, world, spec);
    ASSERT_TRUE(open.ok());
    // crash without close
  });
  auto report = repair_multifile(fs_, "nf.sion");
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), ErrorCode::kFailedPrecondition);
}

TEST_F(RecoveryTest, QuotaFailureMidWriteIsRecoverable) {
  // The paper's other failure example: quota violation during the write.
  fs::SimConfig cfg = fs::TestbedConfig();
  cfg.quota_bytes = 800 * kKiB;
  fs::SimFs fs(cfg);
  par::Engine engine;
  engine.run(4, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "q.sion";
    spec.chunksize = 64 * kKiB;
    spec.chunk_frames = true;
    auto open = core::SionParFile::open_write(fs, world, spec);
    ASSERT_TRUE(open.ok());
    // Keep writing until the quota bites, then give up without closing.
    for (int i = 0; i < 64; ++i) {
      auto w = open.value()->write(DataView::fill(std::byte{1}, 32 * kKiB));
      if (!w.ok()) {
        EXPECT_EQ(w.status().code(), ErrorCode::kQuotaExceeded);
        break;
      }
    }
  });
  auto report = repair_multifile(fs, "q.sion");
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_EQ(report.value().repaired_files, 1);
  // Whatever survived must now be readable.
  engine.run(4, [&](par::Comm& world) {
    auto ropen = core::SionParFile::open_read(fs, world, "q.sion");
    ASSERT_TRUE(ropen.ok()) << ropen.status().to_string();
    ASSERT_TRUE(ropen.value()->read_skip(1 << 30).ok());
    ASSERT_TRUE(ropen.value()->close().ok());
  });
}

}  // namespace
}  // namespace sion::ext
