// Compression fault battery: the slz frame layer must degrade, never abort.
// Seeded damage — bit flips, torn trailers, forged headers, truncations at
// every byte boundary, garbage between frames — may cost the damaged frames
// (zero-filled or discarded, accounted in StreamLossReport) but must never
// crash, hang, over-allocate, or silently deliver wrong bytes in undamaged
// regions. The end-to-end cases prove the same through a real checkpoint:
// a restart over a stream with one bit-flipped and one torn frame completes,
// skipping exactly the damaged frames.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>

#include "common/rng.h"
#include "common/units.h"
#include "core/api.h"
#include "ext/compress.h"
#include "ext/slz.h"
#include "fs/sim/machine.h"
#include "fs/sim/simfs.h"
#include "par/comm.h"
#include "par/engine.h"
#include "workloads/checkpoint.h"
#include "workloads/checkpoint_session.h"

namespace sion::ext {
namespace {

using fs::DataView;

// Compressible but position-dependent: any mis-placed decoded byte differs.
std::vector<std::byte> pattern_payload(int rank, std::size_t n) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>(
        (i / 7 + static_cast<std::size_t>(rank) * 13) % 251);
  }
  return out;
}

std::vector<std::byte> encode(const std::vector<std::byte>& raw,
                              std::uint64_t chunk_bytes) {
  CompressionSpec spec;
  spec.chunk_bytes = chunk_bytes;
  auto enc = compress_stream(raw, spec);
  EXPECT_TRUE(enc.ok());
  return std::move(enc).value();
}

// Offsets of every sync-marker occurrence in `bytes`.
std::vector<std::size_t> find_markers(std::span<const std::byte> bytes) {
  std::vector<std::size_t> out;
  auto it = bytes.begin();
  while (true) {
    it = std::search(it, bytes.end(), kFrameSync.begin(), kFrameSync.end());
    if (it == bytes.end()) break;
    out.push_back(static_cast<std::size_t>(it - bytes.begin()));
    ++it;
  }
  return out;
}

std::uint32_t u32_at(std::span<const std::byte> bytes, std::size_t off) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    v |= std::to_integer<std::uint32_t>(bytes[off + i]) << (8 * i);
  }
  return v;
}

bool all_zero(std::span<const std::byte> bytes) {
  return std::all_of(bytes.begin(), bytes.end(),
                     [](std::byte b) { return b == std::byte{0}; });
}

// --- in-memory battery -----------------------------------------------------

TEST(CompressFaultTest, PayloadBitFlipZeroFillsExactlyOneFrame) {
  const auto raw = pattern_payload(0, 8192);
  auto enc = encode(raw, 2048);  // 4 frames of 2048
  const auto markers = find_markers(enc);
  ASSERT_EQ(markers.size(), 4u);
  enc[markers[1] + kFrameHeaderBytes + 3] ^= std::byte{0x40};

  StreamLossReport loss;
  auto dec = decompress_stream(enc, &loss);
  ASSERT_TRUE(dec.ok());
  ASSERT_EQ(dec.value().size(), raw.size());  // positions preserved
  EXPECT_EQ(loss.frames_decoded, 3u);
  EXPECT_EQ(loss.frames_skipped, 1u);
  EXPECT_EQ(loss.bytes_zero_filled, 2048u);
  EXPECT_EQ(loss.bytes_discarded, 0u);
  const auto got = std::span<const std::byte>(dec.value());
  EXPECT_TRUE(std::equal(got.first(2048).begin(), got.first(2048).end(),
                         raw.begin()));
  EXPECT_TRUE(all_zero(got.subspan(2048, 2048)));
  EXPECT_TRUE(std::equal(got.subspan(4096).begin(), got.subspan(4096).end(),
                         raw.begin() + 4096));
}

TEST(CompressFaultTest, TornTrailerZeroFillsThatFrame) {
  const auto raw = pattern_payload(1, 6144);
  auto enc = encode(raw, 2048);
  const auto markers = find_markers(enc);
  ASSERT_EQ(markers.size(), 3u);
  const std::uint32_t comp = u32_at(enc, markers[2] + 8);
  for (std::size_t i = 0; i < kFrameTrailerBytes; ++i) {
    enc[markers[2] + kFrameHeaderBytes + comp + i] = std::byte{0xFF};
  }

  StreamLossReport loss;
  auto dec = decompress_stream(enc, &loss);
  ASSERT_TRUE(dec.ok());
  ASSERT_EQ(dec.value().size(), raw.size());
  EXPECT_EQ(loss.frames_skipped, 1u);
  EXPECT_EQ(loss.bytes_zero_filled, 2048u);
  EXPECT_TRUE(all_zero(std::span<const std::byte>(dec.value()).subspan(4096)));
}

TEST(CompressFaultTest, HeaderDamageDiscardsRegionAndResyncs) {
  const auto raw = pattern_payload(2, 8192);
  auto enc = encode(raw, 2048);
  const auto markers = find_markers(enc);
  ASSERT_EQ(markers.size(), 4u);
  enc[markers[1]] ^= std::byte{0x01};  // break frame 1's sync marker

  StreamLossReport loss;
  auto dec = decompress_stream(enc, &loss);
  ASSERT_TRUE(dec.ok());
  // The damaged region's raw extent is unknowable: the stream shrinks by
  // exactly frame 1's contribution and the rest survives intact.
  ASSERT_EQ(dec.value().size(), raw.size() - 2048);
  EXPECT_EQ(loss.frames_decoded, 3u);
  EXPECT_EQ(loss.frames_skipped, 1u);
  EXPECT_EQ(loss.bytes_zero_filled, 0u);
  EXPECT_EQ(loss.bytes_discarded, markers[2] - markers[1]);
  const auto got = std::span<const std::byte>(dec.value());
  EXPECT_TRUE(std::equal(got.first(2048).begin(), got.first(2048).end(),
                         raw.begin()));
  EXPECT_TRUE(std::equal(got.subspan(2048).begin(), got.subspan(2048).end(),
                         raw.begin() + 4096));
}

TEST(CompressFaultTest, ForgedHeaderSizesWithValidCrcAreRejected) {
  // A hand-built header whose lengths exceed the format caps but whose
  // header CRC verifies: caps must reject it (no multi-GiB allocation),
  // and the scan resynchronises onto the real frames that follow.
  const auto raw = pattern_payload(3, 2048);
  const auto enc = encode(raw, 2048);
  std::vector<std::byte> stream;
  stream.insert(stream.end(), kFrameSync.begin(), kFrameSync.end());
  const std::uint32_t comp = 8;
  const std::uint32_t forged_raw = static_cast<std::uint32_t>(kGiB) + 1;
  for (int i = 0; i < 4; ++i) {
    stream.push_back(static_cast<std::byte>((comp >> (8 * i)) & 0xFFu));
  }
  for (int i = 0; i < 4; ++i) {
    stream.push_back(static_cast<std::byte>((forged_raw >> (8 * i)) & 0xFFu));
  }
  const std::uint32_t hcrc = crc32c(std::span<const std::byte>(stream));
  for (int i = 0; i < 4; ++i) {
    stream.push_back(static_cast<std::byte>((hcrc >> (8 * i)) & 0xFFu));
  }
  stream.insert(stream.end(), 12, std::byte{0xAB});  // fake body + trailer
  stream.insert(stream.end(), enc.begin(), enc.end());

  StreamLossReport loss;
  auto dec = decompress_stream(stream, &loss);
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(dec.value().size(), raw.size());
  EXPECT_EQ(dec.value(), raw);
  EXPECT_EQ(loss.frames_skipped, 1u);
  EXPECT_EQ(loss.frames_decoded, 1u);
}

TEST(CompressFaultTest, ForgedRawBytesMismatchZeroFillsNotCorrupts) {
  // raw_bytes altered (with the header CRC recomputed, as a deliberate
  // attacker would): the slz payload then decodes to a different size than
  // the header promises — the frame is treated as damaged, zero-filled at
  // the forged extent, never trusted.
  const auto raw = pattern_payload(4, 2048);
  auto enc = encode(raw, 2048);
  const std::uint32_t forged = 2049;
  for (int i = 0; i < 4; ++i) {
    enc[12 + static_cast<std::size_t>(i)] =
        static_cast<std::byte>((forged >> (8 * i)) & 0xFFu);
  }
  const std::uint32_t hcrc =
      crc32c(std::span<const std::byte>(enc).first(16));
  for (int i = 0; i < 4; ++i) {
    enc[16 + static_cast<std::size_t>(i)] =
        static_cast<std::byte>((hcrc >> (8 * i)) & 0xFFu);
  }
  StreamLossReport loss;
  auto dec = decompress_stream(enc, &loss);
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(dec.value().size(), 2049u);
  EXPECT_TRUE(all_zero(dec.value()));
  EXPECT_EQ(loss.frames_skipped, 1u);
  EXPECT_EQ(loss.bytes_zero_filled, 2049u);
}

TEST(CompressFaultTest, TruncationAtEveryBoundaryNeverCrashes) {
  const auto raw = pattern_payload(5, 3 * 600);
  const auto enc = encode(raw, 600);
  ASSERT_EQ(find_markers(enc).size(), 3u);
  for (std::size_t cut = 0; cut <= enc.size(); ++cut) {
    StreamLossReport loss;
    auto dec = decompress_stream(
        std::span<const std::byte>(enc).first(cut), &loss);
    ASSERT_TRUE(dec.ok()) << "cut at " << cut;
    // Flips cannot occur here, only loss: whatever is delivered is either
    // the original byte at that position or a zero fill, never garbage.
    ASSERT_LE(dec.value().size(), raw.size());
    for (std::size_t i = 0; i < dec.value().size(); ++i) {
      ASSERT_TRUE(dec.value()[i] == raw[i] || dec.value()[i] == std::byte{0})
          << "cut " << cut << " byte " << i;
    }
  }
}

TEST(CompressFaultTest, GarbageBetweenFramesIsDiscardedAndCounted) {
  const auto raw = pattern_payload(6, 4096);
  const auto enc = encode(raw, 2048);
  const auto markers = find_markers(enc);
  ASSERT_EQ(markers.size(), 2u);
  std::vector<std::byte> spliced(enc.begin(), enc.begin() + markers[1]);
  spliced.insert(spliced.end(), 333, std::byte{0x55});
  spliced.insert(spliced.end(), enc.begin() + markers[1], enc.end());

  StreamLossReport loss;
  auto dec = decompress_stream(spliced, &loss);
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(dec.value(), raw);
  EXPECT_EQ(loss.frames_decoded, 2u);
  EXPECT_EQ(loss.frames_skipped, 1u);  // the garbage region
  EXPECT_EQ(loss.bytes_discarded, 333u);
  EXPECT_EQ(loss.bytes_zero_filled, 0u);
}

// One seeded mutation: up to 8 bit flips, a truncation, or a 0x55 run.
void mutate(std::vector<std::byte>& enc, Rng& rng) {
  const int kind = static_cast<int>(rng.next_below(3));
  if (kind == 0) {
    const int flips = 1 + static_cast<int>(rng.next_below(8));
    for (int f = 0; f < flips; ++f) {
      enc[static_cast<std::size_t>(rng.next_below(enc.size()))] ^=
          static_cast<std::byte>(1u << rng.next_below(8));
    }
  } else if (kind == 1) {
    enc.resize(static_cast<std::size_t>(rng.next_below(enc.size() + 1)));
  } else {
    const std::size_t at = static_cast<std::size_t>(rng.next_below(enc.size()));
    const std::size_t run = std::min<std::size_t>(
        enc.size() - at, 1 + static_cast<std::size_t>(rng.next_below(64)));
    std::fill_n(enc.begin() + static_cast<std::ptrdiff_t>(at), run,
                std::byte{0x55});
  }
}

TEST(CompressFaultTest, SeededMutationFuzzNeverCrashesOrOverAllocates) {
  const auto raw = pattern_payload(7, 10000);
  const auto clean = encode(raw, 1024);
  Rng rng(0xFAB17);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::byte> enc = clean;
    mutate(enc, rng);
    StreamLossReport loss;
    auto dec = decompress_stream(enc, &loss);
    ASSERT_TRUE(dec.ok()) << "round " << round;
    // Random damage cannot forge a CRC-valid header, so the decoded stream
    // can only shrink or hold its size — an allocation bound.
    ASSERT_LE(dec.value().size(), raw.size()) << "round " << round;
  }
}

// The slz format decoded from its definition: bytewise, bounds-checked,
// canonical varints only. The differential oracle for the fast decoder.
bool reference_varint(std::span<const std::byte> in, std::size_t& pos,
                      std::uint64_t& v) {
  v = 0;
  for (int shift = 0; shift <= 63 && pos < in.size(); shift += 7) {
    const auto b = std::to_integer<std::uint64_t>(in[pos++]);
    if (shift == 63 && (b & 0x7E) != 0) return false;
    v |= (b & 0x7F) << shift;
    if ((b & 0x80) == 0) return b != 0 || shift == 0;
  }
  return false;
}

std::optional<std::vector<std::byte>> reference_slz_decode(
    std::span<const std::byte> in, std::uint64_t usize) {
  if (in.size() < 12 || std::memcmp(in.data(), "SLZ1", 4) != 0) {
    return std::nullopt;
  }
  std::uint64_t header = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    header |= std::to_integer<std::uint64_t>(in[4 + i]) << (8 * i);
  }
  if (header != usize) return std::nullopt;
  std::vector<std::byte> out;
  std::size_t pos = 12;
  while (out.size() < usize) {
    std::uint64_t control = 0;
    if (!reference_varint(in, pos, control)) return std::nullopt;
    const std::uint64_t room = usize - out.size();
    if ((control & 1) == 0) {
      const std::uint64_t run = control >> 1;
      if (run > in.size() - pos || run > room) return std::nullopt;
      out.insert(out.end(), in.begin() + static_cast<std::ptrdiff_t>(pos),
                 in.begin() + static_cast<std::ptrdiff_t>(pos + run));
      pos += run;
    } else {
      const std::uint64_t len = (control >> 1) + 4;
      std::uint64_t dist = 0;
      if (!reference_varint(in, pos, dist)) return std::nullopt;
      if (dist == 0 || dist > out.size() || len > room) return std::nullopt;
      for (std::uint64_t i = 0; i < len; ++i) {
        out.push_back(out[out.size() - dist]);
      }
    }
  }
  if (pos != in.size()) return std::nullopt;
  return out;
}

TEST(CompressFaultTest, SeededMutationFuzzReachesTheSlzDecoder) {
  // The frame-level fuzz above stops at the payload CRC, so its mutations
  // never reach slz itself. Here the same mutations hit a bare slz stream
  // decoded into an exactly sized buffer: the decoder must agree with the
  // reference on every verdict and every delivered byte, and kCorrupt is
  // its only failure.
  const auto raw = pattern_payload(7, 10000);
  const auto clean = slz_compress(raw);
  ASSERT_EQ(reference_slz_decode(clean, raw.size()), raw);
  Rng rng(0xFAB17);
  int decoded = 0;
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::byte> enc = clean;
    mutate(enc, rng);
    std::vector<std::byte> out(raw.size());
    const Status st = slz_decompress_into(enc, out);
    const auto want = reference_slz_decode(enc, raw.size());
    if (want.has_value()) {
      ASSERT_TRUE(st.ok()) << "round " << round << ": " << st.to_string();
      ASSERT_EQ(out, *want) << "round " << round;
      if (enc == clean) {
        ASSERT_EQ(out, raw) << "round " << round;
      }
      ++decoded;
    } else {
      ASSERT_EQ(st.code(), ErrorCode::kCorrupt) << "round " << round;
    }
  }
  // Literal-byte flips decode (to different bytes); most damage does not.
  EXPECT_GT(decoded, 0);
  EXPECT_LT(decoded, 2000);
}

// --- end-to-end: damaged compressed checkpoint restores with known loss ----

TEST(CompressFaultTest, RestoreSkipsExactlyTheDamagedFrames) {
  fs::SimFs fsim(fs::TestbedConfig());
  par::Engine engine;
  const int n = 2;
  const std::size_t per_rank = 8192;

  auto make_spec = [](StreamLossReport* sink) {
    workloads::CheckpointSpec spec;
    spec.path = "dmg.ckpt";
    CompressionSpec compression;
    compression.chunk_bytes = 2048;  // 4 frames per rank
    compression.loss_report = sink;
    spec.compression = compression;
    return spec;
  };

  engine.run(n, [&](par::Comm& world) {
    const auto mine = pattern_payload(world.rank(), per_rank);
    ASSERT_TRUE(workloads::write_checkpoint(fsim, world, make_spec(nullptr),
                                            DataView(mine))
                    .ok());
  });

  // Serial damage pass over the physical file: flip one payload byte in
  // rank 0's second frame, tear rank 1's third frame's trailer.
  {
    auto file = fsim.open_rw("dmg.ckpt");
    ASSERT_TRUE(file.ok());
    auto st = file.value()->stat();
    ASSERT_TRUE(st.ok());
    std::vector<std::byte> bytes(st.value().size);
    ASSERT_TRUE(file.value()->pread(bytes, 0).ok());
    const auto markers = find_markers(bytes);
    ASSERT_EQ(markers.size(), 8u);  // 2 ranks x 4 frames, in rank order

    const std::vector<std::byte> flip{
        bytes[markers[1] + kFrameHeaderBytes + 5] ^ std::byte{0x10}};
    ASSERT_TRUE(file.value()
                    ->pwrite(DataView(flip),
                             markers[1] + kFrameHeaderBytes + 5)
                    .ok());
    const std::uint32_t comp = u32_at(bytes, markers[6] + 8);
    const std::vector<std::byte> tear(kFrameTrailerBytes, std::byte{0xEE});
    ASSERT_TRUE(file.value()
                    ->pwrite(DataView(tear),
                             markers[6] + kFrameHeaderBytes + comp)
                    .ok());
  }

  engine.run(n, [&](par::Comm& world) {
    StreamLossReport loss;
    const auto spec = make_spec(&loss);
    std::vector<std::byte> back(per_rank);
    ASSERT_TRUE(workloads::CheckpointSession::restore(fsim, world, spec, 0,
                                                      per_rank, back)
                    .ok());
    // The loss report is global (allreduced), identical on every task.
    EXPECT_EQ(loss.frames_decoded, 6u);
    EXPECT_EQ(loss.frames_skipped, 2u);
    EXPECT_EQ(loss.bytes_zero_filled, 2u * 2048u);
    EXPECT_EQ(loss.bytes_discarded, 0u);
    EXPECT_FALSE(loss.clean());

    const auto want = pattern_payload(world.rank(), per_rank);
    const auto got = std::span<const std::byte>(back);
    // Rank 0 lost frame 1 ([2048, 4096)); rank 1 lost frame 2
    // ([4096, 6144)). Undamaged regions are byte-identical, damaged
    // extents exactly zero.
    const std::size_t lost_at = world.rank() == 0 ? 2048 : 4096;
    for (std::size_t i = 0; i < per_rank; ++i) {
      if (i >= lost_at && i < lost_at + 2048) {
        ASSERT_EQ(got[i], std::byte{0}) << "rank " << world.rank() << " " << i;
      } else {
        ASSERT_EQ(got[i], want[i]) << "rank " << world.rank() << " " << i;
      }
    }
  });
}

TEST(CompressFaultTest, CompressedRestoreIsByteIdenticalAcrossScales) {
  // N=2 writers -> M in {1, 2, 4} readers through ext::Remap, transparent
  // decode; every reader receives its slice of the concatenated stream.
  fs::SimFs fsim(fs::TestbedConfig());
  par::Engine engine;
  const int n = 2;
  const std::size_t per_rank = 6000;

  workloads::CheckpointSpec spec;
  spec.path = "scale.ckpt";
  CompressionSpec compression;
  compression.chunk_bytes = 1024;
  spec.compression = compression;

  engine.run(n, [&](par::Comm& world) {
    const auto mine = pattern_payload(world.rank(), per_rank);
    ASSERT_TRUE(
        workloads::write_checkpoint(fsim, world, spec, DataView(mine)).ok());
  });

  std::vector<std::byte> all;
  for (int r = 0; r < n; ++r) {
    const auto mine = pattern_payload(r, per_rank);
    all.insert(all.end(), mine.begin(), mine.end());
  }

  for (const int m : {1, 2, 4}) {
    engine.run(m, [&](par::Comm& world) {
      StreamLossReport loss;
      auto rspec = spec;
      rspec.restart_ntasks = m;
      rspec.compression->loss_report = &loss;
      const std::size_t share = all.size() / static_cast<std::size_t>(m);
      std::vector<std::byte> back(share);
      ASSERT_TRUE(workloads::read_checkpoint(fsim, world, rspec, share, back)
                      .ok())
          << "m=" << m;
      EXPECT_TRUE(loss.clean());
      EXPECT_GT(loss.frames_decoded, 0u);
      const auto want = std::span<const std::byte>(all).subspan(
          static_cast<std::size_t>(world.rank()) * share, share);
      EXPECT_TRUE(std::equal(back.begin(), back.end(), want.begin()))
          << "m=" << m << " rank " << world.rank();
    });
  }
}

TEST(CompressFaultTest, StagedCompressedSessionRestoresLatest) {
  // Compression composes with burst-buffer staging: frames are built before
  // the fast-tier absorb, drain as opaque bytes, and restore_latest decodes
  // the newest durable checkpoint transparently.
  fs::SimConfig machine = fs::TestbedConfig();
  machine.burst_buffer.tasks_per_node = 4;
  machine.burst_buffer.node_bandwidth = 4.0e9;
  machine.burst_buffer.drain_bandwidth = 200.0e6;
  fs::SimFs fsim(machine);
  const int n = 4;
  fs::SimFs bb(fs::BurstBufferTierConfig(machine, n));
  par::Engine engine;
  const std::size_t per_rank = 4096;

  workloads::CheckpointSpec spec;
  spec.path = "staged.ckpt";
  StagingConfig staging;
  staging.fast_tier = &bb;
  spec.staging = staging;
  spec.compression = CompressionSpec{};

  engine.run(n, [&](par::Comm& world) {
    auto session = workloads::CheckpointSession::open(fsim, world, spec);
    ASSERT_TRUE(session.ok()) << session.status().to_string();
    const auto v0 = pattern_payload(world.rank(), per_rank);
    const auto v1 = pattern_payload(world.rank() + 100, per_rank);
    ASSERT_TRUE(session.value()->write_async(DataView(v0)).ok());
    ASSERT_TRUE(session.value()->write_async(DataView(v1)).ok());
    ASSERT_TRUE(session.value()->close().ok());

    StreamLossReport loss;
    auto rspec = spec;
    rspec.compression->loss_report = &loss;
    std::vector<std::byte> back(per_rank);
    auto idx = workloads::CheckpointSession::restore_latest(
        fsim, world, rspec, per_rank, back);
    ASSERT_TRUE(idx.ok()) << idx.status().to_string();
    EXPECT_EQ(idx.value(), 1u);
    EXPECT_EQ(back, v1);
    EXPECT_TRUE(loss.clean());
  });
}

}  // namespace
}  // namespace sion::ext
