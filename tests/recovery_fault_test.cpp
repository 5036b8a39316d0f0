// Crash-injection battery for ext::repair_multifile: multifiles are
// programmatically truncated and corrupted at adversarial offsets —
// mid-chunk, mid-frame, a lost metablock 2 on one of several physical
// files — and repair must either fully restore the file or fail cleanly
// with a diagnostic. The one behavior these tests exist to forbid is a
// repair that "succeeds" and then hands back wrong or silently shortened
// data.
#include <gtest/gtest.h>

#include <cstring>

#include "common/codec.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/api.h"
#include "ext/recovery.h"
#include "ext/remap.h"
#include "fs/sim/machine.h"
#include "fs/sim/simfs.h"
#include "par/comm.h"
#include "par/engine.h"

namespace sion::ext {
namespace {

using fs::DataView;

class RecoveryFaultTest : public ::testing::Test {
 protected:
  RecoveryFaultTest() : fs_(fs::TestbedConfig()) {}

  static std::vector<std::byte> payload_of(int rank,
                                           std::uint64_t bytes_per_task) {
    std::vector<std::byte> data(bytes_per_task);
    Rng rng(9100 + static_cast<std::uint64_t>(rank));
    rng.fill_bytes(data);
    return data;
  }

  // Write a frames-enabled multifile; with `crash`, skip the collective
  // close so metablock 2 is missing (the paper's premature-termination
  // failure mode).
  void write_multifile(const std::string& name, int ntasks, int nfiles,
                       std::uint64_t bytes_per_task, bool crash) {
    par::Engine engine;
    engine.run(ntasks, [&](par::Comm& world) {
      core::ParOpenSpec spec;
      spec.filename = name;
      spec.chunksize = 3000;  // several blocks per task
      spec.fsblksize = 1 * kKiB;
      spec.nfiles = nfiles;
      spec.chunk_frames = true;
      auto open = core::SionParFile::open_write(fs_, world, spec);
      ASSERT_TRUE(open.ok()) << open.status().to_string();
      const auto data = payload_of(world.rank(), bytes_per_task);
      ASSERT_TRUE(open.value()->write(DataView(data)).ok());
      if (!crash) {
        ASSERT_TRUE(open.value()->close().ok());
      }
    });
  }

  // Geometry of one physical file, reconstructed exactly like the repair
  // tool does — used to aim the fault injections.
  struct Geometry {
    core::FileHeader header;
    core::FileLayout layout;
  };
  Geometry geometry_of(const std::string& path) {
    auto file = fs_.open_read(path);
    EXPECT_TRUE(file.ok());
    auto header = core::read_header(*file.value());
    EXPECT_TRUE(header.ok());
    auto layout = core::FileLayout::create(
        header.value().fsblksize, header.value().chunksizes_req,
        header.value().serialize().size());
    EXPECT_TRUE(layout.ok());
    return Geometry{std::move(header).value(), std::move(layout).value()};
  }

  void overwrite(const std::string& path, std::uint64_t offset,
                 std::span<const std::byte> bytes) {
    auto file = fs_.open_rw(path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value()->pwrite(DataView(bytes), offset).ok());
  }

  void verify_full_restore(const std::string& name, int ntasks,
                           std::uint64_t bytes_per_task) {
    par::Engine engine;
    engine.run(ntasks, [&](par::Comm& world) {
      auto ropen = core::SionParFile::open_read(fs_, world, name);
      ASSERT_TRUE(ropen.ok()) << ropen.status().to_string();
      const auto expect = payload_of(world.rank(), bytes_per_task);
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

// ---------------------------------------------------------------------------
// truncation
// ---------------------------------------------------------------------------

TEST_F(RecoveryFaultTest, TruncationMidChunkFailsCleanly) {
  write_multifile("trunc.sion", 4, 1, 8000, /*crash=*/true);
  const Geometry geo = geometry_of("trunc.sion");
  // Cut into the middle of task 2's block-1 chunk payload: its frame
  // promises bytes the file no longer holds.
  const std::uint64_t cut =
      geo.layout.chunk_start(2, 1) + core::kChunkFrameSize + 100;
  {
    auto file = fs_.open_rw("trunc.sion");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value()->truncate(cut).ok());
  }
  auto report = repair_multifile(fs_, "trunc.sion");
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), ErrorCode::kCorrupt);
  EXPECT_NE(report.status().message().find("truncated"), std::string::npos)
      << report.status().to_string();
}

TEST_F(RecoveryFaultTest, TruncationOfWholeTrailingBlocksRecoversThePrefix) {
  write_multifile("trunc2.sion", 3, 1, 8000, /*crash=*/true);
  const Geometry geo = geometry_of("trunc2.sion");
  // Chop every block-2 chunk including its frame. No frame then promises
  // bytes the file lacks, which is indistinguishable from a crash that
  // never entered block 2 — so repair recovers the consistent block-0/1
  // prefix, and reads must return exactly that prefix, never garbage.
  const std::uint64_t cut = geo.layout.chunk_start(0, 2) + 10;
  {
    auto file = fs_.open_rw("trunc2.sion");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value()->truncate(cut).ok());
  }
  auto report = repair_multifile(fs_, "trunc2.sion");
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_EQ(report.value().repaired_files, 1);
  // 3000-byte chunks at 1 KiB blocks: 3072-byte aligned chunks, 3008 usable
  // after the frame; blocks 0+1 hold a 6016-byte prefix of each stream.
  const std::uint64_t prefix = 2 * (3 * kKiB - core::kChunkFrameSize);
  par::Engine engine;
  engine.run(3, [&](par::Comm& world) {
    auto ropen = core::SionParFile::open_read(fs_, world, "trunc2.sion");
    ASSERT_TRUE(ropen.ok()) << ropen.status().to_string();
    const auto expect = payload_of(world.rank(), 8000);
    std::vector<std::byte> back(8000);
    auto got = ropen.value()->read(back);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got.value(), prefix);
    EXPECT_TRUE(std::memcmp(back.data(), expect.data(), prefix) == 0);
    ASSERT_TRUE(ropen.value()->close().ok());
  });
}

// ---------------------------------------------------------------------------
// mid-frame corruption
// ---------------------------------------------------------------------------

TEST_F(RecoveryFaultTest, CorruptedFrameMagicMidChainFailsCleanly) {
  write_multifile("magic.sion", 4, 1, 8000, /*crash=*/true);
  const Geometry geo = geometry_of("magic.sion");
  // Destroy the magic of task 1's block-0 frame; its block-1 frame stays
  // valid, so "task never entered block 0" is provably false.
  const std::vector<std::byte> junk(8, std::byte{0x5A});
  overwrite("magic.sion", geo.layout.chunk_start(1, 0), junk);
  auto report = repair_multifile(fs_, "magic.sion");
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), ErrorCode::kCorrupt);
}

TEST_F(RecoveryFaultTest, BitFlippedByteCountInFrameIsDetected) {
  write_multifile("flip.sion", 4, 1, 8000, /*crash=*/true);
  const Geometry geo = geometry_of("flip.sion");
  // Flip one byte inside the bytes-written field of task 3's block-0 frame
  // (offset 24 within the frame). Without an integrity check the repair
  // would rebuild metablock 2 from the flipped value and reads would hand
  // back the wrong number of bytes — silently.
  const std::uint64_t field = geo.layout.chunk_start(3, 0) + 24;
  std::vector<std::byte> flipped(1);
  {
    auto file = fs_.open_read("flip.sion");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value()->pread(flipped, field).ok());
  }
  flipped[0] ^= std::byte{0x04};
  overwrite("flip.sion", field, flipped);
  auto report = repair_multifile(fs_, "flip.sion");
  // The checksum no longer matches, so the frame reads as damaged; block 1
  // of the same task still has a valid frame -> broken chain, clean error.
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), ErrorCode::kCorrupt);
}

TEST_F(RecoveryFaultTest, ForgedOversizedByteCountIsRejected) {
  write_multifile("forge.sion", 2, 1, 1000, /*crash=*/true);
  const Geometry geo = geometry_of("forge.sion");
  // Forge a frame with a *consistent* checksum but a byte count larger than
  // the chunk can hold: the capacity cross-check must catch what the
  // checksum cannot.
  const core::ChunkFrame forged{/*grank=*/1, /*lrank=*/1, /*block=*/0,
                               geo.layout.chunksize(1) * 100};
  overwrite("forge.sion", geo.layout.chunk_start(1, 0), forged.serialize());
  auto report = repair_multifile(fs_, "forge.sion");
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), ErrorCode::kCorrupt);
  EXPECT_NE(report.status().message().find("at most"), std::string::npos)
      << report.status().to_string();
}

TEST_F(RecoveryFaultTest, TornFinalFrameRecoversThePrefix) {
  // A torn patch on the *last* block is the normal crash artifact (the
  // application died mid-write): repair keeps the consistent prefix and
  // the file opens cleanly — this is recovery, not data loss.
  write_multifile("torn.sion", 2, 1, 7000, /*crash=*/true);
  const Geometry geo = geometry_of("torn.sion");
  // Task 0 entered blocks 0..2; damage its LAST frame (block 2).
  const std::vector<std::byte> junk(8, std::byte{0xEE});
  overwrite("torn.sion", geo.layout.chunk_start(0, 2), junk);
  auto report = repair_multifile(fs_, "torn.sion");
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_EQ(report.value().repaired_files, 1);
  // The repaired file opens and reads a clean prefix of task 0's stream.
  par::Engine engine;
  engine.run(2, [&](par::Comm& world) {
    auto ropen = core::SionParFile::open_read(fs_, world, "torn.sion");
    ASSERT_TRUE(ropen.ok()) << ropen.status().to_string();
    const auto expect = payload_of(world.rank(), 7000);
    std::vector<std::byte> back(7000);
    auto got = ropen.value()->read(back);
    ASSERT_TRUE(got.ok());
    if (world.rank() == 0) {
      // Prefix only: the final chunk's record was torn away.
      ASSERT_LT(got.value(), 7000u);
    } else {
      ASSERT_EQ(got.value(), 7000u);
    }
    EXPECT_TRUE(std::memcmp(back.data(), expect.data(), got.value()) == 0);
    ASSERT_TRUE(ropen.value()->close().ok());
  });
}

// ---------------------------------------------------------------------------
// lost metablock 2 on one of several physical files
// ---------------------------------------------------------------------------

TEST_F(RecoveryFaultTest, LostMeta2OnOnePhysicalFileIsRebuilt) {
  write_multifile("multi.sion", 9, 3, 6000, /*crash=*/false);
  // File 1 of 3 loses its metablock 2: trailer zeroed and the tail chopped,
  // exactly as if that file's close never completed.
  const std::string victim = core::physical_file_name("multi.sion", 1, 3);
  const Geometry geo = geometry_of(victim);
  {
    auto file = fs_.open_rw(victim);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value()->truncate(geo.header.meta2_offset).ok());
    const std::vector<std::byte> zeros(16, std::byte{0});
    ASSERT_TRUE(
        file.value()->pwrite(DataView(zeros), core::kTrailerNblocksOffset).ok());
  }
  // Damaged: the set no longer opens.
  {
    par::Engine engine;
    engine.run(9, [&](par::Comm& world) {
      EXPECT_FALSE(core::SionParFile::open_read(fs_, world, "multi.sion").ok());
    });
  }
  auto report = repair_multifile(fs_, "multi.sion");
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_EQ(report.value().physical_files, 3);
  EXPECT_EQ(report.value().repaired_files, 1);
  EXPECT_EQ(report.value().intact_files, 2);
  verify_full_restore("multi.sion", 9, 6000);
}

TEST_F(RecoveryFaultTest, ForgedTinyChunkHeaderIsRejected) {
  // Rewrite metablock 1 so the chunks are smaller than a recovery frame
  // (the write path forbids this, so only a damaged header can claim it):
  // without the explicit guard the capacity bound underflows and a forged
  // frame could claim payload reaching into other tasks' chunks.
  write_multifile("tiny.sion", 2, 1, 1000, /*crash=*/true);
  Geometry geo = geometry_of("tiny.sion");
  geo.header.fsblksize = 1;
  for (auto& c : geo.header.chunksizes_req) c = 1;
  // Same task count and array lengths -> identical serialized size, so the
  // forged metablock overwrites the original in place.
  overwrite("tiny.sion", 0, geo.header.serialize());
  auto report = repair_multifile(fs_, "tiny.sion");
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), ErrorCode::kCorrupt);
  EXPECT_NE(report.status().message().find("recovery frame"),
            std::string::npos)
      << report.status().to_string();
}

TEST_F(RecoveryFaultTest, CorruptedHeaderFailsCleanly) {
  write_multifile("hdr.sion", 2, 1, 1000, /*crash=*/true);
  const std::vector<std::byte> junk(8, std::byte{0x00});
  overwrite("hdr.sion", 0, junk);
  auto report = repair_multifile(fs_, "hdr.sion");
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), ErrorCode::kCorrupt);
}

// ---------------------------------------------------------------------------
// repair composes with N->M restart
// ---------------------------------------------------------------------------

TEST_F(RecoveryFaultTest, RepairedCheckpointRestoresAtDifferentScale) {
  write_multifile("rr.sion", 8, 2, 5000, /*crash=*/true);
  ASSERT_TRUE(repair_multifile(fs_, "rr.sion").ok());

  std::vector<std::byte> expect;
  for (int r = 0; r < 8; ++r) {
    const auto mine = payload_of(r, 5000);
    expect.insert(expect.end(), mine.begin(), mine.end());
  }
  std::vector<std::byte> got(expect.size());
  par::Engine engine;
  engine.run(3, [&](par::Comm& world) {
    auto remap = Remap::open(fs_, world, "rr.sion");
    ASSERT_TRUE(remap.ok()) << remap.status().to_string();
    const std::uint64_t lo = remap.value()->even_share_offset(world.rank());
    std::vector<std::byte> mine(remap.value()->even_share(world.rank()));
    auto stats = remap.value()->restore(mine, mine.size());
    ASSERT_TRUE(stats.ok()) << stats.status().to_string();
    std::memcpy(got.data() + lo, mine.data(), mine.size());
    ASSERT_TRUE(remap.value()->close().ok());
  });
  EXPECT_EQ(got, expect);
}

}  // namespace
}  // namespace sion::ext
