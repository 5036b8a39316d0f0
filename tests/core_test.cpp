// Tests for the SION core library: layout math, metadata ser/de, file
// mapping, and full parallel/serial multifile roundtrips on both SimFs and
// PosixFs, including the failure modes (missing metablock 2, task count
// mismatch, corrupt headers).
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>

#include "common/codec.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/units.h"
#include "core/api.h"
#include "fs/posix_fs.h"
#include "fs_wrappers.h"
#include "fs/sim/machine.h"
#include "fs/sim/simfs.h"
#include "par/comm.h"
#include "par/engine.h"

namespace sion::core {
namespace {

using fs::DataView;

std::vector<std::byte> rank_pattern(int rank, std::size_t n) {
  std::vector<std::byte> out(n);
  Rng rng(0xC0FFEE + static_cast<std::uint64_t>(rank));
  rng.fill_bytes(out);
  return out;
}

// ---------------------------------------------------------------------------
// FileLayout
// ---------------------------------------------------------------------------

TEST(FileLayoutTest, AlignsChunksToBlocks) {
  auto layout = FileLayout::create(4096, {100, 5000, 4096}, 300).value();
  EXPECT_EQ(layout.chunksize(0), 4096u);
  EXPECT_EQ(layout.chunksize(1), 8192u);
  EXPECT_EQ(layout.chunksize(2), 4096u);
  EXPECT_EQ(layout.block_span(), 4096u + 8192 + 4096);
  EXPECT_EQ(layout.data_start(), 4096u);  // meta1 of 300 B rounds up
  EXPECT_EQ(layout.chunk_offset_in_block(0), 0u);
  EXPECT_EQ(layout.chunk_offset_in_block(1), 4096u);
  EXPECT_EQ(layout.chunk_offset_in_block(2), 12288u);
}

TEST(FileLayoutTest, ChunkStartsNeverShareBlocks) {
  auto layout = FileLayout::create(4096, {1, 1, 1, 1}, 100).value();
  for (int t = 0; t < 4; ++t) {
    for (std::uint64_t b = 0; b < 3; ++b) {
      EXPECT_EQ(layout.chunk_start(t, b) % 4096, 0u)
          << "task " << t << " block " << b;
    }
  }
}

TEST(FileLayoutTest, BlocksTile) {
  auto layout = FileLayout::create(1024, {1000, 3000}, 10).value();
  EXPECT_EQ(layout.chunk_start(0, 1) - layout.chunk_start(0, 0),
            layout.block_span());
  EXPECT_EQ(layout.meta2_offset(2),
            layout.data_start() + 2 * layout.block_span());
}

TEST(FileLayoutTest, RejectsBadInput) {
  EXPECT_FALSE(FileLayout::create(0, {1}, 10).ok());
  EXPECT_FALSE(FileLayout::create(4096, {}, 10).ok());
  EXPECT_FALSE(FileLayout::create(4096, {0}, 10).ok());
}

// ---------------------------------------------------------------------------
// metadata
// ---------------------------------------------------------------------------

TEST(MetadataTest, HeaderRoundtrip) {
  FileHeader h;
  h.flags = kFlagChunkFrames;
  h.nblocks = 3;
  h.meta2_offset = 123456;
  h.fsblksize = 2 * kMiB;
  h.ntasks = 4;
  h.nfiles = 16;
  h.filenum = 7;
  h.global_ranks = {100, 101, 102, 103};
  h.chunksizes_req = {1, 2, 3, 4};
  auto parsed = FileHeader::parse(h.serialize()).value();
  EXPECT_EQ(parsed.flags, h.flags);
  EXPECT_EQ(parsed.nblocks, 3u);
  EXPECT_EQ(parsed.meta2_offset, 123456u);
  EXPECT_EQ(parsed.fsblksize, 2 * kMiB);
  EXPECT_EQ(parsed.ntasks, 4u);
  EXPECT_EQ(parsed.nfiles, 16u);
  EXPECT_EQ(parsed.filenum, 7u);
  EXPECT_EQ(parsed.global_ranks, h.global_ranks);
  EXPECT_EQ(parsed.chunksizes_req, h.chunksizes_req);
}

TEST(MetadataTest, TrailerFieldsAreAtFixedOffsets) {
  FileHeader h;
  h.nblocks = 0xAABBCCDD;
  h.meta2_offset = 0x11223344;
  h.fsblksize = 4096;
  h.ntasks = 1;
  h.global_ranks = {0};
  h.chunksizes_req = {1};
  const auto bytes = h.serialize();
  std::uint64_t nblocks = 0;
  std::uint64_t meta2 = 0;
  std::memcpy(&nblocks, bytes.data() + kTrailerNblocksOffset, 8);
  std::memcpy(&meta2, bytes.data() + kTrailerMeta2Offset, 8);
  EXPECT_EQ(nblocks, 0xAABBCCDDu);
  EXPECT_EQ(meta2, 0x11223344u);
}

TEST(MetadataTest, HeaderSizeIndependentOfTrailerValues) {
  FileHeader a;
  a.fsblksize = 4096;
  a.ntasks = 2;
  a.global_ranks = {0, 1};
  a.chunksizes_req = {10, 20};
  FileHeader b = a;
  b.nblocks = 99;
  b.meta2_offset = 1 << 30;
  // The reader recomputes data_start from a re-serialized header, so the
  // size must not depend on close-time values.
  EXPECT_EQ(a.serialize().size(), b.serialize().size());
}

TEST(MetadataTest, ParseRejectsGarbage) {
  std::vector<std::byte> junk(256, std::byte{0x5A});
  auto r = FileHeader::parse(junk);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kCorrupt);
}

TEST(MetadataTest, ParseRejectsBadVersion) {
  FileHeader h;
  h.fsblksize = 4096;
  h.ntasks = 1;
  h.global_ranks = {0};
  h.chunksizes_req = {1};
  auto bytes = h.serialize();
  bytes[8] = std::byte{99};  // version field
  EXPECT_FALSE(FileHeader::parse(bytes).ok());
}

TEST(MetadataTest, ParseRejectsBlockSizeNotAPowerOfTwo) {
  // Every writer aligns to a power-of-two block size; readers rely on it.
  FileHeader h;
  h.fsblksize = 3000;
  h.ntasks = 1;
  h.global_ranks = {0};
  h.chunksizes_req = {1};
  auto parsed = FileHeader::parse(h.serialize());
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), ErrorCode::kCorrupt);
}

TEST(MetadataTest, Meta2Roundtrip) {
  FileMeta2 m;
  m.bytes_written = {{100, 200, 0}, {50}, {}};
  EXPECT_EQ(m.nblocks(), 3u);
  auto parsed = FileMeta2::parse(m.serialize()).value();
  EXPECT_EQ(parsed.bytes_written, m.bytes_written);
}

TEST(MetadataTest, Meta2ParseRejectsForgedTaskCount) {
  // The task count is a u32 read from disk; a value the remaining bytes
  // cannot back must be rejected before it sizes any allocation.
  ByteWriter w;
  w.put_bytes(std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(kMagic2), sizeof(kMagic2)));
  w.put_u32(0xFFFFFFFFu);
  w.put_u64_array(std::vector<std::uint64_t>{1});
  auto parsed = FileMeta2::parse(w.bytes());
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), ErrorCode::kCorrupt);
}

TEST(MetadataTest, PhysicalFileNames) {
  EXPECT_EQ(physical_file_name("ckpt.sion", 0, 1), "ckpt.sion");
  EXPECT_EQ(physical_file_name("ckpt.sion", 0, 4), "ckpt.sion.000000");
  EXPECT_EQ(physical_file_name("ckpt.sion", 3, 4), "ckpt.sion.000003");
}

// ---------------------------------------------------------------------------
// FileMap
// ---------------------------------------------------------------------------

TEST(FileMapTest, Contiguous) {
  auto map = FileMap::contiguous(8, 2).value();
  for (int r = 0; r < 4; ++r) EXPECT_EQ(map.file_of(r), 0);
  for (int r = 4; r < 8; ++r) EXPECT_EQ(map.file_of(r), 1);
  EXPECT_EQ(map.local_index(0), 0);
  EXPECT_EQ(map.local_index(5), 1);
  EXPECT_EQ(map.tasks_in_file(0), 4);
}

TEST(FileMapTest, ContiguousUneven) {
  auto map = FileMap::contiguous(10, 3).value();
  int total = 0;
  for (int f = 0; f < 3; ++f) total += map.tasks_in_file(f);
  EXPECT_EQ(total, 10);
  // Every file gets at least floor(10/3) = 3 tasks.
  for (int f = 0; f < 3; ++f) EXPECT_GE(map.tasks_in_file(f), 3);
  // Ranks within a file stay in ascending order.
  int prev_file = 0;
  for (int r = 0; r < 10; ++r) {
    EXPECT_GE(map.file_of(r), prev_file);
    prev_file = map.file_of(r);
  }
}

TEST(FileMapTest, RoundRobin) {
  // Round robin (rank r -> file r % 2) is one custom map.
  auto map = FileMap::custom({0, 1, 0, 1, 0, 1}, 2).value();
  EXPECT_EQ(map.file_of(0), 0);
  EXPECT_EQ(map.file_of(1), 1);
  EXPECT_EQ(map.file_of(2), 0);
  EXPECT_EQ(map.local_index(2), 1);
}

TEST(FileMapTest, CustomValidation) {
  EXPECT_TRUE(FileMap::custom({0, 1, 0}, 2).ok());
  EXPECT_FALSE(FileMap::custom({0, 2}, 2).ok());   // out of range
  EXPECT_FALSE(FileMap::custom({0, 0}, 2).ok());   // file 1 empty
  EXPECT_FALSE(FileMap::custom({}, 1).ok());
  // An opener's map must name a file for every task and for no more.
  EXPECT_TRUE(FileMap::make(Mapping::kCustom, 3, 2, {0, 1, 0}).ok());
  const auto longer = FileMap::make(Mapping::kCustom, 4, 2, {0, 1, 0, 1, 1, 1});
  ASSERT_FALSE(longer.ok());
  EXPECT_EQ(longer.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(longer.status().message(),
            "custom mapping has 6 entries for 4 tasks");
  const auto shorter = FileMap::make(Mapping::kCustom, 8, 2, {0, 1, 0, 1});
  ASSERT_FALSE(shorter.ok());
  EXPECT_EQ(shorter.status().code(), ErrorCode::kInvalidArgument);
}

TEST(FileMapTest, BadCounts) {
  EXPECT_FALSE(FileMap::contiguous(4, 5).ok());  // more files than tasks
  EXPECT_FALSE(FileMap::contiguous(4, 0).ok());
  EXPECT_FALSE(FileMap::contiguous(0, 1).ok());
}

// ---------------------------------------------------------------------------
// Parallel roundtrips (SimFs)
// ---------------------------------------------------------------------------

struct RoundtripCase {
  int ntasks;
  int nfiles;
  std::uint64_t chunksize;
  std::uint64_t bytes_per_task;  // may exceed chunk -> multiple blocks
  bool frames;
};

class ParRoundtripTest : public ::testing::TestWithParam<RoundtripCase> {};

TEST_P(ParRoundtripTest, WriteThenReadBack) {
  const RoundtripCase c = GetParam();
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  engine.run(c.ntasks, [&](par::Comm& world) {
    ParOpenSpec spec;
    spec.filename = "multi.sion";
    spec.chunksize = c.chunksize;
    spec.nfiles = c.nfiles;
    spec.chunk_frames = c.frames;
    auto open = SionParFile::open_write(fs, world, spec);
    ASSERT_TRUE(open.ok()) << open.status().to_string();
    auto& sion = *open.value();

    const auto data = rank_pattern(world.rank(), c.bytes_per_task);
    auto wrote = sion.write(DataView(data));
    ASSERT_TRUE(wrote.ok()) << wrote.status().to_string();
    EXPECT_EQ(wrote.value(), c.bytes_per_task);
    EXPECT_EQ(sion.bytes_written_total(), c.bytes_per_task);
    ASSERT_TRUE(sion.close().ok());

    auto ropen = SionParFile::open_read(fs, world, "multi.sion");
    ASSERT_TRUE(ropen.ok()) << ropen.status().to_string();
    auto& rsion = *ropen.value();
    EXPECT_EQ(rsion.bytes_remaining_total(), c.bytes_per_task);
    std::vector<std::byte> back(c.bytes_per_task);
    auto got = rsion.read(back);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), c.bytes_per_task);
    EXPECT_EQ(back, data);
    EXPECT_TRUE(rsion.eof());
    ASSERT_TRUE(rsion.close().ok());
  });
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParRoundtripTest,
    ::testing::Values(
        RoundtripCase{1, 1, 1000, 1000, false},
        RoundtripCase{4, 1, 1000, 1000, false},
        RoundtripCase{4, 1, 70000, 300000, false},    // multiple blocks
        RoundtripCase{8, 4, 4096, 4096, false},       // multiple files
        RoundtripCase{8, 3, 1000, 9000, false},       // uneven files + blocks
        RoundtripCase{4, 1, 1000, 1000, true},        // recovery frames
        RoundtripCase{8, 2, 70000, 300000, true},     // frames + blocks + files
        RoundtripCase{16, 16, 4096, 8192, false}));   // one file per task

TEST(ParFileTest, EnsureFreeSpaceAdvancesBlocks) {
  fs::SimFs fs(fs::TestbedConfig());  // 64 KiB blocks
  par::Engine engine;
  engine.run(2, [&](par::Comm& world) {
    ParOpenSpec spec;
    spec.filename = "efs.sion";
    spec.chunksize = 64 * kKiB;
    auto open = SionParFile::open_write(fs, world, spec);
    ASSERT_TRUE(open.ok());
    auto& sion = *open.value();

    // Fill most of the chunk, then demand more than the remainder.
    ASSERT_TRUE(sion.ensure_free_space(60 * kKiB).ok());
    ASSERT_TRUE(sion.write_raw(DataView::fill(std::byte{1}, 60 * kKiB)).ok());
    EXPECT_EQ(sion.current_block(), 0u);
    ASSERT_TRUE(sion.ensure_free_space(8 * kKiB).ok());
    EXPECT_EQ(sion.current_block(), 1u);  // rolled to a fresh chunk
    EXPECT_EQ(sion.position_in_chunk(), 0u);
    ASSERT_TRUE(sion.write_raw(DataView::fill(std::byte{2}, 8 * kKiB)).ok());
    ASSERT_TRUE(sion.close().ok());

    auto ropen = SionParFile::open_read(fs, world, "efs.sion");
    ASSERT_TRUE(ropen.ok());
    auto& rsion = *ropen.value();
    EXPECT_EQ(rsion.bytes_avail_in_chunk(), 60 * kKiB);
    std::vector<std::byte> buf(60 * kKiB);
    ASSERT_TRUE(rsion.read_raw(buf).ok());
    EXPECT_EQ(rsion.bytes_avail_in_chunk(), 0u);
    EXPECT_FALSE(rsion.eof());  // next chunk still has data
    std::vector<std::byte> rest(8 * kKiB);
    ASSERT_TRUE(rsion.read(rest).ok());
    EXPECT_EQ(rest[0], std::byte{2});
    EXPECT_TRUE(rsion.eof());
    ASSERT_TRUE(rsion.close().ok());
  });
}

TEST(ParFileTest, WriteRawRefusesToCrossChunk) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  engine.run(1, [&](par::Comm& world) {
    ParOpenSpec spec;
    spec.filename = "raw.sion";
    spec.chunksize = 64 * kKiB;
    auto open = SionParFile::open_write(fs, world, spec);
    ASSERT_TRUE(open.ok());
    auto& sion = *open.value();
    ASSERT_TRUE(sion.write_raw(DataView::fill(std::byte{1}, 60 * kKiB)).ok());
    auto r = sion.write_raw(DataView::fill(std::byte{1}, 8 * kKiB));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::kOutOfRange);
    // ensure_free_space with an impossible request names the right fix.
    auto too_big = sion.ensure_free_space(1 * kMiB);
    EXPECT_EQ(too_big.code(), ErrorCode::kInvalidArgument);
    ASSERT_TRUE(sion.close().ok());
  });
}

TEST(ParFileTest, PerTaskChunkSizesDiffer) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  engine.run(4, [&](par::Comm& world) {
    ParOpenSpec spec;
    spec.filename = "vary.sion";
    spec.chunksize = 1000 * static_cast<std::uint64_t>(world.rank() + 1);
    auto open = SionParFile::open_write(fs, world, spec);
    ASSERT_TRUE(open.ok());
    auto& sion = *open.value();
    const auto data = rank_pattern(world.rank(),
                                   900 * static_cast<std::size_t>(world.rank() + 1));
    ASSERT_TRUE(sion.write(DataView(data)).ok());
    ASSERT_TRUE(sion.close().ok());

    auto ropen = SionParFile::open_read(fs, world, "vary.sion");
    ASSERT_TRUE(ropen.ok());
    std::vector<std::byte> back(data.size());
    ASSERT_TRUE(ropen.value()->read(back).ok());
    EXPECT_EQ(back, data);
    ASSERT_TRUE(ropen.value()->close().ok());
  });
}

TEST(ParFileTest, ChunksAreBlockAligned) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  engine.run(4, [&](par::Comm& world) {
    ParOpenSpec spec;
    spec.filename = "align.sion";
    spec.chunksize = 1000;  // far below the 64 KiB fs block
    auto open = SionParFile::open_write(fs, world, spec);
    ASSERT_TRUE(open.ok());
    ASSERT_TRUE(open.value()
                    ->write(DataView::fill(std::byte{1}, 500)).ok());
    ASSERT_TRUE(open.value()->close().ok());
  });
  // Block-granular write locks are on in the testbed config; aligned chunks
  // must never transfer a lock.
  EXPECT_EQ(fs.counters().lock_transfers, 0u);
}

TEST(ParFileTest, SIONCreateDoesOneCreatePerPhysicalFile) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  engine.run(32, [&](par::Comm& world) {
    ParOpenSpec spec;
    spec.filename = "count.sion";
    spec.chunksize = 4096;
    spec.nfiles = 4;
    auto open = SionParFile::open_write(fs, world, spec);
    ASSERT_TRUE(open.ok());
    ASSERT_TRUE(open.value()->close().ok());
  });
  EXPECT_EQ(fs.counters().creates, 4u);
  EXPECT_EQ(fs.counters().cached_opens, 28u);  // everyone else re-opens hot
}

TEST(ParFileTest, ZeroBytesTaskIsFine) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  engine.run(4, [&](par::Comm& world) {
    ParOpenSpec spec;
    spec.filename = "zero.sion";
    spec.chunksize = 4096;
    auto open = SionParFile::open_write(fs, world, spec);
    ASSERT_TRUE(open.ok());
    if (world.rank() == 2) {
      ASSERT_TRUE(open.value()
                      ->write(DataView::fill(std::byte{9}, 100)).ok());
    }
    ASSERT_TRUE(open.value()->close().ok());

    auto ropen = SionParFile::open_read(fs, world, "zero.sion");
    ASSERT_TRUE(ropen.ok());
    if (world.rank() == 2) {
      EXPECT_EQ(ropen.value()->bytes_remaining_total(), 100u);
    } else {
      EXPECT_TRUE(ropen.value()->eof());
      EXPECT_EQ(ropen.value()->bytes_remaining_total(), 0u);
    }
    ASSERT_TRUE(ropen.value()->close().ok());
  });
}

TEST(ParFileTest, ReadSkipAdvancesLikeRead) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  engine.run(2, [&](par::Comm& world) {
    ParOpenSpec spec;
    spec.filename = "skip.sion";
    spec.chunksize = 10000;
    auto open = SionParFile::open_write(fs, world, spec);
    ASSERT_TRUE(open.ok());
    ASSERT_TRUE(open.value()
                    ->write(DataView::fill(std::byte{1}, 25000)).ok());
    ASSERT_TRUE(open.value()->close().ok());

    auto ropen = SionParFile::open_read(fs, world, "skip.sion");
    ASSERT_TRUE(ropen.ok());
    ASSERT_TRUE(ropen.value()->read_skip(20000).ok());
    EXPECT_EQ(ropen.value()->bytes_remaining_total(), 5000u);
    ASSERT_TRUE(ropen.value()->read_skip(1 << 20).ok());  // clamped at eof
    EXPECT_TRUE(ropen.value()->eof());
    ASSERT_TRUE(ropen.value()->close().ok());
  });
}

TEST(ParFileTest, OpenReadWithWrongTaskCountFails) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  engine.run(4, [&](par::Comm& world) {
    ParOpenSpec spec;
    spec.filename = "strict.sion";
    spec.chunksize = 4096;
    auto open = SionParFile::open_write(fs, world, spec);
    ASSERT_TRUE(open.ok());
    ASSERT_TRUE(open.value()->close().ok());
  });
  engine.run(3, [&](par::Comm& world) {
    auto ropen = SionParFile::open_read(fs, world, "strict.sion");
    ASSERT_FALSE(ropen.ok());
    EXPECT_EQ(ropen.status().code(), ErrorCode::kInvalidArgument);
  });
}

TEST(ParFileTest, OpenReadOfUnclosedFileFails) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  engine.run(2, [&](par::Comm& world) {
    ParOpenSpec spec;
    spec.filename = "crash.sion";
    spec.chunksize = 4096;
    auto open = SionParFile::open_write(fs, world, spec);
    ASSERT_TRUE(open.ok());
    ASSERT_TRUE(open.value()
                    ->write(DataView::fill(std::byte{1}, 100)).ok());
    // Simulated crash: never call close(). Destructor logs, metablock 2
    // stays missing.
  });
  engine.run(2, [&](par::Comm& world) {
    auto ropen = SionParFile::open_read(fs, world, "crash.sion");
    ASSERT_FALSE(ropen.ok());
    EXPECT_EQ(ropen.status().code(), ErrorCode::kFailedPrecondition);
  });
}

TEST(ParFileTest, OpenMissingFileFailsEverywhere) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  engine.run(4, [&](par::Comm& world) {
    auto ropen = SionParFile::open_read(fs, world, "never-written.sion");
    ASSERT_FALSE(ropen.ok());
    // Non-masters get the shared failure; master sees kNotFound itself.
    if (world.rank() == 0) {
      EXPECT_EQ(ropen.status().code(), ErrorCode::kNotFound);
    }
  });
}

// A non-master task whose open of the physical file fails must fail the
// open on every task. Were its failure lost, it would hold an open without
// a file, whose close fails before the close collectives its peers block
// in. Rank 6 is a non-master under either mapping.
TEST(ParFileTest, NonMasterOpenWriteFailureFailsEveryTask) {
  fs::SimFs sim(fs::TestbedConfig());
  testfs::FailOpenFs fs(sim, /*rank=*/6);
  par::Engine engine;
  engine.run(8, [&](par::Comm& world) {
    ParOpenSpec spec;
    spec.filename = "f.sion";
    spec.chunksize = 4 * kKiB;
    spec.nfiles = 2;
    auto open = SionParFile::open_write(fs, world, spec);
    if (open.ok()) {
      EXPECT_TRUE(open.value()->close().ok());
    }
    ASSERT_FALSE(open.ok());
    if (world.rank() == 6) {
      EXPECT_EQ(open.status().code(), ErrorCode::kIoError);
    }
  });
}

TEST(ParFileTest, NonMasterOpenReadFailureFailsEveryTask) {
  fs::SimFs sim(fs::TestbedConfig());
  par::Engine engine;
  engine.run(8, [&](par::Comm& world) {
    ParOpenSpec spec;
    spec.filename = "f.sion";
    spec.chunksize = 4 * kKiB;
    spec.nfiles = 2;
    auto open = SionParFile::open_write(sim, world, spec);
    ASSERT_TRUE(open.ok()) << open.status().to_string();
    ASSERT_TRUE(open.value()->write(DataView::fill(std::byte{3}, 100)).ok());
    ASSERT_TRUE(open.value()->close().ok());
  });
  testfs::FailOpenFs fs(sim, /*rank=*/6);
  engine.run(8, [&](par::Comm& world) {
    auto open = SionParFile::open_read(fs, world, "f.sion");
    if (open.ok()) {
      EXPECT_TRUE(open.value()->close().ok());
    }
    ASSERT_FALSE(open.ok());
    if (world.rank() == 6) {
      EXPECT_EQ(open.status().code(), ErrorCode::kIoError);
    }
  });
}

// The master's chunk is too small for its recovery frame: the check sits in
// the open step's status, so every task fails instead of the others
// blocking in the open agreement the master skipped.
TEST(ParFileTest, ChunkTooSmallForFrameOnTheMasterFailsEveryTask) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  engine.run(4, [&](par::Comm& world) {
    ParOpenSpec spec;
    spec.filename = "tiny.sion";
    spec.fsblksize = 64;
    spec.chunk_frames = true;
    spec.chunksize = world.rank() == 0 ? 8 : 1000;
    auto open = SionParFile::open_write(fs, world, spec);
    if (open.ok()) {
      EXPECT_TRUE(open.value()->close().ok());
    }
    ASSERT_FALSE(open.ok());
    if (world.rank() == 0) {
      EXPECT_EQ(open.status().code(), ErrorCode::kInvalidArgument);
    }
  });
}

// A failed first-frame write fails the open, and the file it left behind
// is destroyed silently on every task; only a file that opened and is
// dropped before close warns.
TEST(ParFileTest, OnlyAnOpenedFileWarnsWhenDroppedUnclosed) {
  const char* const kUnclosed = "destroyed without collective close";
  const LogLevel level = log_level();
  set_log_level(LogLevel::kWarn);
  fs::SimFs sim(fs::TestbedConfig());
  par::Engine engine;
  ParOpenSpec spec;
  spec.filename = "drop.sion";
  spec.chunksize = 4 * kKiB;
  spec.chunk_frames = true;
  // Rank 1's calls: the open of the physical file, then its first frame.
  testfs::FailNthFs failing(sim, /*rank=*/1, /*k=*/2);

  ::testing::internal::CaptureStderr();
  engine.run(2, [&](par::Comm& world) {
    EXPECT_FALSE(SionParFile::open_write(failing, world, spec).ok());
  });
  EXPECT_EQ(::testing::internal::GetCapturedStderr().find(kUnclosed),
            std::string::npos);
  EXPECT_TRUE(failing.fired());

  ::testing::internal::CaptureStderr();
  engine.run(2, [&](par::Comm& world) {
    EXPECT_TRUE(SionParFile::open_write(sim, world, spec).ok());
  });
  EXPECT_NE(::testing::internal::GetCapturedStderr().find(kUnclosed),
            std::string::npos);
  set_log_level(level);
}

// Every task but a rendezvous' last arrival suspends in it, so with one
// physical file, where every collective spans all tasks, a phase costs
// (ntasks - 1) suspensions per rendezvous. Each collective ends with every
// task at one clock and rank 0 resumes first, so rank 0 reads the count
// of every phase before it. One open_write/write/close/open_read/read/
// close cycle takes 17 rendezvous (30 with the collectives unfused):
//   open_write 8: the gcom split, the block-size agreement and broadcast,
//     the request gather, the create agreement, the layout scatter, the
//     open agreement and the first-frame allreduce;
//   close 3: the usage gather, the metablock-2 agreement, the barrier;
//   open_read 5: the set's discovery and scatter, the split, the load
//     agreement, the view scatter, the open agreement with the barrier;
//   close 1: the barrier.
TEST(ParFileTest, OneCycleTakesSeventeenRendezvous) {
  constexpr int kTasks = 8;
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  std::vector<std::uint64_t> marks{0};
  engine.run(kTasks, [&](par::Comm& world) {
    const auto mark = [&] {
      if (world.rank() == 0) marks.push_back(engine.suspensions());
    };
    ParOpenSpec spec;
    spec.filename = "cycle.sion";
    spec.chunksize = 4096;
    auto out = SionParFile::open_write(fs, world, spec);
    ASSERT_TRUE(out.ok()) << out.status().to_string();
    mark();
    ASSERT_TRUE(out.value()->write(DataView::fill(std::byte{3}, 1000)).ok());
    ASSERT_TRUE(out.value()->close().ok());
    mark();
    auto in = SionParFile::open_read(fs, world, "cycle.sion");
    ASSERT_TRUE(in.ok()) << in.status().to_string();
    mark();
    std::vector<std::byte> back(1000);
    ASSERT_TRUE(in.value()->read(back).ok());
    ASSERT_TRUE(in.value()->close().ok());
    mark();
  });
  ASSERT_EQ(marks.size(), 5u);
  std::vector<std::uint64_t> rendezvous;
  for (std::size_t i = 1; i < marks.size(); ++i) {
    EXPECT_EQ((marks[i] - marks[i - 1]) % (kTasks - 1), 0u);
    rendezvous.push_back((marks[i] - marks[i - 1]) / (kTasks - 1));
  }
  EXPECT_EQ(rendezvous, (std::vector<std::uint64_t>{8, 3, 5, 1}));
  EXPECT_EQ(engine.suspensions(), 17u * (kTasks - 1));
}

TEST(ParFileTest, CustomMappingRoundtrip) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  engine.run(6, [&](par::Comm& world) {
    ParOpenSpec spec;
    spec.filename = "custom.sion";
    spec.chunksize = 4096;
    spec.nfiles = 2;
    spec.mapping = Mapping::kCustom;
    spec.custom_file_of_rank = {1, 0, 1, 0, 1, 0};
    auto open = SionParFile::open_write(fs, world, spec);
    ASSERT_TRUE(open.ok()) << open.status().to_string();
    EXPECT_EQ(open.value()->filenum(), world.rank() % 2 == 0 ? 1 : 0);
    const auto data = rank_pattern(world.rank(), 2222);
    ASSERT_TRUE(open.value()->write(DataView(data)).ok());
    ASSERT_TRUE(open.value()->close().ok());

    auto ropen = SionParFile::open_read(fs, world, "custom.sion");
    ASSERT_TRUE(ropen.ok()) << ropen.status().to_string();
    std::vector<std::byte> back(2222);
    ASSERT_TRUE(ropen.value()->read(back).ok());
    EXPECT_EQ(back, data);
    ASSERT_TRUE(ropen.value()->close().ok());
  });
}

// A map with fewer entries than tasks used to kill the process on
// FileMap::file_of's rank CHECK.
TEST(ParFileTest, CustomMapOfTheWrongLengthFailsEveryTask) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  int failed = 0;
  engine.run(8, [&](par::Comm& world) {
    ParOpenSpec spec;
    spec.filename = "short_map.sion";
    spec.chunksize = 1000;
    spec.fsblksize = 512;
    spec.nfiles = 2;
    spec.mapping = Mapping::kCustom;
    spec.custom_file_of_rank = {0, 1, 0, 1};
    auto open = SionParFile::open_write(fs, world, spec);
    ASSERT_FALSE(open.ok()) << "task " << world.rank();
    EXPECT_EQ(open.status().code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(open.status().message(),
              "custom mapping has 4 entries for 8 tasks");
    ++failed;
  });
  EXPECT_EQ(failed, 8);
  EXPECT_FALSE(fs.exists("short_map.sion.000000"));
}

// ---------------------------------------------------------------------------
// Parallel roundtrip on the real file system
// ---------------------------------------------------------------------------

TEST(ParFilePosixTest, RoundtripOnRealDisk) {
  const auto root = std::filesystem::temp_directory_path() /
                    ("sion_core_posix_" + std::to_string(::getpid()));
  std::filesystem::create_directories(root);
  fs::PosixFs fs(/*block_size_override=*/64 * kKiB);
  par::Engine engine;
  const std::string name = (root / "real.sion").string();
  engine.run(8, [&](par::Comm& world) {
    ParOpenSpec spec;
    spec.filename = name;
    spec.chunksize = 50000;
    spec.nfiles = 2;
    auto open = SionParFile::open_write(fs, world, spec);
    ASSERT_TRUE(open.ok()) << open.status().to_string();
    const auto data = rank_pattern(world.rank(), 120000);  // 3 chunks
    ASSERT_TRUE(open.value()->write(DataView(data)).ok());
    ASSERT_TRUE(open.value()->close().ok());

    auto ropen = SionParFile::open_read(fs, world, name);
    ASSERT_TRUE(ropen.ok()) << ropen.status().to_string();
    std::vector<std::byte> back(120000);
    auto got = ropen.value()->read(back);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), 120000u);
    EXPECT_EQ(back, data);
    ASSERT_TRUE(ropen.value()->close().ok());
  });
  // Two physical files on disk, none with the bare name.
  EXPECT_TRUE(std::filesystem::exists(name + ".000000"));
  EXPECT_TRUE(std::filesystem::exists(name + ".000001"));
  EXPECT_FALSE(std::filesystem::exists(name));
  std::filesystem::remove_all(root);
}

// ---------------------------------------------------------------------------
// Serial API
// ---------------------------------------------------------------------------

class SerialFileTest : public ::testing::Test {
 protected:
  SerialFileTest() : fs_(fs::TestbedConfig()) {}

  // Write a multifile with `ntasks` logical files via the parallel API.
  void write_parallel(const std::string& name, int ntasks, int nfiles,
                      std::size_t bytes_per_task) {
    par::Engine engine;
    engine.run(ntasks, [&](par::Comm& world) {
      ParOpenSpec spec;
      spec.filename = name;
      spec.chunksize = 8000;
      spec.fsblksize = 4096;  // chunks align to 8192 -> small writes span chunks
      spec.nfiles = nfiles;
      auto open = SionParFile::open_write(fs_, world, spec);
      ASSERT_TRUE(open.ok()) << open.status().to_string();
      const auto data = rank_pattern(world.rank(), bytes_per_task);
      ASSERT_TRUE(open.value()->write(DataView(data)).ok());
      ASSERT_TRUE(open.value()->close().ok());
    });
  }

  fs::SimFs fs_;
};

TEST_F(SerialFileTest, GlobalViewReadsEveryRank) {
  write_parallel("g.sion", 6, 2, 20000);
  auto open = SionSerialFile::open_read(fs_, "g.sion");
  ASSERT_TRUE(open.ok()) << open.status().to_string();
  auto& sion = *open.value();
  const auto& loc = sion.locations();
  EXPECT_EQ(loc.nranks, 6);
  EXPECT_EQ(loc.nfiles, 2);
  EXPECT_EQ(loc.chunksizes.size(), 6u);
  for (int r = 0; r < 6; ++r) {
    ASSERT_TRUE(sion.seek(r, 0, 0).ok());
    std::vector<std::byte> back(20000);
    auto got = sion.read(back);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), 20000u);
    EXPECT_EQ(back, rank_pattern(r, 20000)) << "rank " << r;
  }
  ASSERT_TRUE(sion.close().ok());
}

TEST_F(SerialFileTest, SeekWithinChunk) {
  write_parallel("seek.sion", 2, 1, 5000);
  auto open = SionSerialFile::open_read(fs_, "seek.sion");
  ASSERT_TRUE(open.ok());
  auto& sion = *open.value();
  ASSERT_TRUE(sion.seek(1, 0, 1000).ok());
  std::vector<std::byte> back(100);
  ASSERT_TRUE(sion.read(back).ok());
  const auto full = rank_pattern(1, 5000);
  EXPECT_EQ(0, std::memcmp(back.data(), full.data() + 1000, 100));
  // Seeking past the data is rejected.
  EXPECT_FALSE(sion.seek(1, 0, 5001).ok());
  EXPECT_FALSE(sion.seek(1, 7, 0).ok());
  EXPECT_FALSE(sion.seek(9, 0, 0).ok());
  ASSERT_TRUE(sion.close().ok());
}

TEST_F(SerialFileTest, TaskLocalViewIsPinned) {
  write_parallel("pin.sion", 4, 2, 3000);
  auto open = SionSerialFile::open_rank(fs_, "pin.sion", 2);
  ASSERT_TRUE(open.ok());
  auto& sion = *open.value();
  EXPECT_EQ(sion.current_rank(), 2);
  std::vector<std::byte> back(3000);
  ASSERT_TRUE(sion.read(back).ok());
  EXPECT_EQ(back, rank_pattern(2, 3000));
  EXPECT_TRUE(sion.eof());
  EXPECT_FALSE(sion.seek(1, 0, 0).ok());  // pinned
  EXPECT_TRUE(sion.seek(2, 0, 0).ok());
  EXPECT_FALSE(sion.eof());
  ASSERT_TRUE(sion.close().ok());
}

TEST_F(SerialFileTest, OpenRankOutOfRangeFails) {
  write_parallel("oor.sion", 2, 1, 10);
  EXPECT_FALSE(SionSerialFile::open_rank(fs_, "oor.sion", 5).ok());
  EXPECT_FALSE(SionSerialFile::open_rank(fs_, "oor.sion", -1).ok());
}

TEST_F(SerialFileTest, SerialWriteParallelRead) {
  {
    SerialWriteSpec spec;
    spec.filename = "sw.sion";
    spec.chunksizes = {1000, 2000, 3000};
    spec.nfiles = 2;
    auto open = SionSerialFile::open_write(fs_, spec);
    ASSERT_TRUE(open.ok()) << open.status().to_string();
    auto& sion = *open.value();
    for (int r = 0; r < 3; ++r) {
      ASSERT_TRUE(sion.seek(r, 0, 0).ok());
      const auto data =
          rank_pattern(r, 800 * static_cast<std::size_t>(r + 1));
      ASSERT_TRUE(sion.ensure_free_space(data.size()).ok());
      ASSERT_TRUE(sion.write_raw(DataView(data)).ok());
    }
    ASSERT_TRUE(sion.close().ok());
  }
  par::Engine engine;
  engine.run(3, [&](par::Comm& world) {
    auto ropen = SionParFile::open_read(fs_, world, "sw.sion");
    ASSERT_TRUE(ropen.ok()) << ropen.status().to_string();
    const std::size_t n = 800 * static_cast<std::size_t>(world.rank() + 1);
    std::vector<std::byte> back(n);
    auto got = ropen.value()->read(back);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), n);
    EXPECT_EQ(back, rank_pattern(world.rank(), n));
    ASSERT_TRUE(ropen.value()->close().ok());
  });
}

TEST_F(SerialFileTest, SerialWriteMultiBlock) {
  SerialWriteSpec spec;
  spec.filename = "mb.sion";
  spec.chunksizes = {64 * kKiB, 64 * kKiB};
  auto open = SionSerialFile::open_write(fs_, spec);
  ASSERT_TRUE(open.ok());
  auto& sion = *open.value();
  ASSERT_TRUE(sion.seek(0, 0, 0).ok());
  // write() spills across chunk boundaries.
  const auto data = rank_pattern(0, 200 * 1024);
  ASSERT_TRUE(sion.write(DataView(data)).ok());
  ASSERT_TRUE(sion.close().ok());

  auto ropen = SionSerialFile::open_rank(fs_, "mb.sion", 0);
  ASSERT_TRUE(ropen.ok());
  std::vector<std::byte> back(200 * 1024);
  auto got = ropen.value()->read(back);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), 200u * 1024);
  EXPECT_EQ(back, data);
  ASSERT_TRUE(ropen.value()->close().ok());
}

TEST_F(SerialFileTest, ForgedGlobalRankIsCorruptNotAnOutOfBoundsWrite) {
  write_parallel("forged.sion", 2, 1, 100);
  {
    auto file = fs_.open_rw("forged.sion");
    ASSERT_TRUE(file.ok());
    auto header = read_header(*file.value());
    ASSERT_TRUE(header.ok());
    FileHeader forged = header.value();
    forged.global_ranks[1] = UINT64_MAX;  // rank + 1 wraps to 0
    // Same task count and array lengths: the forgery overwrites in place.
    const std::vector<std::byte> bytes = forged.serialize();
    ASSERT_TRUE(file.value()->pwrite(DataView(bytes), 0).ok());
  }
  auto open = SionSerialFile::open_read(fs_, "forged.sion");
  ASSERT_FALSE(open.ok());
  EXPECT_EQ(open.status().code(), ErrorCode::kCorrupt);
  // Rejected by the range check, before any array is indexed by the rank.
  EXPECT_NE(open.status().message().find("out of range"), std::string::npos)
      << open.status().to_string();
}

// A map with more entries than chunk sizes used to open, and close then
// read past the end of a header's global ranks.
TEST_F(SerialFileTest, CustomMapOfTheWrongLengthIsRejected) {
  SerialWriteSpec spec;
  spec.filename = "long_map.sion";
  spec.chunksizes = {1000, 1000, 1000, 1000};
  spec.nfiles = 2;
  spec.fsblksize = 512;
  spec.mapping = Mapping::kCustom;
  spec.custom_file_of_rank = {0, 1, 0, 1, 1, 1};
  auto open = SionSerialFile::open_write(fs_, spec);
  ASSERT_FALSE(open.ok());
  EXPECT_EQ(open.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(open.status().message(),
            "custom mapping has 6 entries for 4 tasks");
  EXPECT_FALSE(fs_.exists("long_map.sion.000000"));
}

TEST_F(SerialFileTest, LocationsExposeBytesWritten) {
  write_parallel("loc.sion", 3, 1, 17000);  // 8000-byte chunks -> 3 blocks
  auto open = SionSerialFile::open_read(fs_, "loc.sion");
  ASSERT_TRUE(open.ok());
  const auto& loc = open.value()->locations();
  for (int r = 0; r < 3; ++r) {
    std::uint64_t total = 0;
    for (auto b : loc.bytes_written[static_cast<std::size_t>(r)]) total += b;
    EXPECT_EQ(total, 17000u);
    EXPECT_GE(loc.bytes_written[static_cast<std::size_t>(r)].size(), 3u);
  }
  ASSERT_TRUE(open.value()->close().ok());
}

// ---------------------------------------------------------------------------
// Metablock 2 is checked before any reader trusts it
// ---------------------------------------------------------------------------

class Meta2CheckTest : public ::testing::Test {
 protected:
  Meta2CheckTest() : fs_(fs::TestbedConfig()) {}

  // One task writes `bytes` into a single 4 KiB chunk.
  void write_one_chunk(const std::string& name, std::size_t bytes) {
    par::Engine engine;
    engine.run(1, [&](par::Comm& world) {
      ParOpenSpec spec;
      spec.filename = name;
      spec.chunksize = 4 * kKiB;
      spec.fsblksize = 4 * kKiB;
      auto open = SionParFile::open_write(fs_, world, spec);
      ASSERT_TRUE(open.ok()) << open.status().to_string();
      ASSERT_TRUE(open.value()->write(DataView(rank_pattern(0, bytes))).ok());
      ASSERT_TRUE(open.value()->close().ok());
    });
  }

  // Overwrite metablock 2 of `name` with `forged`; the trailer stays.
  void forge_meta2(const std::string& name, const FileMeta2& forged) {
    auto file = fs_.open_rw(name);
    ASSERT_TRUE(file.ok());
    auto header = read_header(*file.value());
    ASSERT_TRUE(header.ok());
    ASSERT_TRUE(file.value()
                    ->pwrite(DataView(forged.serialize()),
                             header.value().meta2_offset)
                    .ok());
  }

  void expect_both_opens_corrupt(const std::string& name) {
    auto serial = SionSerialFile::open_read(fs_, name);
    ASSERT_FALSE(serial.ok());
    EXPECT_EQ(serial.status().code(), ErrorCode::kCorrupt)
        << serial.status().to_string();
    par::Engine engine;
    engine.run(1, [&](par::Comm& world) {
      auto par = SionParFile::open_read(fs_, world, name);
      ASSERT_FALSE(par.ok());
      EXPECT_EQ(par.status().code(), ErrorCode::kCorrupt)
          << par.status().to_string();
    });
  }

  fs::SimFs fs_;
};

TEST_F(Meta2CheckTest, ChunkCountOverCapacityIsCorrupt) {
  write_one_chunk("over.sion", 3000);
  FileMeta2 forged;
  forged.bytes_written = {{1 * kMiB}};  // the chunk holds 4 KiB
  forge_meta2("over.sion", forged);
  expect_both_opens_corrupt("over.sion");
}

TEST_F(Meta2CheckTest, BlockCountBeyondTheTrailerIsCorrupt) {
  write_one_chunk("blocks.sion", 3000);
  FileMeta2 forged;
  forged.bytes_written = {{3000, 100}};  // the trailer lists one block
  forge_meta2("blocks.sion", forged);
  expect_both_opens_corrupt("blocks.sion");
}

TEST_F(Meta2CheckTest, ChunkTruncatedUnderAnOpenReaderIsCorrupt) {
  write_one_chunk("serial.sion", 3000);
  write_one_chunk("par.sion", 3000);
  auto header = read_header(*fs_.open_read("par.sion").value());
  ASSERT_TRUE(header.ok());
  const std::uint64_t chunk = layout_of(header.value()).value().data_start();
  auto serial = SionSerialFile::open_read(fs_, "serial.sion");
  ASSERT_TRUE(serial.ok());
  par::Engine engine;
  engine.run(1, [&](par::Comm& world) {
    auto par = SionParFile::open_read(fs_, world, "par.sion");
    ASSERT_TRUE(par.ok());
    // Both files lose all but 1000 of the chunk's 3000 recorded bytes.
    fs_.arm_faults(fs::FaultPlan().truncate("*.sion", chunk + 1000));
    std::vector<std::byte> buf(3000);
    auto serial_got = serial.value()->read_raw(buf);
    ASSERT_FALSE(serial_got.ok());
    EXPECT_EQ(serial_got.status().code(), ErrorCode::kCorrupt);
    auto par_got = par.value()->read_raw(buf);
    ASSERT_FALSE(par_got.ok());
    EXPECT_EQ(par_got.status().code(), ErrorCode::kCorrupt);
    ASSERT_TRUE(par.value()->close().ok());
  });
}

std::vector<std::byte> whole_file(fs::FileSystem& fs, const std::string& path) {
  auto file = fs.open_read(path).value();
  std::vector<std::byte> out(file->stat().value().size);
  EXPECT_TRUE(file->pread(out, 0).ok());
  return out;
}

TEST(CopyPhysicalFileTest, ZeroRunsTravelAsFillParts) {
  // Four tasks write 1000 bytes each into 16 KiB chunks: most of every
  // chunk is an unwritten hole that reads back as zeros.
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  engine.run(4, [&](par::Comm& world) {
    ParOpenSpec spec;
    spec.filename = "sparse.sion";
    spec.chunksize = 16 * kKiB;
    spec.fsblksize = 4 * kKiB;
    auto open = SionParFile::open_write(fs, world, spec);
    ASSERT_TRUE(open.ok());
    ASSERT_TRUE(
        open.value()->write(DataView(rank_pattern(world.rank(), 1000))).ok());
    ASSERT_TRUE(open.value()->close().ok());
  });
  const std::vector<std::byte> original = whole_file(fs, "sparse.sion");

  for (const std::uint64_t buffer : {1 * kMiB, 8 * kKiB}) {
    testfs::RecordingFs recording(fs);
    auto src = fs.open_read("sparse.sion");
    ASSERT_TRUE(src.ok());
    auto copied = copy_physical_file(*src.value(), nullptr, recording,
                                     "copy.sion", buffer);
    ASSERT_TRUE(copied.ok()) << copied.status().to_string();
    EXPECT_EQ(copied.value(), original.size());

    // One pwrite per buffer-sized piece, each covering the piece exactly.
    ASSERT_EQ(recording.writes.size(), ceil_div(original.size(), buffer));
    std::uint64_t zero_bytes = 0;
    for (const testfs::RecordingFs::Write& write : recording.writes) {
      for (const testfs::RecordingFs::Part& part : write.parts) {
        if (!part.zero_fill()) continue;
        EXPECT_EQ(part.size % (4 * kKiB), 0u);
        zero_bytes += part.size;
      }
    }
    // At least the three whole zero pages of every task's chunk.
    EXPECT_GE(zero_bytes, 4 * 12 * kKiB) << "buffer " << buffer;
    EXPECT_EQ(whole_file(fs, "copy.sion"), original) << "buffer " << buffer;
  }
}

}  // namespace
}  // namespace sion::core
