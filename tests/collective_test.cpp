// ext::Collective — write aggregation through collector ranks. The key
// contracts: byte-exact round trips (including across the plain per-task
// API, since the on-disk format is an ordinary SION multifile), collector-
// only file-system traffic, and dense chunk packing under
// Alignment::kPacked.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/log.h"
#include "common/strings.h"
#include "common/units.h"
#include "core/api.h"
#include "ext/collective.h"
#include "fs/sim/fault.h"
#include "fs/sim/machine.h"
#include "fs/sim/simfs.h"
#include "fs_wrappers.h"
#include "par/comm.h"
#include "par/engine.h"
#include "workloads/checkpoint.h"

namespace sion::ext {
namespace {

// Distinct, position-dependent payload for each rank.
std::vector<std::byte> pattern(int rank, std::uint64_t n) {
  std::vector<std::byte> out(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>((static_cast<std::uint64_t>(rank) * 131 +
                                     i * 7 + 13) &
                                    0xFF);
  }
  return out;
}

TEST(CollectiveTest, RoundTripPackedSmallChunks) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  CollectiveConfig cfg;
  cfg.group_size = 4;
  cfg.alignment = CollectiveConfig::Alignment::kPacked;
  cfg.packing_granule = 4 * kKiB;
  const int n = 16;

  engine.run(n, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "coll.sion";
    // Different sizes per rank, none block-aligned.
    spec.chunksize = 100 + 17 * static_cast<std::uint64_t>(world.rank());
    auto coll = Collective::open_write(fs, world, spec, cfg);
    ASSERT_TRUE(coll.ok()) << coll.status().to_string();
    const auto payload = pattern(world.rank(), spec.chunksize);
    ASSERT_TRUE(coll.value()->write(fs::DataView(payload)).ok());
    ASSERT_TRUE(coll.value()->close().ok());
  });

  engine.run(n, [&](par::Comm& world) {
    CollectiveConfig read_cfg = cfg;
    read_cfg.group_size = 8;  // regrouping on read is allowed
    auto coll = Collective::open_read(fs, world, "coll.sion", read_cfg);
    ASSERT_TRUE(coll.ok()) << coll.status().to_string();
    const std::uint64_t mine =
        100 + 17 * static_cast<std::uint64_t>(world.rank());
    EXPECT_EQ(coll.value()->bytes_remaining_total(), mine);
    std::vector<std::byte> back(mine);
    auto got = coll.value()->read(back);
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    EXPECT_EQ(got.value(), mine);
    EXPECT_EQ(back, pattern(world.rank(), mine));
    ASSERT_TRUE(coll.value()->close().ok());
  });
}

TEST(CollectiveTest, CollectiveWriteReadsBackPerRankThroughSionParFile) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  CollectiveConfig cfg;
  cfg.group_size = 3;  // does not divide the task count
  const int n = 8;
  const std::uint64_t chunk = 3000;

  engine.run(n, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "x.sion";
    spec.chunksize = chunk;
    auto coll = Collective::open_write(fs, world, spec, cfg);
    ASSERT_TRUE(coll.ok()) << coll.status().to_string();
    const auto payload = pattern(world.rank(), chunk);
    ASSERT_TRUE(coll.value()->write(fs::DataView(payload)).ok());
    ASSERT_TRUE(coll.value()->close().ok());
  });

  // Plain per-task read: the aggregated file is an ordinary SION multifile.
  engine.run(n, [&](par::Comm& world) {
    auto sion = core::SionParFile::open_read(fs, world, "x.sion");
    ASSERT_TRUE(sion.ok()) << sion.status().to_string();
    EXPECT_EQ(sion.value()->bytes_remaining_total(), chunk);
    std::vector<std::byte> back(chunk);
    auto got = sion.value()->read(back);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), chunk);
    EXPECT_EQ(back, pattern(world.rank(), chunk));
    ASSERT_TRUE(sion.value()->close().ok());
  });
}

TEST(CollectiveTest, PlainWriteReadsBackThroughCollectiveScatter) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  const int n = 6;
  const std::uint64_t chunk = 9000;

  engine.run(n, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "y.sion";
    spec.chunksize = chunk;
    auto sion = core::SionParFile::open_write(fs, world, spec);
    ASSERT_TRUE(sion.ok()) << sion.status().to_string();
    const auto payload = pattern(world.rank(), chunk);
    ASSERT_TRUE(sion.value()->write(fs::DataView(payload)).ok());
    ASSERT_TRUE(sion.value()->close().ok());
  });

  engine.run(n, [&](par::Comm& world) {
    CollectiveConfig cfg;
    cfg.group_size = 2;
    auto coll = Collective::open_read(fs, world, "y.sion", cfg);
    ASSERT_TRUE(coll.ok()) << coll.status().to_string();
    std::vector<std::byte> back(chunk);
    auto got = coll.value()->read(back);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), chunk);
    EXPECT_EQ(back, pattern(world.rank(), chunk));
    ASSERT_TRUE(coll.value()->close().ok());
  });
}

TEST(CollectiveTest, MultiWaveMultiBlockPayloads) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  CollectiveConfig cfg;
  cfg.group_size = 4;
  cfg.buffer_bytes = 4 * kKiB;  // force several waves per member
  const int n = 8;
  const std::uint64_t chunk = 8 * kKiB;
  const std::uint64_t payload_bytes = 40 * kKiB + 123;  // several blocks

  engine.run(n, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "big.sion";
    spec.chunksize = chunk;
    auto coll = Collective::open_write(fs, world, spec, cfg);
    ASSERT_TRUE(coll.ok()) << coll.status().to_string();
    const auto payload = pattern(world.rank(), payload_bytes);
    ASSERT_TRUE(coll.value()->write(fs::DataView(payload)).ok());
    EXPECT_EQ(coll.value()->bytes_written_total(), payload_bytes);
    ASSERT_TRUE(coll.value()->close().ok());
  });

  engine.run(n, [&](par::Comm& world) {
    auto coll = Collective::open_read(fs, world, "big.sion", cfg);
    ASSERT_TRUE(coll.ok()) << coll.status().to_string();
    EXPECT_EQ(coll.value()->bytes_remaining_total(), payload_bytes);
    std::vector<std::byte> back(payload_bytes);
    auto got = coll.value()->read(back);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), payload_bytes);
    EXPECT_EQ(back, pattern(world.rank(), payload_bytes));
    ASSERT_TRUE(coll.value()->close().ok());
  });
}

TEST(CollectiveTest, FillPayloadsRoundTripWithoutMaterialising) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  CollectiveConfig cfg;
  cfg.group_size = 4;
  cfg.buffer_bytes = 64 * kKiB;  // several fill waves per member
  const int n = 8;
  const std::uint64_t chunk = 256 * kKiB;

  engine.run(n, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "fill.sion";
    spec.chunksize = chunk;
    auto coll = Collective::open_write(fs, world, spec, cfg);
    ASSERT_TRUE(coll.ok()) << coll.status().to_string();
    ASSERT_TRUE(
        coll.value()->write(fs::DataView::fill(std::byte{'z'}, chunk)).ok());
    ASSERT_TRUE(coll.value()->close().ok());
  });
  // All payload bytes (plus metablocks) went through the file system and
  // landed as allocated extents (stored as O(1) fills, not real buffers).
  EXPECT_GE(fs.counters().bytes_written, static_cast<std::uint64_t>(n) * chunk);
  EXPECT_GE(fs.allocated_bytes(), static_cast<std::uint64_t>(n) * chunk);

  engine.run(n, [&](par::Comm& world) {
    auto coll = Collective::open_read(fs, world, "fill.sion", cfg);
    ASSERT_TRUE(coll.ok()) << coll.status().to_string();
    std::vector<std::byte> back(chunk);
    auto got = coll.value()->read(back);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), chunk);
    for (const std::byte b : back) ASSERT_EQ(b, std::byte{'z'});
    ASSERT_TRUE(coll.value()->close().ok());
  });
}

TEST(CollectiveTest, OnlyCollectorsTouchTheFileSystem) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  CollectiveConfig cfg;
  cfg.group_size = 4;
  const int n = 16;  // 4 collectors, one physical file

  engine.run(n, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "opens.sion";
    spec.chunksize = 4096;
    auto coll = Collective::open_write(fs, world, spec, cfg);
    ASSERT_TRUE(coll.ok()) << coll.status().to_string();
    EXPECT_EQ(coll.value()->is_collector(), world.rank() % 4 == 0);
    ASSERT_TRUE(
        coll.value()->write(fs::DataView::fill(std::byte{1}, 4096)).ok());
    ASSERT_TRUE(coll.value()->close().ok());
  });

  // 1 create (master) + 3 opens by the other collectors + 1 block-size
  // stat; members never touch the namespace.
  EXPECT_EQ(fs.counters().creates, 1u);
  EXPECT_EQ(fs.counters().opens + fs.counters().cached_opens, 3u);
}

TEST(CollectiveTest, PackedAlignmentPacksChunksAtGranule) {
  fs::SimFs fs(fs::TestbedConfig());  // 64 KiB fs blocks
  par::Engine engine;
  CollectiveConfig cfg;
  cfg.group_size = 4;
  cfg.alignment = CollectiveConfig::Alignment::kPacked;
  cfg.packing_granule = 4 * kKiB;
  const int n = 8;

  engine.run(n, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "packed.sion";
    spec.chunksize = 100;  // tiny payloads
    auto coll = Collective::open_write(fs, world, spec, cfg);
    ASSERT_TRUE(coll.ok()) << coll.status().to_string();
    ASSERT_TRUE(
        coll.value()->write(fs::DataView::fill(std::byte{7}, 100)).ok());
    ASSERT_TRUE(coll.value()->close().ok());
  });

  // Per-rank capacity is one 4 KiB granule, not one 64 KiB fs block —
  // except for the last rank of each group, whose chunk absorbs the pad to
  // the real block boundary.
  engine.run(n, [&](par::Comm& world) {
    auto sion = core::SionParFile::open_read(fs, world, "packed.sion");
    ASSERT_TRUE(sion.ok()) << sion.status().to_string();
    EXPECT_EQ(sion.value()->fsblksize(), 4 * kKiB);
    if (world.rank() % 4 != 3) {
      EXPECT_EQ(sion.value()->chunk_capacity(), 4 * kKiB);
    } else {
      EXPECT_GE(sion.value()->chunk_capacity(), 4 * kKiB);
    }
    ASSERT_TRUE(sion.value()->close().ok());
  });
}

TEST(CollectiveTest, MultipleFilesAndSkipRestore) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  CollectiveConfig cfg;
  cfg.group_size = 2;
  const int n = 8;
  const std::uint64_t chunk = 5000;

  engine.run(n, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "multi.sion";
    spec.chunksize = chunk;
    spec.nfiles = 2;
    auto coll = Collective::open_write(fs, world, spec, cfg);
    ASSERT_TRUE(coll.ok()) << coll.status().to_string();
    EXPECT_EQ(coll.value()->nfiles(), 2);
    ASSERT_TRUE(
        coll.value()->write(fs::DataView::fill(std::byte{'m'}, chunk)).ok());
    ASSERT_TRUE(coll.value()->close().ok());
  });

  engine.run(n, [&](par::Comm& world) {
    auto coll = Collective::open_read(fs, world, "multi.sion", cfg);
    ASSERT_TRUE(coll.ok()) << coll.status().to_string();
    EXPECT_EQ(coll.value()->bytes_remaining_total(), chunk);
    ASSERT_TRUE(coll.value()->read_skip(chunk).ok());
    EXPECT_EQ(coll.value()->bytes_remaining_total(), 0u);
    ASSERT_TRUE(coll.value()->close().ok());
  });
}

TEST(CollectiveTest, CheckpointWorkloadCollectiveFlagRoundTrips) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  const int n = 12;

  workloads::CheckpointSpec spec;
  spec.path = "ckpt.sion";
  spec.strategy = workloads::IoStrategy::kSion;
  spec.collective = ext::CollectiveConfig{.group_size = 4};

  engine.run(n, [&](par::Comm& world) {
    const auto payload =
        pattern(world.rank(), 2048 + 100 * static_cast<std::uint64_t>(
                                               world.rank()));
    ASSERT_TRUE(workloads::write_checkpoint(fs, world, spec,
                                            fs::DataView(payload))
                    .ok());
  });
  fs.drop_caches();
  engine.run(n, [&](par::Comm& world) {
    const auto expect =
        pattern(world.rank(), 2048 + 100 * static_cast<std::uint64_t>(
                                               world.rank()));
    std::vector<std::byte> back(expect.size());
    ASSERT_TRUE(workloads::read_checkpoint(fs, world, spec, expect.size(),
                                           back)
                    .ok());
    EXPECT_EQ(back, expect);
  });
}

TEST(CollectiveTest, RejectsChunkFramesAndZeroChunksize) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  engine.run(4, [&](par::Comm& world) {
    CollectiveConfig cfg;
    core::ParOpenSpec spec;
    spec.filename = "bad.sion";
    spec.chunksize = 1024;
    spec.chunk_frames = true;
    auto coll = Collective::open_write(fs, world, spec, cfg);
    EXPECT_FALSE(coll.ok());
    (void)world;
  });
}

// A collector that is not the file master fails to open the physical file:
// every task's open fails, writing and reading alike, instead of that
// collector carrying on without a file.
TEST(CollectiveTest, CollectorOpenFailureFailsEveryTask) {
  fs::SimFs sim(fs::TestbedConfig());
  par::Engine engine;
  CollectiveConfig cfg;
  cfg.group_size = 2;  // collectors at ranks 0, 2, 4 and 6
  core::ParOpenSpec spec;
  spec.filename = "c.sion";
  spec.chunksize = 4 * kKiB;
  const fs::DataView payload = fs::DataView::fill(std::byte{9}, 1000);
  testfs::FailOpenFs fs(sim, /*rank=*/2);

  engine.run(8, [&](par::Comm& world) {
    auto coll = Collective::open_write(fs, world, spec, cfg);
    if (coll.ok()) {
      EXPECT_TRUE(coll.value()->write(payload).ok());
      EXPECT_TRUE(coll.value()->close().ok());
    }
    ASSERT_FALSE(coll.ok());
    if (world.rank() == 2) {
      EXPECT_EQ(coll.status().code(), ErrorCode::kIoError);
    }
  });

  engine.run(8, [&](par::Comm& world) {
    auto coll = Collective::open_write(sim, world, spec, cfg);
    ASSERT_TRUE(coll.ok()) << coll.status().to_string();
    ASSERT_TRUE(coll.value()->write(payload).ok());
    ASSERT_TRUE(coll.value()->close().ok());
  });
  engine.run(8, [&](par::Comm& world) {
    auto coll = Collective::open_read(fs, world, "c.sion", cfg);
    if (coll.ok()) {
      std::vector<std::byte> back(1000);
      EXPECT_TRUE(coll.value()->read(back).ok());
      EXPECT_TRUE(coll.value()->close().ok());
    }
    ASSERT_FALSE(coll.ok());
    if (world.rank() == 2) {
      EXPECT_EQ(coll.status().code(), ErrorCode::kIoError);
    }
  });
}

// A collector's failed open fails the open, and the Collective every task
// built is destroyed silently; only a file that opened and is dropped
// before close warns.
TEST(CollectiveTest, OnlyAnOpenedFileWarnsWhenDroppedUnclosed) {
  const char* const kUnclosed = "destroyed without collective close";
  const LogLevel level = log_level();
  set_log_level(LogLevel::kWarn);
  fs::SimFs sim(fs::TestbedConfig());
  par::Engine engine;
  CollectiveConfig cfg;
  cfg.group_size = 2;  // collectors at ranks 0 and 2
  core::ParOpenSpec spec;
  spec.filename = "drop.sion";
  spec.chunksize = 4 * kKiB;
  // Rank 2's first call is the collector's open of the physical file.
  testfs::FailNthFs failing(sim, /*rank=*/2, /*k=*/1);

  ::testing::internal::CaptureStderr();
  engine.run(4, [&](par::Comm& world) {
    EXPECT_FALSE(Collective::open_write(failing, world, spec, cfg).ok());
  });
  EXPECT_EQ(::testing::internal::GetCapturedStderr().find(kUnclosed),
            std::string::npos);
  EXPECT_TRUE(failing.fired());

  ::testing::internal::CaptureStderr();
  engine.run(4, [&](par::Comm& world) {
    EXPECT_TRUE(Collective::open_write(sim, world, spec, cfg).ok());
  });
  EXPECT_NE(::testing::internal::GetCapturedStderr().find(kUnclosed),
            std::string::npos);
  set_log_level(level);
}

// ---------------------------------------------------------------------------
// Pins: the collector's file-system traffic and the members' counters.
// The golden suite sees these only through virtual time, so a change to how
// the collector walks its members' chunks must leave them exactly as they
// are.
// ---------------------------------------------------------------------------

// Metablock 2 of `path`: every task's bytes per chunk.
std::vector<std::vector<std::uint64_t>> chunk_counts(fs::FileSystem& fs,
                                                     const std::string& path) {
  auto file = fs.open_read(path);
  EXPECT_TRUE(file.ok());
  auto header = core::read_header(*file.value());
  EXPECT_TRUE(header.ok());
  auto meta2 = core::read_meta2(*file.value(), header.value());
  EXPECT_TRUE(meta2.ok());
  return meta2.value().bytes_written;
}

// Seven tasks in three groups ({0,1,2}, {3,4,5}, {6}), a wave buffer below
// every payload, payloads spanning two or three 4 KiB chunks, real bytes on
// even ranks and fills on odd ones, and two write() calls.
TEST(CollectivePinTest, CollectorPwriteSequence) {
  fs::SimFs sim(fs::TestbedConfig());
  testfs::RecordingFs fs(sim);
  par::Engine engine;
  CollectiveConfig cfg;
  cfg.group_size = 3;
  cfg.buffer_bytes = 3000;
  const std::uint64_t sizes[2][7] = {{5000, 9000, 100, 6000, 0, 8192, 3000},
                                     {4000, 1, 7000, 2500, 4096, 100, 9000}};

  engine.run(7, [&](par::Comm& world) {
    const int r = world.rank();
    core::ParOpenSpec spec;
    spec.filename = "pin.sion";
    spec.chunksize = 4 * kKiB;
    auto coll = Collective::open_write(fs, world, spec, cfg);
    ASSERT_TRUE(coll.ok()) << coll.status().to_string();
    for (int call = 0; call < 2; ++call) {
      const std::uint64_t n = sizes[call][r];
      const auto bytes = pattern(r + 10 * call, n);
      const fs::DataView payload =
          r % 2 == 1 ? fs::DataView::fill(static_cast<std::byte>(0x40 + r), n)
                     : fs::DataView(bytes);
      ASSERT_TRUE(coll.value()->write(payload).ok());
    }
    EXPECT_EQ(coll.value()->bytes_written_total(), sizes[0][r] + sizes[1][r]);
    ASSERT_TRUE(coll.value()->close().ok());
  });

  std::vector<std::string> got;
  for (const testfs::RecordingFs::Write& w : fs.writes) got.push_back(w.str());
  const std::vector<std::string> expect = {
      "0: b184",
      "131072: b3000",
      "4096: b3000",
      "65536: f67x4096",
      "134072: b3000",
      "258048: f67x1904",
      "7096: b1096",
      "137072: b3000",
      "73728: f69x8192",
      "196608: b904",
      "140072: b3000",
      "259952: f67x2192",
      "8192: f65x4096",
      "200704: f65x4096",
      "450560: f67x308",
      "69632: b3000",
      "393216: f65x808",
      "72632: b1096",
      "81920: f69x100",
      "12288: b100",
      "197512: b3000",
      "200512: b192",
      "389120: b808",
      "394024: f65x1",
      "12388: b3000",
      "15388: b3000",
      "18388: b1000",
      "581632: b172",
      "16: b16",
  };
  EXPECT_EQ(got, expect);
  EXPECT_EQ(fs.opens, (std::vector<std::string>{
                          "create:pin.sion", "rw:pin.sion", "rw:pin.sion"}));
  EXPECT_EQ(chunk_counts(sim, "pin.sion"),
            (std::vector<std::vector<std::uint64_t>>{
                {4096, 4096, 808},
                {4096, 4096, 809},
                {7100},
                {4096, 4096, 308},
                {4096},
                {8292},
                {12000}}));
}

TEST(CollectivePinTest, ZeroByteWriteLeavesOneEmptyChunk) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  CollectiveConfig cfg;
  cfg.group_size = 3;
  engine.run(5, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "zero.sion";
    spec.chunksize = 4 * kKiB;
    auto coll = Collective::open_write(fs, world, spec, cfg);
    ASSERT_TRUE(coll.ok()) << coll.status().to_string();
    const fs::DataView empty{std::span<const std::byte>()};
    ASSERT_TRUE(coll.value()->write(empty).ok());
    EXPECT_EQ(coll.value()->bytes_written_total(), 0u);
    EXPECT_EQ(coll.value()->bytes_remaining_total(), 0u);
    ASSERT_TRUE(coll.value()->close().ok());
  });
  EXPECT_EQ(chunk_counts(fs, "zero.sion"),
            (std::vector<std::vector<std::uint64_t>>(5, {0})));
  engine.run(5, [&](par::Comm& world) {
    auto coll = Collective::open_read(fs, world, "zero.sion", cfg);
    ASSERT_TRUE(coll.ok()) << coll.status().to_string();
    EXPECT_EQ(coll.value()->bytes_remaining_total(), 0u);
    std::vector<std::byte> back(10);
    auto got = coll.value()->read(back);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), 0u);
    ASSERT_TRUE(coll.value()->close().ok());
  });
}

// Rank r writes exactly 1 + r % 3 full chunks: metablock 2 lists that many
// full chunks and no empty one behind them.
TEST(CollectivePinTest, WholeChunksLeaveNoEmptyTrailingChunk) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  CollectiveConfig cfg;
  cfg.group_size = 3;
  cfg.buffer_bytes = 3000;
  std::vector<std::uint64_t> capacity(5);
  engine.run(5, [&](par::Comm& world) {
    const int r = world.rank();
    core::ParOpenSpec spec;
    spec.filename = "whole.sion";
    spec.chunksize = 4 * kKiB;
    auto coll = Collective::open_write(fs, world, spec, cfg);
    ASSERT_TRUE(coll.ok()) << coll.status().to_string();
    const std::uint64_t cap = coll.value()->chunk_capacity();
    capacity[static_cast<std::size_t>(r)] = cap;
    const std::uint64_t n = (1 + static_cast<std::uint64_t>(r) % 3) * cap;
    ASSERT_TRUE(coll.value()->write(fs::DataView(pattern(r, n))).ok());
    EXPECT_EQ(coll.value()->bytes_written_total(), n);
    ASSERT_TRUE(coll.value()->close().ok());
  });
  EXPECT_EQ(capacity,
            (std::vector<std::uint64_t>{4096, 4096, 53248, 4096, 61440}));
  std::vector<std::vector<std::uint64_t>> expect;
  for (int r = 0; r < 5; ++r) {
    expect.emplace_back(1 + r % 3, capacity[static_cast<std::size_t>(r)]);
  }
  EXPECT_EQ(chunk_counts(fs, "whole.sion"), expect);
}

// Interleaved read and read_skip calls, with wants that cross chunks and
// run past the end: bytes_remaining_total after every call, and the bytes.
TEST(CollectivePinTest, InterleavedReadsTrackRemainingBytes) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  CollectiveConfig cfg;
  cfg.group_size = 3;
  cfg.buffer_bytes = 3000;
  const auto total = [](int r) {
    return 6000 + 1500 * static_cast<std::uint64_t>(r);
  };
  engine.run(5, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "reads.sion";
    spec.chunksize = 4 * kKiB;
    auto coll = Collective::open_write(fs, world, spec, cfg);
    ASSERT_TRUE(coll.ok()) << coll.status().to_string();
    const auto bytes = pattern(world.rank(), total(world.rank()));
    ASSERT_TRUE(coll.value()->write(fs::DataView(bytes)).ok());
    ASSERT_TRUE(coll.value()->close().ok());
  });
  const fs::SimFs::Counters before = fs.counters();
  engine.run(5, [&](par::Comm& world) {
    const int r = world.rank();
    const auto expect = pattern(r, total(r));
    auto coll = Collective::open_read(fs, world, "reads.sion", cfg);
    ASSERT_TRUE(coll.ok()) << coll.status().to_string();
    std::uint64_t at = 0;
    EXPECT_EQ(coll.value()->bytes_remaining_total(), total(r));
    // read 2500, skip 3000, read 1000, skip 1, read the rest and more.
    const std::uint64_t steps[] = {2500, 3000, 1000, 1, 20000};
    for (std::size_t i = 0; i < std::size(steps); ++i) {
      const std::uint64_t want = steps[i];
      const std::uint64_t deliver = std::min(want, total(r) - at);
      if (i % 2 == 1) {
        ASSERT_TRUE(coll.value()->read_skip(want).ok());
      } else {
        std::vector<std::byte> back(want);
        auto got = coll.value()->read(back);
        ASSERT_TRUE(got.ok());
        ASSERT_EQ(got.value(), deliver);
        const auto from = expect.begin() + static_cast<std::ptrdiff_t>(at);
        const auto to = from + static_cast<std::ptrdiff_t>(deliver);
        EXPECT_TRUE(std::equal(from, to, back.begin()));
      }
      at += deliver;
      EXPECT_EQ(coll.value()->bytes_remaining_total(), total(r) - at)
          << "after call " << i;
    }
    ASSERT_TRUE(coll.value()->close().ok());
  });
  EXPECT_EQ(fs.counters().reads - before.reads, 32u);
  EXPECT_EQ(fs.counters().bytes_read - before.bytes_read, 176196u);
}

// A write that fails at a flush leaves every member stream where its member
// counts it: the next write lands behind the failed one, and the file reads
// back the later payload at its offset in the stream.
TEST(CollectivePinTest, FailedWriteLeavesStreamsInStep) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  CollectiveConfig cfg;
  cfg.group_size = 3;
  cfg.buffer_bytes = 3000;
  const std::uint64_t first = 5000;
  const std::uint64_t second = 6000;
  engine.run(5, [&](par::Comm& world) {
    const int r = world.rank();
    core::ParOpenSpec spec;
    spec.filename = "wfail.sion";
    spec.chunksize = 4 * kKiB;
    auto coll = Collective::open_write(fs, world, spec, cfg);
    ASSERT_TRUE(coll.ok()) << coll.status().to_string();
    world.barrier();
    if (r == 0) fs.arm_faults(fs::FaultPlan().write_error("wfail.sion"));
    world.barrier();
    EXPECT_FALSE(coll.value()->write(fs::DataView(pattern(r, first))).ok());
    world.barrier();
    if (r == 0) fs.disarm_faults();
    world.barrier();
    ASSERT_TRUE(
        coll.value()->write(fs::DataView(pattern(r + 100, second))).ok());
    EXPECT_EQ(coll.value()->bytes_written_total(), first + second);
    ASSERT_TRUE(coll.value()->close().ok());
  });
  engine.run(5, [&](par::Comm& world) {
    const int r = world.rank();
    auto coll = Collective::open_read(fs, world, "wfail.sion", cfg);
    ASSERT_TRUE(coll.ok()) << coll.status().to_string();
    EXPECT_EQ(coll.value()->bytes_remaining_total(), first + second);
    ASSERT_TRUE(coll.value()->read_skip(first).ok());
    std::vector<std::byte> back(second);
    auto got = coll.value()->read(back);
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    EXPECT_EQ(got.value(), second);
    EXPECT_EQ(back, pattern(r + 100, second));
    ASSERT_TRUE(coll.value()->close().ok());
  });
}

// A read that fails on the collectors still ships every wave, and leaves
// every member stream where its member counts it: the next read delivers
// the bytes behind the failed one.
TEST(CollectivePinTest, FailedReadLeavesStreamsInStep) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  CollectiveConfig cfg;
  cfg.group_size = 3;
  cfg.buffer_bytes = 3000;
  const std::uint64_t total = 11000;
  const std::uint64_t first = 5000;
  engine.run(5, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "rfail.sion";
    spec.chunksize = 4 * kKiB;
    auto coll = Collective::open_write(fs, world, spec, cfg);
    ASSERT_TRUE(coll.ok()) << coll.status().to_string();
    ASSERT_TRUE(
        coll.value()->write(fs::DataView(pattern(world.rank(), total))).ok());
    ASSERT_TRUE(coll.value()->close().ok());
  });
  engine.run(5, [&](par::Comm& world) {
    const int r = world.rank();
    auto coll = Collective::open_read(fs, world, "rfail.sion", cfg);
    ASSERT_TRUE(coll.ok()) << coll.status().to_string();
    world.barrier();
    if (r == 0) fs.arm_faults(fs::FaultPlan().read_error("rfail.sion"));
    world.barrier();
    std::vector<std::byte> lost(first);
    EXPECT_FALSE(coll.value()->read(lost).ok());
    EXPECT_EQ(coll.value()->bytes_remaining_total(), total - first);
    world.barrier();
    if (r == 0) fs.disarm_faults();
    world.barrier();
    std::vector<std::byte> back(total - first);
    auto got = coll.value()->read(back);
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    EXPECT_EQ(got.value(), total - first);
    const auto expect = pattern(r, total);
    const auto from = expect.begin() + static_cast<std::ptrdiff_t>(first);
    EXPECT_TRUE(std::equal(back.begin(), back.end(), from));
    ASSERT_TRUE(coll.value()->close().ok());
  });
}

// The rendezvous count of one Collective cycle, read as in
// ParFileTest.OneCycleTakesSeventeenRendezvous: one physical file and one
// group, so every collective spans all tasks and rank 0 resumes first
// after each phase. The write and read phases also block in the ship
// protocol's receives, so they are pinned as raw suspensions.
//   open_write 10: the gcom split, the group split, the block-size
//     agreement and broadcast, the request gather, the create agreement,
//     the layout scatter, the open agreement, the members' gather to the
//     collector, the barrier;
//   close 3: the usage gather, the metablock-2 agreement, the barrier;
//   open_read 8: the set's discovery and scatter, the two splits, the load
//     agreement, the view scatter, the open agreement, the members' gather,
//     the barrier;
//   close 1: the barrier.
TEST(CollectiveTest, OneCycleRendezvousArePinned) {
  constexpr int kTasks = 8;
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  core::ParOpenSpec spec;
  spec.filename = "cycle.sion";
  spec.chunksize = 4 * kKiB;
  const CollectiveConfig cfg;
  std::vector<std::uint64_t> marks{0};
  engine.run(kTasks, [&](par::Comm& world) {
    const auto mark = [&] {
      if (world.rank() == 0) marks.push_back(engine.suspensions());
    };
    auto out = Collective::open_write(fs, world, spec, cfg);
    ASSERT_TRUE(out.ok()) << out.status().to_string();
    mark();
    ASSERT_TRUE(out.value()->write(fs::DataView::fill(std::byte{3}, 1000)).ok());
    mark();
    ASSERT_TRUE(out.value()->close().ok());
    mark();
    auto in = Collective::open_read(fs, world, "cycle.sion", cfg);
    ASSERT_TRUE(in.ok()) << in.status().to_string();
    mark();
    std::vector<std::byte> back(1000);
    ASSERT_TRUE(in.value()->read(back).ok());
    mark();
    ASSERT_TRUE(in.value()->close().ok());
    mark();
  });
  ASSERT_EQ(marks.size(), 7u);
  std::vector<std::uint64_t> phases;
  for (std::size_t i = 1; i < marks.size(); ++i) {
    phases.push_back(marks[i] - marks[i - 1]);
  }
  // Suspensions per phase: open_write, write, close, open_read, read, close.
  constexpr std::uint64_t kWaits = kTasks - 1;
  EXPECT_EQ(phases, (std::vector<std::uint64_t>{10 * kWaits, 27, 3 * kWaits,
                                                8 * kWaits, 21, 1 * kWaits}));
}

TEST(CollectiveTest, SplitGroupsHelper) {
  par::Engine engine;
  engine.run(10, [&](par::Comm& world) {
    par::Comm* g = world.split_groups(4);
    ASSERT_NE(g, nullptr);
    const int expect_size = world.rank() < 8 ? 4 : 2;
    EXPECT_EQ(g->size(), expect_size);
    EXPECT_EQ(g->rank(), world.rank() % 4);
    par::Comm* whole = world.split_groups(0);
    ASSERT_NE(whole, nullptr);
    EXPECT_EQ(whole->size(), world.size());
  });
}

}  // namespace
}  // namespace sion::ext
