// N->M checkpoint restart through ext::Remap: a multifile written by N
// tasks restores byte-identically onto M tasks for M below, equal to, and
// above N (including serial M=1), for plain, collective/kPacked, and
// multi-block writers — the restart scenario the paper's global-view
// metadata (sections 3.2.3/3.3) exists to enable.
#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.h"
#include "common/units.h"
#include "core/api.h"
#include "ext/remap.h"
#include "fs/sim/machine.h"
#include "fs/sim/simfs.h"
#include "par/comm.h"
#include "par/engine.h"
#include "workloads/checkpoint.h"

namespace sion::ext {
namespace {

using fs::DataView;

// Payload rank r of an N-writer run contributes: size and content both vary
// with the rank so any mis-routed byte range is detected.
std::vector<std::byte> rank_payload(int rank) {
  std::vector<std::byte> data(512 + 37 * static_cast<std::size_t>(rank));
  Rng rng(4200 + static_cast<std::uint64_t>(rank));
  rng.fill_bytes(data);
  return data;
}

std::vector<std::byte> concatenated_payload(int nwriters) {
  std::vector<std::byte> all;
  for (int r = 0; r < nwriters; ++r) {
    const auto mine = rank_payload(r);
    all.insert(all.end(), mine.begin(), mine.end());
  }
  return all;
}

// Contiguous even byte partition of `total` over `msize` tasks.
std::uint64_t share_offset(std::uint64_t total, int msize, int rank) {
  return static_cast<std::uint64_t>(
      static_cast<unsigned __int128>(total) *
      static_cast<std::uint64_t>(rank) / static_cast<std::uint64_t>(msize));
}

class RestartRemapTest : public ::testing::TestWithParam<bool> {
 protected:
  RestartRemapTest() : fs_(fs::TestbedConfig()) {}

  // Write the checkpoint with N writers, collectively aggregated (kPacked)
  // or plain per the test parameter.
  void write_checkpoint_at(int nwriters, const std::string& path) {
    workloads::CheckpointSpec spec;
    spec.path = path;
    if (GetParam()) {
      ext::CollectiveConfig aggregation;
      aggregation.alignment = ext::CollectiveConfig::Alignment::kPacked;
      aggregation.group_size = 8;
      spec.collective = aggregation;
    }
    par::Engine engine;
    engine.run(nwriters, [&](par::Comm& world) {
      const auto mine = rank_payload(world.rank());
      ASSERT_TRUE(
          workloads::write_checkpoint(fs_, world, spec, DataView(mine)).ok());
    });
  }

  // Restore at M tasks through workloads::read_checkpoint with the
  // restart_ntasks knob and reassemble the received slices.
  void restore_and_check(int nwriters, int mtasks, const std::string& path) {
    const std::vector<std::byte> expect = concatenated_payload(nwriters);
    const std::uint64_t total = expect.size();
    std::vector<std::byte> got(expect.size());
    workloads::CheckpointSpec spec;
    spec.path = path;
    spec.restart_ntasks = mtasks;
    par::Engine engine;
    engine.run(mtasks, [&](par::Comm& world) {
      const std::uint64_t lo = share_offset(total, mtasks, world.rank());
      const std::uint64_t hi = share_offset(total, mtasks, world.rank() + 1);
      std::vector<std::byte> mine(hi - lo);
      ASSERT_TRUE(workloads::read_checkpoint(fs_, world, spec, mine.size(),
                                             mine)
                      .ok());
      std::memcpy(got.data() + lo, mine.data(), mine.size());
    });
    EXPECT_EQ(got, expect) << "N=" << nwriters << " M=" << mtasks;
  }

  fs::SimFs fs_;
};

TEST_P(RestartRemapTest, N64RestoresAtAllScales) {
  const int kWriters = 64;
  write_checkpoint_at(kWriters, "n64.ckpt");
  for (const int mtasks : {1, 16, 96, 256}) {
    restore_and_check(kWriters, mtasks, "n64.ckpt");
  }
}

TEST_P(RestartRemapTest, SameTaskCountIsIdentity) {
  write_checkpoint_at(16, "n16.ckpt");
  restore_and_check(16, 16, "n16.ckpt");
}

TEST_P(RestartRemapTest, MultiplePhysicalFiles) {
  workloads::CheckpointSpec spec;
  spec.path = "nf3.ckpt";
  spec.nfiles = 3;
  if (GetParam()) {
    spec.collective = ext::CollectiveConfig{.group_size = 4};
  }
  par::Engine engine;
  engine.run(24, [&](par::Comm& world) {
    const auto mine = rank_payload(world.rank());
    ASSERT_TRUE(
        workloads::write_checkpoint(fs_, world, spec, DataView(mine)).ok());
  });
  restore_and_check(24, 7, "nf3.ckpt");
  restore_and_check(24, 40, "nf3.ckpt");
}

INSTANTIATE_TEST_SUITE_P(PlainAndCollective, RestartRemapTest,
                         ::testing::Values(false, true),
                         [](const auto& param_info) {
                           return param_info.param ? "CollectivePacked"
                                                   : "Plain";
                         });

// ---------------------------------------------------------------------------
// Direct ext::Remap API
// ---------------------------------------------------------------------------

class RemapApiTest : public ::testing::Test {
 protected:
  RemapApiTest() : fs_(fs::TestbedConfig()) {}
  fs::SimFs fs_;
};

TEST_F(RemapApiTest, MultiBlockStreamsCrossChunkBoundaries) {
  // Small chunks force every stream across several chunk blocks, so the
  // redistribution exercises core read_at's block walk, and a wave size
  // smaller than a stream exercises the bounded pipeline.
  par::Engine engine;
  engine.run(6, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "blocks.sion";
    spec.chunksize = 1000;
    spec.fsblksize = 512;
    auto sion = core::SionParFile::open_write(fs_, world, spec);
    ASSERT_TRUE(sion.ok());
    std::vector<std::byte> data(5000);
    Rng rng(100 + static_cast<std::uint64_t>(world.rank()));
    rng.fill_bytes(data);
    ASSERT_TRUE(sion.value()->write(DataView(data)).ok());
    ASSERT_TRUE(sion.value()->close().ok());
  });

  std::vector<std::byte> expect;
  for (int r = 0; r < 6; ++r) {
    std::vector<std::byte> data(5000);
    Rng rng(100 + static_cast<std::uint64_t>(r));
    rng.fill_bytes(data);
    expect.insert(expect.end(), data.begin(), data.end());
  }

  std::vector<std::byte> got(expect.size());
  engine.run(4, [&](par::Comm& world) {
    RemapConfig config;
    config.buffer_bytes = 700;  // several waves per stream
    auto remap = Remap::open(fs_, world, "blocks.sion", config);
    ASSERT_TRUE(remap.ok()) << remap.status().to_string();
    EXPECT_EQ(remap.value()->nwriters(), 6);
    EXPECT_EQ(remap.value()->total_bytes(), 30000u);
    const std::uint64_t lo = remap.value()->even_share_offset(world.rank());
    const std::uint64_t want = remap.value()->even_share(world.rank());
    std::vector<std::byte> mine(want);
    auto stats = remap.value()->restore(mine, want);
    ASSERT_TRUE(stats.ok()) << stats.status().to_string();
    std::memcpy(got.data() + lo, mine.data(), mine.size());
    // Conservation: everything delivered to this task arrived either from
    // the network or from its own disk reads.
    EXPECT_EQ(stats.value().bytes_received + stats.value().bytes_local, want);
    ASSERT_TRUE(remap.value()->close().ok());
  });
  EXPECT_EQ(got, expect);
}

// Remap::open shares rank 0's status together with the stream sizes (one
// Comm::steps rendezvous with a blob), then agrees on the data open: two
// rendezvous, each suspending every reader but the last.
TEST_F(RemapApiTest, OpenTakesTwoRendezvous) {
  constexpr int kReaders = 4;
  par::Engine engine;
  engine.run(6, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "count.sion";
    spec.chunksize = 4096;
    auto sion = core::SionParFile::open_write(fs_, world, spec);
    ASSERT_TRUE(sion.ok());
    ASSERT_TRUE(sion.value()->write(DataView::fill(std::byte{5}, 300)).ok());
    ASSERT_TRUE(sion.value()->close().ok());
  });
  std::uint64_t opened = 0;
  engine.run(kReaders, [&](par::Comm& world) {
    auto remap = Remap::open(fs_, world, "count.sion");
    ASSERT_TRUE(remap.ok()) << remap.status().to_string();
    if (world.rank() == 0) opened = engine.suspensions();
    ASSERT_TRUE(remap.value()->close().ok());
  });
  EXPECT_EQ(opened, 2u * (kReaders - 1));
}

TEST_F(RemapApiTest, EvenSharesTileTheStream) {
  par::Engine engine;
  engine.run(5, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "tile.sion";
    spec.chunksize = 4096;
    auto sion = core::SionParFile::open_write(fs_, world, spec);
    ASSERT_TRUE(sion.ok());
    ASSERT_TRUE(sion.value()
                    ->write(DataView::fill(std::byte{7},
                                           100 + 13 * static_cast<std::uint64_t>(
                                                          world.rank())))
                    .ok());
    ASSERT_TRUE(sion.value()->close().ok());
  });
  engine.run(3, [&](par::Comm& world) {
    auto remap = Remap::open(fs_, world, "tile.sion");
    ASSERT_TRUE(remap.ok());
    std::uint64_t sum = 0;
    for (int r = 0; r < world.size(); ++r) {
      sum += remap.value()->even_share(r);
    }
    EXPECT_EQ(sum, remap.value()->total_bytes());
    // Timing-only restore with the even partition.
    auto stats =
        remap.value()->restore({}, remap.value()->even_share(world.rank()));
    ASSERT_TRUE(stats.ok()) << stats.status().to_string();
    ASSERT_TRUE(remap.value()->close().ok());
  });
}

TEST_F(RemapApiTest, WantMismatchFailsEverywhere) {
  par::Engine engine;
  engine.run(4, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "bad.sion";
    spec.chunksize = 1024;
    auto sion = core::SionParFile::open_write(fs_, world, spec);
    ASSERT_TRUE(sion.ok());
    ASSERT_TRUE(sion.value()->write(DataView::fill(std::byte{1}, 100)).ok());
    ASSERT_TRUE(sion.value()->close().ok());
  });
  engine.run(2, [&](par::Comm& world) {
    auto remap = Remap::open(fs_, world, "bad.sion");
    ASSERT_TRUE(remap.ok());
    // 2 * 150 != 400: every task must see the same clean failure.
    auto stats = remap.value()->restore({}, 150);
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.status().code(), ErrorCode::kInvalidArgument);
    ASSERT_TRUE(remap.value()->close().ok());
  });
}

TEST_F(RemapApiTest, MissingFileFailsOnEveryTask) {
  par::Engine engine;
  engine.run(3, [&](par::Comm& world) {
    auto remap = Remap::open(fs_, world, "nope.sion");
    EXPECT_FALSE(remap.ok());
  });
}

TEST_F(RemapApiTest, ManyMoreReadersThanStreamsLeavesIdlersOffDisk) {
  par::Engine engine;
  engine.run(2, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "two.sion";
    spec.chunksize = 4096;
    auto sion = core::SionParFile::open_write(fs_, world, spec);
    ASSERT_TRUE(sion.ok());
    ASSERT_TRUE(sion.value()->write(DataView::fill(std::byte{9}, 2000)).ok());
    ASSERT_TRUE(sion.value()->close().ok());
  });
  // Tasks are cooperatively scheduled fibers, so a plain counter is safe.
  std::uint64_t disk_readers = 0;
  engine.run(13, [&](par::Comm& world) {
    auto remap = Remap::open(fs_, world, "two.sion");
    ASSERT_TRUE(remap.ok());
    if (remap.value()->nstreams() > 0) ++disk_readers;
    std::vector<std::byte> mine(remap.value()->even_share(world.rank()));
    auto stats = remap.value()->restore(mine, mine.size());
    ASSERT_TRUE(stats.ok()) << stats.status().to_string();
    ASSERT_TRUE(remap.value()->close().ok());
  });
  // Only as many tasks touch the file system as there are source streams.
  EXPECT_LE(disk_readers, 2u);
  EXPECT_GE(disk_readers, 1u);
}

}  // namespace
}  // namespace sion::ext
