// Tests for the two traditional-I/O baselines the paper compares against:
// multiple-file-parallel (task-local) and single-file-sequential.
#include <gtest/gtest.h>

#include "baseline/single_file_seq.h"
#include "baseline/task_local.h"
#include "common/rng.h"
#include "common/units.h"
#include "fs/sim/machine.h"
#include "fs/sim/simfs.h"
#include "par/comm.h"
#include "par/engine.h"

namespace sion::baseline {
namespace {

using fs::DataView;

std::vector<std::byte> rank_pattern(int rank, std::size_t n) {
  std::vector<std::byte> out(n);
  Rng rng(0xAB + static_cast<std::uint64_t>(rank));
  rng.fill_bytes(out);
  return out;
}

TEST(TaskLocalTest, PathNaming) {
  EXPECT_EQ(task_file_path("dir", "ckpt", 7), "dir/ckpt.000007");
  EXPECT_EQ(task_file_path(".", "ckpt", 0), "ckpt.000000");
}

TEST(TaskLocalTest, PerTaskRoundtrip) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  engine.run(8, [&](par::Comm& world) {
    auto file = TaskLocalFile::create(fs, ".", "data", world.rank());
    ASSERT_TRUE(file.ok());
    const auto data = rank_pattern(world.rank(), 5000);
    ASSERT_TRUE(file.value().write(DataView(data)).ok());
    world.barrier();

    auto rd = TaskLocalFile::open_existing(fs, ".", "data", world.rank(),
                                           /*writable=*/false);
    ASSERT_TRUE(rd.ok());
    std::vector<std::byte> back(5000);
    auto got = rd.value().read(back);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), 5000u);
    EXPECT_EQ(back, data);
  });
  EXPECT_EQ(fs.counters().creates, 8u);
}

TEST(TaskLocalTest, SequentialCursorAdvances) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  engine.run(1, [&](par::Comm&) {
    auto file = TaskLocalFile::create(fs, ".", "cur", 0);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value().write(DataView::fill(std::byte{1}, 100)).ok());
    ASSERT_TRUE(file.value().write(DataView::fill(std::byte{2}, 100)).ok());
    EXPECT_EQ(file.value().position(), 200u);
    file.value().rewind();
    std::vector<std::byte> back(200);
    ASSERT_TRUE(file.value().read(back).ok());
    EXPECT_EQ(back[0], std::byte{1});
    EXPECT_EQ(back[150], std::byte{2});
  });
}

TEST(TaskLocalTest, OpenMissingFails) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  engine.run(1, [&](par::Comm&) {
    auto r = TaskLocalFile::open_existing(fs, ".", "ghost", 0, false);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::kNotFound);
  });
}

class SingleFileSeqTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SingleFileSeqTest, RoundtripAcrossStagingSizes) {
  const std::uint64_t staging = GetParam();
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  engine.run(5, [&](par::Comm& world) {
    SingleFileSeqOptions options;
    options.staging_bytes = staging;
    const auto data = rank_pattern(world.rank(),
                                   1000 + 777 * static_cast<std::size_t>(world.rank()));
    ASSERT_TRUE(write_single_file_seq(fs, world, "restart.dat",
                                      DataView(data), options)
                    .ok());
    std::vector<std::byte> back(data.size());
    ASSERT_TRUE(read_single_file_seq(fs, world, "restart.dat", data.size(),
                                     back, options)
                    .ok());
    EXPECT_EQ(back, data);
  });
  // Exactly one physical file regardless of task count.
  EXPECT_EQ(fs.counters().creates, 1u);
}

INSTANTIATE_TEST_SUITE_P(StagingSizes, SingleFileSeqTest,
                         ::testing::Values(64, 1000, 4096, 1 << 20));

TEST(SingleFileSeqTest2, FileIsConcatenationInRankOrder) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  engine.run(3, [&](par::Comm& world) {
    std::vector<std::byte> data(10, static_cast<std::byte>('a' + world.rank()));
    ASSERT_TRUE(write_single_file_seq(fs, world, "cat.dat", DataView(data))
                    .ok());
  });
  auto file = fs.open_read("cat.dat");
  ASSERT_TRUE(file.ok());
  std::vector<std::byte> all(30);
  ASSERT_TRUE(file.value()->pread(all, 0).ok());
  EXPECT_EQ(all[0], std::byte{'a'});
  EXPECT_EQ(all[10], std::byte{'b'});
  EXPECT_EQ(all[20], std::byte{'c'});
}

TEST(SingleFileSeqTest2, ReadOfMissingFileFailsOnAllRanks) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  engine.run(3, [&](par::Comm& world) {
    std::vector<std::byte> back(10);
    auto st = read_single_file_seq(fs, world, "missing.dat", 10, back);
    EXPECT_FALSE(st.ok()) << "rank " << world.rank();
  });
}

TEST(SingleFileSeqTest2, TimingOnlyModeDiscards) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  engine.run(3, [&](par::Comm& world) {
    ASSERT_TRUE(write_single_file_seq(fs, world, "t.dat",
                                      DataView::fill(std::byte{5}, 10000))
                    .ok());
    ASSERT_TRUE(read_single_file_seq(fs, world, "t.dat", 10000, {}).ok());
  });
}

TEST(SingleFileSeqTest2, SerializationShowsInVirtualTime) {
  // The designated-I/O-task scheme must be slower than SION-style parallel
  // writes for the same volume (the core claim of Fig. 6).
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  const std::uint64_t per_task = 4 * kMiB;
  const int n = 8;
  const double t0 = engine.epoch();
  engine.run(n, [&](par::Comm& world) {
    ASSERT_TRUE(write_single_file_seq(
                    fs, world, "seq.dat",
                    DataView::fill(std::byte{1}, per_task))
                    .ok());
  });
  const double t_seq = engine.epoch() - t0;
  // All data must cross the master's single client link (500 MB/s testbed):
  // 8 * 4 MiB / 500 MB/s ~ 67 ms at minimum.
  const double lower_bound =
      static_cast<double>(n) * static_cast<double>(per_task) / 500.0e6;
  EXPECT_GE(t_seq, lower_bound * 0.9);
}

}  // namespace
}  // namespace sion::baseline
