// Cross-module integration scenarios that chain several subsystems end to
// end: parallel write -> serial tools -> parallel re-read; crash -> repair ->
// defrag; compression frames through the SION write path; a custom
// round-robin file map under re-reads; and the full MP2C example pipeline
// on PosixFs.
#include <gtest/gtest.h>

#include <filesystem>

#include "common/rng.h"
#include "common/strings.h"
#include "common/units.h"
#include "core/api.h"
#include "ext/compress.h"
#include "ext/recovery.h"
#include "fs/posix_fs.h"
#include "fs/sim/machine.h"
#include "fs/sim/simfs.h"
#include "par/comm.h"
#include "par/engine.h"
#include "tools/defrag.h"
#include "tools/split.h"
#include "workloads/checkpoint.h"
#include "workloads/mp2c.h"

namespace sion {
namespace {

using fs::DataView;

std::vector<std::byte> rank_pattern(int rank, std::size_t n) {
  std::vector<std::byte> out(n);
  Rng rng(0x17E6 + static_cast<std::uint64_t>(rank));
  rng.fill_bytes(out);
  return out;
}

TEST(IntegrationTest, ParallelWriteSplitCompareParallelRead) {
  fs::SimFs fsim(fs::TestbedConfig());
  par::Engine engine;
  const int n = 12;
  engine.run(n, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "w.sion";
    spec.chunksize = 10000;
    spec.fsblksize = 4096;
    spec.nfiles = 3;
    spec.mapping = core::Mapping::kCustom;
    for (int r = 0; r < n; ++r) spec.custom_file_of_rank.push_back(r % 3);
    auto sion = core::SionParFile::open_write(fsim, world, spec);
    ASSERT_TRUE(sion.ok()) << sion.status().to_string();
    const auto data = rank_pattern(world.rank(), 25000);
    ASSERT_TRUE(sion.value()->write(DataView(data)).ok());
    ASSERT_TRUE(sion.value()->close().ok());
  });

  // Serial: split out every logical file and compare.
  ASSERT_TRUE(tools::split_multifile(fsim, "w.sion", "sp").ok());
  for (int r = 0; r < n; ++r) {
    auto file = fsim.open_read(strformat("sp.%06d", r));
    ASSERT_TRUE(file.ok());
    std::vector<std::byte> got(25000);
    ASSERT_TRUE(file.value()->pread(got, 0).ok());
    EXPECT_EQ(got, rank_pattern(r, 25000)) << "rank " << r;
  }

  // Parallel re-read of the round-robin multifile.
  engine.run(n, [&](par::Comm& world) {
    auto sion = core::SionParFile::open_read(fsim, world, "w.sion");
    ASSERT_TRUE(sion.ok()) << sion.status().to_string();
    std::vector<std::byte> got(25000);
    ASSERT_TRUE(sion.value()->read(got).ok());
    EXPECT_EQ(got, rank_pattern(world.rank(), 25000));
    ASSERT_TRUE(sion.value()->close().ok());
  });
}

TEST(IntegrationTest, CrashRepairDefragReread) {
  fs::SimFs fsim(fs::TestbedConfig());
  par::Engine engine;
  const int n = 6;
  engine.run(n, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "cr.sion";
    spec.chunksize = 8000;
    spec.fsblksize = 4096;
    spec.nfiles = 2;
    spec.chunk_frames = true;
    auto sion = core::SionParFile::open_write(fsim, world, spec);
    ASSERT_TRUE(sion.ok());
    const auto data = rank_pattern(world.rank(), 20000);  // multiple chunks
    ASSERT_TRUE(sion.value()->write(DataView(data)).ok());
    // crash: no close
  });
  ASSERT_TRUE(ext::repair_multifile(fsim, "cr.sion").ok());
  ASSERT_TRUE(tools::defrag_multifile(fsim, "cr.sion", "cr2.sion").ok());
  engine.run(n, [&](par::Comm& world) {
    auto sion = core::SionParFile::open_read(fsim, world, "cr2.sion");
    ASSERT_TRUE(sion.ok()) << sion.status().to_string();
    std::vector<std::byte> got(20000);
    ASSERT_TRUE(sion.value()->read(got).ok());
    EXPECT_EQ(got, rank_pattern(world.rank(), 20000));
    ASSERT_TRUE(sion.value()->close().ok());
  });
}

TEST(IntegrationTest, CompressedPayloadThroughMultifile) {
  fs::SimFs fsim(fs::TestbedConfig());
  par::Engine engine;
  engine.run(4, [&](par::Comm& world) {
    // Compressible per-rank payload.
    std::vector<std::byte> raw(50000);
    for (std::size_t i = 0; i < raw.size(); ++i) {
      raw[i] = static_cast<std::byte>((i / 100 + world.rank()) % 7);
    }
    auto framed_or = ext::compress_stream(raw);
    ASSERT_TRUE(framed_or.ok());
    const std::vector<std::byte> framed = std::move(framed_or).value();

    core::ParOpenSpec spec;
    spec.filename = "z.sion";
    spec.chunksize = framed.size() + 100;
    auto sion = core::SionParFile::open_write(fsim, world, spec);
    ASSERT_TRUE(sion.ok());
    ASSERT_TRUE(sion.value()->write(DataView(framed)).ok());
    ASSERT_TRUE(sion.value()->close().ok());

    auto ropen = core::SionParFile::open_read(fsim, world, "z.sion");
    ASSERT_TRUE(ropen.ok());
    std::vector<std::byte> back(ropen.value()->bytes_remaining_total());
    ASSERT_TRUE(ropen.value()->read(back).ok());
    ext::StreamLossReport loss;
    auto restored = ext::decompress_stream(back, &loss);
    ASSERT_TRUE(restored.ok()) << restored.status().to_string();
    EXPECT_EQ(restored.value(), raw);
    EXPECT_TRUE(loss.clean()) << loss.to_string();
    ASSERT_TRUE(ropen.value()->close().ok());
  });
}

TEST(IntegrationTest, Mp2cPipelineOnRealDisk) {
  const auto root = std::filesystem::temp_directory_path() /
                    ("sion_integ_" + std::to_string(::getpid()));
  std::filesystem::create_directories(root);
  fs::PosixFs pfs(64 * kKiB);
  par::Engine engine;
  const int n = 4;
  const std::uint64_t particles = 5000;

  workloads::CheckpointSpec spec;
  spec.path = (root / "mp2c.ckpt").string();
  spec.strategy = workloads::IoStrategy::kSion;
  spec.nfiles = 2;

  engine.run(n, [&](par::Comm& world) {
    const auto mine = workloads::mp2c_generate(particles, n, world.rank(), 1);
    const auto payload = workloads::mp2c_serialize(mine);
    ASSERT_TRUE(
        workloads::write_checkpoint(pfs, world, spec, DataView(payload)).ok());

    std::vector<std::byte> back(payload.size());
    ASSERT_TRUE(
        workloads::read_checkpoint(pfs, world, spec, payload.size(), back)
            .ok());
    auto restored = workloads::mp2c_deserialize(back);
    ASSERT_TRUE(restored.ok());
    ASSERT_EQ(restored.value().size(), mine.size());
    EXPECT_DOUBLE_EQ(restored.value()[0].pos[0], mine[0].pos[0]);
  });
  std::filesystem::remove_all(root);
}

TEST(IntegrationTest, SixtyFourKTaskOpenIsMemoryLean) {
  // Regression guard: collective opens must be O(1) memory per task.
  // 64 Ki-task paropen with small stacks finishes fast and fits easily in
  // RAM (it OOMed before FileMap became closed-form).
  fs::SimFs fsim(fs::JugeneConfig());
  par::EngineConfig config;
  config.stack_bytes = 32 * 1024;
  par::Engine engine(config);
  const int n = 65536;
  engine.run(n, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "big.sion";
    spec.chunksize = 64 * kKiB;
    spec.nfiles = 32;
    auto sion = core::SionParFile::open_write(fsim, world, spec);
    ASSERT_TRUE(sion.ok());
    ASSERT_TRUE(sion.value()->close().ok());
  });
  EXPECT_EQ(fsim.counters().creates, 32u);
  EXPECT_EQ(fsim.counters().cached_opens, static_cast<std::uint64_t>(n - 32));
}

}  // namespace
}  // namespace sion
