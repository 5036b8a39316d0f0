// On-disk byte pins: the CRC32C of every physical file that each writer of
// the SION format produces for a fixed, deterministic input. The hexfloat
// goldens pin virtual time only; these pin the bytes themselves, so a change
// to the format code that moves a field, a pad or a frame fails here even
// when it costs exactly the same.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "common/units.h"
#include "core/api.h"
#include "ext/buddy.h"
#include "ext/collective.h"
#include "ext/compress.h"
#include "ext/ecc.h"
#include "ext/recovery.h"
#include "fs/sim/machine.h"
#include "fs/sim/simfs.h"
#include "par/comm.h"
#include "par/engine.h"

namespace sion {
namespace {

using fs::DataView;

struct Pin {
  std::string path;
  std::uint32_t crc;
};

// Size and content both vary with the rank.
std::vector<std::byte> payload_of(int rank) {
  std::vector<std::byte> data(2500 + 613 * static_cast<std::size_t>(rank));
  Rng rng(7700 + static_cast<std::uint64_t>(rank));
  rng.fill_bytes(data);
  return data;
}

std::uint32_t file_crc(fs::FileSystem& fs, const std::string& path) {
  auto file = fs.open_read(path);
  EXPECT_TRUE(file.ok()) << path;
  if (!file.ok()) return 0;
  auto st = file.value()->stat();
  EXPECT_TRUE(st.ok()) << path;
  if (!st.ok()) return 0;
  std::vector<std::byte> bytes(st.value().size);
  auto got = file.value()->pread(bytes, 0);
  EXPECT_TRUE(got.ok() && got.value() == bytes.size()) << path;
  return ext::crc32c(bytes);
}

// On a mismatch the whole table is printed in source form, so an intended
// format change updates it in one paste.
void expect_pinned(fs::FileSystem& fs, const std::vector<Pin>& pins) {
  bool same = true;
  std::string actual;
  for (const Pin& pin : pins) {
    const std::uint32_t crc = file_crc(fs, pin.path);
    same = same && crc == pin.crc;
    actual += strformat("      {\"%s\", 0x%08X},\n", pin.path.c_str(), crc);
  }
  EXPECT_TRUE(same) << "on-disk bytes changed; actual pins:\n" << actual;
}

core::ParOpenSpec par_spec(const std::string& name, bool frames) {
  core::ParOpenSpec spec;
  spec.filename = name;
  spec.chunksize = 3000;  // several blocks per task
  spec.fsblksize = 1 * kKiB;
  spec.nfiles = 2;
  spec.chunk_frames = frames;
  return spec;
}

// Parallel write of payload_of(rank) on every task; without `close` the
// file is left as a crashed run leaves it (no metablock 2).
void write_par(fs::FileSystem& fs, const core::ParOpenSpec& spec, int ntasks,
               bool close) {
  par::Engine engine;
  engine.run(ntasks, [&](par::Comm& world) {
    auto open = core::SionParFile::open_write(fs, world, spec);
    ASSERT_TRUE(open.ok()) << open.status().to_string();
    const auto data = payload_of(world.rank());
    ASSERT_TRUE(open.value()->write(DataView(data)).ok());
    if (close) {
      ASSERT_TRUE(open.value()->close().ok());
    }
  });
}

TEST(FormatPinTest, ParFilePlain) {
  fs::SimFs fs(fs::TestbedConfig());
  write_par(fs, par_spec("par.sion", false), 6, /*close=*/true);
  expect_pinned(fs, {
      {"par.sion.000000", 0x6B9B3FA4},
      {"par.sion.000001", 0x96D26EAE},
  });
}

TEST(FormatPinTest, ParFileWithChunkFrames) {
  fs::SimFs fs(fs::TestbedConfig());
  write_par(fs, par_spec("framed.sion", true), 6, /*close=*/true);
  expect_pinned(fs, {
      {"framed.sion.000000", 0xC163CC9A},
      {"framed.sion.000001", 0x1A9C7CB4},
  });
}

TEST(FormatPinTest, SerialFileWithChunkFrames) {
  fs::SimFs fs(fs::TestbedConfig());
  core::SerialWriteSpec spec;
  spec.filename = "serial.sion";
  spec.nfiles = 2;
  spec.fsblksize = 1 * kKiB;
  spec.chunk_frames = true;
  for (int r = 0; r < 5; ++r) {
    spec.chunksizes.push_back(2000 + 500 * static_cast<std::uint64_t>(r));
  }
  auto open = core::SionSerialFile::open_write(fs, spec);
  ASSERT_TRUE(open.ok()) << open.status().to_string();
  for (int r = 0; r < 5; ++r) {
    ASSERT_TRUE(open.value()->seek(r, 0, 0).ok());
    const auto data = payload_of(r);
    ASSERT_TRUE(open.value()->write(DataView(data)).ok());
  }
  ASSERT_TRUE(open.value()->close().ok());
  expect_pinned(fs, {
      {"serial.sion.000000", 0xA3C0AC01},
      {"serial.sion.000001", 0xFC8765A0},
  });
}

TEST(FormatPinTest, CollectivePacked) {
  fs::SimFs fs(fs::TestbedConfig());
  core::ParOpenSpec spec = par_spec("packed.sion", false);
  spec.fsblksize = 4 * kKiB;
  ext::CollectiveConfig config;
  config.alignment = ext::CollectiveConfig::Alignment::kPacked;
  config.packing_granule = 512;
  config.group_size = 3;  // 4 tasks per file: groups of 3 and 1
  par::Engine engine;
  engine.run(8, [&](par::Comm& world) {
    auto open = ext::Collective::open_write(fs, world, spec, config);
    ASSERT_TRUE(open.ok()) << open.status().to_string();
    const auto data = payload_of(world.rank());
    ASSERT_TRUE(open.value()->write(DataView(data)).ok());
    ASSERT_TRUE(open.value()->close().ok());
  });
  expect_pinned(fs, {
      {"packed.sion.000000", 0xD7424E16},
      {"packed.sion.000001", 0xC684B1AD},
  });
}

TEST(FormatPinTest, PlainBuddyPrimaryAndReplica) {
  fs::SimFs fs(fs::TestbedConfig());
  const core::ParOpenSpec spec = par_spec("buddy.sion", false);
  ext::BuddyConfig config;
  config.replicas = 2;
  config.num_domains = 4;
  par::Engine engine;
  engine.run(8, [&](par::Comm& world) {
    const auto data = payload_of(world.rank());
    ASSERT_TRUE(
        ext::Buddy::write(fs, world, spec, config, DataView(data)).ok());
  });
  expect_pinned(fs, {
      {"buddy.sion.000000", 0x80A9177B},
      {"buddy.sion.000001", 0x234ADFEB},
      {"buddy.sion.000002", 0xFAA20227},
      {"buddy.sion.000003", 0x3681ACA5},
      {"buddy.sion.b1.000000", 0x79301279},
      {"buddy.sion.b1.000001", 0x927D944E},
      {"buddy.sion.b1.000002", 0x771018B7},
      {"buddy.sion.b1.000003", 0xC96BBF13},
  });
}

TEST(FormatPinTest, EccDataAndParity) {
  fs::SimFs fs(fs::TestbedConfig());
  const core::ParOpenSpec spec = par_spec("ecc.sion", false);
  ext::EccConfig config;
  config.data_domains = 4;
  config.parity_domains = 2;
  config.stripe_bytes = 4 * kKiB;
  par::Engine engine;
  engine.run(8, [&](par::Comm& world) {
    const auto data = payload_of(world.rank());
    ASSERT_TRUE(ext::Ecc::write(fs, world, spec, config, DataView(data)).ok());
  });
  expect_pinned(fs, {
      {"ecc.sion.000000", 0x80A9177B},
      {"ecc.sion.000001", 0x234ADFEB},
      {"ecc.sion.000002", 0xFAA20227},
      {"ecc.sion.000003", 0x3681ACA5},
      {"ecc.sion.p0", 0xF1D79F1F},
      {"ecc.sion.p1", 0xBB03EBA6},
  });
}

TEST(FormatPinTest, RepairOfCrashedChunkFramedFile) {
  fs::SimFs fs(fs::TestbedConfig());
  write_par(fs, par_spec("crash.sion", true), 6, /*close=*/false);
  auto report = ext::repair_multifile(fs, "crash.sion");
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_EQ(report.value().repaired_files, 2);
  expect_pinned(fs, {
      {"crash.sion.000000", 0xC163CC9A},
      {"crash.sion.000001", 0x1A9C7CB4},
  });
}

}  // namespace
}  // namespace sion
