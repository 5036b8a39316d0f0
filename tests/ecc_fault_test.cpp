// Erasure-coding fault battery (ctest label: ecc): checkpoints written with
// ext::Ecc must survive the loss of ANY m of their k + m failure domains —
// data files and parity files alike, deleted, truncated, erroring at open
// time, or silently bit-flipped — and restore byte-identically at any
// restart scale M, either by healing the files on disk or by decoding lost
// ranges on the fly during the restart's own reads (with zero extra I/O
// passes: the lost file is never recreated). The one behavior these tests
// exist to forbid is a restore that "succeeds" with wrong bytes;
// unrecoverable scenarios must fail cleanly on every task.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>

#include "common/codec.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/api.h"
#include "ext/buddy.h"
#include "ext/compress.h"
#include "ext/ecc.h"
#include "ext/recovery.h"
#include "fs/sim/fault.h"
#include "fs/sim/machine.h"
#include "fs/sim/simfs.h"
#include "fs_wrappers.h"
#include "par/comm.h"
#include "par/engine.h"
#include "workloads/checkpoint.h"
#include "workloads/checkpoint_session.h"

namespace sion::ext {
namespace {

using fs::DataView;
using fs::FaultPlan;

// Size and content both vary with the rank so any mis-routed or stale byte
// range is detected.
std::vector<std::byte> rank_payload(int rank) {
  std::vector<std::byte> data(512 + 37 * static_cast<std::size_t>(rank));
  Rng rng(8800 + static_cast<std::uint64_t>(rank));
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

std::uint64_t share_offset(std::uint64_t total, int msize, int rank) {
  return static_cast<std::uint64_t>(
      static_cast<unsigned __int128>(total) *
      static_cast<std::uint64_t>(rank) / static_cast<std::uint64_t>(msize));
}

// Parameter: collective/kPacked aggregation on or off for the primary
// multifile (parity encoding reads back physical bytes either way).
class EccFaultTest : public ::testing::TestWithParam<bool> {
 protected:
  EccFaultTest() : fs_(fs::TestbedConfig()) {}

  workloads::CheckpointSpec ecc_spec(
      const std::string& path, int k, int m,
      EccConfig::Restore mode = EccConfig::Restore::kDegraded) {
    workloads::CheckpointSpec spec;
    spec.path = path;
    EccConfig ecc;
    ecc.data_domains = k;
    ecc.parity_domains = m;
    ecc.restore_mode = mode;
    spec.protection = ecc;
    if (GetParam()) {
      CollectiveConfig aggregation;
      aggregation.alignment = CollectiveConfig::Alignment::kPacked;
      aggregation.group_size = 8;
      spec.collective = aggregation;
    }
    return spec;
  }

  void write_ecc(int nwriters, const workloads::CheckpointSpec& spec) {
    par::Engine engine;
    engine.run(nwriters, [&](par::Comm& world) {
      const auto mine = rank_payload(world.rank());
      ASSERT_TRUE(
          workloads::write_checkpoint(fs_, world, spec, DataView(mine)).ok());
    });
  }

  // Path of failure domain `i` of a (k, m) set: the data file for i < k,
  // parity file i - k otherwise.
  std::string domain_path(const std::string& name, int i, int k) {
    if (i < k) return core::physical_file_name(name, i, k);
    return Ecc::parity_name(name, i - k);
  }

  std::vector<std::byte> read_all(const std::string& path) {
    auto file = fs_.open_read(path);
    EXPECT_TRUE(file.ok()) << path;
    if (!file.ok()) return {};
    auto st = file.value()->stat();
    EXPECT_TRUE(st.ok());
    std::vector<std::byte> bytes(st.value().size);
    auto got = file.value()->pread(bytes, 0);
    EXPECT_TRUE(got.ok());
    EXPECT_EQ(got.value(), bytes.size());
    return bytes;
  }

  // Restore at `mtasks` through the workloads ECC path and compare every
  // byte against the in-memory reference.
  void restore_and_check(int nwriters, int mtasks,
                         workloads::CheckpointSpec spec) {
    const std::vector<std::byte> expect = concatenated_payload(nwriters);
    const std::uint64_t total = expect.size();
    std::vector<std::byte> got(expect.size());
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
    EXPECT_EQ(got, expect);
  }

  fs::SimFs fs_;
};

// ---------------------------------------------------------------------------
// Acceptance core 1: k = 4, m = 2 — EVERY pair of the 6 failure domains can
// be lost and heal() reconstructs both files byte-identically.
// ---------------------------------------------------------------------------

TEST_P(EccFaultTest, EveryDomainPairLossHealsByteIdentically) {
  const int kWriters = 32;
  const int k = 4;
  const int m = 2;
  for (int d1 = 0; d1 < k + m; ++d1) {
    for (int d2 = d1 + 1; d2 < k + m; ++d2) {
      SCOPED_TRACE(testing::Message() << "lost domains " << d1 << "," << d2);
      const std::string name =
          "pair" + std::to_string(d1) + std::to_string(d2) + ".ckpt";
      const auto spec = ecc_spec(name, k, m);
      write_ecc(kWriters, spec);
      const std::vector<std::byte> pristine1 =
          read_all(domain_path(name, d1, k));
      const std::vector<std::byte> pristine2 =
          read_all(domain_path(name, d2, k));
      ASSERT_TRUE(fs_.remove(domain_path(name, d1, k)).ok());
      ASSERT_TRUE(fs_.remove(domain_path(name, d2, k)).ok());
      EccConfig config;
      config.data_domains = k;
      config.parity_domains = m;
      par::Engine engine;
      engine.run(3, [&](par::Comm& world) {
        auto report = Ecc::heal(fs_, world, name, config);
        ASSERT_TRUE(report.ok()) << report.status().to_string();
        EXPECT_EQ(report.value().healed_files, 2);
        EXPECT_GT(report.value().bytes_reconstructed, 0u);
      });
      EXPECT_EQ(read_all(domain_path(name, d1, k)), pristine1);
      EXPECT_EQ(read_all(domain_path(name, d2, k)), pristine2);
      restore_and_check(kWriters, /*mtasks=*/8, spec);
    }
  }
}

// ---------------------------------------------------------------------------
// Acceptance core 2: degraded-read restarts at M in {1, N/4, N, 4N} return
// byte-identical data with ZERO heal-pass I/O — the lost files are decoded
// inline by the restart's own reads and never recreated on disk.
// ---------------------------------------------------------------------------

TEST_P(EccFaultTest, DegradedRestartAtAllScalesWithZeroHealIo) {
  const int kWriters = 64;
  const int k = 4;
  const int m = 2;
  const auto spec = ecc_spec("deg.ckpt", k, m);
  write_ecc(kWriters, spec);
  // Lose one data domain and one parity domain (m losses total).
  const std::string lost_data = domain_path("deg.ckpt", 1, k);
  const std::string lost_parity = domain_path("deg.ckpt", k + 0, k);
  ASSERT_TRUE(fs_.remove(lost_data).ok());
  ASSERT_TRUE(fs_.remove(lost_parity).ok());
  for (const int mtasks : {1, 16, 64, 256}) {
    SCOPED_TRACE(testing::Message() << "restart at " << mtasks);
    restore_and_check(kWriters, mtasks, spec);
    // Zero extra I/O passes: the degraded restart never recreated the lost
    // files (decode rides the restart's own positioned reads).
    EXPECT_FALSE(fs_.exists(lost_data));
    EXPECT_FALSE(fs_.exists(lost_parity));
  }
}

TEST_P(EccFaultTest, DegradedRestartSurvivesTwoDataDomainLosses) {
  const int kWriters = 32;
  const int k = 4;
  const auto spec = ecc_spec("deg2.ckpt", k, /*m=*/2);
  write_ecc(kWriters, spec);
  ASSERT_TRUE(fs_.remove(domain_path("deg2.ckpt", 0, k)).ok());
  ASSERT_TRUE(fs_.remove(domain_path("deg2.ckpt", 3, k)).ok());
  for (const int mtasks : {1, 8}) {
    SCOPED_TRACE(testing::Message() << "restart at " << mtasks);
    restore_and_check(kWriters, mtasks, spec);
    EXPECT_FALSE(fs_.exists(domain_path("deg2.ckpt", 0, k)));
    EXPECT_FALSE(fs_.exists(domain_path("deg2.ckpt", 3, k)));
  }
}

// kHeal restore mode repairs the set on disk first, then restarts from it:
// the next restart finds a healthy checkpoint.
TEST_P(EccFaultTest, HealModeRestoreRepairsOnDisk) {
  const int kWriters = 32;
  const int k = 4;
  const auto spec =
      ecc_spec("hm.ckpt", k, /*m=*/2, EccConfig::Restore::kHeal);
  write_ecc(kWriters, spec);
  const std::string lost_data = domain_path("hm.ckpt", 2, k);
  const std::string lost_parity = domain_path("hm.ckpt", k + 1, k);
  const std::vector<std::byte> pristine_data = read_all(lost_data);
  const std::vector<std::byte> pristine_parity = read_all(lost_parity);
  ASSERT_TRUE(fs_.remove(lost_data).ok());
  ASSERT_TRUE(fs_.remove(lost_parity).ok());
  restore_and_check(kWriters, /*mtasks=*/16, spec);
  EXPECT_EQ(read_all(lost_data), pristine_data);
  EXPECT_EQ(read_all(lost_parity), pristine_parity);
  // Nothing left to heal: the repaired set restores again untouched.
  restore_and_check(kWriters, /*mtasks=*/8, spec);
}

// ---------------------------------------------------------------------------
// Composition: transparent compression (parity covers the compressed wire
// bytes) and multi-block chunk layouts.
// ---------------------------------------------------------------------------

TEST_P(EccFaultTest, ComposesWithTransparentCompression) {
  const int kWriters = 16;
  const int k = 4;
  auto spec = ecc_spec("z.ckpt", k, /*m=*/1);
  spec.compression = ext::CompressionSpec{};
  spec.compression->chunk_bytes = 4 * kKiB;
  write_ecc(kWriters, spec);
  const std::string lost = domain_path("z.ckpt", 2, k);
  ASSERT_TRUE(fs_.remove(lost).ok());
  for (const int mtasks : {4, 16}) {
    SCOPED_TRACE(testing::Message() << "restart at " << mtasks);
    restore_and_check(kWriters, mtasks, spec);
    EXPECT_FALSE(fs_.exists(lost));
  }
}

TEST_P(EccFaultTest, MultiBlockStreamsSurviveDomainLossDegraded) {
  const int kWriters = 12;
  const int k = 3;
  EccConfig config;
  config.data_domains = k;
  config.parity_domains = 1;
  CollectiveConfig aggregation;
  aggregation.group_size = 4;
  par::Engine engine;
  engine.run(kWriters, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "blocks.ckpt";
    spec.chunksize = 700;  // several blocks per 1.5-4 KiB stream
    spec.fsblksize = 512;
    const auto mine = rank_payload(world.rank() + 40);
    ASSERT_TRUE(Ecc::write(fs_, world, spec, config, DataView(mine),
                           GetParam() ? &aggregation : nullptr)
                    .ok());
  });
  ASSERT_TRUE(fs_.remove(core::physical_file_name("blocks.ckpt", 1, k)).ok());
  std::vector<std::byte> expect;
  for (int r = 0; r < kWriters; ++r) {
    const auto mine = rank_payload(r + 40);
    expect.insert(expect.end(), mine.begin(), mine.end());
  }
  std::vector<std::byte> got(expect.size());
  engine.run(5, [&](par::Comm& world) {
    const std::uint64_t lo = share_offset(expect.size(), 5, world.rank());
    const std::uint64_t hi = share_offset(expect.size(), 5, world.rank() + 1);
    std::vector<std::byte> mine(hi - lo);
    auto stats =
        Ecc::restore(fs_, world, "blocks.ckpt", config, mine, mine.size());
    ASSERT_TRUE(stats.ok()) << stats.status().to_string();
    std::memcpy(got.data() + lo, mine.data(), mine.size());
  });
  EXPECT_EQ(got, expect);
  EXPECT_FALSE(fs_.exists(core::physical_file_name("blocks.ckpt", 1, k)));
}

// ---------------------------------------------------------------------------
// FaultPlan-driven scenarios
// ---------------------------------------------------------------------------

TEST_P(EccFaultTest, FaultPlanGlobTakesDataAndParityFiles) {
  const int kWriters = 16;
  const int k = 4;
  const auto spec = ecc_spec("g.ckpt", k, /*m=*/2);
  write_ecc(kWriters, spec);
  FaultPlan plan;
  plan.lose("g.ckpt.000002");
  plan.lose("g.ckpt.p1");
  fs_.arm_faults(plan);
  EXPECT_EQ(fs_.fault_counters().files_lost, 2u);
  restore_and_check(kWriters, /*mtasks=*/16, spec);
}

TEST_P(EccFaultTest, SilentTruncationOfParityIsDetectedAndReencoded) {
  const int kWriters = 16;
  const int k = 4;
  const auto spec =
      ecc_spec("t.ckpt", k, /*m=*/2, EccConfig::Restore::kHeal);
  write_ecc(kWriters, spec);
  const std::string parity0 = Ecc::parity_name("t.ckpt", 0);
  const std::vector<std::byte> pristine = read_all(parity0);
  // Silently chop the parity file mid-payload: no error surfaces until the
  // probe checks the end marker.
  FaultPlan plan;
  plan.truncate(parity0, pristine.size() / 2);
  fs_.arm_faults(plan);
  EXPECT_EQ(fs_.fault_counters().files_truncated, 1u);
  EccConfig config;
  config.data_domains = k;
  config.parity_domains = 2;
  auto probe = Ecc::probe(fs_, "t.ckpt", config);
  ASSERT_TRUE(probe.ok()) << probe.status().to_string();
  EXPECT_EQ(probe.value().parity_ok[0], 0);
  EXPECT_EQ(probe.value().parity_ok[1], 1);
  restore_and_check(kWriters, /*mtasks=*/8, spec);
  // The kHeal restore re-encoded the damaged parity file byte-identically.
  EXPECT_EQ(read_all(parity0), pristine);
}

// Silent in-place corruption of a data file's metadata region: the probe
// must catch it (metablock no longer parses) and the heal must rebuild the
// file byte-identically from the survivors.
TEST_P(EccFaultTest, SilentCorruptionInMetadataIsDetectedAndHealed) {
  const int kWriters = 16;
  const int k = 4;
  const auto spec =
      ecc_spec("c.ckpt", k, /*m=*/1, EccConfig::Restore::kHeal);
  write_ecc(kWriters, spec);
  const std::string victim = core::physical_file_name("c.ckpt", 0, k);
  const std::vector<std::byte> pristine = read_all(victim);
  {
    // Deterministic corruption: garbage over the file's tail, where
    // metablock 2 and the trailer live.
    auto file = fs_.open_rw(victim);
    ASSERT_TRUE(file.ok());
    std::vector<std::byte> garbage(128, std::byte{0x5A});
    ASSERT_TRUE(file.value()
                    ->pwrite(DataView(garbage), pristine.size() - 128)
                    .ok());
  }
  restore_and_check(kWriters, /*mtasks=*/16, spec);
  EXPECT_EQ(read_all(victim), pristine);
}

// The kBitFlip fault kind: seeded, counted, in-place, size-preserving.
TEST(EccFaultPlanTest, BitFlipCorruptsInPlaceAndCounts) {
  fs::SimFs fs(fs::TestbedConfig());
  std::vector<std::byte> content(8 * kKiB);
  Rng rng(42);
  rng.fill_bytes(content);
  {
    auto file = fs.create("victim.dat");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value()->pwrite(DataView(content), 0).ok());
  }
  FaultPlan plan;
  plan.seed = 7;
  plan.bit_flip("victim.dat", /*nbytes=*/5);
  fs.arm_faults(plan);
  EXPECT_EQ(fs.fault_counters().files_corrupted, 1u);
  EXPECT_EQ(fs.fault_counters().bytes_flipped, 5u);
  auto file = fs.open_read("victim.dat");
  ASSERT_TRUE(file.ok());
  auto st = file.value()->stat();
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().size, content.size());  // size-preserving
  std::vector<std::byte> back(content.size());
  ASSERT_TRUE(file.value()->pread(back, 0).ok());
  EXPECT_NE(back, content);  // the corruption is real
  int differing = 0;
  for (std::size_t i = 0; i < content.size(); ++i) {
    if (back[i] != content[i]) ++differing;
  }
  EXPECT_GE(differing, 1);
  EXPECT_LE(differing, 5);  // flips may collide on a position
  fs.disarm_faults();
  // p = 0 never fires (the counters are cumulative across plans).
  FaultPlan never;
  never.bit_flip("victim.dat", 5, /*p=*/0.0);
  fs.arm_faults(never);
  EXPECT_EQ(fs.fault_counters().files_corrupted, 1u);
  EXPECT_EQ(fs.fault_counters().bytes_flipped, 5u);
}

// A bit-flip storm over one data file corrupts its metadata (seeded and
// deterministic), so the probe rejects the file and the heal rebuilds it
// byte-identically — the end-to-end path for silent bit rot.
TEST_P(EccFaultTest, BitFlipStormOnDataFileForcesHeal) {
  const int kWriters = 16;
  const int k = 4;
  const auto spec =
      ecc_spec("rot.ckpt", k, /*m=*/1, EccConfig::Restore::kHeal);
  write_ecc(kWriters, spec);
  const std::string victim = core::physical_file_name("rot.ckpt", 3, k);
  const std::vector<std::byte> pristine = read_all(victim);
  FaultPlan plan;
  plan.seed = 11;
  // Flip as many random bytes as the file holds: the header/metablock
  // regions are hit with certainty for this seed (deterministic replay).
  plan.bit_flip(victim, pristine.size());
  fs_.arm_faults(plan);
  EXPECT_EQ(fs_.fault_counters().files_corrupted, 1u);
  EXPECT_EQ(fs_.fault_counters().bytes_flipped, pristine.size());
  EccConfig config;
  config.data_domains = k;
  config.parity_domains = 1;
  auto probe = Ecc::probe(fs_, "rot.ckpt", config);
  ASSERT_TRUE(probe.ok()) << probe.status().to_string();
  ASSERT_EQ(probe.value().data_ok[3], 0)
      << "seed 11 no longer corrupts the metadata; pick a new seed";
  restore_and_check(kWriters, /*mtasks=*/8, spec);
  EXPECT_EQ(read_all(victim), pristine);
}

// An operational fault (open errors, not destruction) on a data file is
// treated as a domain loss: the degraded decode routes around it.
TEST_P(EccFaultTest, OpenErrorOnDataFileIsTreatedAsDomainLoss) {
  const int kWriters = 16;
  const int k = 4;
  const auto spec = ecc_spec("o.ckpt", k, /*m=*/2);
  write_ecc(kWriters, spec);
  FaultPlan plan;
  plan.open_error(core::physical_file_name("o.ckpt", 1, k));
  fs_.arm_faults(plan);
  restore_and_check(kWriters, /*mtasks=*/16, spec);
  EXPECT_GT(fs_.fault_counters().open_errors, 0u);
}

// ---------------------------------------------------------------------------
// Unrecoverable and invalid configurations fail cleanly everywhere.
// ---------------------------------------------------------------------------

TEST_P(EccFaultTest, LosingMoreThanMDomainsFailsCleanlyOnEveryTask) {
  const int kWriters = 8;
  const int k = 2;
  const auto spec = ecc_spec("dead.ckpt", k, /*m=*/1);
  write_ecc(kWriters, spec);
  ASSERT_TRUE(fs_.remove(domain_path("dead.ckpt", 0, k)).ok());
  ASSERT_TRUE(fs_.remove(domain_path("dead.ckpt", 1, k)).ok());
  EccConfig config;
  config.data_domains = k;
  config.parity_domains = 1;
  par::Engine engine;
  int failures = 0;
  engine.run(6, [&](par::Comm& world) {
    auto stats = Ecc::restore(fs_, world, "dead.ckpt", config, {}, 0);
    EXPECT_FALSE(stats.ok());
    EXPECT_EQ(stats.status().code(), ErrorCode::kIoError)
        << stats.status().to_string();
    ++failures;
  });
  EXPECT_EQ(failures, 6);
}

TEST_P(EccFaultTest, InvalidConfigurationsAreRejectedEarly) {
  // Session-independent: validate_protection fires before any I/O.
  {
    auto spec = ecc_spec("bad.ckpt", 4, 0);
    EXPECT_EQ(workloads::validate_protection(spec, 8).code(),
              ErrorCode::kInvalidArgument);  // no parity domains
  }
  {
    auto spec = ecc_spec("bad.ckpt", 200, 100);
    EXPECT_EQ(workloads::validate_protection(spec, 200).code(),
              ErrorCode::kInvalidArgument);  // k + m > 255
  }
  {
    auto spec = ecc_spec("bad.ckpt", 4, 2);
    std::get<EccConfig>(spec.protection).stripe_bytes = 0;
    EXPECT_EQ(workloads::validate_protection(spec, 8).code(),
              ErrorCode::kInvalidArgument);  // no stripe
  }
  {
    auto spec = ecc_spec("bad.ckpt", 3, 1);
    EXPECT_EQ(workloads::validate_protection(spec, 8).code(),
              ErrorCode::kInvalidArgument);  // 8 % 3 != 0
    // A restart comm of any size is fine (ntasks <= 0 skips divisibility).
    EXPECT_TRUE(workloads::validate_protection(spec, 0).ok());
  }
  // The same checks guard the session open (clear failure, not a deep
  // writer error) and the direct Ecc::write path (chunk frames).
  par::Engine engine;
  engine.run(8, [&](par::Comm& world) {
    auto spec = ecc_spec("bad.ckpt", 4, 0);
    auto st = workloads::write_checkpoint(fs_, world, spec,
                                          DataView::fill(std::byte{1}, 10));
    EXPECT_EQ(st.code(), ErrorCode::kInvalidArgument);

    core::ParOpenSpec pspec;
    pspec.filename = "bad.ckpt";
    pspec.chunksize = 1024;
    pspec.chunk_frames = true;  // superseded by parity; must be rejected
    EccConfig config;
    config.data_domains = 4;
    st = Ecc::write(fs_, world, pspec, config,
                    DataView::fill(std::byte{1}, 10));
    EXPECT_EQ(st.code(), ErrorCode::kInvalidArgument);
  });
}

// ---------------------------------------------------------------------------
// Heal report plumbing and companion discovery (the sionrepair pre-flight).
// ---------------------------------------------------------------------------

TEST_P(EccFaultTest, HealReportsWhatItRepaired) {
  const int kWriters = 16;
  const int k = 4;
  const auto spec = ecc_spec("h.ckpt", k, /*m=*/2);
  write_ecc(kWriters, spec);
  ASSERT_TRUE(fs_.remove(domain_path("h.ckpt", 2, k)).ok());
  ASSERT_TRUE(fs_.remove(domain_path("h.ckpt", k + 1, k)).ok());
  EccConfig config;
  config.data_domains = k;
  config.parity_domains = 2;
  par::Engine engine;
  engine.run(3, [&](par::Comm& world) {
    auto report = Ecc::heal(fs_, world, "h.ckpt", config);
    ASSERT_TRUE(report.ok()) << report.status().to_string();
    EXPECT_EQ(report.value().data_files, k);
    EXPECT_EQ(report.value().parity_files, 2);
    EXPECT_EQ(report.value().damaged_data, 1);
    EXPECT_EQ(report.value().damaged_parity, 1);
    EXPECT_EQ(report.value().healed_files, 2);
    EXPECT_GT(report.value().bytes_reconstructed, 0u);
  });
  // A second pass finds a whole set: nothing to do.
  engine.run(2, [&](par::Comm& world) {
    auto report = Ecc::heal(fs_, world, "h.ckpt", config);
    ASSERT_TRUE(report.ok()) << report.status().to_string();
    EXPECT_EQ(report.value().damaged_data, 0);
    EXPECT_EQ(report.value().damaged_parity, 0);
    EXPECT_EQ(report.value().healed_files, 0);
  });
}

TEST(EccDiscoverProtectionTest, FindsCompanionsAndGatesRepair) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;

  // Unprotected checkpoint: no companions, no refusal.
  {
    workloads::CheckpointSpec plain;
    plain.path = "plain.ckpt";
    engine.run(4, [&](par::Comm& world) {
      const auto mine = rank_payload(world.rank());
      ASSERT_TRUE(
          workloads::write_checkpoint(fs, world, plain, DataView(mine)).ok());
    });
    auto set = discover_protection(fs, "plain.ckpt");
    ASSERT_TRUE(set.ok()) << set.status().to_string();
    EXPECT_TRUE(set.value().empty());
    EXPECT_FALSE(set.value().heal_available());
  }

  // ECC-protected checkpoint: parity companions found, heal available even
  // after losing a data file — gone only when too few survivors remain.
  {
    workloads::CheckpointSpec spec;
    spec.path = "e.ckpt";
    EccConfig ecc;
    ecc.data_domains = 4;
    ecc.parity_domains = 2;
    spec.protection = ecc;
    engine.run(16, [&](par::Comm& world) {
      const auto mine = rank_payload(world.rank());
      ASSERT_TRUE(
          workloads::write_checkpoint(fs, world, spec, DataView(mine)).ok());
    });
    auto set = discover_protection(fs, "e.ckpt");
    ASSERT_TRUE(set.ok());
    EXPECT_EQ(set.value().parity_found, 2);
    EXPECT_EQ(set.value().parity_intact, 2);
    EXPECT_EQ(set.value().ecc_k, 4);
    EXPECT_EQ(set.value().ecc_m, 2);
    EXPECT_EQ(set.value().data_intact, 4);
    EXPECT_TRUE(set.value().heal_available());

    ASSERT_TRUE(fs.remove(core::physical_file_name("e.ckpt", 1, 4)).ok());
    set = discover_protection(fs, "e.ckpt");
    ASSERT_TRUE(set.ok());
    EXPECT_EQ(set.value().data_intact, 3);
    EXPECT_TRUE(set.value().heal_available());  // 3 + 2 >= 4

    ASSERT_TRUE(fs.remove(core::physical_file_name("e.ckpt", 2, 4)).ok());
    ASSERT_TRUE(fs.remove(core::physical_file_name("e.ckpt", 3, 4)).ok());
    set = discover_protection(fs, "e.ckpt");
    ASSERT_TRUE(set.ok());
    EXPECT_FALSE(set.value().heal_available());  // 1 + 2 < 4
  }

  // Buddy-protected checkpoint: replica sets found and probed.
  {
    workloads::CheckpointSpec spec;
    spec.path = "b.ckpt";
    BuddyConfig buddy;
    buddy.replicas = 2;
    buddy.num_domains = 4;
    spec.protection = buddy;
    engine.run(16, [&](par::Comm& world) {
      const auto mine = rank_payload(world.rank());
      ASSERT_TRUE(
          workloads::write_checkpoint(fs, world, spec, DataView(mine)).ok());
    });
    auto set = discover_protection(fs, "b.ckpt");
    ASSERT_TRUE(set.ok());
    ASSERT_EQ(set.value().replica_sets.size(), 1u);
    EXPECT_EQ(set.value().replica_sets[0], 1);
    ASSERT_EQ(set.value().intact_replica_sets.size(), 1u);
    EXPECT_TRUE(set.value().heal_available());

    // A damaged replica set no longer counts as a heal source.
    ASSERT_TRUE(
        fs.remove(core::physical_file_name(Buddy::replica_name("b.ckpt", 1),
                                           2, 4))
            .ok());
    set = discover_protection(fs, "b.ckpt");
    ASSERT_TRUE(set.ok());
    ASSERT_EQ(set.value().replica_sets.size(), 1u);
    EXPECT_TRUE(set.value().intact_replica_sets.empty());
    EXPECT_FALSE(set.value().heal_available());
  }
}

// ---------------------------------------------------------------------------
// Staging composition: the drain fabricates real parity files on the
// parallel tier; losing a drained primary still restores byte-exactly.
// ---------------------------------------------------------------------------

TEST_P(EccFaultTest, DrainFabricatedParitySurvivesPrimaryLoss) {
  const int n = 8;
  const int k = 4;
  const std::uint64_t bytes = 128 * kKiB;
  fs::SimConfig machine = fs::TestbedConfig();
  machine.burst_buffer.tasks_per_node = 4;
  machine.burst_buffer.node_bandwidth = 4.0e9;
  machine.burst_buffer.drain_bandwidth = 200.0e6;
  fs::SimFs pfs(machine);
  fs::SimFs bb(fs::BurstBufferTierConfig(machine, n));
  auto spec = ecc_spec("sq.sion", k, /*m=*/2);
  StagingConfig staging;
  staging.fast_tier = &bb;
  spec.staging = staging;
  const auto payload_of = [&](int rank) {
    std::vector<std::byte> data(bytes);
    Rng rng(0xecc + static_cast<std::uint64_t>(rank));
    rng.fill_bytes(data);
    return data;
  };
  par::Engine engine;
  engine.run(n, [&](par::Comm& world) {
    const auto mine = payload_of(world.rank());
    auto session = workloads::CheckpointSession::open(pfs, world, spec);
    ASSERT_TRUE(session.ok()) << session.status().to_string();
    ASSERT_TRUE(session.value()->write_async(DataView(mine)).ok());
    ASSERT_TRUE(session.value()->close().ok());
  });
  // Both the primaries and the fabricated parity files exist on the
  // parallel tier.
  for (int d = 0; d < k; ++d) {
    EXPECT_TRUE(pfs.exists(core::physical_file_name("sq.sion", d, k)));
  }
  EXPECT_TRUE(pfs.exists(Ecc::parity_name("sq.sion", 0)));
  EXPECT_TRUE(pfs.exists(Ecc::parity_name("sq.sion", 1)));
  // Lose two primaries (= m); the parity must carry the restore.
  ASSERT_TRUE(pfs.remove(core::physical_file_name("sq.sion", 1, k)).ok());
  ASSERT_TRUE(pfs.remove(core::physical_file_name("sq.sion", 2, k)).ok());
  par::Engine restart;
  restart.run(n, [&](par::Comm& world) {
    std::vector<std::byte> back(bytes);
    ASSERT_TRUE(
        workloads::CheckpointSession::restore(pfs, world, spec, 0, bytes,
                                              back)
            .ok());
    EXPECT_EQ(back, payload_of(world.rank()));
  });
  // Degraded restore: the lost primaries were never recreated.
  EXPECT_FALSE(pfs.exists(core::physical_file_name("sq.sion", 1, k)));
  EXPECT_FALSE(pfs.exists(core::physical_file_name("sq.sion", 2, k)));
}

// The heal writes each decoded piece as one pwrite whose all-zero 4 KiB
// runs are fill parts, like every other copy of a physical file, so a
// simulated file system keeps a healed file's chunk padding as holes.
TEST(EccHealTest, HealWritesZeroRunsAsFillParts) {
  fs::SimFs sim(fs::TestbedConfig());  // 64 KiB blocks: mostly padding
  const int k = 4;
  const std::uint64_t buffer = 64 * kKiB;
  workloads::CheckpointSpec spec;
  spec.path = "z.ckpt";
  EccConfig ecc;
  ecc.data_domains = k;
  ecc.parity_domains = 2;
  spec.protection = ecc;
  par::Engine engine;
  engine.run(16, [&](par::Comm& world) {
    const auto mine = rank_payload(world.rank());
    ASSERT_TRUE(
        workloads::write_checkpoint(sim, world, spec, DataView(mine)).ok());
  });
  const std::string lost = core::physical_file_name("z.ckpt", 1, k);
  const auto whole = [&](const std::string& path) {
    auto file = sim.open_read(path);
    EXPECT_TRUE(file.ok()) << path;
    std::vector<std::byte> bytes(file.value()->stat().value().size);
    EXPECT_TRUE(file.value()->pread(bytes, 0).ok());
    return bytes;
  };
  const std::vector<std::byte> pristine = whole(lost);
  ASSERT_TRUE(sim.remove(lost).ok());

  testfs::RecordingFs fs(sim);
  engine.run(2, [&](par::Comm& world) {
    auto report = Ecc::heal(fs, world, "z.ckpt", ecc, buffer);
    ASSERT_TRUE(report.ok()) << report.status().to_string();
    EXPECT_EQ(report.value().healed_files, 1);
  });
  // One pwrite per buffer-sized piece, covering the file exactly.
  ASSERT_EQ(fs.writes.size(), ceil_div(pristine.size(), buffer));
  std::uint64_t at = 0;
  std::uint64_t zero_bytes = 0;
  for (const testfs::RecordingFs::Write& w : fs.writes) {
    EXPECT_EQ(w.path, lost);
    EXPECT_EQ(w.offset, at);
    for (const testfs::RecordingFs::Part& part : w.parts) {
      at += part.size;
      if (part.zero_fill()) zero_bytes += part.size;
    }
  }
  EXPECT_EQ(at, pristine.size());
  EXPECT_GT(zero_bytes, pristine.size() / 2);
  EXPECT_EQ(whole(lost), pristine);
}

// ---------------------------------------------------------------------------
// Seeded mutation of a real parity header, read back through
// Ecc::inspect_parity (parse_parity_header and the completeness check).
// Damage must read as Corrupt or as an incomplete file (intact = false),
// never as a usable header, and must not crash, over-allocate or hang the
// parser.
// ---------------------------------------------------------------------------

// The parity header fields in file order, for rewriting behind a valid CRC.
// `count` is the stored length of the data-length table.
struct ParityFields {
  std::uint32_t version = 0;
  std::uint32_t k = 0;
  std::uint32_t m = 0;
  std::uint32_t index = 0;
  std::uint64_t stripe_bytes = 0;
  std::uint64_t data_start = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t count = 0;
  std::vector<std::uint64_t> data_bytes;
};

ParityFields read_fields(std::span<const std::byte> file) {
  ByteReader r(file.subspan(8));
  ParityFields f;
  f.version = r.get_u32().value();
  f.k = r.get_u32().value();
  f.m = r.get_u32().value();
  f.index = r.get_u32().value();
  f.stripe_bytes = r.get_u64().value();
  f.data_start = r.get_u64().value();
  f.payload_bytes = r.get_u64().value();
  f.data_bytes = r.get_u64_array().value();
  f.count = f.data_bytes.size();
  return f;
}

// `file` with its header replaced by `f`'s, CRC recomputed.
std::vector<std::byte> with_header(std::span<const std::byte> file,
                                   const ParityFields& f) {
  ByteWriter w;
  w.put_bytes(file.first(8));  // magic
  w.put_u32(f.version);
  w.put_u32(f.k);
  w.put_u32(f.m);
  w.put_u32(f.index);
  w.put_u64(f.stripe_bytes);
  w.put_u64(f.data_start);
  w.put_u64(f.payload_bytes);
  w.put_u64(f.count);
  for (const std::uint64_t v : f.data_bytes) w.put_u64(v);
  w.put_u32(crc32c(w.bytes()));
  std::vector<std::byte> out(file.begin(), file.end());
  std::copy(w.bytes().begin(), w.bytes().end(), out.begin());
  return out;
}

class EccHeaderFuzzTest : public ::testing::Test {
 protected:
  static constexpr int kWriters = 16;
  static constexpr int kK = 4;
  // Header bytes through the CRC: magic, 4 u32, 3 u64, the table, the CRC.
  static constexpr std::size_t kHeaderBytes =
      8 + 4 * 4 + 3 * 8 + 8 + kK * 8 + 4;

  EccHeaderFuzzTest() : fs_(fs::TestbedConfig()) {
    spec_.path = "fz.ckpt";
    EccConfig ecc;
    ecc.data_domains = kK;
    ecc.parity_domains = 2;
    spec_.protection = ecc;
    par::Engine engine;
    engine.run(kWriters, [&](par::Comm& world) {
      const auto mine = rank_payload(world.rank());
      ASSERT_TRUE(
          workloads::write_checkpoint(fs_, world, spec_, DataView(mine)).ok());
    });
    clean_ = whole(Ecc::parity_name("fz.ckpt", 0));
  }

  std::vector<std::byte> whole(const std::string& path) {
    auto file = fs_.open_read(path);
    EXPECT_TRUE(file.ok()) << path;
    if (!file.ok()) return {};
    std::vector<std::byte> bytes(file.value()->stat().value().size);
    EXPECT_TRUE(file.value()->pread(bytes, 0).ok());
    return bytes;
  }

  void store(const std::string& path, std::span<const std::byte> bytes) {
    auto file = fs_.create(path);
    ASSERT_TRUE(file.ok()) << path;
    if (!bytes.empty()) {
      ASSERT_TRUE(file.value()->pwrite(DataView(bytes), 0).ok()) << path;
    }
  }

  // Ecc::inspect_parity of `bytes` stored as a file of their own.
  Result<EccParityInfo> inspect(std::span<const std::byte> bytes) {
    store("fuzz.p0", bytes);
    return Ecc::inspect_parity(fs_, "fuzz.p0");
  }

  static void expect_rejected(const Result<EccParityInfo>& info,
                              const std::string& what) {
    if (info.ok()) {
      EXPECT_FALSE(info.value().intact) << what;
    } else {
      EXPECT_EQ(info.status().code(), ErrorCode::kCorrupt)
          << what << ": " << info.status().to_string();
    }
  }

  fs::SimFs fs_;
  workloads::CheckpointSpec spec_;
  std::vector<std::byte> clean_;
};

TEST_F(EccHeaderFuzzTest, SeededMutationFuzzNeverPassesADamagedHeader) {
  const auto pristine = inspect(clean_);
  ASSERT_TRUE(pristine.ok()) << pristine.status().to_string();
  ASSERT_TRUE(pristine.value().intact);
  ASSERT_EQ(pristine.value().k, kK);
  ASSERT_EQ(read_fields(clean_).data_start % 512, 0u);
  ASSERT_GT(clean_.size(), kHeaderBytes + 8);

  // Up to 8 bit flips in the header or the end marker (the parser checks
  // neither the alignment gap nor the payload).
  Rng rng(0xECC5EED);
  int flipped = 0;
  for (int round = 0; round < 500; ++round) {
    std::vector<std::byte> bytes = clean_;
    const int flips = 1 + static_cast<int>(rng.next_below(8));
    for (int f = 0; f < flips; ++f) {
      const auto at =
          static_cast<std::size_t>(rng.next_below(kHeaderBytes + 8));
      const std::size_t pos =
          at < kHeaderBytes ? at : bytes.size() - 8 + (at - kHeaderBytes);
      bytes[pos] ^= static_cast<std::byte>(1u << rng.next_below(8));
    }
    if (bytes == clean_) continue;  // the flips cancelled out
    ++flipped;
    expect_rejected(inspect(bytes), "flip round " + std::to_string(round));
  }
  EXPECT_GT(flipped, 450);

  // Every truncation through the end of the header, then a sample of the
  // longer ones.
  for (std::size_t len = 0; len <= kHeaderBytes; ++len) {
    expect_rejected(
        inspect(std::span<const std::byte>(clean_).first(len)),
        "truncated to " + std::to_string(len));
  }
  for (int round = 0; round < 50; ++round) {
    const auto len = static_cast<std::size_t>(
        kHeaderBytes + rng.next_below(clean_.size() - kHeaderBytes));
    expect_rejected(
        inspect(std::span<const std::byte>(clean_).first(len)),
        "truncated to " + std::to_string(len));
  }
}

TEST_F(EccHeaderFuzzTest, ForgedFieldsBehindAValidCrcAreCorrupt) {
  // Each rewrite recomputes the CRC, so the parse reaches the checks
  // behind it.
  const ParityFields clean = read_fields(clean_);
  ASSERT_EQ(clean.k, static_cast<std::uint32_t>(kK));
  const std::pair<const char*, std::function<void(ParityFields&)>> cases[] = {
      {"version 2", [](ParityFields& f) { f.version = 2; }},
      {"k = 0", [](ParityFields& f) { f.k = 0; }},
      {"k = 256", [](ParityFields& f) { f.k = 256; }},
      {"k = 2^32 - 1", [](ParityFields& f) { f.k = 0xFFFFFFFFu; }},
      {"m = 0", [](ParityFields& f) { f.m = 0; }},
      {"m = 2^32 - 1", [](ParityFields& f) { f.m = 0xFFFFFFFFu; }},
      {"k + m = 256", [](ParityFields& f) { f.m = 252; }},
      {"k + m = 256, k = 250", [](ParityFields& f) { f.k = 250; f.m = 6; }},
      {"index = m", [](ParityFields& f) { f.index = f.m; }},
      {"index = 2^31", [](ParityFields& f) { f.index = 0x80000000u; }},
      {"index = 2^32 - 1", [](ParityFields& f) { f.index = 0xFFFFFFFFu; }},
      {"count = k - 1",
       [](ParityFields& f) {
         f.data_bytes.pop_back();
         f.count = f.data_bytes.size();
       }},
      {"count = k + 1",
       [](ParityFields& f) {
         f.data_bytes.push_back(0);
         f.count = f.data_bytes.size();
       }},
      {"count = k + 1, table of k", [](ParityFields& f) { f.count += 1; }},
      {"count = 2^61", [](ParityFields& f) { f.count = 1ULL << 61; }},
      {"count = 2^64 - 1", [](ParityFields& f) { f.count = ~0ULL; }},
      {"data_start + payload_bytes wraps round to the file's",
       [](ParityFields& f) {
         f.data_start += 1ULL << 63;
         f.payload_bytes += 1ULL << 63;
       }},
  };
  for (const auto& [what, edit] : cases) {
    ParityFields f = clean;
    edit(f);
    const auto info = inspect(with_header(clean_, f));
    ASSERT_FALSE(info.ok()) << what << " parsed as k=" << info.value().k
                            << " m=" << info.value().m
                            << " index=" << info.value().index;
    EXPECT_EQ(info.status().code(), ErrorCode::kCorrupt)
        << what << ": " << info.status().to_string();
  }
  // Geometry that parses but does not match the file is incomplete.
  for (const auto& [what, edit] :
       {std::pair<const char*, std::function<void(ParityFields&)>>{
            "payload_bytes + 1", [](ParityFields& f) { ++f.payload_bytes; }},
        {"data_start + 512", [](ParityFields& f) { f.data_start += 512; }}}) {
    ParityFields f = clean;
    edit(f);
    const auto info = inspect(with_header(clean_, f));
    ASSERT_TRUE(info.ok()) << what << ": " << info.status().to_string();
    EXPECT_FALSE(info.value().intact) << what;
  }
}

// A forged header the probe cannot tell from a good one: data_start 64 bytes
// early and payload_bytes 64 bytes longer, behind a valid CRC, keep the end
// marker where the header says it is. Parity is byte-positional, so the
// shifted parity decodes the lost data file wrongly; the restore must then
// fail on every task rather than return wrong bytes.
TEST_F(EccHeaderFuzzTest, ShiftedDataStartFailsTheRestoreOnEveryTask) {
  ParityFields f = read_fields(clean_);
  f.data_start -= 64;
  f.payload_bytes += 64;
  const std::string parity0 = Ecc::parity_name("fz.ckpt", 0);
  store(parity0, with_header(clean_, f));
  const auto info = Ecc::inspect_parity(fs_, parity0);
  ASSERT_TRUE(info.ok()) << info.status().to_string();
  EXPECT_TRUE(info.value().intact);

  ASSERT_TRUE(fs_.remove(core::physical_file_name("fz.ckpt", 1, kK)).ok());
  auto probe =
      Ecc::probe(fs_, "fz.ckpt", std::get<EccConfig>(spec_.protection));
  ASSERT_TRUE(probe.ok()) << probe.status().to_string();
  EXPECT_EQ(probe.value().parity_ok[0], 1);
  EXPECT_EQ(probe.value().data_ok[1], 0);

  const std::vector<std::byte> expect = concatenated_payload(kWriters);
  constexpr int kTasks = 8;
  workloads::CheckpointSpec spec = spec_;
  spec.restart_ntasks = kTasks;
  int failures = 0;
  par::Engine engine;
  engine.run(kTasks, [&](par::Comm& world) {
    const std::uint64_t lo = share_offset(expect.size(), kTasks, world.rank());
    const std::uint64_t hi =
        share_offset(expect.size(), kTasks, world.rank() + 1);
    std::vector<std::byte> mine(hi - lo);
    const Status st =
        workloads::read_checkpoint(fs_, world, spec, mine.size(), mine);
    if (!st.ok()) {
      // The decoded file's metablock 1 fails its magic on the task that
      // opens it, and the agreement carries that to the others.
      EXPECT_EQ(st.code(), ErrorCode::kCorrupt) << st.to_string();
      ++failures;
      return;
    }
    EXPECT_TRUE(std::equal(mine.begin(), mine.end(),
                           expect.begin() + static_cast<std::ptrdiff_t>(lo)))
        << "task " << world.rank() << " restored wrong bytes";
  });
  EXPECT_EQ(failures, kTasks);
}

INSTANTIATE_TEST_SUITE_P(PlainAndCollective, EccFaultTest,
                         ::testing::Values(false, true),
                         [](const auto& param_info) {
                           return param_info.param ? "CollectivePacked"
                                                   : "Plain";
                         });

}  // namespace
}  // namespace sion::ext
