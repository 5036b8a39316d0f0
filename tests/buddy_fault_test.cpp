// Buddy-redundancy fault battery: checkpoints written with ext::Buddy must
// restore byte-identically after the loss of any r-1 failure domains —
// whole physical files deleted, silently truncated, or erroring at
// open/read time — at any restart scale M, for plain and collective/kPacked
// layouts alike. The one behavior these tests exist to forbid is a restore
// that "succeeds" with wrong bytes; unrecoverable scenarios must fail
// cleanly on every task instead of hanging or fabricating data.
#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.h"
#include "common/units.h"
#include "core/api.h"
#include "ext/buddy.h"
#include "fs/sim/fault.h"
#include "fs/sim/machine.h"
#include "fs/sim/simfs.h"
#include "fs_wrappers.h"
#include "par/comm.h"
#include "par/engine.h"
#include "workloads/checkpoint.h"

namespace sion::ext {
namespace {

using fs::DataView;
using fs::FaultPlan;

// Size and content both vary with the rank so any mis-routed or stale byte
// range is detected.
std::vector<std::byte> rank_payload(int rank) {
  std::vector<std::byte> data(512 + 37 * static_cast<std::size_t>(rank));
  Rng rng(7700 + static_cast<std::uint64_t>(rank));
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

// Parameter: collective/kPacked aggregation on or off (both the primary
// and the replica copy traffic route through it).
class BuddyFaultTest : public ::testing::TestWithParam<bool> {
 protected:
  BuddyFaultTest() : fs_(fs::TestbedConfig()) {}

  workloads::CheckpointSpec buddy_spec(const std::string& path, int domains,
                                       int replicas) {
    workloads::CheckpointSpec spec;
    spec.path = path;
    ext::BuddyConfig buddy;
    buddy.replicas = replicas;
    buddy.num_domains = domains;
    spec.protection = buddy;
    if (GetParam()) {
      CollectiveConfig aggregation;
      aggregation.alignment = CollectiveConfig::Alignment::kPacked;
      aggregation.group_size = 8;
      spec.collective = aggregation;
    }
    return spec;
  }

  void write_buddy(int nwriters, const workloads::CheckpointSpec& spec) {
    par::Engine engine;
    engine.run(nwriters, [&](par::Comm& world) {
      const auto mine = rank_payload(world.rank());
      ASSERT_TRUE(
          workloads::write_checkpoint(fs_, world, spec, DataView(mine)).ok());
    });
  }

  // Every file OWNED by failure domain `d`: the primary physical file d and
  // file index d of every replica set (which holds other domains' streams —
  // losing a domain takes its storage, not its data's other copies).
  std::vector<std::string> files_owned_by(const std::string& name, int d,
                                          int domains, int replicas) {
    std::vector<std::string> owned;
    owned.push_back(core::physical_file_name(name, d, domains));
    for (int k = 1; k < replicas; ++k) {
      owned.push_back(core::physical_file_name(Buddy::replica_name(name, k),
                                               d, domains));
    }
    return owned;
  }

  void lose_domain(const std::string& name, int d, int domains, int replicas) {
    for (const std::string& path :
         files_owned_by(name, d, domains, replicas)) {
      if (fs_.exists(path)) {
        ASSERT_TRUE(fs_.remove(path).ok());
      }
    }
  }

  // Restore at `mtasks` through the workloads buddy path and compare every
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
// Acceptance core: r = 2, D = 4, N = 64 — after losing ANY single failure
// domain (primary file + its replica-set files), the checkpoint restores
// byte-identically at M in {1, N/4, N, 4N}.
// ---------------------------------------------------------------------------

TEST_P(BuddyFaultTest, AnySingleDomainLossRestoresAtAllScales) {
  const int kWriters = 64;
  const int kDomains = 4;
  const int kReplicas = 2;
  for (int d = 0; d < kDomains; ++d) {
    SCOPED_TRACE(testing::Message() << "lost domain " << d);
    const std::string name = "r2d" + std::to_string(d) + ".ckpt";
    const auto spec = buddy_spec(name, kDomains, kReplicas);
    write_buddy(kWriters, spec);
    lose_domain(name, d, kDomains, kReplicas);
    for (const int mtasks : {1, 16, 64, 256}) {
      SCOPED_TRACE(testing::Message() << "restart at " << mtasks);
      restore_and_check(kWriters, mtasks, spec);
      // Re-damage the healed primary so every M exercises the heal, not
      // just the first (the replicas survive, so the loss stays r-1).
      ASSERT_TRUE(
          fs_.remove(core::physical_file_name(name, d, kDomains)).ok());
    }
  }
}

// r = 3, D = 4: every PAIR of lost domains is survivable.
TEST_P(BuddyFaultTest, AnyTwoDomainLossesRestoreWithTripleRedundancy) {
  const int kWriters = 32;
  const int kDomains = 4;
  const int kReplicas = 3;
  for (int d1 = 0; d1 < kDomains; ++d1) {
    for (int d2 = d1 + 1; d2 < kDomains; ++d2) {
      SCOPED_TRACE(testing::Message() << "lost domains " << d1 << "," << d2);
      const std::string name =
          "r3d" + std::to_string(d1) + std::to_string(d2) + ".ckpt";
      const auto spec = buddy_spec(name, kDomains, kReplicas);
      write_buddy(kWriters, spec);
      lose_domain(name, d1, kDomains, kReplicas);
      lose_domain(name, d2, kDomains, kReplicas);
      restore_and_check(kWriters, /*mtasks=*/8, spec);
    }
  }
}

TEST_P(BuddyFaultTest, TwoDomainLossRestoresAtAllScales) {
  const int kWriters = 32;
  const auto spec = buddy_spec("r3m.ckpt", /*domains=*/4, /*replicas=*/3);
  write_buddy(kWriters, spec);
  lose_domain("r3m.ckpt", 0, 4, 3);
  lose_domain("r3m.ckpt", 2, 4, 3);
  for (const int mtasks : {1, 8, 32, 128}) {
    SCOPED_TRACE(testing::Message() << "restart at " << mtasks);
    restore_and_check(kWriters, mtasks, spec);
    ASSERT_TRUE(fs_.remove(core::physical_file_name("r3m.ckpt", 0, 4)).ok());
    ASSERT_TRUE(fs_.remove(core::physical_file_name("r3m.ckpt", 2, 4)).ok());
  }
}

// ---------------------------------------------------------------------------
// Replica sets are complete, identity-preserving multifiles: the plain
// same-scale reader restores every rank's own stream from a replica alone.
// ---------------------------------------------------------------------------

TEST_P(BuddyFaultTest, ReplicaSetReadsLikeAnOrdinaryMultifile) {
  const int kWriters = 16;
  const auto spec = buddy_spec("rep.ckpt", /*domains=*/4, /*replicas=*/2);
  write_buddy(kWriters, spec);
  par::Engine engine;
  engine.run(kWriters, [&](par::Comm& world) {
    auto sion = core::SionParFile::open_read(
        fs_, world, Buddy::replica_name("rep.ckpt", 1));
    ASSERT_TRUE(sion.ok()) << sion.status().to_string();
    const auto expect = rank_payload(world.rank());
    std::vector<std::byte> back(expect.size());
    auto got = sion.value()->read(back);
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    EXPECT_EQ(got.value(), expect.size());
    EXPECT_EQ(back, expect);
    ASSERT_TRUE(sion.value()->close().ok());
  });
}

// Multi-block streams (chunks smaller than the payload) mirror and heal
// correctly through the direct ext::Buddy API.
TEST_P(BuddyFaultTest, MultiBlockStreamsSurviveDomainLoss) {
  const int kWriters = 12;
  const int kDomains = 3;
  BuddyConfig config;
  config.replicas = 2;
  config.num_domains = kDomains;
  CollectiveConfig aggregation;
  aggregation.group_size = 4;
  par::Engine engine;
  engine.run(kWriters, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "blocks.ckpt";
    spec.chunksize = 700;  // several blocks per 1.5-4 KiB stream
    spec.fsblksize = 512;
    const auto mine = rank_payload(world.rank() + 40);
    ASSERT_TRUE(Buddy::write(fs_, world, spec, config, DataView(mine),
                             GetParam() ? &aggregation : nullptr)
                    .ok());
  });
  ASSERT_TRUE(fs_.remove(core::physical_file_name("blocks.ckpt", 1, 3)).ok());
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
    auto stats = Buddy::restore(fs_, world, "blocks.ckpt", config, mine,
                                mine.size());
    ASSERT_TRUE(stats.ok()) << stats.status().to_string();
    std::memcpy(got.data() + lo, mine.data(), mine.size());
  });
  EXPECT_EQ(got, expect);
}

// ---------------------------------------------------------------------------
// FaultPlan-driven scenarios
// ---------------------------------------------------------------------------

TEST_P(BuddyFaultTest, FaultPlanGlobTakesWholeDomain) {
  const int kWriters = 16;
  const auto spec = buddy_spec("g.ckpt", /*domains=*/4, /*replicas=*/2);
  write_buddy(kWriters, spec);
  // One glob takes every file owned by domain 2 (primary and replica sets
  // share the .000002 suffix).
  FaultPlan plan;
  plan.lose("*.000002");
  fs_.arm_faults(plan);
  EXPECT_EQ(fs_.fault_counters().files_lost, 2u);
  restore_and_check(kWriters, /*mtasks=*/16, spec);
}

TEST_P(BuddyFaultTest, SilentTruncationIsDetectedAndHealed) {
  const int kWriters = 16;
  const auto spec = buddy_spec("t.ckpt", /*domains=*/4, /*replicas=*/2);
  write_buddy(kWriters, spec);
  // Silently chop the primary file of domain 1 mid-data: no error surfaces
  // until something validates it — the probe must catch the missing
  // metablock 2 and heal from the replica instead of reading short.
  FaultPlan plan;
  plan.truncate(core::physical_file_name("t.ckpt", 1, 4), 900);
  fs_.arm_faults(plan);
  EXPECT_EQ(fs_.fault_counters().files_truncated, 1u);
  restore_and_check(kWriters, /*mtasks=*/7, spec);
}

TEST_P(BuddyFaultTest, OpenErrorOnFirstReplicaFallsToSecond) {
  const int kWriters = 12;
  const auto spec = buddy_spec("o.ckpt", /*domains=*/3, /*replicas=*/3);
  write_buddy(kWriters, spec);
  lose_domain("o.ckpt", 0, 3, 3);
  // Domain 0's first candidate (file 1 of set b1) refuses to open: the
  // probe must fall through to set b2.
  FaultPlan plan;
  plan.open_error(
      core::physical_file_name(Buddy::replica_name("o.ckpt", 1), 1, 3));
  fs_.arm_faults(plan);
  restore_and_check(kWriters, /*mtasks=*/12, spec);
  EXPECT_GT(fs_.fault_counters().open_errors, 0u);
}

TEST_P(BuddyFaultTest, FlakyReplicaReadsStillRecoverWithTripleRedundancy) {
  const int kWriters = 12;
  const auto spec = buddy_spec("f.ckpt", /*domains=*/3, /*replicas=*/3);
  write_buddy(kWriters, spec);
  lose_domain("f.ckpt", 1, 3, 3);
  // Every read of the first candidate fails half the time (seeded): whether
  // the probe or the heal copy hits the fault, the battery must converge on
  // the healthy second candidate and restore exact bytes.
  FaultPlan plan;
  plan.seed = 99;
  plan.read_error(
      core::physical_file_name(Buddy::replica_name("f.ckpt", 1), 2, 3), 0.5);
  fs_.arm_faults(plan);
  restore_and_check(kWriters, /*mtasks=*/5, spec);
}

TEST_P(BuddyFaultTest, DegradedBandwidthSlowsRestoreButStaysCorrect) {
  const int kWriters = 16;
  const auto spec = buddy_spec("d.ckpt", /*domains=*/4, /*replicas=*/2);
  write_buddy(kWriters, spec);

  const auto timed_restore = [&]() {
    par::Engine engine;
    const std::vector<std::byte> expect = concatenated_payload(kWriters);
    const double t0 = engine.epoch();
    std::vector<std::byte> got(expect.size());
    workloads::CheckpointSpec restart = spec;
    restart.restart_ntasks = 8;
    engine.run(8, [&](par::Comm& world) {
      const std::uint64_t lo = share_offset(expect.size(), 8, world.rank());
      const std::uint64_t hi =
          share_offset(expect.size(), 8, world.rank() + 1);
      std::vector<std::byte> mine(hi - lo);
      ASSERT_TRUE(workloads::read_checkpoint(fs_, world, restart, mine.size(),
                                             mine)
                      .ok());
      std::memcpy(got.data() + lo, mine.data(), mine.size());
    });
    EXPECT_EQ(got, expect);
    return engine.epoch() - t0;
  };

  fs_.drop_caches();
  const double healthy = timed_restore();
  fs_.drop_caches();
  FaultPlan plan;
  plan.degrade("d.ckpt*", 0.25);  // every copy runs at quarter speed
  fs_.arm_faults(plan);
  const double degraded = timed_restore();
  EXPECT_GT(degraded, healthy);
  EXPECT_GT(fs_.fault_counters().degraded_ops, 0u);
}

// ---------------------------------------------------------------------------
// Unrecoverable and invalid configurations fail cleanly everywhere.
// ---------------------------------------------------------------------------

TEST_P(BuddyFaultTest, LosingAllCopiesFailsCleanlyOnEveryTask) {
  const int kWriters = 8;
  const auto spec = buddy_spec("dead.ckpt", /*domains=*/2, /*replicas=*/2);
  write_buddy(kWriters, spec);
  lose_domain("dead.ckpt", 0, 2, 2);
  lose_domain("dead.ckpt", 1, 2, 2);  // r domains lost > r-1 budget
  BuddyConfig config;
  config.replicas = 2;
  config.num_domains = 2;
  par::Engine engine;
  int failures = 0;
  engine.run(6, [&](par::Comm& world) {
    auto stats = Buddy::restore(fs_, world, "dead.ckpt", config, {}, 0);
    EXPECT_FALSE(stats.ok());
    EXPECT_EQ(stats.status().code(), ErrorCode::kIoError)
        << stats.status().to_string();
    ++failures;
  });
  EXPECT_EQ(failures, 6);
}

TEST_P(BuddyFaultTest, InvalidConfigurationsAreRejected) {
  par::Engine engine;
  engine.run(8, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "bad.ckpt";
    spec.chunksize = 1024;

    BuddyConfig too_many;
    too_many.replicas = 5;
    too_many.num_domains = 4;
    auto st = Buddy::write(fs_, world, spec, too_many,
                           DataView::fill(std::byte{1}, 10));
    EXPECT_EQ(st.code(), ErrorCode::kInvalidArgument);

    BuddyConfig uneven;
    uneven.replicas = 2;
    uneven.num_domains = 3;  // 8 % 3 != 0
    st = Buddy::write(fs_, world, spec, uneven,
                      DataView::fill(std::byte{1}, 10));
    EXPECT_EQ(st.code(), ErrorCode::kInvalidArgument);

    BuddyConfig frames;
    frames.replicas = 2;
    frames.num_domains = 2;
    core::ParOpenSpec framed = spec;
    framed.chunk_frames = true;
    st = Buddy::write(fs_, world, framed, frames,
                      DataView::fill(std::byte{1}, 10));
    EXPECT_EQ(st.code(), ErrorCode::kInvalidArgument);
  });
}

// ---------------------------------------------------------------------------
// Heal report plumbing
// ---------------------------------------------------------------------------

TEST_P(BuddyFaultTest, HealReportsWhatItRepaired) {
  const int kWriters = 16;
  const auto spec = buddy_spec("h.ckpt", /*domains=*/4, /*replicas=*/2);
  write_buddy(kWriters, spec);
  lose_domain("h.ckpt", 3, 4, 2);
  BuddyConfig config;
  config.replicas = 2;
  config.num_domains = 4;
  par::Engine engine;
  engine.run(3, [&](par::Comm& world) {
    auto report = Buddy::heal(fs_, world, "h.ckpt", config);
    ASSERT_TRUE(report.ok()) << report.status().to_string();
    EXPECT_EQ(report.value().domains, 4);
    EXPECT_EQ(report.value().replicas, 2);
    EXPECT_EQ(report.value().damaged_files, 1);
    EXPECT_EQ(report.value().healed_files, 1);
    EXPECT_GT(report.value().bytes_copied, 0u);
  });
  // A second pass finds a whole set: nothing to do.
  engine.run(2, [&](par::Comm& world) {
    auto report = Buddy::heal(fs_, world, "h.ckpt", config);
    ASSERT_TRUE(report.ok()) << report.status().to_string();
    EXPECT_EQ(report.value().damaged_files, 0);
    EXPECT_EQ(report.value().healed_files, 0);
  });
}

// The mirror writer's open of a replica file fails on a task that is not
// that file's master: the write fails on every task, and the failing task
// reports the open's own error.
TEST(BuddyOpenFailureTest, ReplicaOpenFailureFailsEveryTask) {
  fs::SimFs sim(fs::TestbedConfig());
  // Domains of two ranks: rank 3 is slot 1 of the file domain 1 hosts.
  testfs::FailOpenFs fs(sim, /*rank=*/3, Buddy::replica_name("m.ckpt", 1));
  BuddyConfig config;
  config.replicas = 2;
  config.num_domains = 4;
  par::Engine engine;
  engine.run(8, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "m.ckpt";
    spec.chunksize = 4 * kKiB;
    const auto mine = rank_payload(world.rank());
    const Status st = Buddy::write(fs, world, spec, config, DataView(mine));
    ASSERT_FALSE(st.ok());
    if (world.rank() == 3) {
      EXPECT_EQ(st.code(), ErrorCode::kIoError);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(PlainAndCollective, BuddyFaultTest,
                         ::testing::Values(false, true),
                         [](const auto& param_info) {
                           return param_info.param ? "CollectivePacked"
                                                   : "Plain";
                         });

}  // namespace
}  // namespace sion::ext
