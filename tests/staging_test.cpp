// Staging battery (ctest label: staging): the asynchronous multi-tier
// checkpoint path behind workloads::CheckpointSession + ext::Staging.
//
// What these tests pin down: (1) the redesigned session API in sync mode is
// cost-identical to the legacy one-shot free functions, (2) a staged
// write_async blocks only for the fast-tier absorb while the drain overlaps
// compute, (3) the double-buffer invariant — a slot's previous occupant is
// drained before it is overwritten, (4) a fast-tier fault (kLost/kTruncate)
// mid-drain fails the wait on every rank and restore_latest falls back to
// the last durable checkpoint, (5) buddy replicas fabricated at drain time
// are real, heal-able files, (6) the burst-buffer capacity check rejects
// over-committed nodes, and (7) staged runs are bit-deterministic.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "common/units.h"
#include "core/metadata.h"
#include "core/par_file.h"
#include "ext/buddy.h"
#include "ext/staging.h"
#include "fs/sim/fault.h"
#include "fs/sim/machine.h"
#include "fs/sim/simfs.h"
#include "par/comm.h"
#include "par/engine.h"
#include "workloads/checkpoint.h"
#include "workloads/checkpoint_session.h"

namespace sion::workloads {
namespace {

using fs::DataView;
using fs::FaultPlan;

// Content varies with both rank and checkpoint index so a restore that
// lands on the wrong checkpoint (or the wrong stream) is detected.
std::vector<std::byte> payload_of(int rank, std::uint64_t index,
                                  std::uint64_t bytes) {
  std::vector<std::byte> data(bytes);
  Rng rng(0x57a6 + 977 * index + static_cast<std::uint64_t>(rank));
  rng.fill_bytes(data);
  return data;
}

// Run `body` on `n` tasks over a fresh engine and return the makespan.
template <typename Fn>
double makespan(par::Engine& engine, int n, Fn&& body) {
  const double t0 = engine.epoch();
  engine.run(n, std::forward<Fn>(body));
  return engine.epoch() - t0;
}

// Testbed parallel tier with a burst-buffer tier in front: 4 tasks per
// node, absorb at 4 GB/s per node (≫ the 1 GB/s parallel tier), drain at
// 200 MB/s per node. With 8 tasks that is 2 burst-buffer nodes.
fs::SimConfig staged_machine() {
  fs::SimConfig machine = fs::TestbedConfig();
  machine.burst_buffer.tasks_per_node = 4;
  machine.burst_buffer.node_bandwidth = 4.0e9;
  machine.burst_buffer.drain_bandwidth = 200.0e6;
  return machine;
}

CheckpointSpec staged_spec(const std::string& path, fs::FileSystem& fast) {
  CheckpointSpec spec;
  spec.path = path;
  ext::StagingConfig staging;
  staging.fast_tier = &fast;
  spec.staging = staging;
  return spec;
}

// --- API equivalence -------------------------------------------------------

// The one-shot free functions survive as wrappers over CheckpointSession;
// a sync-mode session must cost exactly what the legacy call costs, for
// every strategy (open/close add no I/O and no collectives).
TEST(CheckpointSessionTest, SyncSessionCostMatchesLegacyFreeFunction) {
  for (const IoStrategy strategy :
       {IoStrategy::kSion, IoStrategy::kSingleFileSeq,
        IoStrategy::kTaskLocal}) {
    CheckpointSpec spec;
    spec.path = "eq.ckpt";
    spec.strategy = strategy;
    const int n = 8;
    double t_legacy = 0.0;
    {
      fs::SimFs fs(fs::TestbedConfig());
      par::Engine engine;
      t_legacy = makespan(engine, n, [&](par::Comm& world) {
        const auto mine = payload_of(world.rank(), 0, 256 * kKiB);
        ASSERT_TRUE(write_checkpoint(fs, world, spec, DataView(mine)).ok());
      });
    }
    double t_session = 0.0;
    {
      fs::SimFs fs(fs::TestbedConfig());
      par::Engine engine;
      t_session = makespan(engine, n, [&](par::Comm& world) {
        const auto mine = payload_of(world.rank(), 0, 256 * kKiB);
        auto session = CheckpointSession::open(fs, world, spec);
        ASSERT_TRUE(session.ok()) << session.status().to_string();
        auto ticket = session.value()->write_async(DataView(mine));
        ASSERT_TRUE(ticket.ok()) << ticket.status().to_string();
        ASSERT_TRUE(session.value()->wait(ticket.value()).ok());
        ASSERT_TRUE(session.value()->close().ok());
      });
    }
    EXPECT_EQ(t_legacy, t_session)
        << "sync session diverged from write_checkpoint for strategy "
        << static_cast<int>(strategy);
  }
}

// A checkpoint written through the session is readable through the legacy
// read_checkpoint wrapper (index 0 keeps the legacy name).
TEST(CheckpointSessionTest, LegacyReaderOpensSessionCheckpoint) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  engine.run(4, [&](par::Comm& world) {
    CheckpointSpec spec;
    spec.path = "compat.sion";
    const auto mine = payload_of(world.rank(), 0, 64 * kKiB);
    auto session = CheckpointSession::open(fs, world, spec);
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(session.value()->write_async(DataView(mine)).ok());
    ASSERT_TRUE(session.value()->close().ok());
    std::vector<std::byte> back(mine.size());
    ASSERT_TRUE(read_checkpoint(fs, world, spec, mine.size(), back).ok());
    EXPECT_EQ(back, mine);
  });
}

// --- staged happy path -----------------------------------------------------

TEST(StagingSessionTest, StagedRoundtripAndRestoreLatest) {
  const int n = 8;
  const std::uint64_t bytes = 256 * kKiB;
  fs::SimConfig machine = staged_machine();
  fs::SimFs pfs(machine);
  fs::SimFs bb(fs::BurstBufferTierConfig(machine, n));
  const CheckpointSpec spec = staged_spec("rt.sion", bb);
  par::Engine engine;
  engine.run(n, [&](par::Comm& world) {
    auto session = CheckpointSession::open(pfs, world, spec);
    ASSERT_TRUE(session.ok()) << session.status().to_string();
    for (std::uint64_t k = 0; k < 3; ++k) {
      const auto mine = payload_of(world.rank(), k, bytes);
      auto ticket = session.value()->write_async(DataView(mine));
      ASSERT_TRUE(ticket.ok()) << ticket.status().to_string();
      EXPECT_EQ(ticket.value().index, k);
      par::this_task()->compute(1.0e-3);
    }
    ASSERT_TRUE(session.value()->close().ok());
    const auto& records = session.value()->history();
    ASSERT_EQ(records.size(), 3u);
    for (const auto& rec : records) {
      EXPECT_EQ(rec.state, CheckpointSession::State::kComplete);
      EXPECT_GT(rec.complete_vtime, rec.snapshot_vtime);
    }
    EXPECT_EQ(records[0].name, "rt.sion");
    EXPECT_EQ(records[1].name, "rt.sion.v1");
    EXPECT_EQ(records[2].name, "rt.sion.v2");
  });
  // The manifest names checkpoint 2 as the newest durable one; a fresh job
  // restores it (every rank gets its own stream back).
  par::Engine restart;
  restart.run(n, [&](par::Comm& world) {
    std::vector<std::byte> back(bytes);
    auto restored =
        CheckpointSession::restore_latest(pfs, world, spec, bytes, back);
    ASSERT_TRUE(restored.ok()) << restored.status().to_string();
    EXPECT_EQ(restored.value(), 2u);
    EXPECT_EQ(back, payload_of(world.rank(), 2, bytes));
  });
  // Earlier versioned checkpoints stay addressable by index.
  par::Engine again;
  again.run(n, [&](par::Comm& world) {
    std::vector<std::byte> back(bytes);
    ASSERT_TRUE(
        CheckpointSession::restore(pfs, world, spec, 1, bytes, back).ok());
    EXPECT_EQ(back, payload_of(world.rank(), 1, bytes));
  });
}

// A manifest index whose successor does not fit in 64 bits is corrupt on
// every task; it must not wrap round to checkpoint 0, which exists.
TEST(CheckpointSessionTest, ManifestIndexPastU64IsCorrupt) {
  const int n = 4;
  const std::uint64_t bytes = 4 * kKiB;
  fs::SimFs pfs(fs::TestbedConfig());
  CheckpointSpec spec;
  spec.path = "wrap.sion";
  par::Engine engine;
  engine.run(n, [&](par::Comm& world) {
    const auto mine = payload_of(world.rank(), 0, bytes);
    ASSERT_TRUE(write_checkpoint(pfs, world, spec, DataView(mine)).ok());
  });
  for (const std::string& digits :
       {std::string("18446744073709551615"),
        std::string("18446744073709551616"), std::string(32, '9')}) {
    engine.run(n, [&](par::Comm& world) {
      if (world.rank() == 0) {
        auto file = pfs.create("wrap.sion.manifest");
        ASSERT_TRUE(file.ok()) << file.status().to_string();
        ASSERT_TRUE(
            file.value()
                ->pwrite(DataView(std::as_bytes(std::span(digits))), 0)
                .ok());
      }
      world.barrier();
      std::vector<std::byte> back(bytes);
      auto restored =
          CheckpointSession::restore_latest(pfs, world, spec, bytes, back);
      ASSERT_FALSE(restored.ok()) << digits << " restored index "
                                  << restored.value();
      EXPECT_EQ(restored.status().code(), ErrorCode::kCorrupt)
          << digits << ": " << restored.status().to_string();
    });
  }
}

// The tentpole claim: a staged write_async blocks only for the fast-tier
// absorb, far less than the synchronous parallel-tier write, and the drain
// completes later, in the background, while compute proceeds.
TEST(StagingSessionTest, WriteAsyncOverlapsDrainWithCompute) {
  const int n = 8;
  const std::uint64_t bytes = 2 * kMiB;
  double sync_block = 0.0;
  {
    fs::SimFs fs(fs::TestbedConfig());
    par::Engine engine;
    engine.run(n, [&](par::Comm& world) {
      CheckpointSpec spec;
      spec.path = "sync.sion";
      const auto mine = payload_of(world.rank(), 0, bytes);
      auto session = CheckpointSession::open(fs, world, spec);
      ASSERT_TRUE(session.ok());
      const double t0 = par::this_task()->now();
      ASSERT_TRUE(session.value()->write_async(DataView(mine)).ok());
      if (world.rank() == 0) sync_block = par::this_task()->now() - t0;
      ASSERT_TRUE(session.value()->close().ok());
    });
  }
  double staged_block = 0.0;
  double staged_return_vtime = 0.0;
  double staged_complete_vtime = 0.0;
  {
    fs::SimConfig machine = staged_machine();
    fs::SimFs pfs(machine);
    fs::SimFs bb(fs::BurstBufferTierConfig(machine, n));
    const CheckpointSpec spec = staged_spec("async.sion", bb);
    par::Engine engine;
    engine.run(n, [&](par::Comm& world) {
      const auto mine = payload_of(world.rank(), 0, bytes);
      auto session = CheckpointSession::open(pfs, world, spec);
      ASSERT_TRUE(session.ok()) << session.status().to_string();
      const double t0 = par::this_task()->now();
      ASSERT_TRUE(session.value()->write_async(DataView(mine)).ok());
      if (world.rank() == 0) {
        staged_block = par::this_task()->now() - t0;
        staged_return_vtime = par::this_task()->now();
      }
      ASSERT_TRUE(session.value()->close().ok());
      if (world.rank() == 0) {
        staged_complete_vtime = session.value()->history()[0].complete_vtime;
      }
    });
  }
  // The absorb is much cheaper than the synchronous parallel-tier write...
  EXPECT_LT(staged_block * 4.0, sync_block);
  // ...and durability arrives later, off the application's critical path.
  EXPECT_GT(staged_complete_vtime, staged_return_vtime);
}

// --- double buffering ------------------------------------------------------

// Slot reuse must wait for the previous occupant's drain (no undrained
// buffer is ever overwritten), while the slot *not* being reused drains
// genuinely in the background.
TEST(StagingTest, SlotReuseWaitsForEviction) {
  const int n = 8;
  fs::SimConfig machine = staged_machine();
  fs::SimFs pfs(machine);
  fs::SimFs bb(fs::BurstBufferTierConfig(machine, n));
  par::Engine engine;
  engine.run(n, [&](par::Comm& world) {
    ext::StagingConfig config;
    config.fast_tier = &bb;
    core::ParOpenSpec sion;
    sion.filename = "db.sion";
    auto staging = ext::Staging::open(pfs, world, config, sion, std::nullopt,
                                      std::nullopt);
    ASSERT_TRUE(staging.ok()) << staging.status().to_string();
    for (std::uint64_t k = 0; k < 5; ++k) {
      const auto mine = payload_of(world.rank(), k, 512 * kKiB);
      auto finish = staging.value()->write(
          k, DataView(mine), strformat("db.out%d", static_cast<int>(k)));
      ASSERT_TRUE(finish.ok()) << finish.status().to_string();
      par::this_task()->compute(1.0e-3);
    }
    ASSERT_TRUE(staging.value()->drain_all().ok());
    const auto& hist = staging.value()->history();
    ASSERT_EQ(hist.size(), 5u);
    for (const auto& info : hist) {
      EXPECT_EQ(info.state, ext::Staging::SlotState::kDrained);
      EXPECT_GT(info.drain_finish, info.drain_start);
    }
    // Checkpoint 1 is absorbed while checkpoint 0 still drains (the point
    // of the second buffer)...
    EXPECT_LT(hist[1].drain_start, hist[0].drain_finish);
    // ...but checkpoint k reuses k-2's slot only after k-2 became durable.
    for (std::size_t k = 2; k < hist.size(); ++k) {
      EXPECT_GE(hist[k].drain_start, hist[k - 2].drain_finish);
    }
    EXPECT_EQ(staging.value()->last_drained(), std::optional<std::uint64_t>(4));
  });
}

// Over-committing a node's burst buffer is rejected up front: with a 6 MiB
// node capacity and 4 MiB checkpoints per node, the second in-flight
// checkpoint cannot be staged while the first still occupies its slot.
TEST(StagingTest, NodeCapacityOverflowIsRejected) {
  const int n = 8;
  fs::SimConfig machine = staged_machine();
  machine.burst_buffer.node_capacity = 6 * kMiB;
  fs::SimFs pfs(machine);
  fs::SimFs bb(fs::BurstBufferTierConfig(machine, n));
  const CheckpointSpec spec = staged_spec("cap.sion", bb);
  par::Engine engine;
  engine.run(n, [&](par::Comm& world) {
    auto session = CheckpointSession::open(pfs, world, spec);
    ASSERT_TRUE(session.ok()) << session.status().to_string();
    const auto first = payload_of(world.rank(), 0, kMiB);
    ASSERT_TRUE(session.value()->write_async(DataView(first)).ok());
    const auto second = payload_of(world.rank(), 1, kMiB);
    auto ticket = session.value()->write_async(DataView(second));
    ASSERT_FALSE(ticket.ok());
    EXPECT_NE(ticket.status().to_string().find("burst buffer"),
              std::string::npos)
        << ticket.status().to_string();
    // The first checkpoint is unaffected and still drains cleanly.
    EXPECT_TRUE(session.value()->close().ok());
  });
}

// --- fast-tier faults mid-drain --------------------------------------------

// Shared scenario: checkpoint 0 drains durably, checkpoint 1's staged slot
// files are damaged before its materialisation. The wait must fail on
// every rank and restore_latest must return checkpoint 0's bytes.
void run_mid_drain_fault(const FaultPlan& plan) {
  const int n = 8;
  const std::uint64_t bytes = 256 * kKiB;
  fs::SimConfig machine = staged_machine();
  fs::SimFs pfs(machine);
  fs::SimFs bb(fs::BurstBufferTierConfig(machine, n));
  const CheckpointSpec spec = staged_spec("ft.sion", bb);
  par::Engine engine;
  engine.run(n, [&](par::Comm& world) {
    auto session = CheckpointSession::open(pfs, world, spec);
    ASSERT_TRUE(session.ok()) << session.status().to_string();
    const auto p0 = payload_of(world.rank(), 0, bytes);
    auto t0 = session.value()->write_async(DataView(p0));
    ASSERT_TRUE(t0.ok());
    ASSERT_TRUE(session.value()->wait(t0.value()).ok());

    const auto p1 = payload_of(world.rank(), 1, bytes);
    auto t1 = session.value()->write_async(DataView(p1));
    ASSERT_TRUE(t1.ok());
    // The failure hits the fast tier while checkpoint 1 is in flight:
    // destructive rules apply at arm time, before the lazy materialisation.
    if (world.rank() == 0) bb.arm_faults(plan);
    world.barrier();
    EXPECT_FALSE(session.value()->wait(t1.value()).ok());
    // The loss was reported by the wait; nothing is left in flight, so the
    // close itself succeeds (it must not re-raise an already-reaped error).
    EXPECT_TRUE(session.value()->close().ok());
    const auto& records = session.value()->history();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].state, CheckpointSession::State::kComplete);
    EXPECT_EQ(records[1].state, CheckpointSession::State::kFailed);
  });
  // Recovery: the manifest still names checkpoint 0, whose bytes are
  // intact on the parallel tier.
  par::Engine restart;
  restart.run(n, [&](par::Comm& world) {
    std::vector<std::byte> back(bytes);
    auto restored =
        CheckpointSession::restore_latest(pfs, world, spec, bytes, back);
    ASSERT_TRUE(restored.ok()) << restored.status().to_string();
    EXPECT_EQ(restored.value(), 0u);
    EXPECT_EQ(back, payload_of(world.rank(), 0, bytes));
  });
}

TEST(StagingFaultTest, LostSlotFileFailsWaitAndRecoversToPrevious) {
  FaultPlan plan;
  plan.seed = 11;
  plan.lose("bb/*.slot1*");
  run_mid_drain_fault(plan);
}

TEST(StagingFaultTest, TruncatedSlotFileIsDetectedMidDrain) {
  FaultPlan plan;
  plan.seed = 12;
  plan.truncate("bb/*.slot1*", 64);
  run_mid_drain_fault(plan);
}

// --- buddy x staging -------------------------------------------------------

// The drain fans the staged primary out to real replica files; losing a
// primary physical file after the drain must still restore byte-exactly
// through the buddy heal path.
TEST(StagingFaultTest, DrainFabricatedReplicasSurvivePrimaryLoss) {
  const int n = 8;
  const int domains = 4;
  const std::uint64_t bytes = 128 * kKiB;
  fs::SimConfig machine = staged_machine();
  fs::SimFs pfs(machine);
  fs::SimFs bb(fs::BurstBufferTierConfig(machine, n));
  CheckpointSpec spec = staged_spec("bq.sion", bb);
  ext::BuddyConfig buddy;
  buddy.replicas = 2;
  buddy.num_domains = domains;
  spec.protection = buddy;
  par::Engine engine;
  engine.run(n, [&](par::Comm& world) {
    const auto mine = payload_of(world.rank(), 0, bytes);
    auto session = CheckpointSession::open(pfs, world, spec);
    ASSERT_TRUE(session.ok()) << session.status().to_string();
    ASSERT_TRUE(session.value()->write_async(DataView(mine)).ok());
    ASSERT_TRUE(session.value()->close().ok());
  });
  // Both the primaries and the fabricated replica set exist on the
  // parallel tier.
  for (int d = 0; d < domains; ++d) {
    EXPECT_TRUE(pfs.exists(core::physical_file_name("bq.sion", d, domains)));
    EXPECT_TRUE(pfs.exists(core::physical_file_name(
        ext::Buddy::replica_name("bq.sion", 1), d, domains)));
  }
  // Lose one primary; the replica copy must carry the restore.
  ASSERT_TRUE(pfs.remove(core::physical_file_name("bq.sion", 1, domains)).ok());
  par::Engine restart;
  restart.run(n, [&](par::Comm& world) {
    std::vector<std::byte> back(bytes);
    ASSERT_TRUE(
        CheckpointSession::restore(pfs, world, spec, 0, bytes, back).ok());
    EXPECT_EQ(back, payload_of(world.rank(), 0, bytes));
  });
}

// --- determinism -----------------------------------------------------------

// Two identical staged runs produce bit-identical virtual times: the
// background drain timelines are deterministic state, not wall-clock state.
TEST(StagingSessionTest, StagedRunsAreVirtualTimeDeterministic) {
  const int n = 8;
  const std::uint64_t bytes = 512 * kKiB;
  auto run_once = [&](double* out_makespan, std::vector<double>* out_vtimes) {
    fs::SimConfig machine = staged_machine();
    fs::SimFs pfs(machine);
    fs::SimFs bb(fs::BurstBufferTierConfig(machine, n));
    const CheckpointSpec spec = staged_spec("det.sion", bb);
    par::Engine engine;
    *out_makespan = makespan(engine, n, [&](par::Comm& world) {
      auto session = CheckpointSession::open(pfs, world, spec);
      ASSERT_TRUE(session.ok()) << session.status().to_string();
      for (std::uint64_t k = 0; k < 4; ++k) {
        const auto mine = payload_of(world.rank(), k, bytes);
        ASSERT_TRUE(session.value()->write_async(DataView(mine)).ok());
        par::this_task()->compute(2.0e-3);
      }
      ASSERT_TRUE(session.value()->close().ok());
      if (world.rank() == 0) {
        for (const auto& rec : session.value()->history()) {
          out_vtimes->push_back(rec.snapshot_vtime);
          out_vtimes->push_back(rec.complete_vtime);
        }
      }
    });
  };
  double makespan_a = 0.0, makespan_b = 0.0;
  std::vector<double> vtimes_a, vtimes_b;
  run_once(&makespan_a, &vtimes_a);
  run_once(&makespan_b, &vtimes_b);
  EXPECT_EQ(makespan_a, makespan_b);
  ASSERT_EQ(vtimes_a.size(), 8u);
  EXPECT_EQ(vtimes_a, vtimes_b);
}

}  // namespace
}  // namespace sion::workloads
