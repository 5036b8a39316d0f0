// Single-fault sweeps of one checkpoint write and of one restore (label:
// fault). For every composition, every rank and every k, the k-th fallible
// file-system call of that rank fails once (testfs::FailNthFs). The write
// contract at each fault point:
//   * nothing aborts: a task that fails mid-write still runs the
//     collective close, so no peer waits in a collective forever;
//   * every task reports the same outcome;
//   * a write that every task reports OK restores the exact bytes.
// The restore contract, on a checkpoint written without faults:
//   * nothing aborts;
//   * a task whose restore reports OK holds the exact bytes;
//   * the fault fails every task, or only the faulted rank's own restore:
//     a failed payload read fails its own task (its aggregation group, in
//     collective mode), and a fault-free restore fails no task.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "common/units.h"
#include "fs/sim/machine.h"
#include "fs/sim/simfs.h"
#include "fs_wrappers.h"
#include "par/comm.h"
#include "par/engine.h"
#include "workloads/checkpoint.h"

namespace sion::workloads {
namespace {

constexpr int kWriters = 8;
constexpr std::uint64_t kBytes = 20000;
constexpr int kRestarters = 4;  // the N->M restores' task count

std::vector<std::byte> payload_of(int rank) {
  std::vector<std::byte> out(kBytes);
  Rng rng(0xFA17 + static_cast<std::uint64_t>(rank));
  rng.fill_bytes(out);
  return out;
}

// What restarting task `rank` of `readers` restores: its slice of the
// writers' concatenated streams.
std::vector<std::byte> share_of(int rank, int readers) {
  const int per_reader = kWriters / readers;
  std::vector<std::byte> out;
  for (int w = rank * per_reader; w < (rank + 1) * per_reader; ++w) {
    const auto stream = payload_of(w);
    out.insert(out.end(), stream.begin(), stream.end());
  }
  return out;
}

struct Composition {
  const char* name;
  CheckpointSpec spec;
};

// The tasks that restore `c`.
int restorers(const Composition& c) {
  return c.spec.restart_ntasks != 0 ? c.spec.restart_ntasks : kWriters;
}

// Five write compositions, then N->M restores of two of them, which write
// as those two do.
std::vector<Composition> compositions() {
  CheckpointSpec plain;
  plain.path = "sweep.ckpt";
  plain.nfiles = 2;
  CheckpointSpec collective = plain;
  ext::CollectiveConfig groups;
  groups.group_size = 4;
  collective.collective = groups;
  CheckpointSpec buddy = plain;
  buddy.protection = ext::BuddyConfig{};  // r = 2 over the 2 files' domains
  CheckpointSpec ecc = plain;
  ext::EccConfig parity;
  parity.data_domains = 2;
  parity.parity_domains = 1;
  ecc.protection = parity;
  CheckpointSpec compressed = plain;
  ext::CompressionSpec frames;
  frames.chunk_bytes = 4 * kKiB;
  compressed.compression = frames;
  CheckpointSpec plain_n_to_m = plain;
  plain_n_to_m.restart_ntasks = kRestarters;
  CheckpointSpec ecc_n_to_m = ecc;
  ecc_n_to_m.restart_ntasks = kRestarters;
  return {{"plain", plain},
          {"collective", collective},
          {"buddy", buddy},
          {"ecc", ecc},
          {"compressed", compressed},
          {"plain 8->4", plain_n_to_m},
          {"ecc 8->4", ecc_n_to_m}};
}

// Writes the checkpoint with the k-th fallible call of `rank` failing, then
// checks the contract. Returns whether that call happened.
bool write_with_fault(const Composition& c, int rank, int k) {
  const std::string where =
      strformat("%s, rank %d, call %d", c.name, rank, k);
  fs::SimFs sim(fs::TestbedConfig());
  testfs::FailNthFs failing(sim, rank, k);
  par::Engine engine;
  std::vector<int> ok(kWriters, -1);
  engine.run(kWriters, [&](par::Comm& world) {
    const auto mine = payload_of(world.rank());
    const Status st =
        write_checkpoint(failing, world, c.spec, fs::DataView(mine));
    ok[static_cast<std::size_t>(world.rank())] = st.ok() ? 1 : 0;
  });
  for (int r = 1; r < kWriters; ++r) {
    EXPECT_EQ(ok[static_cast<std::size_t>(r)], ok[0])
        << where << ": tasks 0 and " << r << " disagree on the write";
  }
  if (!failing.fired()) {
    EXPECT_EQ(ok[0], 1) << where << ": the fault-free write failed";
  }
  if (ok[0] == 1) {
    engine.run(kWriters, [&](par::Comm& world) {
      std::vector<std::byte> back(kBytes);
      const Status st = read_checkpoint(sim, world, c.spec, kBytes, back);
      ASSERT_TRUE(st.ok()) << where << ": " << st.to_string();
      EXPECT_EQ(back, payload_of(world.rank()))
          << where << ": task " << world.rank() << " restored other bytes";
    });
  }
  return failing.fired();
}

// Restores a fault-free checkpoint with the k-th fallible call of `rank`
// failing, then checks the contract. Returns whether that call happened.
bool restore_with_fault(const Composition& c, int rank, int k) {
  const std::string where =
      strformat("%s, rank %d, call %d", c.name, rank, k);
  fs::SimFs sim(fs::TestbedConfig());
  par::Engine engine;
  engine.run(kWriters, [&](par::Comm& world) {
    const auto mine = payload_of(world.rank());
    ASSERT_TRUE(
        write_checkpoint(sim, world, c.spec, fs::DataView(mine)).ok())
        << where;
  });
  testfs::FailNthFs failing(sim, rank, k);
  const int readers = restorers(c);
  std::vector<int> ok(static_cast<std::size_t>(readers), -1);
  engine.run(readers, [&](par::Comm& world) {
    const auto want = share_of(world.rank(), readers);
    std::vector<std::byte> back(want.size());
    const Status st =
        read_checkpoint(failing, world, c.spec, want.size(), back);
    ok[static_cast<std::size_t>(world.rank())] = st.ok() ? 1 : 0;
    if (st.ok()) {
      EXPECT_EQ(back, want)
          << where << ": task " << world.rank() << " restored other bytes";
    }
  });
  // Tasks that fail together with the faulted one when the rest restore.
  const int group =
      c.spec.collective.has_value() ? c.spec.collective->group_size : 1;
  const bool every_task_failed =
      std::count(ok.begin(), ok.end(), 0) == readers;
  for (int r = 0; r < readers; ++r) {
    const int mine = ok[static_cast<std::size_t>(r)];
    if (!failing.fired()) {
      EXPECT_EQ(mine, 1) << where << ": the fault-free restore failed on task "
                         << r;
    } else if (mine == 0 && !every_task_failed) {
      EXPECT_EQ(r / group, rank / group)
          << where << ": task " << r << " failed by another task's fault";
    }
  }
  return failing.fired();
}

TEST(WriteFaultSweepTest, EveryFaultFailsEveryTaskOrRestoresExactly) {
  for (const Composition& c : compositions()) {
    if (c.spec.restart_ntasks != 0) continue;  // writes as another does
    int points = 0;
    for (int rank = 0; rank < kWriters; ++rank) {
      for (int k = 1; write_with_fault(c, rank, k); ++k) ++points;
    }
    // Each rank makes at least its open and its payload write.
    EXPECT_GE(points, 2 * kWriters) << c.name;
  }
}

TEST(RestoreFaultSweepTest, EveryFaultFailsItsOwnTaskOrRestoresExactly) {
  for (const Composition& c : compositions()) {
    int points = 0;
    for (int rank = 0; rank < restorers(c); ++rank) {
      for (int k = 1; restore_with_fault(c, rank, k); ++k) ++points;
    }
    // Each rank makes at least its open and its payload read.
    EXPECT_GE(points, 2 * restorers(c)) << c.name;
  }
}

}  // namespace
}  // namespace sion::workloads
