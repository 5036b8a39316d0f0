// Single-fault sweep of one checkpoint write (label: fault). For every
// composition, every writer rank and every k, the k-th fallible
// file-system call of that rank fails once (testfs::FailNthFs). The
// contract at each fault point:
//   * nothing aborts: a task that fails mid-write still runs the
//     collective close, so no peer waits in a collective forever;
//   * every task reports the same outcome;
//   * a write that every task reports OK restores the exact bytes.
#include <gtest/gtest.h>

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

std::vector<std::byte> payload_of(int rank) {
  std::vector<std::byte> out(kBytes);
  Rng rng(0xFA17 + static_cast<std::uint64_t>(rank));
  rng.fill_bytes(out);
  return out;
}

struct Composition {
  const char* name;
  CheckpointSpec spec;
};

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
  return {{"plain", plain},
          {"collective", collective},
          {"buddy", buddy},
          {"ecc", ecc},
          {"compressed", compressed}};
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

TEST(WriteFaultSweepTest, EveryFaultFailsEveryTaskOrRestoresExactly) {
  for (const Composition& c : compositions()) {
    int points = 0;
    for (int rank = 0; rank < kWriters; ++rank) {
      for (int k = 1; write_with_fault(c, rank, k); ++k) ++points;
    }
    // Each rank makes at least its open and its payload write.
    EXPECT_GE(points, 2 * kWriters) << c.name;
  }
}

}  // namespace
}  // namespace sion::workloads
