// Golden virtual-time determinism suite (label: perf).
//
// Hot-path rewrites (fiber runtime, collective internals, SimFs caching)
// must never change *simulated* results: the paper tables are virtual-time
// measurements, so a perf PR that shifts them has silently changed the
// model, not just made it faster. Each scenario here is a fixed miniature
// of one benchmark sweep; its makespan was snapshotted (as an exact IEEE
// double, hexfloat) from the tree before the hot-path overhaul and is
// asserted byte-identical forever after.
//
// When a test fails, the message prints the observed makespan in hexfloat.
// Only update a golden when the *model* deliberately changed (a new cost
// term, a calibration fix) — never to make an optimization pass.
#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "common/strings.h"
#include "common/units.h"
#include "core/api.h"
#include "ext/compress.h"
#include "ext/remap.h"
#include "ext/staging.h"
#include "fs/sim/machine.h"
#include "fs/sim/simfs.h"
#include "par/comm.h"
#include "par/engine.h"
#include "workloads/checkpoint.h"
#include "workloads/checkpoint_session.h"

namespace sion {
namespace {

// Exact-equality assertion with a hexfloat diagnostic, so a mismatch
// prints the literal to paste into the golden table.
#define EXPECT_GOLDEN(golden, observed)                                      \
  do {                                                                       \
    const double g = (golden);                                               \
    const double o = (observed);                                             \
    EXPECT_EQ(g, o) << "golden mismatch: observed " << strformat("%a", o)    \
                    << " (" << strformat("%.17g", o) << "), golden "         \
                    << strformat("%a", g);                                   \
  } while (0)

template <typename Fn>
double makespan(par::Engine& engine, int n, Fn&& body) {
  const double t0 = engine.epoch();
  engine.run(n, std::forward<Fn>(body));
  return engine.epoch() - t0;
}

std::vector<std::byte> pattern_payload(int rank, std::uint64_t n) {
  std::vector<std::byte> data(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    data[i] = static_cast<std::byte>(
        (static_cast<std::uint64_t>(rank) * 31 + i * 7 + 13) & 0xFF);
  }
  return data;
}

// --- Figure 3 miniature: task-local create / reopen / SION create ----------

TEST(GoldenDeterminismTest, Fig3CreateOpenSionJugene) {
  fs::SimFs fs(fs::JugeneConfig());
  par::Engine engine(
      par::EngineConfig{.stack_bytes = 64 * 1024,
                        .network = fs::JugeneConfig().network});
  const int n = 96;  // not a power of two: exercises heap tie-breaks
  const double t_create = makespan(engine, n, [&](par::Comm& world) {
    auto f = fs.create(strformat("data.%06d", world.rank()));
    ASSERT_TRUE(f.ok()) << f.status().to_string();
  });
  fs.drop_caches();
  const double t_open = makespan(engine, n, [&](par::Comm& world) {
    auto f = fs.open_rw(strformat("data.%06d", world.rank()));
    ASSERT_TRUE(f.ok()) << f.status().to_string();
  });
  const double t_sion = makespan(engine, n, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "multi.sion";
    spec.chunksize = 64 * kKiB;
    spec.nfiles = 2;
    auto sion = core::SionParFile::open_write(fs, world, spec);
    ASSERT_TRUE(sion.ok()) << sion.status().to_string();
    ASSERT_TRUE(sion.value()->close().ok());
  });
  EXPECT_GOLDEN(0x1.0e631f8a0902ep-1, t_create);
  EXPECT_GOLDEN(0x1.624dd2f1aa01p-4, t_open);
  EXPECT_GOLDEN(0x1.3e9392de2d5acp-3, t_sion);
}

// --- Figure 5 miniature: multifile bandwidth write + read ------------------

TEST(GoldenDeterminismTest, Fig5BandwidthJugene) {
  fs::SimFs fs(fs::JugeneConfig());
  par::Engine engine(
      par::EngineConfig{.stack_bytes = 64 * 1024,
                        .network = fs::JugeneConfig().network});
  const int n = 32;
  const std::uint64_t per_task = kMiB;
  const double t_write = makespan(engine, n, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "bw.sion";
    spec.chunksize = per_task;
    spec.nfiles = 4;
    auto sion = core::SionParFile::open_write(fs, world, spec);
    ASSERT_TRUE(sion.ok()) << sion.status().to_string();
    ASSERT_TRUE(sion.value()
                    ->write(fs::DataView::fill(std::byte{'s'}, per_task))
                    .ok());
    ASSERT_TRUE(sion.value()->close().ok());
  });
  fs.drop_caches();
  const double t_read = makespan(engine, n, [&](par::Comm& world) {
    auto sion = core::SionParFile::open_read(fs, world, "bw.sion");
    ASSERT_TRUE(sion.ok()) << sion.status().to_string();
    ASSERT_TRUE(sion.value()->read_skip(per_task).ok());
    ASSERT_TRUE(sion.value()->close().ok());
  });
  EXPECT_GOLDEN(0x1.e032a0c796b88p-3, t_write);
  EXPECT_GOLDEN(0x1.bb32dd63dfb18p-5, t_read);
}

// --- Collective aggregation miniature: packed write + verified read --------

TEST(GoldenDeterminismTest, CollectivePackedWriteReadJugene) {
  fs::SimConfig machine = fs::JugeneConfig();
  machine.client_open_service = 0.03e-3;
  machine.tasks_per_ion = std::max(1, machine.tasks_per_ion / 16);
  fs::SimFs fs(machine);
  par::Engine engine(par::EngineConfig{.stack_bytes = 64 * 1024,
                                       .network = machine.network});
  workloads::CheckpointSpec spec;
  spec.path = "golden.ckpt";
  spec.strategy = workloads::IoStrategy::kSion;
  ext::CollectiveConfig aggregation;
  aggregation.group_size = 8;
  aggregation.packing_granule = 4 * kKiB;
  spec.collective = aggregation;
  const int n = 48;
  const std::uint64_t chunk = 24 * kKiB + 160;  // unaligned on purpose
  // Patterned (non-fill) payloads so the aggregation data path really moves
  // member bytes — a zero-copy bug shows up as corrupted readback below.
  const double t_write = makespan(engine, n, [&](par::Comm& world) {
    const auto payload = pattern_payload(world.rank(), chunk);
    ASSERT_TRUE(workloads::write_checkpoint(fs, world, spec,
                                            fs::DataView(payload))
                    .ok());
  });
  fs.drop_caches();
  const double t_read = makespan(engine, n, [&](par::Comm& world) {
    std::vector<std::byte> out(chunk);
    ASSERT_TRUE(
        workloads::read_checkpoint(fs, world, spec, chunk, out).ok());
    EXPECT_EQ(out, pattern_payload(world.rank(), chunk));
  });
  EXPECT_GOLDEN(0x1.cf695baae83dp-3, t_write);
  EXPECT_GOLDEN(0x1.1b82564ad4258p-6, t_read);
}

// --- N->M restart miniature: remap restore with byte verification ----------

TEST(GoldenDeterminismTest, RemapRestartTestbed) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine(par::EngineConfig{.stack_bytes = 64 * 1024,
                                       .network = fs::TestbedConfig().network});
  const int n_writers = 32;
  const int m_readers = 12;
  const std::uint64_t chunk = 8 * kKiB + 96;
  const double t_write = makespan(engine, n_writers, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "restart.sion";
    spec.chunksize = chunk;
    spec.nfiles = 2;
    auto sion = core::SionParFile::open_write(fs, world, spec);
    ASSERT_TRUE(sion.ok()) << sion.status().to_string();
    const auto payload = pattern_payload(world.rank(), chunk);
    ASSERT_TRUE(sion.value()->write(fs::DataView(payload)).ok());
    ASSERT_TRUE(sion.value()->close().ok());
  });
  fs.drop_caches();
  const std::uint64_t total =
      chunk * static_cast<std::uint64_t>(n_writers);
  const double t_restore = makespan(engine, m_readers, [&](par::Comm& world) {
    auto remap = ext::Remap::open(fs, world, "restart.sion", {});
    ASSERT_TRUE(remap.ok()) << remap.status().to_string();
    // Even byte split of the concatenated global stream over M readers.
    const std::uint64_t me = static_cast<std::uint64_t>(world.rank());
    const std::uint64_t msize = static_cast<std::uint64_t>(world.size());
    const std::uint64_t lo = total * me / msize;
    const std::uint64_t hi = total * (me + 1) / msize;
    std::vector<std::byte> out(hi - lo);
    auto stats = remap.value()->restore(out, out.size());
    ASSERT_TRUE(stats.ok()) << stats.status().to_string();
    for (std::uint64_t g = lo; g < hi; ++g) {
      const int writer = static_cast<int>(g / chunk);
      const std::uint64_t i = g % chunk;
      const auto expect = static_cast<std::byte>(
          (static_cast<std::uint64_t>(writer) * 31 + i * 7 + 13) & 0xFF);
      ASSERT_EQ(out[g - lo], expect) << "corrupt byte at global offset " << g;
    }
    ASSERT_TRUE(remap.value()->close().ok());
  });
  EXPECT_GOLDEN(0x1.e38cee14ba041p-9, t_write);
  EXPECT_GOLDEN(0x1.f2efb643b9e26p-8, t_restore);
}

// --- Staged checkpointing miniature: burst-buffer drain on and off ---------

// The same checkpoint loop through workloads::CheckpointSession with and
// without the burst-buffer tier: both makespans are pinned, so neither the
// synchronous path (which must stay cost-identical to the legacy free
// functions) nor the background-drain timelines may drift.
TEST(GoldenDeterminismTest, StagedCheckpointLoopTestbed) {
  fs::SimConfig machine = fs::TestbedConfig();
  machine.burst_buffer.tasks_per_node = 4;
  machine.burst_buffer.node_bandwidth = 4.0e9;
  machine.burst_buffer.drain_bandwidth = 200.0e6;
  const int n = 16;
  const std::uint64_t chunk = 96 * kKiB + 64;  // unaligned on purpose
  auto checkpoint_loop = [&](fs::SimFs& fs,
                             const workloads::CheckpointSpec& spec) {
    par::Engine engine(par::EngineConfig{.stack_bytes = 64 * 1024,
                                         .network = machine.network});
    return makespan(engine, n, [&](par::Comm& world) {
      auto session = workloads::CheckpointSession::open(fs, world, spec);
      ASSERT_TRUE(session.ok()) << session.status().to_string();
      for (std::uint64_t k = 0; k < 3; ++k) {
        const auto payload = pattern_payload(world.rank(), chunk);
        ASSERT_TRUE(session.value()->write_async(fs::DataView(payload)).ok());
        par::this_task()->compute(2.0e-3);
      }
      ASSERT_TRUE(session.value()->close().ok());
    });
  };
  double t_staged = 0.0;
  {
    fs::SimFs pfs(machine);
    fs::SimFs bb(fs::BurstBufferTierConfig(machine, n));
    workloads::CheckpointSpec spec;
    spec.path = "golden_staged.sion";
    ext::StagingConfig staging;
    staging.fast_tier = &bb;
    spec.staging = staging;
    t_staged = checkpoint_loop(pfs, spec);
  }
  double t_sync = 0.0;
  {
    fs::SimFs pfs(machine);
    workloads::CheckpointSpec spec;
    spec.path = "golden_sync.sion";
    t_sync = checkpoint_loop(pfs, spec);
  }
  EXPECT_GOLDEN(0x1.153a28a1b30e7p-7, t_staged);
  EXPECT_GOLDEN(0x1.9ccae37ef0134p-6, t_sync);
  // The overlap claim at golden strength: absorbing into the fast tier and
  // draining in the background beats writing the parallel tier in-line.
  EXPECT_LT(t_staged, t_sync);
}

// --- Compressed checkpoint miniature: framed write + transparent restore ---

// The compressed stream path must be bit-deterministic end to end: the slz
// token stream, the frame boundaries and CRCs, and therefore every simulated
// transfer size and makespan are pinned. A codec change that alters the
// encoded size is a model change and must update these goldens explicitly.
TEST(GoldenDeterminismTest, CompressedCheckpointTestbed) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine(par::EngineConfig{.stack_bytes = 64 * 1024,
                                       .network = fs::TestbedConfig().network});
  workloads::CheckpointSpec spec;
  spec.path = "golden_z.ckpt";
  ext::CompressionSpec compression;
  compression.chunk_bytes = 8 * kKiB;
  spec.compression = compression;
  const int n = 24;
  const std::uint64_t chunk = 40 * kKiB + 32;  // unaligned on purpose
  const double t_write = makespan(engine, n, [&](par::Comm& world) {
    const auto payload = pattern_payload(world.rank(), chunk);
    ASSERT_TRUE(workloads::write_checkpoint(fs, world, spec,
                                            fs::DataView(payload))
                    .ok());
  });
  fs.drop_caches();
  const double t_read = makespan(engine, n, [&](par::Comm& world) {
    std::vector<std::byte> out(chunk);
    ASSERT_TRUE(workloads::read_checkpoint(fs, world, spec, chunk, out).ok());
    EXPECT_EQ(out, pattern_payload(world.rank(), chunk));
  });
  EXPECT_GOLDEN(0x1.45c881d18b54cp-9, t_write);
  EXPECT_GOLDEN(0x1.6797898c14d0cp-9, t_read);
}

// --- ECC-protected checkpoint miniature: parity write + degraded restore ---

// The Reed-Solomon parity path must be bit-deterministic end to end: the
// Cauchy coefficients, the stripe partition, the parity file layout, and
// therefore every simulated transfer and makespan are pinned — including a
// degraded restore that decodes a lost data file inline from the survivors
// (no heal pass, so the lost file stays lost).
TEST(GoldenDeterminismTest, EccProtectedCheckpointTestbed) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine(par::EngineConfig{.stack_bytes = 64 * 1024,
                                       .network = fs::TestbedConfig().network});
  workloads::CheckpointSpec spec;
  spec.path = "golden_ecc.ckpt";
  ext::EccConfig ecc;
  ecc.data_domains = 4;
  ecc.parity_domains = 2;
  spec.protection = ecc;
  const int n = 16;
  const std::uint64_t chunk = 24 * kKiB + 96;  // unaligned on purpose
  const double t_write = makespan(engine, n, [&](par::Comm& world) {
    const auto payload = pattern_payload(world.rank(), chunk);
    ASSERT_TRUE(workloads::write_checkpoint(fs, world, spec,
                                            fs::DataView(payload))
                    .ok());
  });
  fs.drop_caches();
  const std::string lost = core::physical_file_name("golden_ecc.ckpt", 1, 4);
  ASSERT_TRUE(fs.remove(lost).ok());
  const double t_degraded = makespan(engine, n, [&](par::Comm& world) {
    std::vector<std::byte> out(chunk);
    ASSERT_TRUE(workloads::read_checkpoint(fs, world, spec, chunk, out).ok());
    EXPECT_EQ(out, pattern_payload(world.rank(), chunk));
  });
  EXPECT_FALSE(fs.exists(lost));  // degraded decode, not a heal
  EXPECT_GOLDEN(0x1.6f2e03700d5e7p-6, t_write);
  EXPECT_GOLDEN(0x1.074b5544d43b2p-5, t_degraded);
}

// --- Pure-engine scheduler stress: uneven compute + collectives ------------

TEST(GoldenDeterminismTest, SchedulerMixedComputeCollectives) {
  par::Engine engine(
      par::EngineConfig{.stack_bytes = 64 * 1024, .network = {}});
  const int n = 257;  // prime-ish: no clean tree/group alignment anywhere
  const double t = makespan(engine, n, [&](par::Comm& world) {
    const int r = world.rank();
    double acc = 0.0;
    for (int round = 0; round < 5; ++round) {
      // Deterministic, rank-dependent compute skew.
      par::this_task()->compute(1.0e-6 * ((r * 7919 + round * 104729) % 97));
      acc += static_cast<double>(
          world.allreduce_u64(static_cast<std::uint64_t>(r + round),
                              par::ReduceOp::kMax));
      par::Comm* half = world.split(r % 2, r);
      ASSERT_NE(half, nullptr);
      acc += static_cast<double>(half->allreduce_u64(
          static_cast<std::uint64_t>(r), par::ReduceOp::kSum));
      half->barrier();
      if (r % 2 == 0 && half->size() > 1) {
        // Odd-even ping within the even sub-communicator.
        const int peer = half->rank() ^ 1;
        if (peer < half->size()) {
          std::uint64_t v = static_cast<std::uint64_t>(r);
          auto buf = std::as_writable_bytes(std::span<std::uint64_t>(&v, 1));
          if (half->rank() % 2 == 0) {
            half->send_bytes(buf, peer, round);
            (void)half->recv_bytes(peer, round);
          } else {
            (void)half->recv_bytes(peer, round);
            half->send_bytes(buf, peer, round);
          }
        }
      }
      world.barrier();
    }
    ASSERT_GT(acc, 0.0);
  });
  EXPECT_GOLDEN(0x1.5f4d2021e70ep-9, t);
}

}  // namespace
}  // namespace sion
