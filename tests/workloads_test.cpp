// Tests for the use-case workloads: MP2C particle checkpoints under every
// I/O strategy and the Scalasca-like tracer under both backends, with and
// without compression; plus the CheckpointSession API contract.
#include <gtest/gtest.h>

#include "common/units.h"
#include "fs/sim/machine.h"
#include "fs/sim/simfs.h"
#include "par/comm.h"
#include "par/engine.h"
#include "workloads/checkpoint.h"
#include "workloads/checkpoint_session.h"
#include "workloads/mp2c.h"
#include "workloads/tracer.h"

namespace sion::workloads {
namespace {

using fs::DataView;

TEST(Mp2cTest, ParticleDistributionCoversTotal) {
  const std::uint64_t total = 1000003;  // prime: uneven split
  std::uint64_t sum = 0;
  for (int r = 0; r < 17; ++r) sum += mp2c_local_particles(total, 17, r);
  EXPECT_EQ(sum, total);
  // Difference between any two ranks is at most one particle.
  EXPECT_LE(mp2c_local_particles(total, 17, 0) -
                mp2c_local_particles(total, 17, 16),
            1u);
}

TEST(Mp2cTest, SerializationIs52BytesPerParticle) {
  const auto particles = mp2c_generate(100, 4, 1, 42);
  const auto bytes = mp2c_serialize(particles);
  EXPECT_EQ(bytes.size(), particles.size() * kParticleBytes);
  auto back = mp2c_deserialize(bytes);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().size(), particles.size());
  for (std::size_t i = 0; i < particles.size(); ++i) {
    for (int d = 0; d < 3; ++d) {
      EXPECT_DOUBLE_EQ(back.value()[i].pos[d], particles[i].pos[d]);
      EXPECT_DOUBLE_EQ(back.value()[i].vel[d], particles[i].vel[d]);
    }
    EXPECT_EQ(back.value()[i].species, particles[i].species);
  }
}

TEST(Mp2cTest, DeserializeRejectsPartialRecord) {
  std::vector<std::byte> bytes(kParticleBytes + 1, std::byte{0});
  EXPECT_FALSE(mp2c_deserialize(bytes).ok());
}

TEST(Mp2cTest, GenerationIsDeterministicPerRank) {
  const auto a = mp2c_generate(1000, 8, 3, 7);
  const auto b = mp2c_generate(1000, 8, 3, 7);
  EXPECT_EQ(mp2c_serialize(a), mp2c_serialize(b));
  const auto c = mp2c_generate(1000, 8, 4, 7);
  EXPECT_NE(mp2c_serialize(a), mp2c_serialize(c));
}

class CheckpointStrategyTest : public ::testing::TestWithParam<IoStrategy> {};

TEST_P(CheckpointStrategyTest, RoundtripWithRealParticles) {
  const IoStrategy strategy = GetParam();
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  const std::uint64_t total_particles = 10000;
  const int n = 6;
  engine.run(n, [&](par::Comm& world) {
    CheckpointSpec spec;
    spec.path = "restart.ckpt";
    spec.strategy = strategy;
    spec.nfiles = 2;
    const auto particles =
        mp2c_generate(total_particles, n, world.rank(), 99);
    const auto payload = mp2c_serialize(particles);
    ASSERT_TRUE(
        write_checkpoint(fs, world, spec, DataView(payload)).ok());

    std::vector<std::byte> back(payload.size());
    ASSERT_TRUE(
        read_checkpoint(fs, world, spec, payload.size(), back).ok());
    EXPECT_EQ(back, payload);
    auto restored = mp2c_deserialize(back);
    ASSERT_TRUE(restored.ok());
    EXPECT_EQ(restored.value().size(), particles.size());
  });
}

INSTANTIATE_TEST_SUITE_P(Strategies, CheckpointStrategyTest,
                         ::testing::Values(IoStrategy::kSion,
                                           IoStrategy::kSingleFileSeq,
                                           IoStrategy::kTaskLocal));

TEST(CheckpointTest, TimingOnlyMode) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  engine.run(4, [&](par::Comm& world) {
    CheckpointSpec spec;
    spec.path = "big.ckpt";
    spec.strategy = IoStrategy::kSion;
    ASSERT_TRUE(write_checkpoint(fs, world, spec,
                                 DataView::fill(std::byte{1}, 10 * kMiB))
                    .ok());
    ASSERT_TRUE(read_checkpoint(fs, world, spec, 10 * kMiB, {}).ok());
  });
  // All payload bytes charged (plus a little metadata read at open).
  EXPECT_GE(fs.counters().bytes_read, 4 * 10 * kMiB);
  EXPECT_LT(fs.counters().bytes_read, 4 * 10 * kMiB + kMiB);
}

TEST(CheckpointTest, SizeMismatchDetected) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  engine.run(2, [&](par::Comm& world) {
    CheckpointSpec spec;
    spec.path = "sz.ckpt";
    spec.strategy = IoStrategy::kSion;
    ASSERT_TRUE(write_checkpoint(fs, world, spec,
                                 DataView::fill(std::byte{1}, 1000))
                    .ok());
    std::vector<std::byte> back(2000);
    auto st = read_checkpoint(fs, world, spec, 2000, back);
    EXPECT_FALSE(st.ok());
  });
}

// --- one task's bad restore input -------------------------------------------

// Writer rank r's 1000-byte stream.
std::vector<std::byte> stream_of(int r) {
  std::vector<std::byte> out(1000);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::byte>((static_cast<std::size_t>(r) * 31 + i) &
                                    0xFF);
  }
  return out;
}

enum class RestoreRoute : std::uint8_t { kPlain, kCollective, kRemap };

// One task whose restore input is bad (a buffer too small for its bytes, or
// an expected size its stream does not hold) still finishes its route's
// collective sequence before it fails, so no peer strands in a collective.
// The same-count verdicts are per task; N->M fails every task through
// Remap's agreed precondition.
class OneTaskRestoreFailureTest
    : public ::testing::TestWithParam<RestoreRoute> {};

TEST_P(OneTaskRestoreFailureTest, PeersFinishTheirRestore) {
  const RestoreRoute route = GetParam();
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  CheckpointSpec spec;
  spec.path = "bad.ckpt";
  if (route == RestoreRoute::kCollective) {
    spec.collective = ext::CollectiveConfig{};
  }
  const int writers = route == RestoreRoute::kRemap ? 4 : 2;
  engine.run(writers, [&](par::Comm& world) {
    const auto mine = stream_of(world.rank());
    ASSERT_TRUE(write_checkpoint(fs, world, spec, DataView(mine)).ok());
  });
  if (route == RestoreRoute::kRemap) spec.restart_ntasks = 2;
  const std::uint64_t share = 1000ULL * static_cast<std::uint64_t>(writers / 2);

  // Rank 1's buffer holds half of its bytes.
  engine.run(2, [&](par::Comm& world) {
    std::vector<std::byte> back(world.rank() == 1 ? share / 2 : share);
    const Status st = read_checkpoint(fs, world, spec, share, back);
    if (route == RestoreRoute::kRemap) {
      EXPECT_FALSE(st.ok());
    } else if (world.rank() == 1) {
      EXPECT_EQ(st.code(), ErrorCode::kInvalidArgument) << st.to_string();
    } else {
      ASSERT_TRUE(st.ok()) << st.to_string();
      EXPECT_EQ(back, stream_of(0));
    }
  });
  if (route == RestoreRoute::kRemap) return;

  // Rank 1 expects twice the bytes its stream holds.
  engine.run(2, [&](par::Comm& world) {
    const std::uint64_t want = world.rank() == 1 ? 2000 : 1000;
    std::vector<std::byte> back(want);
    const Status st = read_checkpoint(fs, world, spec, want, back);
    if (world.rank() == 1) {
      EXPECT_EQ(st.code(), ErrorCode::kCorrupt) << st.to_string();
    } else {
      ASSERT_TRUE(st.ok()) << st.to_string();
      EXPECT_EQ(back, stream_of(0));
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Routes, OneTaskRestoreFailureTest,
                         ::testing::Values(RestoreRoute::kPlain,
                                           RestoreRoute::kCollective,
                                           RestoreRoute::kRemap));

// The single-file-sequential reader drops the bytes a short buffer cannot
// hold and still serves every scatter; its outcome is agreed, so every
// task fails.
TEST(OneTaskRestoreFailureTest, SingleFileSeqShortBuffer) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  CheckpointSpec spec;
  spec.path = "bad.seq";
  spec.strategy = IoStrategy::kSingleFileSeq;
  engine.run(3, [&](par::Comm& world) {
    const auto mine = stream_of(world.rank());
    ASSERT_TRUE(write_checkpoint(fs, world, spec, DataView(mine)).ok());
    std::vector<std::byte> back(world.rank() == 1 ? 500 : 1000);
    const Status st = read_checkpoint(fs, world, spec, 1000, back);
    EXPECT_FALSE(st.ok());
    if (world.rank() == 1) {
      EXPECT_EQ(st.code(), ErrorCode::kInvalidArgument) << st.to_string();
    }
  });
}

// --- CheckpointSession API contract ----------------------------------------

TEST(CheckpointSessionApiTest, RejectsBadSpecsAtOpen) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  engine.run(2, [&](par::Comm& world) {
    CheckpointSpec no_path;
    EXPECT_FALSE(CheckpointSession::open(fs, world, no_path).ok());

    // Staging composes with the SIONlib strategy only.
    CheckpointSpec staged_seq;
    staged_seq.path = "s.ckpt";
    staged_seq.strategy = IoStrategy::kSingleFileSeq;
    staged_seq.staging = ext::StagingConfig{};
    EXPECT_FALSE(CheckpointSession::open(fs, world, staged_seq).ok());
  });
}

TEST(CheckpointSessionApiTest, WaitValidatesTicketAndCloseEndsTheSession) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  engine.run(2, [&](par::Comm& world) {
    CheckpointSpec spec;
    spec.path = "sess.ckpt";
    auto session = CheckpointSession::open(fs, world, spec);
    ASSERT_TRUE(session.ok());
    // A ticket that was never issued is rejected.
    EXPECT_FALSE(session.value()->wait(CheckpointSession::Ticket{3}).ok());
    ASSERT_TRUE(
        session.value()->write_async(DataView::fill(std::byte{2}, 512)).ok());
    ASSERT_TRUE(session.value()->close().ok());
    // Idempotent close, but no writes after it.
    EXPECT_TRUE(session.value()->close().ok());
    EXPECT_FALSE(
        session.value()->write_async(DataView::fill(std::byte{2}, 512)).ok());
  });
}

TEST(CheckpointSessionApiTest, SessionIndicesMapToVersionedNames) {
  CheckpointSpec spec;
  spec.path = "ck.sion";
  EXPECT_EQ(CheckpointSession::checkpoint_name(spec, 0), "ck.sion");
  EXPECT_EQ(CheckpointSession::checkpoint_name(spec, 1), "ck.sion.v1");
  EXPECT_EQ(CheckpointSession::checkpoint_name(spec, 2), "ck.sion.v2");
  EXPECT_EQ(CheckpointSession::checkpoint_name(spec, 3), "ck.sion.v1");
}

TEST(TracerTest, EventStreamsAreBalancedAndDeterministic) {
  const auto a = trace_generate(5, 1000, 3);
  const auto b = trace_generate(5, 1000, 3);
  EXPECT_EQ(trace_serialize(a), trace_serialize(b));
  EXPECT_EQ(a.size(), 1000u);
  // Timestamps strictly increase.
  for (std::size_t i = 1; i < a.size(); ++i) {
    EXPECT_GT(a[i].timestamp, a[i - 1].timestamp);
  }
}

TEST(TracerTest, SerializeRoundtrip) {
  const auto events = trace_generate(1, 500, 11);
  auto back = trace_deserialize(trace_serialize(events));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().size(), events.size());
  EXPECT_EQ(back.value()[17].timestamp, events[17].timestamp);
  EXPECT_EQ(back.value()[17].kind, events[17].kind);
  EXPECT_EQ(back.value()[17].region, events[17].region);
}

struct TracerCase {
  TraceBackend backend;
  bool compress;
};

class TracerBackendTest : public ::testing::TestWithParam<TracerCase> {};

TEST_P(TracerBackendTest, RecordFlushReload) {
  const TracerCase c = GetParam();
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  const int n = 4;
  const std::uint64_t nevents = 2000;
  engine.run(n, [&](par::Comm& world) {
    TracerSpec spec;
    spec.path = "trace";
    spec.backend = c.backend;
    spec.nfiles = 2;
    spec.buffer_bytes = nevents * kTraceEventBytes + 4096;
    spec.compress = c.compress;
    auto tracer = Tracer::open(fs, world, spec);
    ASSERT_TRUE(tracer.ok()) << tracer.status().to_string();
    for (const auto& e : trace_generate(world.rank(), nevents, 21)) {
      tracer.value()->record(e);
    }
    EXPECT_EQ(tracer.value()->buffered_events(), nevents);
    auto written = tracer.value()->flush_and_close();
    ASSERT_TRUE(written.ok()) << written.status().to_string();
    if (c.compress) {
      // The event stream is compressible (timestamps share high bytes).
      EXPECT_LT(written.value(), nevents * kTraceEventBytes);
    } else {
      EXPECT_EQ(written.value(), nevents * kTraceEventBytes);
    }
  });
  // Postmortem analysis: serial reload of each rank's trace.
  for (int r = 0; r < n; ++r) {
    TracerSpec spec;
    spec.path = "trace";
    spec.backend = c.backend;
    spec.nfiles = 2;
    spec.compress = c.compress;
    auto events = trace_load_rank(fs, spec, r);
    ASSERT_TRUE(events.ok()) << events.status().to_string();
    const auto expect = trace_generate(r, nevents, 21);
    ASSERT_EQ(events.value().size(), expect.size());
    EXPECT_EQ(trace_serialize(events.value()), trace_serialize(expect));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, TracerBackendTest,
    ::testing::Values(TracerCase{TraceBackend::kSion, false},
                      TracerCase{TraceBackend::kSion, true},
                      TracerCase{TraceBackend::kTaskLocal, false},
                      TracerCase{TraceBackend::kTaskLocal, true}));

TEST(TracerTest, SionActivationBeatsTaskLocalAtScale) {
  // The Table 2 effect in miniature: activation (open) time dominated by
  // file creation is far cheaper through SIONlib.
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  const int n = 128;
  double t_tl = 0;
  double t_sion = 0;
  {
    const double t0 = engine.epoch();
    engine.run(n, [&](par::Comm& world) {
      TracerSpec spec;
      spec.path = "tl_trace";
      spec.backend = TraceBackend::kTaskLocal;
      spec.buffer_bytes = 4096;
      auto tracer = Tracer::open(fs, world, spec);
      ASSERT_TRUE(tracer.ok());
      ASSERT_TRUE(tracer.value()->flush_and_close().ok());
    });
    t_tl = engine.epoch() - t0;
  }
  {
    const double t0 = engine.epoch();
    engine.run(n, [&](par::Comm& world) {
      TracerSpec spec;
      spec.path = "sion_trace";
      spec.backend = TraceBackend::kSion;
      spec.buffer_bytes = 4096;
      auto tracer = Tracer::open(fs, world, spec);
      ASSERT_TRUE(tracer.ok());
      ASSERT_TRUE(tracer.value()->flush_and_close().ok());
    });
    t_sion = engine.epoch() - t0;
  }
  EXPECT_GT(t_tl / t_sion, 5.0);
}

}  // namespace
}  // namespace sion::workloads
