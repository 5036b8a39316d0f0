// Fuzz round-trip property test: seeded-random write schedules — random
// task counts, per-rank chunk sizes and volumes, physical-file counts,
// plain vs collective writers (all alignment modes), serial writers — are
// pushed through write -> reopen -> read and checked byte-identical against
// an in-memory reference model. Every case also restores the file onto a
// *different* random task count through ext::Remap, so the N->M
// redistribution is fuzzed across the same parameter grid.
//
// Parallel schedules may additionally carry checkpoint protection — buddy
// replication (random domain count and replication degree) or ECC parity
// (random k data + m parity domains, stripe sizes, heal vs degraded
// restore): a random recoverable subset of failure domains is damaged
// through a seeded fs::FaultPlan (whole files lost or silently truncated),
// and the protected restore must still hand back the exact reference bytes
// at the random restart scale.
//
// 10 seeds x 20 schedules = 200 cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "common/rng.h"
#include "common/units.h"
#include "core/api.h"
#include "ext/buddy.h"
#include "ext/collective.h"
#include "ext/compress.h"
#include "ext/ecc.h"
#include "ext/remap.h"
#include "fs/sim/fault.h"
#include "fs/sim/machine.h"
#include "fs/sim/simfs.h"
#include "par/comm.h"
#include "par/engine.h"

namespace sion {
namespace {

using fs::DataView;

enum class Writer { kPar, kCollective, kSerial };

struct Schedule {
  int ntasks = 1;
  int nfiles = 1;
  std::uint64_t fsblksize = 512;
  Writer writer = Writer::kPar;
  ext::CollectiveConfig collective;
  std::vector<std::uint64_t> chunksizes;       // per rank
  std::vector<std::vector<std::byte>> payload;  // the reference model
  int remap_tasks = 1;

  // Transparent per-stream frame compression (ext/compress.h): the wire
  // bytes are the framed streams, the reference model stays the raw bytes.
  bool compress = false;
  std::uint64_t compress_chunk = 0;

  // Buddy replication (parallel writers only): 0 domains = off.
  int buddy_domains = 0;
  int buddy_replicas = 1;
  std::vector<int> damaged_domains;  // at most buddy_replicas - 1
  bool damage_by_truncation = false;
  std::uint64_t fault_seed = 0;

  // ECC parity (parallel writers only, mutually exclusive with buddy):
  // 0 data domains = off. Damaged ids cover all k + m failure domains
  // (i >= k is parity file i - k).
  int ecc_k = 0;
  int ecc_m = 0;
  std::uint64_t ecc_stripe = 0;
  bool ecc_heal_mode = false;
  std::vector<int> ecc_damaged;  // at most ecc_m distinct domains
};

Schedule random_schedule(Rng& rng) {
  Schedule s;
  s.ntasks = 1 + static_cast<int>(rng.next_below(10));
  s.nfiles = 1 + static_cast<int>(
                     rng.next_below(static_cast<std::uint64_t>(
                         std::min(s.ntasks, 3))));
  s.fsblksize = 512ULL << rng.next_below(4);  // 512 .. 4 KiB
  switch (rng.next_below(4)) {
    case 0: s.writer = Writer::kSerial; break;
    case 1: s.writer = Writer::kPar; break;
    default: s.writer = Writer::kCollective; break;
  }
  s.collective.group_size = static_cast<int>(rng.next_below(5));  // 0 derives
  s.collective.buffer_bytes = 1 + rng.next_below(16 * kKiB);
  switch (rng.next_below(3)) {
    case 0:
      s.collective.alignment = ext::CollectiveConfig::Alignment::kFsBlock;
      break;
    case 1:
      s.collective.alignment = ext::CollectiveConfig::Alignment::kPacked;
      break;
    default:
      s.collective.alignment = ext::CollectiveConfig::Alignment::kNone;
      break;
  }
  s.collective.packing_granule = 512ULL << rng.next_below(4);
  for (int r = 0; r < s.ntasks; ++r) {
    s.chunksizes.push_back(64 + rng.next_below(4 * kKiB));
    // Volumes from empty through several blocks of the rank's chunk size.
    const std::uint64_t volume =
        rng.next_bool(0.15) ? 0
                            : rng.next_below(3 * s.chunksizes.back() + 1);
    std::vector<std::byte> data(volume);
    rng.fill_bytes(data);
    s.payload.push_back(std::move(data));
  }
  s.remap_tasks = 1 + static_cast<int>(
                          rng.next_below(2 * static_cast<std::uint64_t>(
                                                 s.ntasks)));
  if (rng.next_bool(0.35)) {
    s.compress = true;
    s.compress_chunk = 512ULL << rng.next_below(4);  // 512 .. 4 KiB frames
  }

  // Checkpoint protection rides on parallel writers: buddy replication
  // when the task count admits at least two equal failure domains, or ECC
  // parity (k = 1 is always admissible).
  if (s.writer != Writer::kSerial && rng.next_bool(0.4)) {
    std::vector<int> divisors;
    for (int d = 2; d <= 4; ++d) {
      if (s.ntasks % d == 0) divisors.push_back(d);
    }
    if (rng.next_bool(0.5) && !divisors.empty()) {
      s.buddy_domains = divisors[static_cast<std::size_t>(
          rng.next_below(divisors.size()))];
      s.buddy_replicas = 2 + static_cast<int>(rng.next_below(
                                 static_cast<std::uint64_t>(
                                     std::min(2, s.buddy_domains - 1))));
      // Damage a random recoverable subset: up to r-1 distinct domains.
      const int max_loss = s.buddy_replicas - 1;
      const int nlose = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(max_loss) + 1));
      while (static_cast<int>(s.damaged_domains.size()) < nlose) {
        const int d = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(s.buddy_domains)));
        if (std::find(s.damaged_domains.begin(), s.damaged_domains.end(), d) ==
            s.damaged_domains.end()) {
          s.damaged_domains.push_back(d);
        }
      }
      s.damage_by_truncation = rng.next_bool(0.5);
      s.fault_seed = rng.next_u64();
    } else {
      std::vector<int> ks = divisors;
      ks.push_back(1);
      s.ecc_k = ks[static_cast<std::size_t>(rng.next_below(ks.size()))];
      s.ecc_m = 1 + static_cast<int>(rng.next_below(2));
      s.ecc_stripe = 512ULL << rng.next_below(4);  // 512 .. 4 KiB stripes
      s.ecc_heal_mode = rng.next_bool(0.5);
      // Damage a random recoverable subset: up to m distinct domains out
      // of all k + m (data files and parity files alike).
      const int nlose = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(s.ecc_m) + 1));
      while (static_cast<int>(s.ecc_damaged.size()) < nlose) {
        const int d = static_cast<int>(rng.next_below(
            static_cast<std::uint64_t>(s.ecc_k + s.ecc_m)));
        if (std::find(s.ecc_damaged.begin(), s.ecc_damaged.end(), d) ==
            s.ecc_damaged.end()) {
          s.ecc_damaged.push_back(d);
        }
      }
      s.damage_by_truncation = rng.next_bool(0.5);
      s.fault_seed = rng.next_u64();
    }
  }
  return s;
}

// The bytes a rank actually writes: raw, or its frame-compressed stream.
std::vector<std::byte> wire_bytes(const Schedule& s, int r) {
  const auto& raw = s.payload[static_cast<std::size_t>(r)];
  if (!s.compress) return raw;
  ext::CompressionSpec spec;
  spec.chunk_bytes = s.compress_chunk;
  auto enc = ext::compress_stream(raw, spec);
  EXPECT_TRUE(enc.ok());
  return enc.ok() ? std::move(enc).value() : raw;
}

void write_schedule(fs::SimFs& fs, par::Engine& engine, const Schedule& s,
                    const std::string& name) {
  if (s.writer == Writer::kSerial) {
    core::SerialWriteSpec spec;
    spec.filename = name;
    spec.chunksizes = s.chunksizes;
    spec.nfiles = s.nfiles;
    spec.fsblksize = s.fsblksize;
    auto sion = core::SionSerialFile::open_write(fs, spec);
    ASSERT_TRUE(sion.ok()) << sion.status().to_string();
    for (int r = 0; r < s.ntasks; ++r) {
      const auto wire = wire_bytes(s, r);
      ASSERT_TRUE(sion.value()->seek(r, 0, 0).ok());
      ASSERT_TRUE(sion.value()->write(DataView(wire)).ok());
    }
    ASSERT_TRUE(sion.value()->close().ok());
    return;
  }
  engine.run(s.ntasks, [&](par::Comm& world) {
    const int r = world.rank();
    core::ParOpenSpec spec;
    spec.filename = name;
    spec.chunksize = s.chunksizes[static_cast<std::size_t>(r)];
    spec.nfiles = s.nfiles;
    spec.fsblksize = s.fsblksize;
    const auto wire = wire_bytes(s, r);
    const DataView payload(wire);
    const ext::CollectiveConfig* aggregation =
        s.writer == Writer::kCollective ? &s.collective : nullptr;
    if (s.buddy_domains > 0) {
      ext::BuddyConfig config;
      config.replicas = s.buddy_replicas;
      config.num_domains = s.buddy_domains;
      ASSERT_TRUE(
          ext::Buddy::write(fs, world, spec, config, payload, aggregation)
              .ok());
      return;
    }
    if (s.ecc_k > 0) {
      ext::EccConfig config;
      config.data_domains = s.ecc_k;
      config.parity_domains = s.ecc_m;
      config.stripe_bytes = s.ecc_stripe;
      ASSERT_TRUE(
          ext::Ecc::write(fs, world, spec, config, payload, aggregation).ok());
      return;
    }
    if (s.writer == Writer::kCollective) {
      auto sion = ext::Collective::open_write(fs, world, spec, s.collective);
      ASSERT_TRUE(sion.ok()) << sion.status().to_string();
      ASSERT_TRUE(sion.value()->write(payload).ok());
      ASSERT_TRUE(sion.value()->close().ok());
    } else {
      auto sion = core::SionParFile::open_write(fs, world, spec);
      ASSERT_TRUE(sion.ok()) << sion.status().to_string();
      ASSERT_TRUE(sion.value()->write(payload).ok());
      ASSERT_TRUE(sion.value()->close().ok());
    }
  });
}

// Reopen at the writer task count and compare every rank's stream.
void check_same_scale(fs::SimFs& fs, par::Engine& engine, const Schedule& s,
                      const std::string& name, bool collective_reader) {
  engine.run(s.ntasks, [&](par::Comm& world) {
    const auto& expect = s.payload[static_cast<std::size_t>(world.rank())];
    const auto wire = wire_bytes(s, world.rank());
    std::vector<std::byte> back(wire.size());
    if (collective_reader) {
      auto sion = ext::Collective::open_read(fs, world, name, s.collective);
      ASSERT_TRUE(sion.ok()) << sion.status().to_string();
      ASSERT_EQ(sion.value()->bytes_remaining_total(), wire.size());
      auto got = sion.value()->read(back);
      ASSERT_TRUE(got.ok()) << got.status().to_string();
      ASSERT_EQ(got.value(), wire.size());
      ASSERT_TRUE(sion.value()->close().ok());
    } else {
      auto sion = core::SionParFile::open_read(fs, world, name);
      ASSERT_TRUE(sion.ok()) << sion.status().to_string();
      ASSERT_EQ(sion.value()->bytes_remaining_total(), wire.size());
      auto got = sion.value()->read(back);
      ASSERT_TRUE(got.ok()) << got.status().to_string();
      ASSERT_EQ(got.value(), wire.size());
      ASSERT_TRUE(sion.value()->close().ok());
    }
    EXPECT_EQ(back, wire);
    if (s.compress) {
      ext::StreamLossReport loss;
      auto decoded = ext::decompress_stream(back, &loss);
      ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
      EXPECT_EQ(decoded.value(), expect);
      EXPECT_TRUE(loss.clean());
    }
  });
}

// Restore onto a different task count and compare against the concatenated
// reference.
void check_remap(fs::SimFs& fs, par::Engine& engine, const Schedule& s,
                 const std::string& name, std::uint64_t wave_bytes) {
  std::vector<std::byte> expect;
  for (const auto& p : s.payload) expect.insert(expect.end(), p.begin(),
                                                p.end());
  std::vector<std::byte> got(expect.size());
  engine.run(s.remap_tasks, [&](par::Comm& world) {
    ext::RemapConfig config;
    config.buffer_bytes = wave_bytes;
    config.transparent_decompress = s.compress;
    auto remap = ext::Remap::open(fs, world, name, config);
    ASSERT_TRUE(remap.ok()) << remap.status().to_string();
    ASSERT_EQ(remap.value()->nwriters(), s.ntasks);
    ASSERT_EQ(remap.value()->total_bytes(), expect.size());
    const std::uint64_t lo = remap.value()->even_share_offset(world.rank());
    std::vector<std::byte> mine(remap.value()->even_share(world.rank()));
    auto stats = remap.value()->restore(mine, mine.size());
    ASSERT_TRUE(stats.ok()) << stats.status().to_string();
    if (!mine.empty()) std::memcpy(got.data() + lo, mine.data(), mine.size());
    ASSERT_TRUE(remap.value()->close().ok());
  });
  EXPECT_EQ(got, expect);
}

// Damage the schedule's chosen domains through a seeded FaultPlan (whole
// owned files lost, or the primary silently truncated), then restore
// through the buddy heal + remap pipeline and compare against the
// reference.
void damage_and_check_buddy(fs::SimFs& fs, par::Engine& engine,
                            const Schedule& s, const std::string& name) {
  fs::FaultPlan plan;
  plan.seed = s.fault_seed;
  for (const int d : s.damaged_domains) {
    if (s.damage_by_truncation) {
      plan.truncate(
          core::physical_file_name(name, d, s.buddy_domains),
          plan.seed % 997);  // always shorter than the metablock-2 tail
    } else {
      plan.lose(core::physical_file_name(name, d, s.buddy_domains));
      for (int k = 1; k < s.buddy_replicas; ++k) {
        plan.lose(core::physical_file_name(
            ext::Buddy::replica_name(name, k), d, s.buddy_domains));
      }
    }
  }
  fs.arm_faults(plan);

  std::vector<std::byte> expect;
  for (const auto& p : s.payload) expect.insert(expect.end(), p.begin(),
                                                p.end());
  std::vector<std::byte> got(expect.size());
  engine.run(s.remap_tasks, [&](par::Comm& world) {
    ext::BuddyConfig config;
    config.replicas = s.buddy_replicas;
    config.num_domains = s.buddy_domains;
    const std::uint64_t total = expect.size();
    const auto msize = static_cast<std::uint64_t>(world.size());
    const auto me = static_cast<std::uint64_t>(world.rank());
    const std::uint64_t lo = total * me / msize;
    const std::uint64_t hi = total * (me + 1) / msize;
    std::vector<std::byte> mine(hi - lo);
    ext::RemapConfig remap;
    remap.transparent_decompress = s.compress;
    auto stats = ext::Buddy::restore(fs, world, name, config, mine,
                                     mine.size(), remap);
    ASSERT_TRUE(stats.ok()) << stats.status().to_string();
    if (!mine.empty()) std::memcpy(got.data() + lo, mine.data(), mine.size());
  });
  fs.disarm_faults();
  EXPECT_EQ(got, expect);
}

// Damage the schedule's chosen ECC failure domains (data files and parity
// files alike — lost, or silently truncated: data mid-metablock, parity
// into its header), then restore through the ECC pipeline — heal-first or
// degraded inline decode per the schedule — and compare against the
// reference.
void damage_and_check_ecc(fs::SimFs& fs, par::Engine& engine,
                          const Schedule& s, const std::string& name) {
  fs::FaultPlan plan;
  plan.seed = s.fault_seed;
  for (const int d : s.ecc_damaged) {
    const std::string path =
        d < s.ecc_k
            ? core::physical_file_name(name, d, s.ecc_k)
            : ext::Ecc::parity_name(name, d - s.ecc_k);
    if (s.damage_by_truncation) {
      // Data files: below the metablock-2 tail. Parity files: into the
      // 512-byte-aligned header, so the checksum catches it.
      plan.truncate(path, d < s.ecc_k ? plan.seed % 997 : plan.seed % 400);
    } else {
      plan.lose(path);
    }
  }
  fs.arm_faults(plan);

  std::vector<std::byte> expect;
  for (const auto& p : s.payload) expect.insert(expect.end(), p.begin(),
                                                p.end());
  std::vector<std::byte> got(expect.size());
  engine.run(s.remap_tasks, [&](par::Comm& world) {
    ext::EccConfig config;
    config.data_domains = s.ecc_k;
    config.parity_domains = s.ecc_m;
    config.stripe_bytes = s.ecc_stripe;
    config.restore_mode = s.ecc_heal_mode ? ext::EccConfig::Restore::kHeal
                                          : ext::EccConfig::Restore::kDegraded;
    const std::uint64_t total = expect.size();
    const auto msize = static_cast<std::uint64_t>(world.size());
    const auto me = static_cast<std::uint64_t>(world.rank());
    const std::uint64_t lo = total * me / msize;
    const std::uint64_t hi = total * (me + 1) / msize;
    std::vector<std::byte> mine(hi - lo);
    ext::RemapConfig remap;
    remap.transparent_decompress = s.compress;
    auto stats = ext::Ecc::restore(fs, world, name, config, mine,
                                   mine.size(), remap);
    ASSERT_TRUE(stats.ok()) << stats.status().to_string();
    if (!mine.empty()) std::memcpy(got.data() + lo, mine.data(), mine.size());
  });
  fs.disarm_faults();
  EXPECT_EQ(got, expect);
}

class RoundtripFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoundtripFuzzTest, WriteReopenReadIsByteIdentical) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 20; ++iter) {
    SCOPED_TRACE(testing::Message() << "seed " << GetParam() << " iter "
                                    << iter);
    const Schedule s = random_schedule(rng);
    fs::SimFs fs(fs::TestbedConfig());
    par::Engine engine;
    const std::string name = "fuzz.sion";
    write_schedule(fs, engine, s, name);
    if (::testing::Test::HasFatalFailure()) return;

    // The multifile format is reader-agnostic: collectively written files
    // read back through the plain reader and vice versa (serial-written
    // files have per-rank chunk sizes, which the collective reader models
    // too). Pick the reader randomly, sometimes crossing the writer.
    // Buddy primaries are ordinary contiguous multifiles, so the same
    // checks run against them before any damage.
    const bool collective_reader = rng.next_bool(0.5);
    check_same_scale(fs, engine, s, name, collective_reader);
    if (::testing::Test::HasFatalFailure()) return;

    // N->M: random restart task count, random wave size (small waves force
    // multi-wave streams).
    const std::uint64_t wave = 1 + rng.next_below(8 * kKiB);
    check_remap(fs, engine, s, name, wave);
    if (::testing::Test::HasFatalFailure()) return;

    // Buddy schedules: inject the scripted failure scenario and prove the
    // redundant copies still reconstruct the reference bytes exactly.
    if (s.buddy_domains > 0) {
      damage_and_check_buddy(fs, engine, s, name);
      if (::testing::Test::HasFatalFailure()) return;
    }

    // ECC schedules: same idea — damage up to m of the k + m failure
    // domains and prove the parity reconstructs the reference exactly.
    if (s.ecc_k > 0) {
      damage_and_check_ecc(fs, engine, s, name);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundtripFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace sion
