// Buddy-redundancy checkpointing: failure-domain-aware replication so a
// task-local checkpoint survives the loss of entire physical files or whole
// failure domains — the scenario PR 3's repair cannot help with (repair
// reconstructs metadata from surviving bytes; buddy redundancy makes the
// bytes themselves survive).
//
// The writer communicator is partitioned into D equal failure domains of
// consecutive ranks (domain d = ranks [d*S, (d+1)*S)); the primary
// checkpoint is an ordinary SION multifile with one physical file per
// domain. For replication degree r, each domain's chunk payloads are
// additionally mirrored into r-1 *replica sets* "<name>.b1" ..
// "<name>.b<r-1>": replica set k stores the streams of domain d in the
// physical file owned by buddy domain (d+k) mod D, so the r copies of every
// stream live in r distinct failure domains and any r-1 domain losses leave
// at least one copy of everything.
//
// Every replica set is itself a complete, valid SION multifile whose
// logical rank j is writer rank j (identity is preserved; only the
// rank -> physical-file mapping is rotated). That makes recovery a
// *structural* no-op: a lost primary file d is healed by copying the
// surviving replica file (d+k) mod D byte-for-byte and patching the
// header's filenum — after which the ordinary N->M restart path
// (ext::Remap) runs unchanged.
//
// Copy traffic:
//   * collective mode routes primary and replicas through ext::Collective —
//     members ship payload views to their group's collector, which issues
//     the large coalesced (optionally kPacked) writes;
//   * plain mode mirrors payloads to the buddy domain over the
//     par::Comm group-to-group rotation collectives: every rank ships its
//     chunk descriptor and payload view to the rank S*k positions ahead,
//     and that buddy writes the received stream into its own domain's
//     replica file.
//
// All calls are collective. Chunk recovery frames are not supported in
// buddy mode (redundant copies supersede frame-based metadata repair).
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "common/status.h"
#include "common/units.h"
#include "core/par_file.h"
#include "ext/collective.h"
#include "ext/remap.h"
#include "fs/filesystem.h"
#include "par/comm.h"

namespace sion::ext {

struct BuddyConfig {
  // Total copies of every stream, the primary included; 1 disables
  // replication. Must not exceed the number of failure domains.
  int replicas = 2;

  // Failure domains D; ranks are split into D equal consecutive blocks and
  // the primary multifile gets one physical file per domain. 0 derives D
  // from ParOpenSpec::nfiles. The writer task count must be divisible by D.
  int num_domains = 0;
};

// Outcome of a probe-and-heal pass (assertable from tests and benches).
struct BuddyHealReport {
  int domains = 0;        // D
  int replicas = 0;       // r, primary included
  int damaged_files = 0;  // primary physical files missing or invalid
  int healed_files = 0;   // reconstructed from a surviving replica
  std::uint64_t bytes_copied = 0;  // replica bytes moved by the heal
};

class Buddy {
 public:
  // Collective write over `gcom`: the primary multifile at spec.filename
  // plus config.replicas - 1 replica sets. spec.nfiles is overridden by the
  // domain count; spec.chunk_frames must be off. A set `aggregation` routes
  // the primary and every replica set through ext::Collective (coalesced
  // collector writes) instead of per-task writes plus the group-to-group
  // mirror ship.
  static Status write(fs::FileSystem& fs, par::Comm& gcom,
                      const core::ParOpenSpec& spec, const BuddyConfig& config,
                      fs::DataView payload,
                      const CollectiveConfig* aggregation = nullptr);

  // Collective probe-and-heal over `mcom` (any size, including 1): rank 0
  // validates every primary physical file (open + metablocks 1 and 2); lost
  // or damaged files are reconstructed from the first surviving replica,
  // round-robin over the mcom tasks. Fails — consistently on every task —
  // when all r copies of some domain's streams are gone.
  static Result<BuddyHealReport> heal(fs::FileSystem& fs, par::Comm& mcom,
                                      const std::string& name,
                                      const BuddyConfig& config,
                                      std::uint64_t copy_buffer_bytes =
                                          4 * kMiB);

  // Collective heal + N->M restore: after healing, the checkpoint restores
  // through ext::Remap with the usual wants contract (`want` bytes of the
  // concatenated global stream per task, in rank order, summing to the
  // checkpoint total; empty `out` = timing-only).
  static Result<RemapStats> restore(fs::FileSystem& fs, par::Comm& mcom,
                                    const std::string& name,
                                    const BuddyConfig& config,
                                    std::span<std::byte> out,
                                    std::uint64_t want,
                                    const RemapConfig& remap = {});

  // Base name of replica set k (k >= 1): "<name>.b<k>".
  static std::string replica_name(const std::string& name, int k);

  // `config` with num_domains filled in (0 becomes max(1, nfiles)), once
  // the geometry rules every Buddy entry point shares hold: 1 <= replicas
  // <= D and, for ntasks > 0, writers that split into D equal domains.
  // Restores pass ntasks <= 0: an N->M restart comm need not divide into
  // the write-time domains.
  static Result<BuddyConfig> resolve(const BuddyConfig& config, int nfiles,
                                     int ntasks);
};

}  // namespace sion::ext
