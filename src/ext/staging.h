// Asynchronous multi-tier staging (paper section 6, "staged I/O"): a
// node-local burst-buffer tier absorbs checkpoints at memory-like speed
// while a background drain agent ships them to the parallel file system,
// so compute overlaps the slow tier's write instead of blocking on it.
//
// Model. The fast tier is a second file system (for SimFs machines, built
// with fs::BurstBufferTierConfig so fault injection and counters work on it
// unchanged). A staged write is a real SION multifile write on that tier,
// charged to the calling tasks — that is the cost the application pays.
// The drain is *not* a task: the engine cannot spawn fibers mid-run, so the
// drain agent is a serial timeline, a one-server fs::Resource per
// burst-buffer node (plus one for the parallel tier's ingest cap): each
// drain job starts at the later of its booking time and the previous job's
// end. Every rank books identical jobs in the same order, so the completion
// times are bit-identical across ranks. The actual byte movement to the
// parallel tier happens lazily at the next synchronisation point
// (wait/drain/slot reuse) under fs::SimFs::ScopedFreeIo, so the bytes land
// without double-charging time the analytic drain already accounted for.
// A fast-tier fault (kLost, kTruncate) armed before that point makes the
// materialisation genuinely fail — recovery then falls back to the last
// fully drained checkpoint.
//
// Double buffering: checkpoint k occupies fast-tier slot k % 2; the
// slot's previous occupant is always drained and materialised before the
// slot is rewritten, so an undrained buffer is never overwritten. With
// buddy protection, the burst buffer holds one copy and the drain fans out
// to primary + replica sets on the parallel tier (bytes x replicas on the
// drain link): replica set s's physical file j is the staged file of domain
// (j - s) mod D with the header's filenum patched — the same structural
// copy ext::Buddy's heal path uses in reverse. With ECC protection the
// burst buffer likewise holds one copy; the drain ships (1 + m/k)x the
// staged bytes and the materialisation fabricates the m parity files on
// the parallel tier from the drained primaries (ext::Ecc::encode_parity).
//
// All methods are collective over the communicator passed at open; every
// rank holds its own Staging instance and identical collective inputs keep
// the instances' drain timelines in lockstep.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/par_file.h"
#include "ext/buddy.h"
#include "ext/collective.h"
#include "ext/ecc.h"
#include "fs/filesystem.h"
#include "fs/sim/machine.h"
#include "fs/sim/resource.h"
#include "par/comm.h"

namespace sion::ext {

// The drain model (nodes, drain bandwidth, node capacity) is the parallel
// tier's SimConfig::burst_buffer, so the parallel tier must be a SimFs.
struct StagingConfig {
  // The node-local fast tier (required). For simulated machines, a SimFs
  // over fs::BurstBufferTierConfig(machine, ntasks).
  fs::FileSystem* fast_tier = nullptr;
};

class Staging {
 public:
  enum class SlotState : std::uint8_t { kInFlight, kDrained, kFailed };

  // Fast-tier slots, i.e. staged checkpoints in flight per node: classic
  // double buffering.
  static constexpr std::uint64_t kBuffers = 2;

  // One staged checkpoint's drain, in submission order (index == position).
  struct DrainInfo {
    std::uint64_t index = 0;
    std::string final_name;      // parallel-tier multifile base name
    double drain_start = 0.0;    // all staged bytes absorbed
    double drain_finish = 0.0;   // durable on the parallel tier
    SlotState state = SlotState::kInFlight;
  };

  // Collective open. `sion_spec` is the template for the staged writes
  // (filename is the *final* base name; chunksize is set per write);
  // `collective` routes the staged fast-tier writes through
  // ext::Collective; `buddy` replicates during the drain; `ecc` encodes
  // parity during the drain instead (mutually exclusive with `buddy`).
  // Either scheme stages one physical file per failure domain, so its
  // resolved domain count overrides sion_spec.nfiles.
  static Result<std::unique_ptr<Staging>> open(
      fs::FileSystem& parallel_tier, par::Comm& comm, StagingConfig config,
      core::ParOpenSpec sion_spec, std::optional<CollectiveConfig> collective,
      std::optional<BuddyConfig> buddy, std::optional<EccConfig> ecc = {});

  // Collective: absorb checkpoint `index` (consecutive from 0) into its
  // fast-tier slot and book the background drain; returns the drain
  // completion time. Blocks (in virtual time) on the slot's previous
  // occupant first — including its materialisation, whose failure fails
  // this call.
  Result<double> write(std::uint64_t index, fs::DataView payload,
                       const std::string& final_name);

  // Collective: advance virtual time to checkpoint `index`'s drain
  // completion and materialise it (and every older in-flight checkpoint,
  // in order) on the parallel tier.
  Status wait(std::uint64_t index);

  // Collective: wait for everything submitted so far.
  Status drain_all();

  [[nodiscard]] const std::vector<DrainInfo>& history() const {
    return history_;
  }

  // Largest index whose drain completed (materialised successfully), or
  // nothing yet.
  [[nodiscard]] std::optional<std::uint64_t> last_drained() const;

 private:
  Staging() = default;

  [[nodiscard]] std::string slot_base(std::uint64_t index) const;
  Status write_staged(std::uint64_t index, fs::DataView payload);
  Status materialize(std::uint64_t index);
  Status copy_file(const std::string& src, const std::string& dst,
                   int patch_filenum);

  fs::FileSystem* pfs_ = nullptr;
  fs::FileSystem* fast_ = nullptr;
  par::Comm* comm_ = nullptr;
  fs::SimConfig::BurstBuffer drain_;  // the parallel tier's drain model
  core::ParOpenSpec sion_spec_;
  std::optional<CollectiveConfig> collective_;
  std::optional<BuddyConfig> buddy_;
  std::optional<EccConfig> ecc_;
  int replicas_ = 1;
  // Bytes shipped over the drain links per staged byte: `replicas` for
  // buddy fan-out, 1 + m/k for ECC parity fabrication, 1 unprotected.
  double drain_copies_ = 1.0;
  int nnodes_ = 1;
  double global_drain_bandwidth_ = 0.0;  // parallel-tier ingest cap; 0 = off

  std::vector<fs::Resource> node_drain_;  // one drain agent per node
  fs::Resource global_drain_;             // shared ingest timeline

  std::vector<DrainInfo> history_;
  // Per checkpoint: bytes staged per burst-buffer node (capacity checks).
  std::vector<std::vector<std::uint64_t>> booked_node_bytes_;
  std::vector<std::uint64_t> node_bytes_scratch_;
  std::uint64_t first_unmaterialized_ = 0;
};

}  // namespace sion::ext
