// CheckpointSession: the multi-checkpoint lifecycle behind the one-shot
// write_checkpoint/read_checkpoint wrappers.
//
//   open(fs, comm, spec) -> write_async(payload) -> Ticket
//                           ... compute ...
//                           wait(ticket) / drain()
//                           close()
//
// Without `spec.staging` every write_async is the classic synchronous
// checkpoint (identical cost to the legacy free function — open/close add no
// I/O and no collectives). With `spec.staging` (kSion strategy only)
// write_async only blocks for the fast-tier absorb; the drain to the
// parallel file system proceeds on the ext::Staging background timelines
// while the application computes, and wait/drain/close synchronise with it.
//
// Consecutive checkpoints alternate between two parallel-tier names
// (checkpoint_name), so an in-flight drain never overwrites the last
// durable checkpoint; a small manifest file ("<path>.manifest", staged mode
// only) records the newest fully drained index and restore_latest uses it
// to recover after a failure — falling back to index 0 (the legacy name)
// when no manifest exists.
//
// All methods are collective over the communicator passed at open; every
// rank holds its own session instance.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "ext/staging.h"
#include "fs/filesystem.h"
#include "par/comm.h"
#include "workloads/checkpoint.h"

namespace sion::workloads {

class CheckpointSession {
 public:
  struct Ticket {
    std::uint64_t index = 0;
  };

  enum class State : std::uint8_t { kInFlight, kComplete, kFailed };

  struct Record {
    std::uint64_t index = 0;
    std::string name;              // parallel-tier (final) checkpoint name
    double snapshot_vtime = 0.0;   // application state the checkpoint holds
    double complete_vtime = 0.0;   // durable on the parallel tier
    State state = State::kInFlight;
  };

  // Collective. Sync mode performs no I/O here; staged mode opens the
  // ext::Staging subsystem (and creates the fast-tier staging directory).
  static Result<std::unique_ptr<CheckpointSession>> open(
      fs::FileSystem& fs, par::Comm& comm, CheckpointSpec spec);

  // Collective write of the next checkpoint: every task contributes
  // `payload`. Sync mode blocks until the checkpoint is durable; staged
  // mode blocks only for the fast-tier absorb (and, when both buffers are
  // in flight, for the oldest one's drain first).
  Result<Ticket> write_async(fs::DataView payload);

  // Collective: block (in virtual time) until `ticket`'s checkpoint is
  // durable on the parallel tier; fails if it was lost en route.
  Status wait(Ticket ticket);

  // Collective: wait for every in-flight checkpoint; returns the first
  // failure but drains the rest regardless.
  Status drain();

  // Collective: drain and close. Idempotent.
  Status close();

  [[nodiscard]] const std::vector<Record>& history() const { return records_; }
  [[nodiscard]] const CheckpointSpec& spec() const { return spec_; }

  // Parallel-tier name of checkpoint `index` under `spec`: index 0 is
  // spec.path itself (the legacy single-checkpoint contract); later indices
  // alternate over the two ".v<n>" suffixed names.
  static std::string checkpoint_name(const CheckpointSpec& spec,
                                     std::uint64_t index);

  // Collective read of checkpoint `index` (see read_checkpoint for the
  // expected_bytes/out contract).
  static Status restore(fs::FileSystem& fs, par::Comm& comm,
                        const CheckpointSpec& spec, std::uint64_t index,
                        std::uint64_t expected_bytes, std::span<std::byte> out);

  // Collective: restore the newest durable checkpoint — the manifest's
  // index when present, else index 0. Returns the index restored.
  static Result<std::uint64_t> restore_latest(fs::FileSystem& fs,
                                              par::Comm& comm,
                                              const CheckpointSpec& spec,
                                              std::uint64_t expected_bytes,
                                              std::span<std::byte> out);

 private:
  CheckpointSession(fs::FileSystem& fs, par::Comm& comm, CheckpointSpec spec)
      : fs_(&fs), comm_(&comm), spec_(std::move(spec)) {}

  // The classic synchronous checkpoint write, at an explicit name.
  Status write_now(const std::string& name, fs::DataView payload);

  // Mirror ext::Staging's drain states into records_.
  void sync_records();

  // Staged mode: persist the newest fully drained index (rank 0, free I/O —
  // the drain agent's bookkeeping, not application I/O).
  Status update_manifest();

  fs::FileSystem* fs_;
  par::Comm* comm_;
  CheckpointSpec spec_;
  std::unique_ptr<ext::Staging> staging_;  // null in sync mode
  std::vector<Record> records_;
  std::uint64_t manifest_value_ = 0;
  bool manifest_written_ = false;
  bool closed_ = false;
};

}  // namespace sion::workloads
