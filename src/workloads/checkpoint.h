// Strategy-parameterised checkpoint/restart I/O used by the MP2C use case
// (paper section 5.1) and the comparison benchmarks: the same payload can be
// written through SIONlib, through the single-file-sequential scheme MP2C
// originally used, or as one physical file per task.
//
// The spec composes optional sub-specs instead of bool flags:
//   * `collective` — aggregate through ext::Collective (present = on);
//   * `protection` — a variant of redundancy schemes (ext::BuddyConfig);
//   * `staging`    — asynchronous multi-tier staging (ext::StagingConfig):
//     checkpoints land on a node-local fast tier and drain to the parallel
//     file system in the background (see workloads/checkpoint_session.h).
//
// write_checkpoint/read_checkpoint remain as thin wrappers over a one-write
// CheckpointSession — new code should open a session directly (the sion-lint
// rule `legacy-checkpoint-call` enforces this for library internals).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <variant>

#include "common/status.h"
#include "ext/buddy.h"
#include "ext/collective.h"
#include "ext/compress.h"
#include "ext/ecc.h"
#include "ext/remap.h"
#include "ext/staging.h"
#include "fs/filesystem.h"
#include "par/comm.h"

namespace sion::workloads {

enum class IoStrategy : std::uint8_t {
  kSion,            // SIONlib multifile
  kSingleFileSeq,   // designated I/O task, gather/write waves
  kTaskLocal,       // one physical file per task
};

struct CheckpointSpec {
  std::string path;  // multifile name / single file name / task-file prefix
  IoStrategy strategy = IoStrategy::kSion;
  int nfiles = 1;               // SIONlib: physical files
  std::uint64_t fsblksize = 0;  // SIONlib: 0 = autodetect

  // SIONlib strategy only: aggregate through ext::Collective instead of
  // every task writing its own chunk (paper section 6, coalescing I/O).
  // The one aggregation setting: it also routes the protection writers'
  // primary and replica traffic and the staged fast-tier writes.
  std::optional<ext::CollectiveConfig> collective;

  // SIONlib strategy only: redundancy scheme protecting the checkpoint.
  // ext::BuddyConfig mirrors every failure domain's streams into replica
  // sets (writes) and probe-and-heals lost physical files before restoring
  // (reads). ext::EccConfig writes m Reed-Solomon parity files over the
  // k-file primary instead — any m of the k+m files may be lost at m/k
  // overhead, and restores either heal or decode lost files on the fly
  // (degraded reads). See the README "Checkpoint protection" matrix.
  using Protection =
      std::variant<std::monostate, ext::BuddyConfig, ext::EccConfig>;
  Protection protection;

  // SIONlib strategy only: stage checkpoints on a node-local fast tier and
  // drain them to the parallel file system in the background. Only
  // meaningful through CheckpointSession (write_async overlap); the one-shot
  // write_checkpoint wrapper drains before returning.
  std::optional<ext::StagingConfig> staging;

  // SIONlib strategy only: frame-compress every task's payload with
  // ext/compress.h before it enters the write path (plain, collective,
  // buddy, or staged — the downstream machinery moves opaque smaller
  // streams). Restores decode transparently, including N->M through
  // ext::Remap; damaged frames are zero-filled/skipped and accounted in
  // `compression->loss_report` (when set) instead of failing the restart.
  std::optional<ext::CompressionSpec> compression;

  // SIONlib strategy, read side only: restore through ext::Remap so the
  // checkpoint can be read by a different task count than wrote it (N->M
  // restart). Nonzero asserts the reading communicator has exactly that many
  // tasks; each task receives its contiguous slice of the concatenated
  // global stream, sized by its `expected_bytes`. Works regardless of how
  // the file was written (plain, collective/kPacked, or serial), so it takes
  // precedence over `collective` when reading. 0 keeps the classic
  // same-task-count read path.
  int restart_ntasks = 0;

  [[nodiscard]] const ext::BuddyConfig* buddy_protection() const {
    return std::get_if<ext::BuddyConfig>(&protection);
  }
  [[nodiscard]] const ext::EccConfig* ecc_protection() const {
    return std::get_if<ext::EccConfig>(&protection);
  }
};

// Early, session-independent validation of the protection sub-spec against
// the writer task count: impossible configs (no parity domains, more
// domains than GF(256) supports, domain counts that do not divide the
// writers, replication degrees exceeding the domain count) fail here with
// a clear InvalidArgument instead of deep inside the writer. Called by
// CheckpointSession::open and restore; exposed for tests and tools.
// `ntasks <= 0` skips the writer-divisibility checks (restores run at any
// task count — an N->M restart comm need not divide into the domains).
[[nodiscard]] Status validate_protection(const CheckpointSpec& spec,
                                         int ntasks);

// Collective write of one checkpoint: every task contributes `payload`.
// Thin wrapper over CheckpointSession (open, write_async, wait, close);
// with `staging` set it blocks until the drain completes.
Status write_checkpoint(fs::FileSystem& fs, par::Comm& comm,
                        const CheckpointSpec& spec, fs::DataView payload);

// Collective read of the checkpoint written above. Every task receives its
// `expected_bytes` into `out`; pass an empty span for timing-only restores
// (data moved and discarded). A task whose `out` is too small, or whose
// stream does not hold `expected_bytes`, fails only after its strategy's
// collective calls, so the other tasks' restores still complete.
Status read_checkpoint(fs::FileSystem& fs, par::Comm& comm,
                       const CheckpointSpec& spec,
                       std::uint64_t expected_bytes, std::span<std::byte> out);

}  // namespace sion::workloads
