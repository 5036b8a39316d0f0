// N->M checkpoint restart (paper sections 3.2.3/3.3): a multifile's
// metablocks make every writer rank's logical stream addressable after the
// fact, so a job that wrote its checkpoint with N tasks can be restarted
// with any task count M — the most common real restart scenario (job
// resubmitted at a different scale), which plain SionParFile::open_read
// rules out by requiring M == N.
//
// The pipeline, collective over the restart communicator `mcom` (M tasks):
//
//   1. Rank 0 opens the global view (core::SionSerialFile), learns the N
//      per-stream payload sizes from metablock 2, and broadcasts them.
//   2. The N source streams are assigned to readers with a contiguous,
//      byte-load-balanced partition: stream j goes to the reader whose share
//      of the total payload contains stream j's midpoint, so stream order is
//      preserved and every reader moves a similar byte volume.
//   3. Each task declares how many bytes of the *concatenated* global stream
//      (stream 0 ++ stream 1 ++ ... ++ stream N-1) it wants; the wants,
//      allgathered in rank order, define the destination partition.
//   4. Readers walk their streams in bounded waves (RemapConfig::
//      buffer_bytes) through SionSerialFile::read_at and ship each wave's
//      overlap with every destination range over par::Comm point-to-point,
//      so the virtual-time cost of restart-at-different-scale — disk reads
//      plus an alltoall-shaped redistribution — is modelled, not ignored.
//
// The file may have been written by SionParFile, SionSerialFile, or
// ext::Collective with any alignment mode: the walk uses only the geometry
// recorded in metablock 1 (kPacked packing never leaks into this path).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "core/serial_file.h"
#include "ext/compress.h"
#include "fs/filesystem.h"
#include "par/comm.h"

namespace sion::ext {

struct RemapConfig {
  // Cap on the per-reader staging buffer: streams are read and redistributed
  // in waves of at most this many bytes, so host memory stays bounded no
  // matter how large the checkpoint is.
  std::uint64_t buffer_bytes = 4 * kMiB;

  // Decode ext/compress.h framed streams on the reader side: stream sizes,
  // offsets and wants then all refer to *decoded* bytes, readers run each
  // source stream through a FrameStreamReader, and damaged frames arrive
  // zero-filled with the loss accounted in RemapStats::loss. Streams that do
  // not start with the frame sync marker pass through raw, so mixed and
  // uncompressed checkpoints restore unchanged.
  bool transparent_decompress = false;
};

// Per-task accounting of one restore, for benchmarks and diagnostics.
struct RemapStats {
  std::uint64_t bytes_read = 0;      // read from disk by this task
  std::uint64_t bytes_sent = 0;      // shipped to other tasks
  std::uint64_t bytes_received = 0;  // received from other tasks
  std::uint64_t bytes_local = 0;     // delivered without leaving this task
  // Transparent-decompression loss absorbed by this task's reads (see
  // RemapConfig::transparent_decompress); zero-initialized otherwise.
  StreamLossReport loss;
};

class Remap {
 public:
  // Collective open over `mcom` (any size, including 1). Every task learns
  // the writer count and per-stream sizes; only tasks that were assigned at
  // least one source stream open the multifile.
  static Result<std::unique_ptr<Remap>> open(fs::FileSystem& fs,
                                             par::Comm& mcom,
                                             const std::string& name,
                                             const RemapConfig& config = {});

  ~Remap();
  Remap(const Remap&) = delete;
  Remap& operator=(const Remap&) = delete;

  // ---- introspection ------------------------------------------------------
  [[nodiscard]] int nwriters() const { return nwriters_; }
  [[nodiscard]] std::uint64_t total_bytes() const { return total_bytes_; }
  // Payload bytes source stream `writer_rank` holds.
  [[nodiscard]] std::uint64_t stream_bytes(int writer_rank) const {
    return stream_bytes_[static_cast<std::size_t>(writer_rank)];
  }
  // How many source streams this task reads (a contiguous range).
  [[nodiscard]] int nstreams() const { return nstreams_; }

  // The default destination partition: rank `m`'s slice of the concatenated
  // global stream when the payload is split contiguously and evenly over the
  // M restart tasks. Callers with structured payloads (e.g. fixed-size
  // particle records) pass their own `want` to restore() instead.
  [[nodiscard]] std::uint64_t even_share(int rank) const;
  [[nodiscard]] std::uint64_t even_share_offset(int rank) const;

  // Collective: every task receives `want` bytes of the concatenated global
  // stream, in rank order; the wants must sum to total_bytes(). Pass an
  // empty `out` for a timing-only restore (bytes are moved through the wave
  // pipeline and discarded). Otherwise out.size() must be >= want.
  Result<RemapStats> restore(std::span<std::byte> out, std::uint64_t want);

  // Collective close.
  Status close();

 private:
  Remap() = default;

  // Reader of source stream j under the contiguous byte-balanced partition.
  [[nodiscard]] int reader_of(int stream) const {
    return reader_of_[static_cast<std::size_t>(stream)];
  }

  fs::FileSystem* fs_ = nullptr;
  par::Comm* mcom_ = nullptr;
  std::string name_;
  std::uint64_t buffer_bytes_ = 0;
  bool transparent_ = false;
  bool closed_ = false;

  int nwriters_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::vector<std::uint64_t> stream_bytes_;   // per writer rank
  std::vector<std::uint64_t> stream_offset_;  // exclusive prefix sum
  std::vector<int> reader_of_;                // per writer rank
  int nstreams_ = 0;  // this task's contiguous stream range

  // Open only on tasks with nstreams_ > 0.
  std::unique_ptr<core::SionSerialFile> view_;
};

}  // namespace sion::ext
