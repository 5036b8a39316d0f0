// Scalasca-like tracing workload (paper section 5.2): each task records
// events into a local buffer during measurement and writes them to a
// task-local (logical) file at finalisation; Table 2 measures the
// *activation* time (creating the files and initialising tracing, the
// bottleneck at 32 Ki tasks) separately from the write bandwidth.
//
// Like Scalasca's zlib use, the trace payload can be compressed with the
// slz codec before writing (see src/ext/slz.h).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baseline/task_local.h"
#include "common/status.h"
#include "core/par_file.h"
#include "ext/compress.h"
#include "fs/filesystem.h"
#include "par/comm.h"

namespace sion::workloads {

struct TraceEvent {
  std::uint64_t timestamp;
  std::uint32_t kind;    // enter/exit/send/recv...
  std::uint32_t region;  // instrumented region id
};
inline constexpr std::uint64_t kTraceEventBytes = 16;

// Generate a deterministic event stream (enter/exit nesting plus message
// events) of exactly `nevents` events for `rank`.
std::vector<TraceEvent> trace_generate(int rank, std::uint64_t nevents,
                                       std::uint64_t seed);
std::vector<std::byte> trace_serialize(const std::vector<TraceEvent>& events);
Result<std::vector<TraceEvent>> trace_deserialize(
    std::span<const std::byte> bytes);

enum class TraceBackend : std::uint8_t { kSion, kTaskLocal };

struct TracerSpec {
  std::string path;  // multifile name / task-file prefix
  TraceBackend backend = TraceBackend::kSion;
  int nfiles = 1;                 // SION backend
  std::uint64_t fsblksize = 0;    // SION backend
  std::uint64_t buffer_bytes = 0;  // expected trace volume per task (chunk)
  // When set, frame-compress at flush (ext/compress.h) and decompress at
  // load: the shared framer gives trace streams the same sync-marker +
  // CRC32C corruption tolerance as compressed checkpoints.
  std::optional<ext::CompressionSpec> compression;

  // Benchmark mode: flush writes this many synthetic payload bytes instead
  // of the recorded events (compression is modelled as already applied —
  // machine-scale runs cannot materialise 1.5 TB of event records).
  std::uint64_t synthetic_bytes = 0;

  // Per-task measurement-system initialisation cost charged at open
  // (buffer allocation, definition handling — Scalasca's activation is more
  // than file creation: the paper notes creation was only ~1 s of the
  // 28.1 s SIONlib activation).
  double init_seconds = 0.0;
};

// A per-task tracer. `open` is the experiment *activation* the paper's
// Table 2 times; `flush_and_close` writes the buffered events.
class Tracer {
 public:
  // Collective (even for the task-local backend, which barriers so the
  // activation phase is well-delimited for measurement).
  static Result<std::unique_ptr<Tracer>> open(fs::FileSystem& fs,
                                              par::Comm& comm,
                                              const TracerSpec& spec);

  void record(const TraceEvent& event);
  [[nodiscard]] std::uint64_t buffered_events() const {
    return static_cast<std::uint64_t>(events_.size());
  }

  // Returns payload bytes written (after compression, if enabled).
  Result<std::uint64_t> flush_and_close();

 private:
  Tracer() = default;
  fs::FileSystem* fs_ = nullptr;
  par::Comm* comm_ = nullptr;
  TracerSpec spec_;
  std::unique_ptr<core::SionParFile> sion_;
  std::unique_ptr<baseline::TaskLocalFile> local_;
  std::vector<TraceEvent> events_;
};

// Read one task's trace back (serial, task-local view for the SION backend,
// like Scalasca's analyzer does), decompressing if needed.
Result<std::vector<TraceEvent>> trace_load_rank(fs::FileSystem& fs,
                                                const TracerSpec& spec,
                                                int rank);

}  // namespace sion::workloads
