#include "workloads/tracer.h"

#include "baseline/task_local.h"
#include "common/codec.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/serial_file.h"
#include "ext/compress.h"
#include "fs/path.h"

namespace sion::workloads {

std::vector<TraceEvent> trace_generate(int rank, std::uint64_t nevents,
                                       std::uint64_t seed) {
  std::vector<TraceEvent> out;
  out.reserve(nevents);
  Rng rng(seed ^ (0xD1B54A32D192ED03ULL * static_cast<std::uint64_t>(rank + 1)));
  std::uint64_t clock = 1000;
  std::vector<std::uint32_t> stack;
  for (std::uint64_t i = 0; i < nevents; ++i) {
    clock += 1 + rng.next_below(100);
    TraceEvent e{};
    e.timestamp = clock;
    const bool may_exit = !stack.empty();
    const int roll = static_cast<int>(rng.next_below(10));
    if (may_exit && roll < 4) {
      e.kind = 1;  // exit
      e.region = stack.back();
      stack.pop_back();
    } else if (roll < 8 || !may_exit) {
      e.kind = 0;  // enter
      e.region = static_cast<std::uint32_t>(rng.next_below(64));
      stack.push_back(e.region);
    } else {
      e.kind = 2;  // message event
      e.region = static_cast<std::uint32_t>(rng.next_below(1024));
    }
    out.push_back(e);
  }
  return out;
}

std::vector<std::byte> trace_serialize(const std::vector<TraceEvent>& events) {
  ByteWriter w;
  for (const auto& e : events) {
    w.put_u64(e.timestamp);
    w.put_u32(e.kind);
    w.put_u32(e.region);
  }
  return w.take();
}

Result<std::vector<TraceEvent>> trace_deserialize(
    std::span<const std::byte> bytes) {
  if (bytes.size() % kTraceEventBytes != 0) {
    return Corrupt("trace data is not a whole number of event records");
  }
  std::vector<TraceEvent> out(bytes.size() / kTraceEventBytes);
  ByteReader r(bytes);
  for (auto& e : out) {
    SION_ASSIGN_OR_RETURN(e.timestamp, r.get_u64());
    SION_ASSIGN_OR_RETURN(e.kind, r.get_u32());
    SION_ASSIGN_OR_RETURN(e.region, r.get_u32());
  }
  return out;
}

Result<std::unique_ptr<Tracer>> Tracer::open(fs::FileSystem& fs,
                                             par::Comm& comm,
                                             const TracerSpec& spec) {
  auto out = std::unique_ptr<Tracer>(new Tracer());
  out->fs_ = &fs;
  out->comm_ = &comm;
  out->spec_ = spec;
  if (spec.backend == TraceBackend::kSion) {
    core::ParOpenSpec open;
    open.filename = spec.path;
    // "a chunk size equal to the amount of uncompressed data was chosen so
    // that only one block of chunks needed to be written" (paper 5.2).
    open.chunksize = std::max<std::uint64_t>(1, spec.buffer_bytes);
    open.nfiles = spec.nfiles;
    open.fsblksize = spec.fsblksize;
    SION_ASSIGN_OR_RETURN(out->sion_,
                          core::SionParFile::open_write(fs, comm, open));
  } else {
    SION_ASSIGN_OR_RETURN(
        auto file,
        baseline::TaskLocalFile::create(fs, fs::parent(spec.path),
                                        fs::basename(spec.path), comm.rank()));
    out->local_ = std::make_unique<baseline::TaskLocalFile>(std::move(file));
    // The task-local layout needs a second per-task file for definition
    // records (the SION backend keeps them inside the task's logical file),
    // doubling the pressure on the directory at activation.
    SION_ASSIGN_OR_RETURN(
        auto defs,
        baseline::TaskLocalFile::create(fs, fs::parent(spec.path),
                                        fs::basename(spec.path) + ".defs",
                                        comm.rank()));
    (void)defs;
    comm.barrier();  // activation is collective for measurement
  }
  if (spec.init_seconds > 0.0 && par::this_task() != nullptr) {
    par::this_task()->compute(spec.init_seconds);
    comm.barrier();
  }
  return out;
}

void Tracer::record(const TraceEvent& event) { events_.push_back(event); }

Result<std::uint64_t> Tracer::flush_and_close() {
  std::vector<std::byte> raw;
  std::vector<std::byte> framed;
  fs::DataView payload = fs::DataView::fill(std::byte{'e'}, spec_.synthetic_bytes);
  if (spec_.synthetic_bytes == 0) {
    raw = trace_serialize(events_);
    if (spec_.compression.has_value()) {
      SION_ASSIGN_OR_RETURN(framed,
                            ext::compress_stream(raw, *spec_.compression));
      payload = fs::DataView(framed);
    } else {
      payload = fs::DataView(raw);
    }
  }

  std::uint64_t written = 0;
  if (spec_.backend == TraceBackend::kSion) {
    SION_ASSIGN_OR_RETURN(written, sion_->write(payload));
    SION_RETURN_IF_ERROR(sion_->close());
    sion_.reset();
  } else {
    SION_ASSIGN_OR_RETURN(written, local_->write(payload));
    comm_->barrier();
  }
  events_.clear();
  return written;
}

Result<std::vector<TraceEvent>> trace_load_rank(fs::FileSystem& fs,
                                                const TracerSpec& spec,
                                                int rank) {
  std::vector<std::byte> raw;
  if (spec.backend == TraceBackend::kSion) {
    SION_ASSIGN_OR_RETURN(auto sion,
                          core::SionSerialFile::open_rank(fs, spec.path, rank));
    SION_ASSIGN_OR_RETURN(raw, sion->read_logical(rank));
    SION_RETURN_IF_ERROR(sion->close());
  } else {
    const std::string path =
        baseline::task_file_path(fs::parent(spec.path),
                                 fs::basename(spec.path), rank);
    SION_ASSIGN_OR_RETURN(auto file, fs.open_read(path));
    SION_ASSIGN_OR_RETURN(const fs::FileStat st, file->stat());
    raw.resize(st.size);
    SION_ASSIGN_OR_RETURN(const std::uint64_t n, file->pread(raw, 0));
    raw.resize(n);
  }
  if (spec.compression.has_value()) {
    SION_ASSIGN_OR_RETURN(const std::vector<std::byte> decoded,
                          ext::decompress_stream(raw));
    return trace_deserialize(decoded);
  }
  return trace_deserialize(raw);
}

}  // namespace sion::workloads
