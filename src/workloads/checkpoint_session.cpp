#include "workloads/checkpoint_session.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <utility>

#include "baseline/single_file_seq.h"
#include "baseline/task_local.h"
#include "common/strings.h"
#include "core/api.h"
#include "fs/path.h"
#include "fs/sim/simfs.h"
#include "par/engine.h"

namespace sion::workloads {

namespace {

// Chunk size for SION checkpoints: the whole payload fits one chunk, the
// paper's recommended "choosing the maximum generously enough".
std::uint64_t sion_chunksize(fs::DataView payload) {
  return std::max<std::uint64_t>(1, payload.size());
}

// Materialise a DataView so it can be fed through the compressor. Fill and
// gather views are expanded; compression callers pay this host cost by
// opting in (virtual-scale benches that rely on fill virtualisation keep
// compression off).
std::vector<std::byte> flatten_view(fs::DataView v) {
  std::vector<std::byte> out;
  out.reserve(static_cast<std::size_t>(v.size()));
  const auto append = [&out](const fs::DataView& p) {
    if (p.is_fill()) {
      out.insert(out.end(), static_cast<std::size_t>(p.size()),
                 p.fill_byte());
    } else {
      out.insert(out.end(), p.bytes().begin(), p.bytes().end());
    }
  };
  if (v.is_gather()) {
    for (const fs::DataView& p : v.parts()) append(p);
  } else {
    append(v);
  }
  return out;
}

// The remap config the read side uses: spec.compression turns on
// transparent frame decoding for N->M and buddy restores.
ext::RemapConfig remap_config_of(const CheckpointSpec& spec) {
  ext::RemapConfig config;
  config.transparent_decompress = spec.compression.has_value();
  return config;
}

// Reads this task's `expected_bytes` into `out`, or skips them when `out`
// is empty. A buffer too small for them is filled as far as it goes, so
// the task still makes every read call its peers make (a collective reader
// deadlocks when one group mixes read and read_skip); the error comes
// after.
template <typename Reader>
Status read_expected(Reader& reader, std::uint64_t expected_bytes,
                     std::span<std::byte> out) {
  if (out.empty()) return reader.read_skip(expected_bytes);
  SION_ASSIGN_OR_RETURN(
      const std::uint64_t n,
      reader.read(out.first(static_cast<std::size_t>(
          std::min<std::uint64_t>(out.size(), expected_bytes)))));
  if (out.size() < expected_bytes) {
    return InvalidArgument("output buffer too small for checkpoint");
  }
  if (n != expected_bytes) return Corrupt("short checkpoint read");
  return Status::Ok();
}

// The same-task-count read through either reader, core::SionParFile or
// ext::Collective (`opened`). Every task reads and closes before it
// reports a bad input, so no peer strands in a collective; the plain
// verdict is per task. Compressed streams are fetched whole (frame
// boundaries do not respect chunk boundaries) and decoded tolerantly, and
// that verdict is agreed, so a rank whose stream lost alignment (torn
// frame header) fails every task cleanly.
template <typename Reader>
Status restore_same_count(Result<std::unique_ptr<Reader>> opened,
                          par::Comm& comm, const CheckpointSpec& spec,
                          std::uint64_t expected_bytes,
                          std::span<std::byte> out,
                          ext::StreamLossReport& loss) {
  SION_ASSIGN_OR_RETURN(const std::unique_ptr<Reader> sion, std::move(opened));
  if (!spec.compression.has_value()) {
    const bool sized = sion->bytes_remaining_total() == expected_bytes;
    Status st = read_expected(*sion, expected_bytes, out);
    if (!sized) st = Corrupt("checkpoint size does not match expectation");
    const Status closed = sion->close();
    return st.ok() ? closed : st;
  }
  auto raw = sion->read_remaining();
  SION_RETURN_IF_ERROR(sion->close());
  Status st = raw.status();
  if (st.ok()) {
    ext::StreamLossReport mine;
    auto decoded = ext::decompress_stream(raw.value(), &mine);
    if (!decoded.ok()) {
      st = decoded.status();
    } else if (decoded.value().size() != expected_bytes) {
      st = Corrupt(strformat(
          "compressed checkpoint decoded %llu bytes where %llu were "
          "expected (unrecoverable frame-header loss shrinks the stream)",
          static_cast<unsigned long long>(decoded.value().size()),
          static_cast<unsigned long long>(expected_bytes)));
    } else if (!out.empty() && out.size() < expected_bytes) {
      st = InvalidArgument("output buffer too small for checkpoint");
    } else {
      if (!out.empty() && expected_bytes > 0) {
        std::memcpy(out.data(), decoded.value().data(),
                    static_cast<std::size_t>(expected_bytes));
      }
      loss.merge(mine);
    }
  }
  return par::agree_status(comm, st,
                           "compressed restore failed on another task");
}

}  // namespace

Result<std::unique_ptr<CheckpointSession>> CheckpointSession::open(
    fs::FileSystem& fs, par::Comm& comm, CheckpointSpec spec) {
  if (spec.path.empty()) {
    return InvalidArgument("checkpoint spec has no path");
  }
  if (spec.staging.has_value() && spec.strategy != IoStrategy::kSion) {
    return InvalidArgument(
        "checkpoint staging requires the SIONlib strategy");
  }
  if (spec.compression.has_value() && spec.strategy != IoStrategy::kSion) {
    return InvalidArgument(
        "checkpoint compression requires the SIONlib strategy");
  }
  SION_RETURN_IF_ERROR(validate_protection(spec, comm.size()));
  auto session = std::unique_ptr<CheckpointSession>(new CheckpointSession(
      fs, comm, std::move(spec)));
  const CheckpointSpec& s = session->spec_;
  if (s.staging.has_value()) {
    core::ParOpenSpec open;
    open.filename = s.path;
    open.nfiles = std::max(1, s.nfiles);
    open.fsblksize = s.fsblksize;
    std::optional<ext::BuddyConfig> buddy;
    std::optional<ext::EccConfig> ecc;
    if (const ext::BuddyConfig* b = s.buddy_protection(); b != nullptr) {
      buddy = *b;
    }
    if (const ext::EccConfig* e = s.ecc_protection(); e != nullptr) {
      ecc = *e;
    }
    SION_ASSIGN_OR_RETURN(
        session->staging_,
        ext::Staging::open(fs, comm, *s.staging, open, s.collective, buddy,
                           ecc));
  }
  return session;
}

std::string CheckpointSession::checkpoint_name(const CheckpointSpec& spec,
                                               std::uint64_t index) {
  if (index == 0) return spec.path;  // the legacy single-checkpoint name
  // Alternate over as many names as staging has slots, so an in-flight
  // drain never lands on the newest durable checkpoint's files.
  return spec.path + ".v" +
         std::to_string(1 + (index - 1) % ext::Staging::kBuffers);
}

Result<CheckpointSession::Ticket> CheckpointSession::write_async(
    fs::DataView payload) {
  if (closed_) return FailedPrecondition("checkpoint session is closed");
  const std::uint64_t index = records_.size();
  const par::TaskState* task = par::this_task();
  const double snapshot = task != nullptr ? task->now() : 0.0;
  const std::string name = checkpoint_name(spec_, index);

  // Compression happens here, upstream of every write route: the staging
  // absorb, the buddy replicas, and the collective aggregation all move the
  // already-encoded (smaller) stream as opaque bytes.
  // A plain byte view compresses where it lies; only fill and gather views
  // are flattened first.
  std::vector<std::byte> encoded;
  if (spec_.compression.has_value()) {
    std::vector<std::byte> flat;
    std::span<const std::byte> raw = payload.bytes();
    if (payload.is_fill() || payload.is_gather()) {
      flat = flatten_view(payload);
      raw = flat;
    }
    SION_ASSIGN_OR_RETURN(encoded,
                          ext::compress_stream(raw, *spec_.compression));
    payload = fs::DataView(encoded);
  }

  if (staging_ != nullptr) {
    Result<double> finish = staging_->write(index, payload, name);
    if (!finish.ok()) {
      // Either an evicted earlier checkpoint failed to drain or this staged
      // write itself failed; nothing new was recorded.
      sync_records();
      return finish.status();
    }
    Record rec;
    rec.index = index;
    rec.name = name;
    rec.snapshot_vtime = snapshot;
    rec.complete_vtime = finish.value();
    rec.state = State::kInFlight;
    records_.push_back(std::move(rec));
    sync_records();
    SION_RETURN_IF_ERROR(update_manifest());
    return Ticket{index};
  }

  const Status st = write_now(name, payload);
  Record rec;
  rec.index = index;
  rec.name = name;
  rec.snapshot_vtime = snapshot;
  rec.complete_vtime = task != nullptr ? task->now() : 0.0;
  rec.state = st.ok() ? State::kComplete : State::kFailed;
  records_.push_back(std::move(rec));
  SION_RETURN_IF_ERROR(st);
  return Ticket{index};
}

Status CheckpointSession::wait(Ticket ticket) {
  if (ticket.index >= records_.size()) {
    return InvalidArgument(strformat(
        "wait for checkpoint %llu, but only %llu were written",
        static_cast<unsigned long long>(ticket.index),
        static_cast<unsigned long long>(records_.size())));
  }
  if (staging_ == nullptr) {
    if (records_[ticket.index].state == State::kFailed) {
      return IoError(strformat("checkpoint %llu ('%s') failed",
                               static_cast<unsigned long long>(ticket.index),
                               records_[ticket.index].name.c_str()));
    }
    return Status::Ok();
  }
  const Status st = staging_->wait(ticket.index);
  sync_records();
  const Status manifest = update_manifest();
  SION_RETURN_IF_ERROR(st);
  return manifest;
}

Status CheckpointSession::drain() {
  if (staging_ == nullptr) return Status::Ok();
  const Status st = staging_->drain_all();
  sync_records();
  const Status manifest = update_manifest();
  SION_RETURN_IF_ERROR(st);
  return manifest;
}

Status CheckpointSession::close() {
  if (closed_) return Status::Ok();
  const Status st = drain();
  closed_ = true;
  return st;
}

void CheckpointSession::sync_records() {
  if (staging_ == nullptr) return;
  const std::vector<ext::Staging::DrainInfo>& infos = staging_->history();
  const std::size_t n = std::min(infos.size(), records_.size());
  for (std::size_t i = 0; i < n; ++i) {
    switch (infos[i].state) {
      case ext::Staging::SlotState::kInFlight:
        records_[i].state = State::kInFlight;
        break;
      case ext::Staging::SlotState::kDrained:
        records_[i].state = State::kComplete;
        break;
      case ext::Staging::SlotState::kFailed:
        records_[i].state = State::kFailed;
        break;
    }
  }
}

Status CheckpointSession::update_manifest() {
  const std::optional<std::uint64_t> latest = staging_->last_drained();
  if (!latest.has_value()) return Status::Ok();
  if (manifest_written_ && manifest_value_ == *latest) return Status::Ok();
  Status st = Status::Ok();
  if (comm_->rank() == 0) {
    // Drain-agent bookkeeping, not application I/O: charges nothing.
    fs::SimFs::ScopedFreeIo free_io(*fs_);
    Result<std::unique_ptr<fs::File>> file =
        fs_->create(spec_.path + ".manifest");
    if (!file.ok()) {
      st = file.status();
    } else {
      const std::string text = std::to_string(*latest) + "\n";
      const Result<std::uint64_t> n = file.value()->pwrite(
          fs::DataView(std::as_bytes(std::span<const char>(text))), 0);
      if (!n.ok()) st = n.status();
    }
  }
  SION_RETURN_IF_ERROR(par::share_status(*comm_, st, 0,
                                         "checkpoint manifest"));
  manifest_written_ = true;
  manifest_value_ = *latest;
  return Status::Ok();
}

Status CheckpointSession::write_now(const std::string& name,
                                    fs::DataView payload) {
  const CheckpointSpec& spec = spec_;
  switch (spec.strategy) {
    case IoStrategy::kSion: {
      core::ParOpenSpec open;
      open.filename = name;
      open.chunksize = sion_chunksize(payload);
      open.nfiles = spec.nfiles;
      open.fsblksize = spec.fsblksize;
      const ext::CollectiveConfig* aggregation =
          spec.collective.has_value() ? &*spec.collective : nullptr;
      if (const ext::BuddyConfig* b = spec.buddy_protection(); b != nullptr) {
        return ext::Buddy::write(*fs_, *comm_, open, *b, payload, aggregation);
      }
      if (const ext::EccConfig* e = spec.ecc_protection(); e != nullptr) {
        return ext::Ecc::write(*fs_, *comm_, open, *e, payload, aggregation);
      }
      return ext::write_multifile(*fs_, *comm_, open, aggregation, payload);
    }
    case IoStrategy::kSingleFileSeq:
      return baseline::write_single_file_seq(*fs_, *comm_, name, payload);
    case IoStrategy::kTaskLocal: {
      SION_ASSIGN_OR_RETURN(
          auto file,
          baseline::TaskLocalFile::create(*fs_, fs::parent(name),
                                          fs::basename(name), comm_->rank()));
      SION_ASSIGN_OR_RETURN(const std::uint64_t n, file.write(payload));
      (void)n;
      comm_->barrier();
      return Status::Ok();
    }
  }
  return InvalidArgument("unknown checkpoint strategy");
}

Status CheckpointSession::restore(fs::FileSystem& fs, par::Comm& comm,
                                  const CheckpointSpec& spec,
                                  std::uint64_t index,
                                  std::uint64_t expected_bytes,
                                  std::span<std::byte> out) {
  const std::string name = checkpoint_name(spec, index);
  switch (spec.strategy) {
    case IoStrategy::kSion: {
      if (spec.restart_ntasks != 0 && comm.size() != spec.restart_ntasks) {
        return InvalidArgument(strformat(
            "restart_ntasks is %d but the restart runs %d tasks",
            spec.restart_ntasks, comm.size()));
      }
      // The protected and N->M routes hand each task its `expected_bytes`
      // slice of the concatenated global stream (with M == N exactly its
      // own stream); a short `out` fails every task through Remap's agreed
      // precondition. Restarts run at any task count, so the protection is
      // resolved with ntasks 0: no writer-divisibility check.
      ext::StreamLossReport local_loss;
      if (const ext::EccConfig* e = spec.ecc_protection(); e != nullptr) {
        // Probe once; lost files are either healed first or decoded on the
        // fly during the remap reads (EccConfig::restore_mode).
        SION_ASSIGN_OR_RETURN(const ext::EccConfig ecc,
                              ext::Ecc::resolve(*e, spec.nfiles, 0));
        SION_ASSIGN_OR_RETURN(
            const ext::RemapStats stats,
            ext::Ecc::restore(fs, comm, name, ecc, out, expected_bytes,
                              remap_config_of(spec)));
        local_loss.merge(stats.loss);
      } else if (const ext::BuddyConfig* b = spec.buddy_protection();
                 b != nullptr) {
        // Probe-and-heal first, then the remap restore.
        SION_ASSIGN_OR_RETURN(const ext::BuddyConfig buddy,
                              ext::Buddy::resolve(*b, spec.nfiles, 0));
        SION_ASSIGN_OR_RETURN(
            const ext::RemapStats stats,
            ext::Buddy::restore(fs, comm, name, buddy, out, expected_bytes,
                                remap_config_of(spec)));
        local_loss.merge(stats.loss);
      } else if (spec.restart_ntasks != 0) {
        SION_ASSIGN_OR_RETURN(auto remap,
                              ext::Remap::open(fs, comm, name,
                                               remap_config_of(spec)));
        SION_ASSIGN_OR_RETURN(const ext::RemapStats stats,
                              remap->restore(out, expected_bytes));
        local_loss.merge(stats.loss);
        SION_RETURN_IF_ERROR(remap->close());
      } else if (spec.collective.has_value()) {
        SION_RETURN_IF_ERROR(restore_same_count(
            ext::Collective::open_read(fs, comm, name, *spec.collective), comm,
            spec, expected_bytes, out, local_loss));
      } else {
        SION_RETURN_IF_ERROR(
            restore_same_count(core::SionParFile::open_read(fs, comm, name),
                               comm, spec, expected_bytes, out, local_loss));
      }
      if (spec.compression.has_value() &&
          spec.compression->loss_report != nullptr) {
        // Surface the restart's global loss on every task: the allreduced
        // sums are deterministic and identical everywhere, and run only
        // when every rank got here (the paths above agree on failure).
        ext::StreamLossReport global;
        global.frames_decoded =
            comm.allreduce_u64(local_loss.frames_decoded, par::ReduceOp::kSum);
        global.frames_skipped =
            comm.allreduce_u64(local_loss.frames_skipped, par::ReduceOp::kSum);
        global.bytes_zero_filled = comm.allreduce_u64(
            local_loss.bytes_zero_filled, par::ReduceOp::kSum);
        global.bytes_discarded = comm.allreduce_u64(
            local_loss.bytes_discarded, par::ReduceOp::kSum);
        spec.compression->loss_report->merge(global);
      }
      return Status::Ok();
    }
    case IoStrategy::kSingleFileSeq:
      return baseline::read_single_file_seq(fs, comm, name, expected_bytes,
                                            out);
    case IoStrategy::kTaskLocal: {
      auto file = baseline::TaskLocalFile::open_existing(
          fs, fs::parent(name), fs::basename(name), comm.rank(),
          /*writable=*/false);
      const Status st = file.ok()
                            ? read_expected(file.value(), expected_bytes, out)
                            : file.status();
      comm.barrier();
      return st;
    }
  }
  return InvalidArgument("unknown checkpoint strategy");
}

Result<std::uint64_t> CheckpointSession::restore_latest(
    fs::FileSystem& fs, par::Comm& comm, const CheckpointSpec& spec,
    std::uint64_t expected_bytes, std::span<std::byte> out) {
  const std::string manifest = spec.path + ".manifest";
  std::uint64_t latest_plus1 = 0;  // 0 = no manifest, fall back to index 0
  Status st = Status::Ok();
  if (comm.rank() == 0 && fs.exists(manifest)) {
    Result<std::unique_ptr<fs::File>> file = fs.open_read(manifest);
    if (!file.ok()) {
      st = file.status();
    } else {
      std::array<std::byte, 32> buffer{};
      const Result<std::uint64_t> n =
          file.value()->pread(std::span<std::byte>(buffer), 0);
      if (!n.ok()) {
        st = n.status();
      } else {
        // latest_plus1 must hold the index + 1, so the largest index is
        // 2^64 - 2; a longer digit string must not wrap round.
        constexpr std::uint64_t kMaxIndex =
            std::numeric_limits<std::uint64_t>::max() - 1;
        std::uint64_t value = 0;
        bool any = false;
        bool fits = true;
        for (std::uint64_t i = 0; i < n.value(); ++i) {
          const char c = static_cast<char>(buffer[i]);
          if (c < '0' || c > '9') break;
          const auto digit = static_cast<std::uint64_t>(c - '0');
          if (value > (kMaxIndex - digit) / 10) {
            fits = false;
            break;
          }
          value = value * 10 + digit;
          any = true;
        }
        if (!any || !fits) {
          st = Corrupt(strformat("manifest '%s' is unparsable",
                                 manifest.c_str()));
        } else {
          latest_plus1 = value + 1;
        }
      }
    }
  }
  comm.steps({.status = &st, .bcast = {&latest_plus1, 1}}, 0,
             "checkpoint manifest");
  SION_RETURN_IF_ERROR(st);
  const std::uint64_t index = latest_plus1 == 0 ? 0 : latest_plus1 - 1;
  SION_RETURN_IF_ERROR(restore(fs, comm, spec, index, expected_bytes, out));
  return index;
}

}  // namespace sion::workloads
