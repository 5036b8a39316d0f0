#include "ext/staging.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"
#include "common/units.h"
#include "core/metadata.h"
#include "fs/path.h"
#include "fs/sim/simfs.h"
#include "par/engine.h"

namespace sion::ext {

namespace {

// Directory on the fast tier holding the staged slot files.
constexpr char kFastDir[] = "bb";

// Copy granule of the lazy materialisation pass.
constexpr std::uint64_t kCopyBufferBytes = 4 * kMiB;

}  // namespace

Result<std::unique_ptr<Staging>> Staging::open(
    fs::FileSystem& parallel_tier, par::Comm& comm, StagingConfig config,
    core::ParOpenSpec sion_spec, std::optional<CollectiveConfig> collective,
    std::optional<BuddyConfig> buddy, std::optional<EccConfig> ecc) {
  if (config.fast_tier == nullptr) {
    return InvalidArgument("staging: a fast_tier file system is required");
  }
  if (sion_spec.nfiles < 1) sion_spec.nfiles = 1;
  if (sion_spec.chunk_frames) {
    return InvalidArgument("staging: chunk recovery frames are not supported");
  }

  const auto* sim = dynamic_cast<const fs::SimFs*>(&parallel_tier);
  if (sim == nullptr || sim->config().burst_buffer.tasks_per_node <= 0 ||
      sim->config().burst_buffer.drain_bandwidth <= 0.0) {
    return InvalidArgument(
        "staging: the parallel tier must be a SimFs whose burst_buffer model "
        "sets tasks_per_node and drain_bandwidth");
  }

  if (buddy.has_value() && ecc.has_value()) {
    return InvalidArgument(
        "staging: buddy and ecc protection are mutually exclusive");
  }
  if (ecc.has_value()) {
    SION_ASSIGN_OR_RETURN(ecc,
                          Ecc::resolve(*ecc, sion_spec.nfiles, comm.size()));
    sion_spec.nfiles = ecc->data_domains;
  }
  if (buddy.has_value()) {
    SION_ASSIGN_OR_RETURN(
        buddy, Buddy::resolve(*buddy, sion_spec.nfiles, comm.size()));
    sion_spec.nfiles = buddy->num_domains;
  }

  auto s = std::unique_ptr<Staging>(new Staging());
  s->pfs_ = &parallel_tier;
  s->fast_ = config.fast_tier;
  s->comm_ = &comm;
  s->drain_ = sim->config().burst_buffer;
  s->sion_spec_ = std::move(sion_spec);
  s->collective_ = collective;
  s->buddy_ = buddy;
  s->ecc_ = ecc;
  s->replicas_ = buddy.has_value() ? std::max(1, buddy->replicas) : 1;
  s->drain_copies_ = static_cast<double>(s->replicas_);
  if (ecc.has_value()) {
    s->drain_copies_ = 1.0 + static_cast<double>(ecc->parity_domains) /
                                 static_cast<double>(s->sion_spec_.nfiles);
  }
  s->nnodes_ =
      (comm.size() + s->drain_.tasks_per_node - 1) / s->drain_.tasks_per_node;
  s->global_drain_bandwidth_ = sim->config().global_bandwidth;
  s->node_drain_.resize(static_cast<std::size_t>(s->nnodes_));
  s->node_bytes_scratch_.resize(static_cast<std::size_t>(s->nnodes_));

  // Ensure the staging directory exists on the fast tier (rank 0 creates it;
  // everyone shares the outcome).
  Status st = Status::Ok();
  if (comm.rank() == 0 && !s->fast_->exists(kFastDir)) {
    st = s->fast_->mkdir(kFastDir);
  }
  SION_RETURN_IF_ERROR(par::share_status(comm, st, 0, "staging open"));
  return s;
}

std::string Staging::slot_base(std::uint64_t index) const {
  return std::string(kFastDir) + "/" + fs::basename(sion_spec_.filename) +
         ".slot" + std::to_string(index % kBuffers);
}

Result<double> Staging::write(std::uint64_t index, fs::DataView payload,
                              const std::string& final_name) {
  if (index != history_.size()) {
    return FailedPrecondition(strformat(
        "staging: checkpoint %llu written out of order (expected %llu)",
        static_cast<unsigned long long>(index),
        static_cast<unsigned long long>(history_.size())));
  }

  // Double-buffer reuse: the slot's previous occupant must be fully drained
  // and materialised before its staged files are overwritten. A failure
  // here (the previous checkpoint was lost on the fast tier) fails this
  // write — the application must recover before checkpointing again.
  if (index >= kBuffers) SION_RETURN_IF_ERROR(wait(index - kBuffers));

  // Footprint of this checkpoint per burst-buffer node. Identical on every
  // rank (allgathered), so the capacity verdict needs no extra collective.
  const std::vector<std::uint64_t> sizes = comm_->allgather_u64(payload.size());
  std::vector<std::uint64_t>& node_bytes = node_bytes_scratch_;
  std::fill(node_bytes.begin(), node_bytes.end(), 0);
  for (int r = 0; r < comm_->size(); ++r) {
    node_bytes[static_cast<std::size_t>(r / drain_.tasks_per_node)] +=
        sizes[static_cast<std::size_t>(r)];
  }
  if (drain_.node_capacity != 0) {
    // Staged files stay on the device until their slot is overwritten, so
    // the occupancy to check is the last kBuffers checkpoints, this one
    // included (index - kBuffers is being replaced right now).
    const std::uint64_t lo = index + 1 >= kBuffers ? index + 1 - kBuffers : 0;
    for (int n = 0; n < nnodes_; ++n) {
      std::uint64_t occupied = node_bytes[static_cast<std::size_t>(n)];
      for (std::uint64_t k = lo; k < index; ++k) {
        occupied += booked_node_bytes_[k][static_cast<std::size_t>(n)];
      }
      if (occupied > drain_.node_capacity) {
        return QuotaExceeded(strformat(
            "staging: node %d needs %llu bytes of burst buffer "
            "(capacity %llu)",
            n, static_cast<unsigned long long>(occupied),
            static_cast<unsigned long long>(drain_.node_capacity)));
      }
    }
  }

  SION_RETURN_IF_ERROR(write_staged(index, payload));

  // The staged close does not leave the ranks at a common time; the barrier
  // does, and that common instant is when the drain agents may start.
  comm_->barrier();
  const par::TaskState* task = par::this_task();
  const double start = task != nullptr ? task->now() : 0.0;

  // Book the drain. Each node ships its staged bytes `replicas_` times over
  // its drain link; the parallel tier's global ingest cap is a second,
  // shared constraint. Both are serial timelines, and the checkpoint is
  // durable when the slowest one finishes (bottleneck model, not a staged
  // pipeline — adequate for drains that are long against their latency).
  double finish = start;
  std::uint64_t total = 0;
  for (int n = 0; n < nnodes_; ++n) {
    const std::uint64_t bytes = node_bytes[static_cast<std::size_t>(n)];
    total += bytes;
    if (bytes == 0) continue;
    const double duration =
        static_cast<double>(bytes) * drain_copies_ / drain_.drain_bandwidth;
    finish = std::max(
        finish, node_drain_[static_cast<std::size_t>(n)].acquire(start,
                                                                 duration));
  }
  if (global_drain_bandwidth_ > 0.0 && total != 0) {
    const double duration =
        static_cast<double>(total) * drain_copies_ / global_drain_bandwidth_;
    finish = std::max(finish, global_drain_.acquire(start, duration));
  }

  DrainInfo info;
  info.index = index;
  info.final_name = final_name;
  info.drain_start = start;
  info.drain_finish = finish;
  history_.push_back(std::move(info));
  booked_node_bytes_.push_back(node_bytes);
  return finish;
}

Status Staging::write_staged(std::uint64_t index, fs::DataView payload) {
  core::ParOpenSpec spec = sion_spec_;
  spec.filename = slot_base(index);
  spec.chunksize = std::max<std::uint64_t>(1, payload.size());
  return write_multifile(*fast_, *comm_, spec,
                         collective_.has_value() ? &*collective_ : nullptr,
                         payload);
}

Status Staging::wait(std::uint64_t index) {
  if (index >= history_.size()) {
    return InvalidArgument(strformat(
        "staging: wait for checkpoint %llu, but only %llu were written",
        static_cast<unsigned long long>(index),
        static_cast<unsigned long long>(history_.size())));
  }
  while (first_unmaterialized_ <= index) {
    DrainInfo& info = history_[first_unmaterialized_];
    if (par::TaskState* task = par::this_task(); task != nullptr) {
      task->advance_to(info.drain_finish);
    }
    const Status st = materialize(first_unmaterialized_);
    info.state = st.ok() ? SlotState::kDrained : SlotState::kFailed;
    ++first_unmaterialized_;
  }
  if (history_[index].state == SlotState::kFailed) {
    return IoError(strformat(
        "staged checkpoint %llu was lost before it drained ('%s')",
        static_cast<unsigned long long>(index),
        history_[index].final_name.c_str()));
  }
  return Status::Ok();
}

Status Staging::drain_all() {
  Status first = Status::Ok();
  while (first_unmaterialized_ < history_.size()) {
    const Status st = wait(first_unmaterialized_);
    if (!st.ok() && first.ok()) first = st;
  }
  return first;
}

std::optional<std::uint64_t> Staging::last_drained() const {
  std::optional<std::uint64_t> best;
  for (const DrainInfo& info : history_) {
    if (info.state == SlotState::kDrained) best = info.index;
  }
  return best;
}

Status Staging::materialize(std::uint64_t index) {
  const std::string staged = slot_base(index);
  const std::string& final_base = history_[index].final_name;
  const int nf = sion_spec_.nfiles;

  struct Job {
    std::string src;
    std::string dst;
    int patch_filenum;  // -1: copy verbatim
  };
  std::vector<Job> jobs;
  jobs.reserve(static_cast<std::size_t>(nf) *
               static_cast<std::size_t>(replicas_));
  for (int f = 0; f < nf; ++f) {
    jobs.push_back({core::physical_file_name(staged, f, nf),
                    core::physical_file_name(final_base, f, nf), -1});
  }
  // Replica sets are fabricated during the drain: set s's physical file j
  // carries the streams of domain (j - s) mod D, i.e. it is the staged
  // primary file of that domain with the header's filenum patched to j —
  // exactly the structural copy Buddy's heal path performs in reverse.
  for (int s = 1; s < replicas_; ++s) {
    const std::string replica = Buddy::replica_name(final_base, s);
    for (int j = 0; j < nf; ++j) {
      const int d = ((j - s) % nf + nf) % nf;
      jobs.push_back({core::physical_file_name(staged, d, nf),
                      core::physical_file_name(replica, j, nf), j});
    }
  }

  // The analytic drain model already owns the time (the caller advanced to
  // drain_finish); the byte movement itself must charge nothing.
  fs::SimFs::ScopedFreeIo free_fast(*fast_);
  fs::SimFs::ScopedFreeIo free_pfs(*pfs_);

  Status mine = Status::Ok();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (static_cast<int>(i % static_cast<std::size_t>(comm_->size())) !=
        comm_->rank()) {
      continue;
    }
    const Status st = copy_file(jobs[i].src, jobs[i].dst,
                                jobs[i].patch_filenum);
    if (!st.ok() && mine.ok()) mine = st;
  }
  const Status agreed = par::agree_status(*comm_, mine, "staging drain");
  if (!agreed.ok() || !ecc_.has_value()) return agreed;
  // Parity is fabricated on the parallel tier from the files just drained —
  // still under free-io; the analytic drain charged (1 + m/k)x upfront.
  return Ecc::encode_parity(*pfs_, *comm_, final_base, *ecc_);
}

Status Staging::copy_file(const std::string& src_name,
                          const std::string& dst_name, int patch_filenum) {
  // A fast-tier kLost fault removed the file: the open fails here.
  SION_ASSIGN_OR_RETURN(auto src, fast_->open_read(src_name));

  // Promote only complete, intact staged files: metablock 1 must carry the
  // close-time trailer and metablock 2 — at the very end of the file — must
  // parse, so a truncated staged file is refused instead of shipped.
  SION_ASSIGN_OR_RETURN(core::FileHeader header, core::read_header(*src));
  if (header.nblocks == 0 || header.meta2_offset == 0) {
    return Corrupt(strformat("staged file '%s' was never closed",
                             src_name.c_str()));
  }
  SION_RETURN_IF_ERROR(core::read_meta2(*src, header).status());
  const bool verbatim = patch_filenum < 0;
  if (!verbatim) header.filenum = static_cast<std::uint32_t>(patch_filenum);
  return core::copy_physical_file(*src, verbatim ? nullptr : &header, *pfs_,
                                  dst_name, kCopyBufferBytes)
      .status();
}

}  // namespace sion::ext
