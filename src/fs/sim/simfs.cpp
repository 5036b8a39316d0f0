#include "fs/sim/simfs.h"

#include <algorithm>

#include "common/log.h"
#include "common/strings.h"
#include "fs/path.h"
#include "par/engine.h"

namespace sion::fs {

namespace {
constexpr int kNoOwner = -2;  // block write token held by nobody
constexpr double kListEntryService = 1.0e-6;
}  // namespace

// ---------------------------------------------------------------------------
// SimFile
// ---------------------------------------------------------------------------

class SimFile final : public File {
 public:
  SimFile(SimFs* fs, std::shared_ptr<SimFs::Inode> inode, bool writable)
      : fs_(fs), inode_(std::move(inode)), writable_(writable) {
    ++inode_->open_handles;
  }

  ~SimFile() override {
    --inode_->open_handles;
    fs_->advance(fs_->now() + fs_->service(fs_->config_.close_latency));
  }

  Result<std::uint64_t> pwrite(DataView data, std::uint64_t offset) override {
    if (!writable_) return PermissionDenied("file opened read-only");
    return fs_->do_write(*inode_, data, offset);
  }

  Result<std::uint64_t> pread(std::span<std::byte> out,
                              std::uint64_t offset) override {
    return fs_->do_read(*inode_, out, offset);
  }

  Status pread_discard(std::uint64_t len, std::uint64_t offset) override {
    return fs_->do_read_timing(*inode_, len, offset);
  }

  Result<FileStat> stat() override {
    fs_->advance(fs_->now() + fs_->service(fs_->config_.stat_service));
    FileStat st;
    st.size = inode_->size;
    st.allocated = inode_->extents.allocated_bytes();
    st.block_size = fs_->config_.fs_block_size;
    return st;
  }

  Status truncate(std::uint64_t size) override {
    if (!writable_) return PermissionDenied("file opened read-only");
    inode_->extents.truncate(size);
    inode_->size = size;
    fs_->advance(fs_->now() + fs_->service(fs_->config_.stat_service));
    return Status::Ok();
  }

  Status sync() override {
    fs_->advance(fs_->now() + fs_->service(fs_->config_.io_op_latency));
    return Status::Ok();
  }

 private:
  SimFs* fs_;
  std::shared_ptr<SimFs::Inode> inode_;
  bool writable_;
};

// ---------------------------------------------------------------------------
// SimFs
// ---------------------------------------------------------------------------

SimFs::SimFs(SimConfig config)
    : config_(std::move(config)),
      mds_(config_.meta_servers),
      global_link_(1, config_.global_bandwidth) {
  osts_.reserve(static_cast<std::size_t>(config_.num_osts));
  for (int i = 0; i < config_.num_osts; ++i) {
    osts_.emplace_back(1, config_.ost_bandwidth);
  }
  dirs_["."];  // implicit working directory
  dirs_["/"];
}

SimFs::~SimFs() = default;

double SimFs::now() const {
  const par::TaskState* task = par::this_task();
  return task != nullptr ? task->now() : serial_clock_;
}

void SimFs::advance(double t) {
  par::TaskState* task = par::this_task();
  if (task != nullptr) {
    task->advance_to(t);
  } else if (t > serial_clock_) {
    serial_clock_ = t;
  }
}

int SimFs::caller_rank() const {
  const par::TaskState* task = par::this_task();
  return task != nullptr ? task->rank() : -1;
}

double SimFs::charge_meta(DirState& dir, double service) {
  if (free_io_) return now();  // drain agent: no serialisation point booked
  if (config_.meta_mode == SimConfig::MetaMode::kDedicatedMds) {
    return mds_.acquire(now(), service);
  }
  return dir.meta.acquire(now(), service);
}

double SimFs::hot_open_service(Inode& inode) {
  if (free_io_) return 0.0;  // no client token traffic for the drain agent
  if (config_.client_open_service <= 0.0) {
    ++counters_.cached_opens;
    return config_.cached_open_service;
  }
  if (inode.client_ranks.insert(caller_rank())) {
    ++counters_.client_token_opens;
    return config_.cached_open_service + config_.client_open_service;
  }
  ++counters_.cached_opens;
  return config_.cached_open_service;
}

Result<SimFs::DirState*> SimFs::parent_dir(const std::string& path) {
  // `path` is already normalized by every caller, so the parent is a plain
  // prefix view — no re-normalization, no allocation.
  const std::string_view dir = parent_view(path);
  if (cached_parent_ != nullptr && dir == cached_parent_path_) {
    return cached_parent_;
  }
  const auto it = dirs_.find(dir);
  if (it == dirs_.end()) {
    return NotFound(strformat("directory '%.*s' does not exist",
                              static_cast<int>(dir.size()), dir.data()));
  }
  cached_parent_path_ = dir;
  cached_parent_ = &it->second;
  return cached_parent_;
}

Result<std::unique_ptr<File>> SimFs::create(const std::string& raw_path) {
  std::string norm;
  const std::string& path = normalize_into(raw_path, norm);
  if (dirs_.count(path) != 0) {
    return InvalidArgument(strformat("'%s' is a directory", path.c_str()));
  }
  if (faults_armed_ && open_faulted(path)) {
    return IoError(strformat("injected fault: create of '%s' failed",
                             path.c_str()));
  }
  SION_ASSIGN_OR_RETURN(DirState * dir, parent_dir(path));

  // Inserting a new directory entry serialises on the directory block
  // (GPFS) or the MDS (Lustre) — the effect behind Fig. 3.
  advance(charge_meta(*dir, config_.create_service));
  ++counters_.creates;

  auto inode = std::make_shared<Inode>();
  inode->stripe_factor =
      std::min(dir->stripe_factor != 0 ? dir->stripe_factor
                                       : config_.default_stripe_factor,
               config_.num_osts);
  inode->stripe_depth = dir->stripe_depth != 0 ? dir->stripe_depth
                                               : config_.default_stripe_depth;
  inode->ost_first = next_ost_;
  next_ost_ = (next_ost_ + inode->stripe_factor) % config_.num_osts;
  if (config_.per_file_bandwidth > 0.0) {
    inode->file_link =
        std::make_unique<Resource>(1, config_.per_file_bandwidth);
  }
  inode->ever_opened = true;
  inode->client_ranks.insert(caller_rank());
  inode->id = next_inode_id_++;

  if (faults_armed_) bind_faults(*inode, path);

  // create-over-existing replaces the inode; old handles keep the old data
  // (POSIX unlink-like behaviour). The replaced file's allocation returns
  // to the quota pool — staged-slot reuse depends on this.
  if (const auto existing = files_.find(path); existing != files_.end()) {
    existing->second->unlinked = true;
    allocated_total_ -= existing->second->extents.allocated_bytes();
  }
  files_[path] = inode;
  dir->entries.insert(basename(path));
  return std::unique_ptr<File>(
      std::make_unique<SimFile>(this, std::move(inode), /*writable=*/true));
}

Result<std::unique_ptr<File>> SimFs::open_read(const std::string& raw_path) {
  std::string norm;
  const std::string& path = normalize_into(raw_path, norm);
  const auto it = files_.find(path);
  if (it == files_.end()) {
    return NotFound(strformat("'%s' does not exist", path.c_str()));
  }
  if (faults_armed_ && open_faulted(path)) {
    return IoError(strformat("injected fault: open of '%s' failed",
                             path.c_str()));
  }
  SION_ASSIGN_OR_RETURN(DirState * dir, parent_dir(path));
  std::shared_ptr<Inode> inode = it->second;
  if (inode->ever_opened) {
    // Lookup of a hot inode: metadata/tokens are already cached near the
    // clients, which is what makes N tasks opening ONE shared multifile far
    // cheaper than N tasks opening N distinct files.
    advance(charge_meta(*dir, hot_open_service(*inode)));
  } else {
    advance(charge_meta(*dir, config_.open_service));
    ++counters_.opens;
    inode->client_ranks.insert(caller_rank());
  }
  inode->ever_opened = true;
  return std::unique_ptr<File>(
      std::make_unique<SimFile>(this, std::move(inode), /*writable=*/false));
}

Result<std::unique_ptr<File>> SimFs::open_rw(const std::string& raw_path) {
  std::string norm;
  const std::string& path = normalize_into(raw_path, norm);
  const auto it = files_.find(path);
  if (it == files_.end()) {
    return NotFound(strformat("'%s' does not exist", path.c_str()));
  }
  if (faults_armed_ && open_faulted(path)) {
    return IoError(strformat("injected fault: open of '%s' failed",
                             path.c_str()));
  }
  SION_ASSIGN_OR_RETURN(DirState * dir, parent_dir(path));
  std::shared_ptr<Inode> inode = it->second;
  if (inode->ever_opened) {
    advance(charge_meta(*dir, hot_open_service(*inode)));
  } else {
    advance(charge_meta(*dir, config_.open_service));
    ++counters_.opens;
    inode->client_ranks.insert(caller_rank());
  }
  inode->ever_opened = true;
  return std::unique_ptr<File>(
      std::make_unique<SimFile>(this, std::move(inode), /*writable=*/true));
}

Status SimFs::mkdir(const std::string& raw_path) {
  const std::string path = normalize(raw_path);
  if (dirs_.count(path) != 0 || files_.count(path) != 0) {
    return AlreadyExists(strformat("'%s' already exists", path.c_str()));
  }
  SION_ASSIGN_OR_RETURN(DirState * dir, parent_dir(path));
  advance(charge_meta(*dir, config_.create_service));
  dir->entries.insert(basename(path));
  dirs_[path];
  return Status::Ok();
}

Status SimFs::remove(const std::string& raw_path) {
  const std::string path = normalize(raw_path);
  SION_ASSIGN_OR_RETURN(DirState * dir, parent_dir(path));
  const auto fit = files_.find(path);
  if (fit != files_.end()) {
    advance(charge_meta(*dir, config_.create_service));
    fit->second->unlinked = true;
    allocated_total_ -= fit->second->extents.allocated_bytes();
    files_.erase(fit);
    dir->entries.erase(basename(path));
    return Status::Ok();
  }
  const auto dit = dirs_.find(path);
  if (dit != dirs_.end()) {
    if (!dit->second.entries.empty()) {
      return FailedPrecondition(
          strformat("directory '%s' not empty", path.c_str()));
    }
    advance(charge_meta(*dir, config_.create_service));
    if (cached_parent_ == &dit->second) {
      cached_parent_ = nullptr;
      cached_parent_path_.clear();
    }
    dirs_.erase(dit);
    dir->entries.erase(basename(path));
    return Status::Ok();
  }
  return NotFound(strformat("'%s' does not exist", path.c_str()));
}

Result<std::vector<std::string>> SimFs::list_dir(const std::string& raw_path) {
  const std::string path = normalize(raw_path);
  const auto it = dirs_.find(path);
  if (it == dirs_.end()) {
    return NotFound(strformat("directory '%s' does not exist", path.c_str()));
  }
  advance(charge_meta(it->second,
                      config_.stat_service +
                          kListEntryService *
                              static_cast<double>(it->second.entries.size())));
  return std::vector<std::string>(it->second.entries.begin(),
                                  it->second.entries.end());
}

Result<FileStat> SimFs::stat_path(const std::string& raw_path) {
  const std::string path = normalize(raw_path);
  const auto fit = files_.find(path);
  if (fit != files_.end()) {
    advance(now() + config_.stat_service);
    FileStat st;
    st.size = fit->second->size;
    st.allocated = fit->second->extents.allocated_bytes();
    st.block_size = config_.fs_block_size;
    return st;
  }
  if (dirs_.count(path) != 0) {
    advance(now() + config_.stat_service);
    FileStat st;
    st.block_size = config_.fs_block_size;
    return st;
  }
  return NotFound(strformat("'%s' does not exist", path.c_str()));
}

bool SimFs::exists(const std::string& raw_path) {
  std::string norm;
  const std::string& path = normalize_into(raw_path, norm);
  return files_.count(path) != 0 || dirs_.count(path) != 0;
}

Result<std::uint64_t> SimFs::block_size(const std::string&) {
  advance(now() + config_.stat_service);
  return config_.fs_block_size;
}

void SimFs::set_dir_stripe(const std::string& raw_dir, int stripe_factor,
                           std::uint64_t stripe_depth) {
  const std::string dir = normalize(raw_dir);
  auto& state = dirs_[dir];
  state.stripe_factor = std::min(stripe_factor, config_.num_osts);
  state.stripe_depth = stripe_depth;
}

std::uint64_t SimFs::allocated_bytes() const {
  return allocated_total_;
}

void SimFs::drop_caches() {
  // Order-independent per-inode state reset; nothing observable leaks.
  // sion-lint: allow(unordered-iteration)
  for (auto& [path, inode] : files_) {
    inode->ever_opened = false;
    inode->block_locks.clear();
    inode->client_ranks.clear();
  }
  warm_bytes_.clear();
}

// ---------------------------------------------------------------------------
// data path
// ---------------------------------------------------------------------------

double SimFs::charge_block_locks(Inode& inode, std::uint64_t offset,
                                 std::uint64_t len, bool is_write,
                                 double arrival) {
  if (free_io_ || !config_.block_granular_locks || len == 0) return arrival;
  const std::uint64_t blk = config_.fs_block_size;
  const int me = caller_rank();
  double end = arrival;
  const std::uint64_t first = offset / blk;
  const std::uint64_t last = (offset + len - 1) / blk;
  for (std::uint64_t b = first; b <= last; ++b) {
    auto [it, inserted] = inode.block_locks.try_emplace(b);
    BlockLock& lock = it->second;
    if (inserted) lock.owner = kNoOwner;
    if (is_write) {
      if (lock.owner != me) {
        if (lock.owner != kNoOwner) {
          // Stealing the write token of a dirty block forces the current
          // holder to flush it and the stealer to read-modify-write the
          // partial block: extra traffic through the disk path per transfer
          // (GPFS false sharing, Table 1).
          double t = std::max(arrival, lock.avail) + config_.lock_transfer_time;
          const auto flush = static_cast<std::uint64_t>(
              config_.steal_flush_blocks * static_cast<double>(blk));
          if (flush > 0) t = charge_transfer(inode, b * blk, blk, flush, t);
          lock.avail = t;
          end = std::max(end, t);
          ++counters_.lock_transfers;
        }
        lock.owner = me;
      }
    } else {
      if (lock.owner != kNoOwner && lock.owner != me) {
        // Reading a block whose write token another task holds forces the
        // holder to flush it (extra traffic through the disk path).
        double t = std::max(arrival, lock.avail) + config_.read_revoke_time;
        const auto flush = static_cast<std::uint64_t>(
            config_.revoke_flush_blocks * static_cast<double>(blk));
        if (flush > 0) t = charge_transfer(inode, b * blk, blk, flush, t);
        lock.avail = t;
        lock.owner = kNoOwner;
        end = std::max(end, t);
        ++counters_.read_revokes;
      }
    }
  }
  return end;
}

Resource& SimFs::ion_for(int task) {
  const int ion = task < 0 ? 0 : task / config_.tasks_per_ion;
  auto it = ions_.find(ion);
  if (it == ions_.end()) {
    it = ions_.emplace(ion, Resource(1, config_.ion_bandwidth)).first;
  }
  return it->second;
}

double SimFs::charge_transfer(Inode& inode, std::uint64_t offset,
                              std::uint64_t len, std::uint64_t remote_len,
                              double arrival) {
  double end = arrival;
  if (free_io_ || remote_len == 0 || len == 0) return end;

  if (config_.client_bandwidth > 0.0) {
    end = std::max(end, arrival + static_cast<double>(remote_len) /
                                      config_.client_bandwidth);
  }
  if (config_.tasks_per_ion > 0 && config_.ion_bandwidth > 0.0) {
    end = std::max(end,
                   ion_for(caller_rank()).acquire_bytes(arrival, remote_len));
  }
  if (inode.file_link) {
    end = std::max(end, inode.file_link->acquire_bytes(arrival, remote_len));
  }
  if (config_.global_bandwidth > 0.0) {
    end = std::max(end, global_link_.acquire_bytes(arrival, remote_len));
  }

  // Distribute the range over this file's stripe set. The per-OST tally is
  // a reused member scratch array — this sits on the per-write charge path.
  const int factor = std::max(1, inode.stripe_factor);
  const std::uint64_t depth = std::max<std::uint64_t>(1, inode.stripe_depth);
  const double scale =
      static_cast<double>(remote_len) / static_cast<double>(len);
  std::vector<double>& per_ost = per_ost_scratch_;
  per_ost.assign(static_cast<std::size_t>(factor), 0.0);
  const std::uint64_t first_unit = offset / depth;
  const std::uint64_t last_unit = (offset + len - 1) / depth;
  const std::uint64_t nunits = last_unit - first_unit + 1;
  if (nunits <= 4ULL * static_cast<std::uint64_t>(factor)) {
    // Exact split for small unit counts.
    for (std::uint64_t u = first_unit; u <= last_unit; ++u) {
      const std::uint64_t lo = std::max(offset, u * depth);
      const std::uint64_t hi = std::min(offset + len, (u + 1) * depth);
      per_ost[static_cast<std::size_t>(u % static_cast<std::uint64_t>(factor))] +=
          static_cast<double>(hi - lo);
    }
  } else {
    // Large ranges cover the stripe set many times over: even split.
    for (auto& v : per_ost) {
      v = static_cast<double>(len) / static_cast<double>(factor);
    }
  }
  for (int i = 0; i < factor; ++i) {
    const double bytes = per_ost[static_cast<std::size_t>(i)] * scale;
    if (bytes <= 0.0) continue;
    const int ost = (inode.ost_first + i) % config_.num_osts;
    Resource& r = osts_[static_cast<std::size_t>(ost)];
    end = std::max(end,
                   r.acquire(arrival, bytes / config_.ost_bandwidth));
  }
  return end;
}

Result<std::uint64_t> SimFs::do_write(Inode& inode, DataView data,
                                      std::uint64_t offset) {
  const std::uint64_t len = data.size();
  if (len == 0) return 0;

  if (faults_armed_ && inode.has_faults && inode.faults.write_error_p > 0.0 &&
      fault_rng_.next_double() < inode.faults.write_error_p) {
    ++fault_counters_.write_errors;
    return IoError("injected fault: write failed");
  }

  if (config_.quota_bytes != 0) {
    const std::uint64_t newly =
        len - inode.extents.allocated_in_range(offset, len);
    if (allocated_total_ + newly > config_.quota_bytes) {
      return QuotaExceeded(
          strformat("write of %llu bytes exceeds quota of %llu",
                    static_cast<unsigned long long>(len),
                    static_cast<unsigned long long>(config_.quota_bytes)));
    }
  }

  // Freshly allocated blocks are written back whole (GPFS-style): small
  // writes into new blocks move at least one full block of data.
  std::uint64_t write_out = len;
  if (config_.full_block_allocation) {
    const std::uint64_t blk = config_.fs_block_size;
    const std::uint64_t first = offset / blk;
    const std::uint64_t last = (offset + len - 1) / blk;
    std::uint64_t fresh = 0;
    for (std::uint64_t b = first; b <= last; ++b) {
      if (!inode.extents.any_allocated(b * blk, blk)) ++fresh;
    }
    write_out = std::max(write_out, fresh * blk);
  }

  const double t_arrive = now();
  const double t0 = t_arrive + service(config_.io_op_latency);
  const double t1 = charge_block_locks(inode, offset, len, /*is_write=*/true, t0);
  double t2 = charge_transfer(inode, offset, len, write_out, t1);
  if (!free_io_ && faults_armed_ && inode.has_faults &&
      inode.faults.bandwidth_factor < 1.0) {
    // Degraded path: the whole operation runs at a fraction of healthy
    // speed (a browned-out OST or a failing controller in the stripe set).
    t2 = t_arrive + (t2 - t_arrive) / inode.faults.bandwidth_factor;
    ++fault_counters_.degraded_ops;
  }

  const std::uint64_t before = inode.extents.allocated_bytes();
  inode.extents.write(offset, data);
  allocated_total_ += inode.extents.allocated_bytes() - before;
  inode.size = std::max(inode.size, offset + len);

  if (!free_io_ && config_.cache_bytes_per_task != 0) {
    const int rank = caller_rank();
    SION_CHECK(rank <= kMaxCacheRank) << "task rank overflows warm-cache key";
    auto& warm = warm_bytes_[cache_key(inode.id, rank)];
    warm = std::min(warm + len, config_.cache_bytes_per_task);
  }

  ++counters_.writes;
  counters_.bytes_written += len;
  advance(t2);
  return len;
}

// ---------------------------------------------------------------------------
// fault injection
// ---------------------------------------------------------------------------

void SimFs::arm_faults(const FaultPlan& plan) {
  fault_plan_ = plan;
  fault_rng_ = Rng(plan.seed);
  faults_armed_ = true;
  apply_destructive_faults();
  // bind_faults is pure per-inode (no draws, no output): visit order is
  // unobservable. The destructive pass above sorts before drawing.
  // sion-lint: allow(unordered-iteration)
  for (auto& [path, inode] : files_) bind_faults(*inode, path);
}

void SimFs::disarm_faults() {
  faults_armed_ = false;
  fault_plan_ = FaultPlan{};
  // Order-independent per-inode state reset; nothing observable leaks.
  // sion-lint: allow(unordered-iteration)
  for (auto& [path, inode] : files_) {
    inode->has_faults = false;
    inode->faults = InodeFaults{};
  }
}

void SimFs::apply_destructive_faults() {
  // Sorted path order per rule so the seeded per-file draws are independent
  // of hash-map iteration order — a scenario damages the same files on
  // every run, host, and build preset.
  std::vector<std::string> paths;
  paths.reserve(files_.size());
  // Collect-then-sort: the sort two lines down is exactly what makes the
  // seeded per-file draws independent of hash order.
  // sion-lint: allow(unordered-iteration)
  for (const auto& [path, inode] : files_) paths.push_back(path);
  std::sort(paths.begin(), paths.end());
  for (const FaultSpec& rule : fault_plan_.faults) {
    if (rule.kind != FaultSpec::Kind::kLost &&
        rule.kind != FaultSpec::Kind::kTruncate &&
        rule.kind != FaultSpec::Kind::kBitFlip) {
      continue;
    }
    for (const std::string& path : paths) {
      const auto it = files_.find(path);
      if (it == files_.end()) continue;  // already lost to an earlier rule
      if (!glob_match(rule.path_glob, path)) continue;
      if (rule.probability < 1.0 &&
          fault_rng_.next_double() >= rule.probability) {
        continue;
      }
      std::shared_ptr<Inode> inode = it->second;
      if (rule.kind == FaultSpec::Kind::kLost) {
        // The file vanishes from the namespace as if the storage holding it
        // died; open handles keep the stale data (POSIX unlink semantics).
        inode->unlinked = true;
        files_.erase(it);
        const auto dit = dirs_.find(parent_view(path));
        if (dit != dirs_.end()) dit->second.entries.erase(basename(path));
        allocated_total_ -= inode->extents.allocated_bytes();
        ++fault_counters_.files_lost;
      } else if (rule.kind == FaultSpec::Kind::kBitFlip) {
        // Silent in-place corruption: seeded offsets, each byte XORed with
        // a nonzero mask — bit rot the namespace and the metadata cannot
        // reveal; only content checks (CRC frames, parity probes) can.
        if (inode->size == 0) continue;
        const std::uint64_t before = inode->extents.allocated_bytes();
        for (std::uint64_t i = 0; i < rule.flip_bytes; ++i) {
          const std::uint64_t at = fault_rng_.next_below(inode->size);
          const auto mask = static_cast<std::byte>(
              fault_rng_.next_range(1, 255));
          std::byte value{0};
          inode->extents.read(at, std::span<std::byte>(&value, 1));
          value ^= mask;
          inode->extents.write(
              at, DataView(std::span<const std::byte>(&value, 1)));
          ++fault_counters_.bytes_flipped;
        }
        // Flipping a byte inside a hole materialises a tiny extent.
        allocated_total_ += inode->extents.allocated_bytes() - before;
        ++fault_counters_.files_corrupted;
      } else {
        // Silent truncation: no error, no trace — exactly the artifact a
        // quota kill or a torn storage target leaves behind. Truncation
        // only ever shrinks; a target at or beyond the current size is a
        // no-op, never a sparse extension fabricating readable zeros.
        if (rule.truncate_to < inode->size) {
          const std::uint64_t before = inode->extents.allocated_bytes();
          inode->extents.truncate(rule.truncate_to);
          allocated_total_ -= before - inode->extents.allocated_bytes();
          inode->size = rule.truncate_to;
          ++fault_counters_.files_truncated;
        }
      }
    }
  }
}

void SimFs::bind_faults(Inode& inode, const std::string& path) {
  inode.faults = InodeFaults{};
  inode.has_faults = false;
  const auto applies = [&](const FaultSpec& rule) {
    if (rule.ost >= 0) {
      // OST rules hit every file whose stripe set includes that target.
      for (int i = 0; i < inode.stripe_factor; ++i) {
        if ((inode.ost_first + i) % config_.num_osts == rule.ost) return true;
      }
      return false;
    }
    return glob_match(rule.path_glob, path);
  };
  for (const FaultSpec& rule : fault_plan_.faults) {
    switch (rule.kind) {
      case FaultSpec::Kind::kReadError:
        if (inode.faults.read_error_p == 0.0 && applies(rule)) {
          inode.faults.read_error_p = rule.probability;
        }
        break;
      case FaultSpec::Kind::kWriteError:
        if (inode.faults.write_error_p == 0.0 && applies(rule)) {
          inode.faults.write_error_p = rule.probability;
        }
        break;
      case FaultSpec::Kind::kDegrade:
        if (inode.faults.bandwidth_factor == 1.0 && applies(rule) &&
            rule.bandwidth_factor > 0.0 && rule.bandwidth_factor < 1.0) {
          inode.faults.bandwidth_factor = rule.bandwidth_factor;
        }
        break;
      default:
        break;
    }
  }
  inode.has_faults = inode.faults.read_error_p > 0.0 ||
                     inode.faults.write_error_p > 0.0 ||
                     inode.faults.bandwidth_factor < 1.0;
}

bool SimFs::open_faulted(const std::string& path) {
  for (const FaultSpec& rule : fault_plan_.faults) {
    if (rule.kind != FaultSpec::Kind::kOpenError) continue;
    if (!glob_match(rule.path_glob, path)) continue;
    if (rule.probability >= 1.0 ||
        fault_rng_.next_double() < rule.probability) {
      ++fault_counters_.open_errors;
      return true;
    }
  }
  return false;
}

Result<std::uint64_t> SimFs::do_read(Inode& inode, std::span<std::byte> out,
                                     std::uint64_t offset) {
  const std::uint64_t got =
      offset >= inode.size
          ? 0
          : std::min<std::uint64_t>(out.size(), inode.size - offset);
  if (got > 0) {
    SION_RETURN_IF_ERROR(do_read_timing(inode, got, offset));
    inode.extents.read(offset, out.subspan(0, got));
  }
  return got;
}

Status SimFs::do_read_timing(Inode& inode, std::uint64_t len,
                             std::uint64_t offset) {
  if (len == 0) return Status::Ok();
  if (faults_armed_ && inode.has_faults && inode.faults.read_error_p > 0.0 &&
      fault_rng_.next_double() < inode.faults.read_error_p) {
    ++fault_counters_.read_errors;
    return IoError("injected fault: read failed");
  }
  const double t_arrive = now();
  const double t0 = t_arrive + service(config_.io_op_latency);
  const double t1 = charge_block_locks(inode, offset, len, /*is_write=*/false, t0);

  std::uint64_t cached = 0;
  if (!free_io_ && config_.cache_bytes_per_task != 0) {
    const int rank = caller_rank();
    SION_CHECK(rank <= kMaxCacheRank) << "task rank overflows warm-cache key";
    const auto it = warm_bytes_.find(cache_key(inode.id, rank));
    if (it != warm_bytes_.end()) cached = std::min(len, it->second);
  }
  double end = charge_transfer(inode, offset, len, len - cached, t1);
  if (cached > 0 && config_.cache_bandwidth > 0.0) {
    end = std::max(end, t1 + static_cast<double>(cached) /
                                 config_.cache_bandwidth);
    counters_.cache_hit_bytes += cached;
  }
  if (!free_io_ && faults_armed_ && inode.has_faults &&
      inode.faults.bandwidth_factor < 1.0) {
    end = t_arrive + (end - t_arrive) / inode.faults.bandwidth_factor;
    ++fault_counters_.degraded_ops;
  }

  ++counters_.reads;
  counters_.bytes_read += len;
  advance(end);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// zero-charge transfers
// ---------------------------------------------------------------------------

SimFs::ScopedFreeIo::ScopedFreeIo(FileSystem& fs)
    : fs_(dynamic_cast<SimFs*>(&fs)) {
  if (fs_ == nullptr) return;  // posix or other backend: nothing to bypass
  ++fs_->free_io_;
}

SimFs::ScopedFreeIo::~ScopedFreeIo() {
  if (fs_ != nullptr) {
    SION_CHECK(fs_->free_io_ > 0) << "ScopedFreeIo depth underflow";
    --fs_->free_io_;
  }
}

}  // namespace sion::fs
