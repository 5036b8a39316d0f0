// SimFs: a discrete-event parallel-file-system simulator.
//
// SimFs implements the `fs::FileSystem` interface with an in-memory sparse
// namespace *and* a virtual-time cost model. When called from inside a
// `par::Engine` task, every operation charges its completion time to the
// calling task's virtual clock; called serially (command-line tools), time
// accrues on an internal clock readable via `now()`.
//
// Modelled contention points (see machine.h for calibration):
//   * metadata: directory-block lock (GPFS) or dedicated MDS (Lustre)
//     serialises creates and first opens; re-opens of a hot inode are cheap;
//   * data: per-OST bandwidth with per-file striping (factor/depth,
//     overridable per directory like `lfs setstripe`), optional per-inode
//     bandwidth cap (GPFS token/write-behind), global ingest cap, and the
//     task's own injection link;
//   * locks: optional fs-block-granular write tokens that ping-pong between
//     tasks whose byte ranges share a block (GPFS false sharing, Table 1);
//   * cache: optional per-task write-back cache making re-reads faster than
//     the file system (Lustre, Fig. 5(b)).
//
// Files are sparse: bytes never written read back as zeros and do not count
// against allocation or quota, matching the behaviour the paper relies on
// for the gaps between SIONlib chunk blocks.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "fs/filesystem.h"
#include "fs/sim/extent_map.h"
#include "fs/sim/fault.h"
#include "fs/sim/machine.h"
#include "fs/sim/resource.h"

namespace sion::fs {

class SimFs final : public FileSystem {
 public:
  explicit SimFs(SimConfig config);
  ~SimFs() override;

  // FileSystem interface ----------------------------------------------------
  Result<std::unique_ptr<File>> create(const std::string& path) override;
  Result<std::unique_ptr<File>> open_read(const std::string& path) override;
  Result<std::unique_ptr<File>> open_rw(const std::string& path) override;
  Status mkdir(const std::string& path) override;
  Status remove(const std::string& path) override;
  Result<std::vector<std::string>> list_dir(const std::string& path) override;
  Result<FileStat> stat_path(const std::string& path) override;
  bool exists(const std::string& path) override;
  Result<std::uint64_t> block_size(const std::string& path) override;

  // Simulator controls --------------------------------------------------------
  [[nodiscard]] const SimConfig& config() const { return config_; }

  // Per-directory striping override (Lustre `lfs setstripe` analog); applies
  // to files created in `dir` afterwards. stripe_factor is clamped to the
  // number of OSTs.
  void set_dir_stripe(const std::string& dir, int stripe_factor,
                      std::uint64_t stripe_depth);

  // Virtual time of the serial clock (tools); inside a task, time lives on
  // the task's clock instead.
  [[nodiscard]] double now_serial() const { return serial_clock_; }

  // Forget all client-side state: inode hotness (cached-open fast path) and
  // per-task warm cache contents. Equivalent to starting a fresh job on the
  // machine; benchmarks call this between measurement phases so an "open
  // existing files" phase is not accidentally warm from the create phase.
  void drop_caches();

  struct Counters {
    std::uint64_t creates = 0;
    std::uint64_t opens = 0;
    std::uint64_t cached_opens = 0;
    std::uint64_t client_token_opens = 0;  // hot opens by a new client task
    std::uint64_t writes = 0;
    std::uint64_t reads = 0;
    std::uint64_t bytes_written = 0;
    std::uint64_t bytes_read = 0;
    std::uint64_t lock_transfers = 0;
    std::uint64_t read_revokes = 0;
    std::uint64_t cache_hit_bytes = 0;
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  // Total physically allocated bytes across all files (sparse-aware).
  [[nodiscard]] std::uint64_t allocated_bytes() const;

  // ---- fault injection ------------------------------------------------------
  // Arm a failure scenario (see fs/sim/fault.h). Destructive rules (kLost,
  // kTruncate, kBitFlip) are applied immediately — lost files are removed
  // from the namespace like an unlink, truncations and byte flips are
  // silent (no trailing metadata survives, no error on read) — and the
  // operational rules stay live until disarm_faults().
  // Matching files are visited in sorted path order and every probabilistic
  // decision draws from the plan's seed, so a scenario is deterministic.
  // Arming replaces any previously armed plan.
  void arm_faults(const FaultPlan& plan);

  // Back to a healthy machine: operational rules stop firing. Files already
  // lost or truncated stay that way (the damage was done to "disk").
  void disarm_faults();

  [[nodiscard]] const FaultCounters& fault_counters() const {
    return fault_counters_;
  }

  // ---- zero-charge transfers ------------------------------------------------
  // Scope for cross-tier copies whose virtual-time cost is modelled
  // elsewhere (the ext::Staging background drain): inside the scope,
  // operations on the wrapped file system move bytes and mutate the
  // namespace exactly as usual — fault rules, quota, and counters included —
  // but charge no virtual time and book no resource capacity (OSTs, links,
  // locks, metadata serialisation points), and leave the per-task warm
  // cache untouched: the copy agent is the machine, not a compute client.
  // No-op for non-Sim file systems. Scopes nest (a depth counter): under
  // the fiber engine every rank of a collective zero-charge section holds
  // its own scope, and the ranks enter and leave at different points of the
  // cooperative schedule. A section must end with a collective (barrier,
  // agree, share) before any task resumes *charged* I/O on the same
  // SimFs, so no task's application I/O runs while another still holds a
  // scope.
  class ScopedFreeIo {
   public:
    explicit ScopedFreeIo(FileSystem& fs);
    ~ScopedFreeIo();
    ScopedFreeIo(const ScopedFreeIo&) = delete;
    ScopedFreeIo& operator=(const ScopedFreeIo&) = delete;

   private:
    SimFs* fs_ = nullptr;
  };

 private:
  friend class SimFile;

  struct BlockLock {
    int owner = -1;      // task rank holding the write token; -1 = none
    double avail = 0.0;  // serialisation point for transfers on this block
  };

  // Which tasks hold a client-side token on an inode: a base-offset bitmap,
  // because at 64Ki ranks a node-based set costs an allocation and a tree
  // walk on every hot open. The base offset keeps the task-local-file case
  // (one rank per inode, 64Ki inodes) at exactly one word instead of
  // rank/64 zeroed words per inode. Index 0 is the serial (rank -1) caller.
  class ClientSet {
   public:
    // Returns true when `rank` was newly inserted.
    bool insert(int rank) {
      const auto idx = static_cast<std::size_t>(rank + 1);
      const std::size_t word = idx / 64;
      const std::uint64_t bit = 1ULL << (idx % 64);
      if (bits_.empty()) {
        base_ = word;
        bits_.push_back(bit);
        return true;
      }
      if (word < base_) {
        bits_.insert(bits_.begin(), base_ - word, 0);
        base_ = word;
      } else if (word - base_ >= bits_.size()) {
        bits_.resize(word - base_ + 1, 0);
      }
      std::uint64_t& w = bits_[word - base_];
      if ((w & bit) != 0) return false;
      w |= bit;
      return true;
    }
    void clear() {
      bits_.clear();
      base_ = 0;
    }

   private:
    std::size_t base_ = 0;
    std::vector<std::uint64_t> bits_;
  };

  // Per-inode distillation of the armed plan's data-path rules (first
  // matching rule of each kind wins; OST rules fold in when the rule's OST
  // intersects the file's stripe set). Recomputed when a plan is armed and
  // when a file is created under an armed plan, so the read/write hot path
  // only consults two doubles behind a has_faults flag.
  struct InodeFaults {
    double read_error_p = 0.0;
    double write_error_p = 0.0;
    double bandwidth_factor = 1.0;
  };

  struct Inode {
    ExtentMap extents;
    std::uint64_t size = 0;
    std::uint64_t id = 0;
    int stripe_factor = 1;
    std::uint64_t stripe_depth = 1;
    int ost_first = 0;  // first OST of this file's round-robin placement
    bool ever_opened = false;
    ClientSet client_ranks;  // tasks holding client-side tokens
    std::unique_ptr<Resource> file_link;  // per-file bandwidth cap (optional)
    std::unordered_map<std::uint64_t, BlockLock> block_locks;
    int open_handles = 0;
    bool unlinked = false;
    bool has_faults = false;
    InodeFaults faults;
  };

  struct DirState {
    Resource meta{1};  // directory-block lock (GPFS mode)
    std::set<std::string> entries;
    int stripe_factor = 0;             // 0 = use config default
    std::uint64_t stripe_depth = 0;
  };

  // (inode, task) key of the per-task warm cache, packed into one word for
  // the unordered map on the read/write charge path. Task ranks fit 18 bits;
  // the bound is enforced in simfs.cpp at both call sites so an oversized
  // rank aborts instead of silently aliasing another inode's entry.
  static constexpr int kMaxCacheRank = (1 << 18) - 2;
  static std::uint64_t cache_key(std::uint64_t inode_id, int task) {
    return (inode_id << 18) | static_cast<std::uint64_t>(task + 1);
  }

  // Heterogeneous-lookup string maps: namespace operations resolve
  // string_view keys without materialising std::string temporaries.
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  template <typename T>
  using PathMap = std::unordered_map<std::string, T, StringHash,
                                     std::equal_to<>>;

  // --- virtual-time plumbing ------------------------------------------------
  [[nodiscard]] double now() const;
  void advance(double t);
  [[nodiscard]] int caller_rank() const;  // -1 when serial

  // Fixed-latency service cost, zero inside a ScopedFreeIo scope.
  [[nodiscard]] double service(double t) const { return free_io_ ? 0.0 : t; }

  // Charge a namespace operation (create/open/stat) against the right
  // serialization point for the configured metadata mode.
  double charge_meta(DirState& dir, double service);

  // Service time for opening an already-hot inode by the calling task; with
  // client_open_service > 0 a task's first open of the inode pays the
  // client-token acquisition, later re-opens only cached_open_service.
  double hot_open_service(Inode& inode);

  Result<std::unique_ptr<File>> open_existing(const std::string& raw_path,
                                              bool writable);

  // --- data path -------------------------------------------------------------
  Result<std::uint64_t> do_write(Inode& inode, DataView data,
                                 std::uint64_t offset);
  Result<std::uint64_t> do_read(Inode& inode, std::span<std::byte> out,
                                std::uint64_t offset);
  Status do_read_timing(Inode& inode, std::uint64_t len, std::uint64_t offset);
  double charge_transfer(Inode& inode, std::uint64_t offset, std::uint64_t len,
                         std::uint64_t remote_len, double arrival);
  double charge_block_locks(Inode& inode, std::uint64_t offset,
                            std::uint64_t len, bool is_write, double arrival);

  Result<DirState*> parent_dir(const std::string& path);

  Resource& ion_for(int task);

  // --- fault plumbing -------------------------------------------------------
  // True when the armed plan rejects this open/create (counts the injection).
  bool open_faulted(const std::string& path);
  // Distil the armed plan's data-path rules for one file.
  void bind_faults(Inode& inode, const std::string& path);
  // Apply kLost/kTruncate and (re)bind every live inode.
  void apply_destructive_faults();

  SimConfig config_;
  PathMap<std::shared_ptr<Inode>> files_;
  PathMap<DirState> dirs_;  // node-based: DirState* stay valid across inserts
  Resource mds_;
  std::vector<Resource> osts_;
  std::map<int, Resource> ions_;  // I/O-forwarding nodes, created on use
  Resource global_link_;
  std::unordered_map<std::uint64_t, std::uint64_t> warm_bytes_;
  // One-entry memo for the parent-directory lookup: bulk create/open storms
  // hit one directory, and the map probe + parent() allocation per call is
  // pure overhead there. Invalidated when a directory is removed.
  std::string cached_parent_path_;
  DirState* cached_parent_ = nullptr;
  std::vector<double> per_ost_scratch_;  // charge_transfer working set
  int next_ost_ = 0;  // round-robin placement cursor
  std::uint64_t next_inode_id_ = 1;
  std::uint64_t allocated_total_ = 0;
  double serial_clock_ = 0.0;
  Counters counters_;

  int free_io_ = 0;  // ScopedFreeIo depth (one scope per fiber inside)
  bool faults_armed_ = false;
  FaultPlan fault_plan_;
  Rng fault_rng_;
  FaultCounters fault_counters_;
};

}  // namespace sion::fs
