// The task runtime: a deterministic, virtual-time execution engine for large
// numbers of logical tasks.
//
// The paper evaluates SIONlib with up to 64Ki MPI ranks on Blue Gene/P and
// Cray XT4. This reproduction has neither MPI nor those machines, so ranks
// are modelled as stackful fibers scheduled cooperatively by a discrete-event
// scheduler: the runnable task with the smallest virtual clock always runs
// next (ties broken by rank, so execution is fully deterministic). Time never
// comes from the wall clock — it is charged by the file-system simulator
// (`fs::SimFs`) and by the collective cost model (`par::NetworkModel`), which
// makes the benchmark tables reproducible run-to-run on any host.
//
// Host performance at 64Ki tasks hinges on four engine choices (see the
// README "Performance" section for measurements):
//   * fibers switch through a userspace register swap (par/fiber.h), not
//     swapcontext(), whose per-switch sigprocmask syscalls dominate a
//     collective-heavy sweep;
//   * a suspending fiber dispatches the next runnable fiber DIRECTLY —
//     control never bounces through a scheduler context, so a task handoff
//     is one register swap, not two;
//   * tasks released together by a collective enter the scheduler as one
//     *release run* consumed in rank order, instead of ntasks individual
//     heap pushes/pops (Engine::wake_members);
//   * a task that yields while still holding the earliest virtual clock
//     keeps running — no heap traffic, no context switch.
// None of these change the schedule: the golden determinism suite pins the
// resulting virtual times bit-for-bit.
//
// Threading model (EngineConfig::shards > 1): ranks are partitioned into
// contiguous per-host-thread *shards*, each running its own fiber scheduler
// over its own ready queue, release runs, and stack slab. Fibers never
// migrate host threads. Compute, collectives, and point-to-point messages
// run freely inside a shard and cross shard boundaries through mailbox-style
// inboxes — their virtual-time math is order-independent, so host
// interleaving cannot change results. Only `fs::SimFs` operations observe
// shared mutable state whose outcome depends on order; those are serialized
// exactly in global (vtime, rank) key order by a conservative protocol: each
// shard exposes a *floor* (lower bound on any key it may still act at), an
// fs-op parks in its shard's pending heap, and the globally minimal parked
// op — strictly below every other shard's floor and fs front — runs alone.
// All network costs are strictly positive, so work a running task triggers
// elsewhere always lands strictly above its shard's floor (the lookahead of
// the protocol). Results are bit-identical to the single-shard engine for
// every shard count; the golden determinism suite pins this.
//
// Invariant maintained by the engine: whenever a task's virtual clock
// advances, the task yields, so resource requests are issued in globally
// non-decreasing virtual-time order (a conservative DES).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <vector>

#include "par/fiber.h"

#ifndef SION_FAST_FIBERS
#include <ucontext.h>
#endif

#include "common/status.h"

namespace sion::par {

class Engine;
class Comm;

// Cost model for communication between tasks (alpha/beta model over a
// binomial tree, the standard shape of MPI collectives on BG/P and XT4).
struct NetworkModel {
  double alpha = 5.0e-6;       // per-hop latency in seconds
  double byte_time = 2.7e-9;   // seconds per byte on the bottleneck link

  [[nodiscard]] int tree_depth(int ntasks) const {
    int depth = 0;
    int reach = 1;
    while (reach < ntasks) {
      reach *= 2;
      ++depth;
    }
    return depth;
  }

  // Latency-only synchronisation (barrier, small allreduce).
  [[nodiscard]] double sync_cost(int ntasks) const {
    return 2.0 * tree_depth(ntasks) * alpha;
  }

  // Rooted data movement where `bottleneck_bytes` must traverse the root's
  // link (gather/scatter), plus tree latency.
  [[nodiscard]] double rooted_cost(int ntasks,
                                   std::uint64_t bottleneck_bytes) const {
    return tree_depth(ntasks) * alpha +
           static_cast<double>(bottleneck_bytes) * byte_time;
  }

  // Pipelined broadcast of `bytes` to all tasks.
  [[nodiscard]] double bcast_cost(int ntasks, std::uint64_t bytes) const {
    return tree_depth(ntasks) * alpha +
           static_cast<double>(bytes) * byte_time;
  }

  // Point-to-point transfer.
  [[nodiscard]] double p2p_cost(std::uint64_t bytes) const {
    return alpha + static_cast<double>(bytes) * byte_time;
  }
};

struct EngineConfig {
  // Per-fiber stack, rounded up to whole pages. Only the pages a fiber's
  // live frames touch become resident: one page for a shallow body,
  // whatever the size, because its canary shares the top page of the stack
  // below it.
  std::size_t stack_bytes = 128 * 1024;
  NetworkModel network;
  // Host threads to partition the ranks across. 1 = the classic sequential
  // engine. Results are bit-identical for every value (see "Threading
  // model" above); more shards trade mutex coordination for parallelism in
  // compute/collective-heavy phases.
  int shards = 1;
};

// Per-task runtime state. User code interacts with it through `this_task()`.
class TaskState {
 public:
  enum class Run : std::uint8_t { kReady, kRunning, kBlocked, kDone };

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] double now() const { return vtime_; }
  [[nodiscard]] Engine& engine() const { return *engine_; }

  // Advance this task's virtual clock to `t` (no-op if already past it) and
  // yield to the scheduler so globally time-ordered execution is preserved.
  void advance_to(double t);

  // Spend `seconds` of virtual compute time.
  void compute(double seconds) { advance_to(vtime_ + seconds); }

 private:
  friend class Engine;
  friend class Comm;
  friend class FsOrderGate;

  Engine* engine_ = nullptr;
  int rank_ = -1;
  double vtime_ = 0.0;
  Run state_ = Run::kReady;
  std::uint32_t shard_ = 0;       // home shard; fibers never migrate threads
  std::uint16_t fs_depth_ = 0;    // FsOrderGate nesting depth
  bool in_fs_op_ = false;         // inside a globally ordered SimFs op
#ifdef SION_FAST_FIBERS
  void* fiber_sp_ = nullptr;  // suspended context (par/fiber.h frame)
#else
  ucontext_t ctx_{};
  void* tsan_fiber_ = nullptr;  // TSan's handle for this stack (TSan builds)
#endif
  std::byte* stack_ = nullptr;  // slice of the shard's stack slab
};

// The currently executing task, or nullptr outside Engine::run (e.g., in
// serial command-line tools). fs::SimFs consults this to know whose clock to
// charge.
TaskState* this_task();

// RAII marker placed at the top of every `fs::SimFs`/`SimFile` operation that
// touches order-sensitive shared state. A no-op in serial code and in the
// single-shard engine; in the sharded engine it parks the calling task until
// its (vtime, rank) key is the global minimum, which serializes simulator
// operations in exactly the sequential engine's order (see "Threading model"
// in the header comment). Re-entrant per task: only the outermost gate on a
// task orders; nested gates are free.
class FsOrderGate {
 public:
  FsOrderGate();
  ~FsOrderGate();

  FsOrderGate(const FsOrderGate&) = delete;
  FsOrderGate& operator=(const FsOrderGate&) = delete;

 private:
  TaskState* task_ = nullptr;
};

namespace testing {
// Overwrites every stack slab parked in the global slab pool, as the kernel
// is allowed to do to MADV_FREE pages at any moment. Regression hook for the
// canary re-arm logic: a run after a scribble must still pass its canary
// checks.
void scribble_cached_stack_slabs();
}  // namespace testing

class Engine {
 public:
  using TaskFn = std::function<void(Comm& world)>;

  explicit Engine(EngineConfig config = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Run `ntasks` logical tasks to completion; each executes `body` with a
  // world communicator whose rank equals the task's rank. Tasks start at the
  // engine's current epoch, so consecutive run() calls share one monotonic
  // virtual timeline (resource queues in SimFs stay consistent across runs).
  // The first exception thrown by any task — by (vtime, rank) of the throw
  // point, so the choice is deterministic at every shard count — is rethrown
  // here after all fibers have been reaped.
  void run(int ntasks, const TaskFn& body);

  // Largest virtual completion time observed so far. The delta of epoch()
  // across a run() is that run's makespan.
  [[nodiscard]] double epoch() const { return epoch_; }

  [[nodiscard]] const EngineConfig& config() const { return config_; }

  // --- runtime internals, used by TaskState/Comm -------------------------

  // True when the current run executes on more than one host thread. Comm
  // and FsOrderGate use the cross-shard code paths only in this case.
  [[nodiscard]] bool sharded() const { return nshards_ > 1; }
  // Home shard of a rank in the current run (contiguous block partition).
  [[nodiscard]] int shard_of(int rank) const { return rank / ranks_per_shard_; }
  // The engine-wide coordination mutex. Cross-shard Comm paths hold it
  // around rendezvous/mailbox state and the *_locked calls below.
  [[nodiscard]] std::mutex& shard_mutex() { return mu_; }

  // Put the current task back in the ready queue at its (possibly advanced)
  // clock and switch to the scheduler. If the task still holds the earliest
  // (vtime, rank) key in its shard it simply keeps running.
  void yield_current();
  // Suspend the current task indefinitely; a collective partner will wake it.
  void block_current();
  // As block_current, but for cross-shard Comm paths: marks the task blocked
  // while `lock` (on shard_mutex()) is held, releases the lock, then
  // switches away. The lock is NOT reacquired on return.
  void block_current_locked(std::unique_lock<std::mutex>& lock);
  // Make `task` runnable at virtual time `t`.
  void wake(TaskState& task, double t);
  // As wake, but callable with shard_mutex() held for a task on any shard:
  // same-shard targets are woken directly, remote targets are posted to
  // their shard's inbox (drained deterministically by the owning thread).
  void wake_locked(TaskState& task, double t);
  // Batch release of a collective: make every member except members[skip]
  // runnable at time `t`, as one O(1)-per-task release run. `members` must
  // be in ascending global-rank order and must outlive the run (Comm member
  // vectors satisfy both); the schedule is identical to per-task wake().
  void wake_members(const std::vector<TaskState*>& members, std::size_t skip,
                    double t);
  // As wake_members, with shard_mutex() held: the member list is cut into
  // per-shard contiguous slices; the local slice becomes a release run
  // directly, remote slices are posted to their shards' inboxes.
  void wake_members_locked(const std::vector<TaskState*>& members,
                           std::size_t skip, double t);

  // Comm objects created during a run (world + splits) live here so that raw
  // Comm& handed to tasks stay valid for the whole run.
  Comm& adopt_comm(std::unique_ptr<Comm> comm);

 private:
  friend class FsOrderGate;

  // Min-heap of (vtime, rank); deterministic tie-break by rank.
  using ReadyEntry = std::pair<double, int>;

  // priority_queue with access to the underlying vector, so the engine can
  // reserve once per run and drop all entries in O(1) at the end.
  class ReadyQueue : public std::priority_queue<ReadyEntry,
                                                std::vector<ReadyEntry>,
                                                std::greater<ReadyEntry>> {
   public:
    void reserve(std::size_t n) { c.reserve(n); }
    void clear() { c.clear(); }
  };

  // One collective release: members[next..end) (minus the skipped waker)
  // become runnable at time t and are handed to the scheduler in rank order.
  // The initial schedule of a run() is one such run per shard, over that
  // shard's slice of init_members_.
  struct ReleaseRun {
    static constexpr std::uint32_t kNoSkip = ~std::uint32_t{0};
    const std::vector<TaskState*>* members = nullptr;
    double t = 0.0;
    std::uint32_t next = 0;
    std::uint32_t end = 0;
    std::uint32_t skip = kNoSkip;
  };

  // A cross-shard wake in flight, parked in the target shard's inbox until
  // its owning thread drains it (task state is only ever touched by the
  // task's own shard thread). members == nullptr is a single-task wake;
  // otherwise it is a wake_members slice [next, end) minus `skip`.
  struct InboxMsg {
    const std::vector<TaskState*>* members = nullptr;
    TaskState* task = nullptr;
    double t = 0.0;
    std::uint32_t next = 0;
    std::uint32_t end = 0;
    std::uint32_t skip = ReleaseRun::kNoSkip;
  };

  // One host thread's scheduler. The first group of fields is touched only
  // by the owning thread; the fields after mu-guarded comment only with
  // Engine::mu_ held.
  struct Shard {
    ~Shard();

    int index = 0;
    int rank_begin = 0;
    int rank_end = 0;  // exclusive
    ReadyQueue ready;
    std::vector<ReleaseRun> runs;
    std::vector<TaskState*> init_members;  // this shard's initial release run
#ifdef SION_FAST_FIBERS
    void* sched_sp = nullptr;
#else
    ucontext_t sched_ctx{};
    void* sched_tsan_fiber = nullptr;  // the shard loop's own stack
#endif
    TaskState* current = nullptr;
    std::byte* slab = nullptr;
    std::size_t slab_bytes = 0;
    int done_count = 0;
    double epoch = 0.0;  // local max completion time; merged after the run
    // Deterministic error capture: smallest (vtime, rank) throw wins.
    std::exception_ptr error;
    double error_vt = 0.0;
    int error_rank = 0;

    // --- mu-guarded coordination state ---------------------------------
    // Conservative lower bound on any (vtime, rank) key this shard may
    // still act at (dispatch locally, post cross-shard, run an fs op).
    double floor_vt = 0.0;
    int floor_rank = 0;
    ReadyQueue fs_pending;  // parked FsOrderGate ops, keyed (vtime, rank)
    std::vector<InboxMsg> inbox;
    bool published_done = false;
    int published_done_count = 0;  // mirror of done_count for diagnostics
  };

  void fiber_main(int index);
#ifdef SION_FAST_FIBERS
  static void fiber_entry(void* arg);
#else
  static void trampoline(unsigned int hi, unsigned int lo);
#endif
  void switch_to(Shard& sh, TaskState& task);

  [[nodiscard]] ReadyEntry run_front_key(const ReleaseRun& run) const {
    return {run.t, (*run.members)[run.next]->rank()};
  }
  // Pop the earliest member of the earliest release run.
  TaskState* pop_run_front(Shard& sh);
  void sift_runs(Shard& sh);

  // Earliest runnable task by (vtime, rank) across the shard's ready heap
  // and release runs, or nullptr when nothing is locally runnable.
  TaskState* next_task(Shard& sh);
  // Transfer control from the (blocked/yielded/finished) current fiber
  // straight into `to` — fiber-to-fiber, no scheduler hop.
  void switch_from(TaskState& from, TaskState& to);
  // Suspend the current fiber back into the shard loop (coordination).
  void suspend_to_sched(Shard& sh, TaskState& from);
  // Dispatch the next local task from `from`'s fiber, or fall back to the
  // shard loop (sharded) / deadlock (sequential).
  void dispatch_next_or_sched(Shard& sh, TaskState& from);
  // Mark the current fiber finished, account for it, and dispatch the next
  // runnable task (or return to the shard loop when none is).
  [[noreturn]] void retire_and_dispatch(TaskState& task);

  // --- sharded coordination (engine.cpp) --------------------------------
  void shard_main(Shard& sh);
  void shard_loop(Shard& sh);
  // Earliest locally runnable key (ready front vs release-run front).
  std::optional<ReadyEntry> local_front_key(Shard& sh);
  // True when (vt, rank) is the strict global minimum: below every other
  // shard's floor and fs front, and below everything locally runnable or
  // parked in this shard.
  bool fs_min_globally_locked(Shard& sh, double vt, int rank);
  void drain_inbox_locked(Shard& sh);
  // Drains the inbox, then publishes floor = min local runnable key (+inf
  // when none). Never raises the floor above an undrained inbox key.
  void refresh_floor_locked(Shard& sh);
  // The shard's parked fs-op front, if it is the strict global minimum
  // below every other shard's floor and fs front and this shard's own
  // floor; nullptr otherwise.
  TaskState* drainable_fs_op_locked(Shard& sh);
  [[nodiscard]] bool all_shards_done_locked() const;
  void enter_fs_order(TaskState& task);
  void exit_fs_order(TaskState& task);
  void park_fs_locked(Shard& sh, TaskState& task);

  // The shard whose scheduler owns the calling host thread during a run.
  static thread_local Shard* tls_shard_;

  EngineConfig config_;
  double epoch_ = 0.0;

  // Per-run state.
  std::vector<TaskState> tasks_;
  std::vector<TaskState*> init_members_;  // rank order; backs the world comm
  std::vector<std::unique_ptr<Comm>> comms_;
  std::vector<std::unique_ptr<Shard>> shards_;
  Comm* world_ = nullptr;  // comms_.front(), cached for lock-free reads
  const TaskFn* body_ = nullptr;
  int total_tasks_ = 0;
  int nshards_ = 1;          // active shards this run
  int ranks_per_shard_ = 1;  // contiguous block size of the partition

  std::mutex mu_;                // coordination: floors, inboxes, cross Comm
  std::condition_variable cv_;   // shard loops wait here for floor movement
  std::mutex comms_mu_;          // adopt_comm from concurrent local splits
  int waiting_ = 0;              // shards parked in cv_ (deadlock detection)
};

}  // namespace sion::par
