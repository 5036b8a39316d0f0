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
// Host performance at 64Ki tasks hinges on five engine choices (see the
// README "Performance" section for measurements):
//   * fibers switch through a userspace register swap (par/fiber.h), not
//     glibc's context switch, whose per-switch sigprocmask syscalls
//     dominate a collective-heavy sweep;
//   * a suspending fiber dispatches the next runnable fiber DIRECTLY —
//     control never bounces through a scheduler context, so a task handoff
//     is one register swap, not two;
//   * tasks released together by a collective enter the scheduler as one
//     *release run* consumed in rank order, instead of ntasks individual
//     heap pushes/pops (Engine::wake_members);
//   * a task that yields while still holding the earliest virtual clock
//     keeps running — no heap traffic, no context switch;
//   * memory is fetched before it is needed: at 64Ki fibers the stacks
//     span far more than the caches and the TLB, so a handoff prefetches
//     the frame of the task expected to run next after the one it enters
//     (the earliest release run's next member, else the ready-heap top;
//     par/fiber.h's fiber_prefetch), and run()'s setup prefetches the top
//     of the stack a few ranks ahead of the one it lays out.
// None of these change the schedule: the golden determinism suite pins the
// resulting virtual times bit-for-bit.
//
// Every fiber of a run executes on the host thread that calls Engine::run.
// SimFs calls are ordered globally by (vtime, rank), so the file-system-bound
// phases this engine exists for are serial anyway; a second host thread
// could only add handoffs (README, "Threading model").
//
// Invariant maintained by the engine: whenever a task's virtual clock
// advances, the task yields, so resource requests are issued in globally
// non-decreasing virtual-time order (a conservative DES).
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "common/status.h"
#include "par/fiber.h"

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

  Engine* engine_ = nullptr;
  int rank_ = -1;
  double vtime_ = 0.0;
  Run state_ = Run::kReady;
  FiberContext fiber_;          // suspended context (par/fiber.h)
  std::byte* stack_ = nullptr;  // slice of the engine's stack slab
};

// The currently executing task, or nullptr outside Engine::run (e.g., in
// serial command-line tools). fs::SimFs consults this to know whose clock to
// charge.
TaskState* this_task();

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
  // point, so the choice does not depend on dispatch details — is rethrown
  // here after all fibers have been reaped.
  void run(int ntasks, const TaskFn& body);

  // Largest virtual completion time observed so far. The delta of epoch()
  // across a run() is that run's makespan.
  [[nodiscard]] double epoch() const { return epoch_; }

  [[nodiscard]] const EngineConfig& config() const { return config_; }

  // Suspensions (block_current calls) of the latest run(): one per task
  // that waits in a collective rendezvous or a blocking receive.
  [[nodiscard]] std::uint64_t suspensions() const { return suspensions_; }

  // --- runtime internals, used by TaskState/Comm -------------------------

  // Put the current task back in the ready queue at its (possibly advanced)
  // clock and switch to the scheduler. If the task still holds the earliest
  // (vtime, rank) key it simply keeps running.
  void yield_current();
  // Suspend the current task indefinitely; a collective partner will wake it.
  void block_current();
  // Make `task` runnable at virtual time `t`.
  void wake(TaskState& task, double t);
  // Batch release of a collective: make every member except members[skip]
  // runnable at time `t`, as one O(1)-per-task release run. `members` must
  // be in ascending global-rank order and must outlive the run; a Comm's
  // member vector is both (its constructor checks the order, and split
  // keeps it), so every collective releases through here. The schedule is
  // identical to per-task wake().
  void wake_members(const std::vector<TaskState*>& members, std::size_t skip,
                    double t);

  // Comm objects created during a run (world + splits) live here so that raw
  // Comm& handed to tasks stay valid for the whole run.
  Comm& adopt_comm(std::unique_ptr<Comm> comm);

 private:
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
  // The initial schedule of a run() is one such run over init_members_.
  struct ReleaseRun {
    static constexpr std::uint32_t kNoSkip = ~std::uint32_t{0};
    const std::vector<TaskState*>* members = nullptr;
    double t = 0.0;
    std::uint32_t next = 0;
    std::uint32_t end = 0;
    std::uint32_t skip = kNoSkip;
  };

  void fiber_main(TaskState& task);
  static void fiber_entry(void* arg);

  [[nodiscard]] ReadyEntry run_front_key(const ReleaseRun& run) const {
    return {run.t, (*run.members)[run.next]->rank()};
  }
  // Pop the earliest member of the earliest release run.
  TaskState* pop_run_front();
  void sift_runs();

  // Whether the earliest release run's front precedes the ready heap's top.
  [[nodiscard]] bool run_goes_first() const;
  // Earliest runnable task by (vtime, rank) across the ready heap and the
  // release runs, or nullptr when nothing is runnable.
  TaskState* next_task();
  // Transfer control from the (blocked/yielded/finished) current fiber
  // straight into `to` — fiber-to-fiber, no scheduler hop.
  void switch_from(TaskState& from, TaskState& to);
  // Dispatch the next runnable task from `from`'s fiber. Every wake-up
  // comes from a running task, so nothing runnable is a deadlock.
  void dispatch_next(TaskState& from);
  // Mark the current fiber finished, account for it, and dispatch the next
  // runnable task (or return to Engine::run once the last one is done).
  [[noreturn]] void retire_and_dispatch(TaskState& task);

  EngineConfig config_;
  double epoch_ = 0.0;

  // Per-run state.
  std::vector<TaskState> tasks_;
  // Rank order: the world comm's members and the initial release run.
  std::vector<TaskState*> init_members_;
  std::vector<std::unique_ptr<Comm>> comms_;
  Comm* world_ = nullptr;  // comms_.front()
  const TaskFn* body_ = nullptr;
  int total_tasks_ = 0;

  // Scheduler state.
  ReadyQueue ready_;
  std::vector<ReleaseRun> runs_;
  FiberContext sched_;  // Engine::run's own context
  TaskState* current_ = nullptr;
  int done_count_ = 0;
  std::uint64_t suspensions_ = 0;
  // Deterministic error capture: smallest (vtime, rank) throw wins.
  std::exception_ptr error_;
  double error_vt_ = 0.0;
  int error_rank_ = 0;

  // One mapping for every fiber stack, kept across run() calls.
  std::byte* slab_ = nullptr;
  std::size_t slab_bytes_ = 0;
};

}  // namespace sion::par
