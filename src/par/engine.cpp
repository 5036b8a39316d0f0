#include "par/engine.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <optional>
#include <thread>

#include "common/log.h"
#include "par/comm.h"

#if defined(__SANITIZE_ADDRESS__)
#define SION_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SION_ASAN 1
#endif
#endif
#if defined(SION_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace sion::par {

namespace {
thread_local TaskState* g_current_task = nullptr;
thread_local Engine* g_engine = nullptr;

// Written at the low end of every fiber stack; checked when the fiber
// finishes to detect (most) stack overflows without per-fiber guard pages,
// which would exhaust vm.max_map_count at 64Ki fibers. The slab layout puts
// it in the page that holds the neighbouring fiber's top frames.
constexpr std::uint64_t kCanary = 0x510AC0DE510AC0DEULL;

// Retired stack slabs are pooled and handed to the next shard whose local
// task count fits: a 64Ki-task sweep builds a fresh Engine per data point,
// and re-faulting a page per fiber per point dominates the host cost of
// task setup otherwise. Pooled slabs are marked MADV_FREE, so the kernel may
// reclaim (zero) any page at any moment while unreclaimed pages are reused
// without a fault — which is why canaries are re-armed on every acquisition
// and never trusted across a pool round-trip. Process-global with a mutex
// (not thread_local): shard worker threads are short-lived, and a slab
// cached on a dead thread would be leaked capacity.
class SlabPool {
 public:
  std::byte* acquire(std::size_t bytes, std::size_t* actual) {
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t best = entries_.size();
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].bytes >= bytes &&
          (best == entries_.size() ||
           entries_[i].bytes < entries_[best].bytes)) {
        best = i;
      }
    }
    if (best == entries_.size()) return nullptr;
    std::byte* slab = entries_[best].ptr;
    *actual = entries_[best].bytes;
    entries_.erase(entries_.begin() +
                   static_cast<std::ptrdiff_t>(best));
    return slab;
  }

  void release(std::byte* ptr, std::size_t bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    if (entries_.size() >= kMaxEntries) {
      // Keep the large slabs: they are the expensive ones to re-fault.
      std::size_t smallest = 0;
      for (std::size_t i = 1; i < entries_.size(); ++i) {
        if (entries_[i].bytes < entries_[smallest].bytes) smallest = i;
      }
      if (entries_[smallest].bytes >= bytes) {
        ::munmap(ptr, bytes);
        return;
      }
      ::munmap(entries_[smallest].ptr, entries_[smallest].bytes);
      entries_.erase(entries_.begin() +
                     static_cast<std::ptrdiff_t>(smallest));
    }
    entries_.push_back(Entry{ptr, bytes});
#ifdef MADV_FREE
    ::madvise(ptr, bytes, MADV_FREE);
#endif
  }

  void scribble() {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Entry& e : entries_) {
#if defined(SION_ASAN)
      // Fibers that ran on this slab left ASan's stack poisoning behind.
      ASAN_UNPOISON_MEMORY_REGION(e.ptr, e.bytes);
#endif
      std::memset(e.ptr, 0xA5, e.bytes);
#ifdef MADV_FREE
      ::madvise(e.ptr, e.bytes, MADV_FREE);
#endif
    }
  }

 private:
  struct Entry {
    std::byte* ptr = nullptr;
    std::size_t bytes = 0;
  };
  static constexpr std::size_t kMaxEntries = 8;

  std::mutex mu_;
  std::vector<Entry> entries_;
};

SlabPool& slab_pool() {
  static SlabPool pool;
  return pool;
}

// Binds/unbinds the per-thread engine pointers for the duration of one
// Engine::run. RAII so an aborting run (a throwing task body, a bad_alloc
// during setup) cannot poison the thread for the next Engine — the
// non-reentrancy guard and this_task() must reset on every exit path.
class ScopedRunBinding {
 public:
  explicit ScopedRunBinding(Engine* engine) {
    SION_CHECK(g_engine == nullptr) << "Engine::run is not reentrant";
    SION_CHECK(g_current_task == nullptr)
        << "Engine::run called from inside a task body";
    g_engine = engine;
  }
  ~ScopedRunBinding() {
    g_engine = nullptr;
    g_current_task = nullptr;
  }
  ScopedRunBinding(const ScopedRunBinding&) = delete;
  ScopedRunBinding& operator=(const ScopedRunBinding&) = delete;
};
}  // namespace

thread_local Engine::Shard* Engine::tls_shard_ = nullptr;

namespace testing {
void scribble_cached_stack_slabs() { slab_pool().scribble(); }
}  // namespace testing

TaskState* this_task() { return g_current_task; }

void TaskState::advance_to(double t) {
  if (t > vtime_) {
    vtime_ = t;
    engine_->yield_current();
  }
}

FsOrderGate::FsOrderGate() {
  TaskState* task = g_current_task;
  if (task == nullptr || !task->engine_->sharded()) return;
  task_ = task;
  if (task->fs_depth_++ == 0) task->engine_->enter_fs_order(*task);
}

FsOrderGate::~FsOrderGate() {
  if (task_ == nullptr) return;
  if (--task_->fs_depth_ == 0) task_->engine_->exit_fs_order(*task_);
}

Engine::Engine(EngineConfig config) : config_(config) {}

Engine::~Engine() = default;

Engine::Shard::~Shard() {
  if (slab != nullptr) slab_pool().release(slab, slab_bytes);
}

Comm& Engine::adopt_comm(std::unique_ptr<Comm> comm) {
  // Locked: finalizers of disjoint same-shard splits may adopt concurrently.
  std::lock_guard<std::mutex> lock(comms_mu_);
  comms_.push_back(std::move(comm));
  return *comms_.back();
}

#ifdef SION_FAST_FIBERS

void Engine::fiber_entry(void* arg) {
  auto* task = static_cast<TaskState*>(arg);
  Engine* engine = task->engine_;
  engine->fiber_main(task->rank_);
  engine->retire_and_dispatch(*task);
}

#else

void Engine::trampoline(unsigned int hi, unsigned int lo) {
  const std::uintptr_t bits =
      (static_cast<std::uintptr_t>(hi) << 32) | static_cast<std::uintptr_t>(lo);
  auto* task = reinterpret_cast<TaskState*>(bits);
  Engine* engine = task->engine_;
  engine->fiber_main(task->rank_);
  engine->retire_and_dispatch(*task);
}

#endif  // SION_FAST_FIBERS

void Engine::fiber_main(int index) {
  TaskState& task = tasks_[static_cast<std::size_t>(index)];
  try {
    (*body_)(*world_);
  } catch (...) {  // sion-lint: allow(catch-all)
    // The one legitimate catch-all: a fiber boundary. Whatever a task body
    // throws must be parked and rethrown from Engine::run -- letting it
    // unwind a fiber stack into the scheduler would be UB. Per shard the
    // smallest (vtime, rank) throw wins, so the propagated exception is
    // deterministic at every shard count.
    Shard& sh = *tls_shard_;
    const ReadyEntry key{task.vtime_, task.rank_};
    if (!sh.error || key < ReadyEntry{sh.error_vt, sh.error_rank}) {
      sh.error = std::current_exception();
      sh.error_vt = task.vtime_;
      sh.error_rank = task.rank_;
    }
  }
  task.state_ = TaskState::Run::kDone;
}

TaskState* Engine::next_task(Shard& sh) {
  for (;;) {
    if (!sh.runs.empty() &&
        (sh.ready.empty() || run_front_key(sh.runs.front()) < sh.ready.top())) {
      TaskState* task = pop_run_front(sh);
      SION_CHECK(task->state_ == TaskState::Run::kReady)
          << "release run holds task " << task->rank_ << " in invalid state";
      return task;
    }
    if (sh.ready.empty()) return nullptr;
    const auto [vtime, rank] = sh.ready.top();
    sh.ready.pop();
    TaskState& task = tasks_[static_cast<std::size_t>(rank)];
    if (task.state_ != TaskState::Run::kReady || task.vtime_ != vtime) {
      continue;  // stale heap entry (task was re-queued with a newer time)
    }
    return &task;
  }
}

void Engine::switch_to(Shard& sh, TaskState& task) {
  sh.current = &task;
  task.state_ = TaskState::Run::kRunning;
  g_current_task = &task;
#ifdef SION_FAST_FIBERS
  sion_fiber_swap(&sh.sched_sp, task.fiber_sp_);
#else
  tsan_fiber_switch(task.tsan_fiber_);
  swapcontext(&sh.sched_ctx, &task.ctx_);
#endif
  g_current_task = nullptr;
  sh.current = nullptr;
}

void Engine::switch_from(TaskState& from, TaskState& to) {
  // Fiber-to-fiber handoff: the bookkeeping for `to` runs here, on `from`'s
  // stack, because control resumes inside `to`'s own suspended frame.
  to.state_ = TaskState::Run::kRunning;
  tls_shard_->current = &to;
  g_current_task = &to;
#ifdef SION_FAST_FIBERS
  sion_fiber_swap(&from.fiber_sp_, to.fiber_sp_);
#else
  tsan_fiber_switch(to.tsan_fiber_);
  swapcontext(&from.ctx_, &to.ctx_);
#endif
  // Back alive: whoever dispatched into `from` already set current to us.
}

void Engine::suspend_to_sched(Shard& sh, TaskState& from) {
  sh.current = nullptr;
  g_current_task = nullptr;
#ifdef SION_FAST_FIBERS
  sion_fiber_swap(&from.fiber_sp_, sh.sched_sp);
#else
  tsan_fiber_switch(sh.sched_tsan_fiber);
  swapcontext(&from.ctx_, &sh.sched_ctx);
#endif
  // Resumed by a later switch_to/switch_from, which restores current.
}

void Engine::dispatch_next_or_sched(Shard& sh, TaskState& from) {
  TaskState* next = next_task(sh);
  if (next != nullptr) {
    switch_from(from, *next);
    return;
  }
  if (nshards_ == 1) {
    SION_CHECK(false)
        << "deadlock: " << (total_tasks_ - sh.done_count)
        << " tasks blocked with empty ready queue (collective mismatch?)";
  }
  // Sharded: a cross-shard wake may still arrive; let the shard loop
  // coordinate (drain inboxes, publish the floor, wait or detect deadlock).
  suspend_to_sched(sh, from);
}

void Engine::retire_and_dispatch(TaskState& task) {
  Shard& sh = *tls_shard_;
  ++sh.done_count;
  if (task.vtime_ > sh.epoch) sh.epoch = task.vtime_;
  std::uint64_t canary;
  std::memcpy(&canary, task.stack_, sizeof(canary));
  SION_CHECK(canary == kCanary)
      << "fiber stack overflow detected for rank " << task.rank_
      << " (increase EngineConfig::stack_bytes)";
  TaskState* next = next_task(sh);
  if (next != nullptr) {
    switch_from(task, *next);
    SION_CHECK(false) << "finished fiber resumed";
  }
  if (nshards_ == 1 && sh.done_count < total_tasks_) {
    SION_CHECK(false)
        << "deadlock: " << (total_tasks_ - sh.done_count)
        << " tasks blocked with empty ready queue (collective mismatch?)";
  }
  suspend_to_sched(sh, task);
  SION_CHECK(false) << "finished fiber resumed";
  std::abort();  // unreachable; satisfies [[noreturn]]
}

void Engine::yield_current() {
  Shard& sh = *tls_shard_;
  TaskState& task = *sh.current;
  if (task.in_fs_op_) {
    // Mid-op yield inside a globally ordered SimFs operation: the op's key
    // advanced, so its place in the global order must be renegotiated.
    // Never take the still-earliest fast path here — "earliest" must be
    // judged against every shard, which is exactly what re-parking does.
    std::unique_lock<std::mutex> lock(mu_);
    park_fs_locked(sh, task);
    refresh_floor_locked(sh);
    cv_.notify_all();
    lock.unlock();
    dispatch_next_or_sched(sh, task);
    return;
  }
  // Still the earliest (vtime, rank) key in the shard? Then the dispatcher
  // would hand control straight back — skip the heap round-trip and the
  // context switch and just keep running.
  const ReadyEntry self{task.vtime_, task.rank_};
  if ((sh.ready.empty() || self < sh.ready.top()) &&
      (sh.runs.empty() || self < run_front_key(sh.runs.front()))) {
    return;
  }
  task.state_ = TaskState::Run::kReady;
  sh.ready.emplace(task.vtime_, task.rank_);
  TaskState* next = next_task(sh);  // never null: `task` itself is queued
  if (next == &task) {
    // Defensive: we popped ourselves back (no earlier task existed).
    task.state_ = TaskState::Run::kRunning;
    return;
  }
  switch_from(task, *next);
}

void Engine::block_current() {
  Shard& sh = *tls_shard_;
  TaskState& task = *sh.current;
  task.state_ = TaskState::Run::kBlocked;
  // All same-shard wake-ups originate from running tasks, so in the
  // single-shard engine "nothing runnable" means the blocked caller can
  // never be woken again: a deadlock, not a wait (dispatch_next_or_sched).
  dispatch_next_or_sched(sh, task);
}

void Engine::block_current_locked(std::unique_lock<std::mutex>& lock) {
  Shard& sh = *tls_shard_;
  TaskState& task = *sh.current;
  task.state_ = TaskState::Run::kBlocked;
  // Publish the blocked state while the lock is held (the cross-shard waker
  // reads it under mu_), then switch away unlocked: the wake lands in this
  // shard's inbox and is applied by this thread, never concurrently.
  lock.unlock();
  dispatch_next_or_sched(sh, task);
}

void Engine::wake(TaskState& task, double t) {
  SION_CHECK(task.state_ == TaskState::Run::kBlocked)
      << "wake of non-blocked task " << task.rank_;
  if (t > task.vtime_) task.vtime_ = t;
  task.state_ = TaskState::Run::kReady;
  tls_shard_->ready.emplace(task.vtime_, task.rank_);
}

void Engine::wake_locked(TaskState& task, double t) {
  Shard& target = *shards_[task.shard_];
  if (&target == tls_shard_) {
    wake(task, t);
    return;
  }
  // Remote target: its state is only ever touched by its own thread, so the
  // wake is posted to the shard's inbox. Lower the floor to the wake key
  // right away — the floor must bound undrained inbox work at all times.
  InboxMsg msg;
  msg.task = &task;
  msg.t = t;
  target.inbox.push_back(msg);
  const ReadyEntry key{std::max(t, task.vtime_), task.rank_};
  if (key < ReadyEntry{target.floor_vt, target.floor_rank}) {
    target.floor_vt = key.first;
    target.floor_rank = key.second;
  }
  cv_.notify_all();
}

void Engine::sift_runs(Shard& sh) {
  // std::push_heap builds a max-heap; the inverted comparator keeps the
  // earliest release run at the front. Both callers place the run to fix up
  // at the back of runs.
  std::push_heap(sh.runs.begin(), sh.runs.end(),
                 [this](const ReleaseRun& a, const ReleaseRun& b) {
                   return run_front_key(a) > run_front_key(b);
                 });
}

void Engine::wake_members(const std::vector<TaskState*>& members,
                          std::size_t skip, double t) {
  Shard& sh = *tls_shard_;
  const std::size_t n = members.size();
  ReleaseRun run;
  run.members = &members;
  run.t = t;
  run.end = static_cast<std::uint32_t>(n);
  run.skip = static_cast<std::uint32_t>(skip);
  std::size_t first = skip == 0 ? 1 : 0;
  if (first >= n) return;
  run.next = static_cast<std::uint32_t>(first);
  for (std::size_t i = first; i < n; ++i) {
    if (i == skip) continue;
    TaskState& task = *members[i];
    SION_CHECK(task.state_ == TaskState::Run::kBlocked)
        << "wake of non-blocked task " << task.rank_;
    if (t > task.vtime_) task.vtime_ = t;
    task.state_ = TaskState::Run::kReady;
  }
  sh.runs.push_back(run);
  sift_runs(sh);
}

void Engine::wake_members_locked(const std::vector<TaskState*>& members,
                                 std::size_t skip, double t) {
  // Members are in ascending global-rank order and shards partition ranks
  // into contiguous blocks, so equal-shard members form contiguous slices.
  // The caller's own slice becomes a local release run directly; remote
  // slices are posted to their shards' inboxes (state untouched until the
  // owning thread drains them).
  const std::size_t n = members.size();
  std::size_t a = 0;
  while (a < n) {
    const std::uint32_t shard_idx = members[a]->shard_;
    std::size_t b = a + 1;
    while (b < n && members[b]->shard_ == shard_idx) ++b;
    // First non-skipped index of [a, b).
    std::size_t first = a;
    if (first == skip) ++first;
    if (first < b) {
      Shard& target = *shards_[shard_idx];
      if (&target == tls_shard_) {
        ReleaseRun run;
        run.members = &members;
        run.t = t;
        run.next = static_cast<std::uint32_t>(first);
        run.end = static_cast<std::uint32_t>(b);
        run.skip = static_cast<std::uint32_t>(skip);
        for (std::size_t i = first; i < b; ++i) {
          if (i == skip) continue;
          TaskState& task = *members[i];
          SION_CHECK(task.state_ == TaskState::Run::kBlocked)
              << "wake of non-blocked task " << task.rank_;
          if (t > task.vtime_) task.vtime_ = t;
          task.state_ = TaskState::Run::kReady;
        }
        target.runs.push_back(run);
        sift_runs(target);
      } else {
        InboxMsg msg;
        msg.members = &members;
        msg.t = t;
        msg.next = static_cast<std::uint32_t>(first);
        msg.end = static_cast<std::uint32_t>(b);
        msg.skip = static_cast<std::uint32_t>(skip);
        target.inbox.push_back(msg);
        const ReadyEntry key{t, members[first]->rank_};
        if (key < ReadyEntry{target.floor_vt, target.floor_rank}) {
          target.floor_vt = key.first;
          target.floor_rank = key.second;
        }
      }
    }
    a = b;
  }
  cv_.notify_all();
}

TaskState* Engine::pop_run_front(Shard& sh) {
  // With a single run (the common case: one collective draining) the heap
  // maintenance is skipped entirely; runs.back() is the front either way.
  const bool heaped = sh.runs.size() > 1;
  if (heaped) {
    std::pop_heap(sh.runs.begin(), sh.runs.end(),
                  [this](const ReleaseRun& a, const ReleaseRun& b) {
                    return run_front_key(a) > run_front_key(b);
                  });
  }
  ReleaseRun& run = sh.runs.back();
  TaskState* task = (*run.members)[run.next];
  std::size_t next = run.next + 1;
  if (next == run.skip) ++next;
  if (next < run.end) {
    run.next = static_cast<std::uint32_t>(next);
    if (heaped) sift_runs(sh);
  } else {
    sh.runs.pop_back();
  }
  return task;
}

// --- sharded coordination ---------------------------------------------------

std::optional<Engine::ReadyEntry> Engine::local_front_key(Shard& sh) {
  std::optional<ReadyEntry> key;
  if (!sh.ready.empty()) key = sh.ready.top();
  if (!sh.runs.empty()) {
    const ReadyEntry rk = run_front_key(sh.runs.front());
    if (!key || rk < *key) key = rk;
  }
  return key;
}

void Engine::drain_inbox_locked(Shard& sh) {
  for (const InboxMsg& msg : sh.inbox) {
    if (msg.members == nullptr) {
      TaskState& task = *msg.task;
      SION_CHECK(task.state_ == TaskState::Run::kBlocked)
          << "wake of non-blocked task " << task.rank_;
      if (msg.t > task.vtime_) task.vtime_ = msg.t;
      task.state_ = TaskState::Run::kReady;
      sh.ready.emplace(task.vtime_, task.rank_);
      continue;
    }
    ReleaseRun run;
    run.members = msg.members;
    run.t = msg.t;
    run.next = msg.next;
    run.end = msg.end;
    run.skip = msg.skip;
    for (std::size_t i = msg.next; i < msg.end; ++i) {
      if (i == msg.skip) continue;
      TaskState& task = *(*msg.members)[i];
      SION_CHECK(task.state_ == TaskState::Run::kBlocked)
          << "wake of non-blocked task " << task.rank_;
      if (msg.t > task.vtime_) task.vtime_ = msg.t;
      task.state_ = TaskState::Run::kReady;
    }
    sh.runs.push_back(run);
    sift_runs(sh);
  }
  sh.inbox.clear();
}

void Engine::refresh_floor_locked(Shard& sh) {
  // Inbox first: raising the floor above an undrained wake's key would let
  // another shard run an fs op that must order after that wake's effects.
  drain_inbox_locked(sh);
  if (const auto front = local_front_key(sh)) {
    sh.floor_vt = front->first;
    sh.floor_rank = front->second;
  } else {
    sh.floor_vt = std::numeric_limits<double>::infinity();
    sh.floor_rank = std::numeric_limits<int>::max();
  }
}

bool Engine::fs_min_globally_locked(Shard& sh, double vt, int rank) {
  const ReadyEntry key{vt, rank};
  if (const auto front = local_front_key(sh); front && !(key < *front)) {
    return false;
  }
  if (!sh.fs_pending.empty() && !(key < sh.fs_pending.top())) return false;
  for (int s = 0; s < nshards_; ++s) {
    if (s == sh.index) continue;
    Shard& other = *shards_[static_cast<std::size_t>(s)];
    if (!(key < ReadyEntry{other.floor_vt, other.floor_rank})) return false;
    if (!other.fs_pending.empty() && !(key < other.fs_pending.top())) {
      return false;
    }
  }
  return true;
}

TaskState* Engine::drainable_fs_op_locked(Shard& sh) {
  if (sh.fs_pending.empty()) return nullptr;
  const ReadyEntry key = sh.fs_pending.top();
  // Own floor is +inf here (only called with nothing locally runnable), so
  // only the other shards constrain the drain.
  for (int s = 0; s < nshards_; ++s) {
    if (s == sh.index) continue;
    Shard& other = *shards_[static_cast<std::size_t>(s)];
    if (!(key < ReadyEntry{other.floor_vt, other.floor_rank})) return nullptr;
    if (!other.fs_pending.empty() && !(key < other.fs_pending.top())) {
      return nullptr;
    }
  }
  return &tasks_[static_cast<std::size_t>(key.second)];
}

bool Engine::all_shards_done_locked() const {
  for (int s = 0; s < nshards_; ++s) {
    if (!shards_[static_cast<std::size_t>(s)]->published_done) return false;
  }
  return true;
}

void Engine::park_fs_locked(Shard& sh, TaskState& task) {
  task.state_ = TaskState::Run::kBlocked;
  sh.fs_pending.emplace(task.vtime_, task.rank_);
}

void Engine::enter_fs_order(TaskState& task) {
  Shard& sh = *tls_shard_;
  std::unique_lock<std::mutex> lock(mu_);
  task.in_fs_op_ = true;
  // Drain the inbox first: an undrained cross-shard wake with a smaller key
  // has already lowered this shard's floor, but lives in neither ready nor
  // runs, so local_front_key cannot see it. Draining makes it visible to the
  // minimality check below — otherwise this op could run out of global order
  // and then raise the floor above the wake's key.
  drain_inbox_locked(sh);
  // Fast path: the op is already the strict global minimum — below every
  // other shard's floor and fs front and below everything locally runnable
  // or parked. Claim the floor at the op's key and run without suspending.
  if (fs_min_globally_locked(sh, task.vtime_, task.rank_)) {
    sh.floor_vt = task.vtime_;
    sh.floor_rank = task.rank_;
    return;
  }
  park_fs_locked(sh, task);
  refresh_floor_locked(sh);
  cv_.notify_all();
  lock.unlock();
  dispatch_next_or_sched(sh, task);
  // Resumed by the shard loop once the op's key is the global minimum; the
  // dispatcher has set this shard's floor to the op's key.
}

void Engine::exit_fs_order(TaskState& task) {
  Shard& sh = *tls_shard_;
  std::lock_guard<std::mutex> lock(mu_);
  task.in_fs_op_ = false;
  // Raise the floor from the op's key to the shard's true minimum — the
  // continuing task itself or the earliest locally runnable key. This is
  // what lets the globally next fs op (on any shard) proceed.
  drain_inbox_locked(sh);
  ReadyEntry floor{task.vtime_, task.rank_};
  if (const auto front = local_front_key(sh); front && *front < floor) {
    floor = *front;
  }
  sh.floor_vt = floor.first;
  sh.floor_rank = floor.second;
  cv_.notify_all();
}

void Engine::shard_loop(Shard& sh) {
  const int local_total = sh.rank_end - sh.rank_begin;
  for (;;) {
    // Parallel phase: run local work lock-free. Fibers dispatch each other
    // directly; control returns here only when nothing local is runnable.
    for (TaskState* task = next_task(sh); task != nullptr;
         task = next_task(sh)) {
      switch_to(sh, *task);
    }
    // Coordination phase.
    std::unique_lock<std::mutex> lock(mu_);
    refresh_floor_locked(sh);
    cv_.notify_all();
    while (!local_front_key(sh)) {
      if (sh.done_count == local_total && sh.fs_pending.empty() &&
          sh.inbox.empty()) {
        if (!sh.published_done) {
          sh.published_done = true;
          sh.published_done_count = sh.done_count;
          cv_.notify_all();
        }
        if (all_shards_done_locked()) return;
      }
      if (TaskState* op = drainable_fs_op_locked(sh)) {
        // This shard's parked fs-op front is the strict global minimum:
        // run it (alone, globally) with the floor pinned at its key.
        sh.fs_pending.pop();
        sh.floor_vt = op->vtime_;
        sh.floor_rank = op->rank_;
        op->state_ = TaskState::Run::kReady;
        lock.unlock();
        switch_to(sh, *op);
        lock.lock();
        refresh_floor_locked(sh);
        cv_.notify_all();
        continue;
      }
      sh.published_done_count = sh.done_count;
      // Deadlock detection: every other shard is parked in cv_, no wake is
      // in flight anywhere, and no fs op is pending anywhere — then no
      // event can ever occur again. Mirrors the single-shard CHECK.
      if (waiting_ == nshards_ - 1 && !sh.published_done) {
        bool stuck = true;
        int done_total = sh.done_count;
        for (int s = 0; s < nshards_; ++s) {
          if (s == sh.index) continue;
          Shard& other = *shards_[static_cast<std::size_t>(s)];
          if (!other.inbox.empty() || !other.fs_pending.empty()) {
            stuck = false;
            break;
          }
          done_total += other.published_done_count;
        }
        SION_CHECK(!stuck)
            << "deadlock: " << (total_tasks_ - done_total)
            << " tasks blocked with empty ready queue (collective mismatch?)";
      }
      ++waiting_;
      cv_.wait(lock);
      --waiting_;
      refresh_floor_locked(sh);
      cv_.notify_all();
    }
    // Locally runnable again (an inbox drain produced work): the floor was
    // republished by refresh_floor_locked; rejoin the parallel phase.
  }
}

void Engine::shard_main(Shard& sh) {
  tls_shard_ = &sh;
#ifndef SION_FAST_FIBERS
  // TSan must know which of its fibers the shard loop runs on, and per-task
  // fiber handles must be created/destroyed on the thread that switches
  // them; every suspending fiber announces a switch back to this handle.
  sh.sched_tsan_fiber = tsan_fiber_current();
  for (int r = sh.rank_begin; r < sh.rank_end; ++r) {
    tasks_[static_cast<std::size_t>(r)].tsan_fiber_ = tsan_fiber_create();
  }
#endif
  shard_loop(sh);
#ifndef SION_FAST_FIBERS
  // All local fibers have retired; release TSan's per-fiber shadow state
  // before the stacks are recycled for the next run() (stale handles on a
  // reused stack would alias old synchronization history onto new fibers).
  for (int r = sh.rank_begin; r < sh.rank_end; ++r) {
    tsan_fiber_destroy(tasks_[static_cast<std::size_t>(r)].tsan_fiber_);
  }
#endif
  tls_shard_ = nullptr;
}

void Engine::run(int ntasks, const TaskFn& body) {
  SION_CHECK(ntasks > 0) << "Engine::run needs at least one task";
  ScopedRunBinding binding(this);

  body_ = &body;
  total_tasks_ = ntasks;
  nshards_ = std::clamp(config_.shards, 1, ntasks);
  ranks_per_shard_ = (ntasks + nshards_ - 1) / nshards_;
  nshards_ = (ntasks + ranks_per_shard_ - 1) / ranks_per_shard_;
  waiting_ = 0;

  while (shards_.size() < static_cast<std::size_t>(nshards_)) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->index = static_cast<int>(shards_.size()) - 1;
  }

  tasks_.clear();
  tasks_.resize(static_cast<std::size_t>(ntasks));
  comms_.clear();
  init_members_.clear();
  init_members_.reserve(tasks_.size());
  for (auto& t : tasks_) init_members_.push_back(&t);

  // Per-fiber stack stride: stack_bytes rounded up to whole pages.
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t stride = (config_.stack_bytes + page - 1) / page * page;
  for (int s = 0; s < nshards_; ++s) {
    Shard& sh = *shards_[static_cast<std::size_t>(s)];
    sh.rank_begin = s * ranks_per_shard_;
    sh.rank_end = std::min(ntasks, sh.rank_begin + ranks_per_shard_);
    const auto local = static_cast<std::size_t>(sh.rank_end - sh.rank_begin);

    // One anonymous mapping for all of the shard's stacks: at 64Ki fibers,
    // per-fiber mmap would need 2 VMAs each (stack + guard) and blow past
    // vm.max_map_count. Stacks start 8 bytes short of the first page end, so
    // every stack boundary sits 8 bytes before a page end: a fiber's canary
    // shares the page holding its lower neighbour's top frames, and a fiber
    // whose live frames fit in that page faults in just that page. The slab
    // is kept across run() calls — re-faulting a page per fiber on every
    // phase of a multi-phase benchmark costs more host time than the dirty
    // pages cost memory.
    const std::size_t needed = local * stride + page;
    if (sh.slab == nullptr || sh.slab_bytes < needed) {
      if (sh.slab != nullptr) slab_pool().release(sh.slab, sh.slab_bytes);
      sh.slab = slab_pool().acquire(needed, &sh.slab_bytes);
      if (sh.slab == nullptr) {
        sh.slab_bytes = needed;
        void* slab = ::mmap(nullptr, sh.slab_bytes, PROT_READ | PROT_WRITE,
                            MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
        SION_CHECK(slab != MAP_FAILED) << "mmap of fiber stack slab failed";
#ifdef MADV_NOHUGEPAGE
        // Sparse by design: a 2 MiB page would back 4 KiB of live frames.
        ::madvise(slab, sh.slab_bytes, MADV_NOHUGEPAGE);
#endif
        sh.slab = static_cast<std::byte*>(slab);
      }
    }

    sh.ready.clear();
    sh.ready.reserve(local + 64);
    sh.runs.clear();
    sh.runs.reserve(64);
    sh.fs_pending.clear();
    sh.inbox.clear();
    sh.current = nullptr;
    sh.done_count = 0;
    sh.epoch = epoch_;
    sh.error = nullptr;
    sh.published_done = false;
    sh.published_done_count = 0;
    sh.floor_vt = epoch_;
    sh.floor_rank = sh.rank_begin;

    for (int r = sh.rank_begin; r < sh.rank_end; ++r) {
      TaskState& task = tasks_[static_cast<std::size_t>(r)];
      task.engine_ = this;
      task.rank_ = r;
      task.vtime_ = epoch_;
      task.shard_ = static_cast<std::uint32_t>(s);
      task.in_fs_op_ = false;
      task.fs_depth_ = 0;
      task.stack_ = sh.slab + (page - sizeof(kCanary)) +
                    static_cast<std::size_t>(r - sh.rank_begin) * stride;
      // Re-armed on EVERY acquisition: pooled slabs are MADV_FREE, so the
      // kernel may have zero-reclaimed the page holding a previous canary
      // (testing::scribble_cached_stack_slabs simulates exactly that).
      std::memcpy(task.stack_, &kCanary, sizeof(kCanary));
#ifdef SION_FAST_FIBERS
      task.fiber_sp_ =
          fiber_make(task.stack_, stride, &fiber_entry, &task);
#else
      getcontext(&task.ctx_);
      task.ctx_.uc_stack.ss_sp = task.stack_;
      task.ctx_.uc_stack.ss_size = stride;
      task.ctx_.uc_link = &sh.sched_ctx;
      const std::uintptr_t task_bits = reinterpret_cast<std::uintptr_t>(&task);
      makecontext(&task.ctx_, reinterpret_cast<void (*)()>(&trampoline), 2,
                  static_cast<unsigned int>(task_bits >> 32),
                  static_cast<unsigned int>(task_bits & 0xFFFFFFFFu));
#endif
    }

    // The initial schedule — every local task runnable at the epoch, in
    // rank order — is one release run over the shard's init slice, not
    // `local` individual heap entries.
    sh.init_members.clear();
    sh.init_members.reserve(local);
    for (int r = sh.rank_begin; r < sh.rank_end; ++r) {
      sh.init_members.push_back(&tasks_[static_cast<std::size_t>(r)]);
    }
    ReleaseRun init;
    init.members = &sh.init_members;
    init.t = epoch_;
    init.end = static_cast<std::uint32_t>(local);
    sh.runs.push_back(init);
  }

  // World communicator (rank i == task i).
  world_ = &adopt_comm(Comm::create(*this, init_members_, config_.network));

  if (nshards_ == 1) {
    shard_main(*shards_[0]);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(nshards_) - 1);
    for (int s = 1; s < nshards_; ++s) {
      Shard* sh = shards_[static_cast<std::size_t>(s)].get();
      workers.emplace_back([this, sh] { shard_main(*sh); });
    }
    shard_main(*shards_[0]);
    for (auto& w : workers) w.join();
  }

  // Merge per-shard results deterministically: epoch is a max; the
  // propagated error is the smallest (vtime, rank) throw across shards.
  std::exception_ptr error;
  double error_vt = 0.0;
  int error_rank = 0;
  for (int s = 0; s < nshards_; ++s) {
    Shard& sh = *shards_[static_cast<std::size_t>(s)];
    if (sh.epoch > epoch_) epoch_ = sh.epoch;
    if (sh.error &&
        (!error || ReadyEntry{sh.error_vt, sh.error_rank} <
                       ReadyEntry{error_vt, error_rank})) {
      error = sh.error;
      error_vt = sh.error_vt;
      error_rank = sh.error_rank;
    }
    sh.error = nullptr;
    sh.ready.clear();
    sh.runs.clear();
    sh.init_members.clear();
  }

  tasks_.clear();
  comms_.clear();
  world_ = nullptr;
  body_ = nullptr;

  if (error) std::rethrow_exception(error);
}

}  // namespace sion::par
