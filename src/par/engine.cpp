#include "par/engine.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "common/log.h"
#include "par/comm.h"

#if defined(SION_ASAN)  // par/fiber.h
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

// Retired stack slabs are pooled and handed to the next engine whose task
// count fits: a 64Ki-task sweep builds a fresh Engine per data point,
// and re-faulting a page per fiber per point dominates the host cost of
// task setup otherwise. Pooled slabs are marked MADV_FREE, so the kernel may
// reclaim (zero) any page at any moment while unreclaimed pages are reused
// without a fault — which is why canaries are re-armed on every acquisition
// and never trusted across a pool round-trip. Process-global with a mutex
// (not thread_local): engines may be built on different host threads, and a
// slab cached on a dead thread would be leaked capacity.
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

Engine::Engine(EngineConfig config) : config_(config) {}

Engine::~Engine() {
  if (slab_ != nullptr) slab_pool().release(slab_, slab_bytes_);
}

Comm& Engine::adopt_comm(std::unique_ptr<Comm> comm) {
  comms_.push_back(std::move(comm));
  return *comms_.back();
}

void Engine::fiber_entry(void* arg) {
  auto* task = static_cast<TaskState*>(arg);
  Engine* engine = task->engine_;
  engine->fiber_main(*task);
  engine->retire_and_dispatch(*task);
}

void Engine::fiber_main(TaskState& task) {
  try {
    (*body_)(*world_);
  } catch (...) {  // sion-lint: allow(catch-all)
    // The one legitimate catch-all: a fiber boundary. Whatever a task body
    // throws must be parked and rethrown from Engine::run -- letting it
    // unwind a fiber stack into the scheduler would be UB. The smallest
    // (vtime, rank) throw wins, so the propagated exception is deterministic.
    const ReadyEntry key{task.vtime_, task.rank_};
    if (!error_ || key < ReadyEntry{error_vt_, error_rank_}) {
      error_ = std::current_exception();
      error_vt_ = task.vtime_;
      error_rank_ = task.rank_;
    }
  }
  task.state_ = TaskState::Run::kDone;
}

bool Engine::run_goes_first() const {
  return !runs_.empty() &&
         (ready_.empty() || run_front_key(runs_.front()) < ready_.top());
}

TaskState* Engine::next_task() {
  for (;;) {
    if (run_goes_first()) {
      TaskState* task = pop_run_front();
      SION_CHECK(task->state_ == TaskState::Run::kReady)
          << "release run holds task " << task->rank_ << " in invalid state";
      return task;
    }
    if (ready_.empty()) return nullptr;
    const auto [vtime, rank] = ready_.top();
    ready_.pop();
    TaskState& task = tasks_[static_cast<std::size_t>(rank)];
    if (task.state_ != TaskState::Run::kReady || task.vtime_ != vtime) {
      continue;  // stale heap entry (task was re-queued with a newer time)
    }
    return &task;
  }
}

void Engine::switch_from(TaskState& from, TaskState& to) {
  // Fiber-to-fiber handoff: the bookkeeping for `to` runs here, on `from`'s
  // stack, because control resumes inside `to`'s own suspended frame.
  to.state_ = TaskState::Run::kRunning;
  current_ = &to;
  g_current_task = &to;
  // Start loading the frame of the task that runs after `to`, unless `to`
  // wakes an earlier one: the release run's next member, or the heap top
  // (perhaps a stale entry, then the prefetch is merely wasted).
  if (run_goes_first()) {
    fiber_prefetch((*runs_.front().members)[runs_.front().next]->fiber_);
  } else if (!ready_.empty()) {
    fiber_prefetch(
        tasks_[static_cast<std::size_t>(ready_.top().second)].fiber_);
  }
  fiber_switch(from.fiber_, to.fiber_);
  // Back alive: whoever dispatched into `from` already set current to us.
}

void Engine::dispatch_next(TaskState& from) {
  TaskState* next = next_task();
  SION_CHECK(next != nullptr)
      << "deadlock: " << (total_tasks_ - done_count_)
      << " tasks blocked with empty ready queue (collective mismatch?)";
  switch_from(from, *next);
}

void Engine::retire_and_dispatch(TaskState& task) {
  ++done_count_;
  if (task.vtime_ > epoch_) epoch_ = task.vtime_;
  std::uint64_t canary;
  std::memcpy(&canary, task.stack_, sizeof(canary));
  SION_CHECK(canary == kCanary)
      << "fiber stack overflow detected for rank " << task.rank_
      << " (increase EngineConfig::stack_bytes)";
  if (done_count_ < total_tasks_) {
    dispatch_next(task);
    SION_CHECK(false) << "finished fiber resumed";
  }
  // The last fiber: hand control back to Engine::run.
  current_ = nullptr;
  g_current_task = nullptr;
  fiber_switch(task.fiber_, sched_);
  SION_CHECK(false) << "finished fiber resumed";
  std::abort();  // unreachable; satisfies [[noreturn]]
}

void Engine::yield_current() {
  TaskState& task = *current_;
  // Still the earliest (vtime, rank) key? Then the dispatcher would hand
  // control straight back — skip the heap round-trip and the context switch
  // and just keep running.
  const ReadyEntry self{task.vtime_, task.rank_};
  if ((ready_.empty() || self < ready_.top()) &&
      (runs_.empty() || self < run_front_key(runs_.front()))) {
    return;
  }
  task.state_ = TaskState::Run::kReady;
  ready_.emplace(task.vtime_, task.rank_);
  TaskState* next = next_task();  // never null: `task` itself is queued
  if (next == &task) {
    // Defensive: we popped ourselves back (no earlier task existed).
    task.state_ = TaskState::Run::kRunning;
    return;
  }
  switch_from(task, *next);
}

void Engine::block_current() {
  ++suspensions_;
  TaskState& task = *current_;
  task.state_ = TaskState::Run::kBlocked;
  dispatch_next(task);
}

void Engine::wake(TaskState& task, double t) {
  SION_CHECK(task.state_ == TaskState::Run::kBlocked)
      << "wake of non-blocked task " << task.rank_;
  if (t > task.vtime_) task.vtime_ = t;
  task.state_ = TaskState::Run::kReady;
  ready_.emplace(task.vtime_, task.rank_);
}

void Engine::sift_runs() {
  // std::push_heap builds a max-heap; the inverted comparator keeps the
  // earliest release run at the front. Both callers place the run to fix up
  // at the back of runs_.
  std::push_heap(runs_.begin(), runs_.end(),
                 [this](const ReleaseRun& a, const ReleaseRun& b) {
                   return run_front_key(a) > run_front_key(b);
                 });
}

void Engine::wake_members(const std::vector<TaskState*>& members,
                          std::size_t skip, double t) {
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
  runs_.push_back(run);
  sift_runs();
}

TaskState* Engine::pop_run_front() {
  // With a single run (the common case: one collective draining) the heap
  // maintenance is skipped entirely; runs_.back() is the front either way.
  const bool heaped = runs_.size() > 1;
  if (heaped) {
    std::pop_heap(runs_.begin(), runs_.end(),
                  [this](const ReleaseRun& a, const ReleaseRun& b) {
                    return run_front_key(a) > run_front_key(b);
                  });
  }
  ReleaseRun& run = runs_.back();
  TaskState* task = (*run.members)[run.next];
  std::size_t next = run.next + 1;
  if (next == run.skip) ++next;
  if (next < run.end) {
    run.next = static_cast<std::uint32_t>(next);
    if (heaped) sift_runs();
  } else {
    runs_.pop_back();
  }
  return task;
}

void Engine::run(int ntasks, const TaskFn& body) {
  SION_CHECK(ntasks > 0) << "Engine::run needs at least one task";
  ScopedRunBinding binding(this);

  body_ = &body;
  total_tasks_ = ntasks;

  tasks_.clear();
  tasks_.resize(static_cast<std::size_t>(ntasks));
  comms_.clear();
  init_members_.clear();
  init_members_.reserve(tasks_.size());
  for (auto& t : tasks_) init_members_.push_back(&t);

  // One anonymous mapping for all stacks: at 64Ki fibers, per-fiber mmap
  // would need 2 VMAs each (stack + guard) and blow past vm.max_map_count.
  // The per-fiber stride is stack_bytes rounded up to whole pages, and
  // stacks start 8 bytes short of the first page end, so every stack
  // boundary sits 8 bytes before a page end: a fiber's canary shares the
  // page holding its lower neighbour's top frames, and a fiber whose live
  // frames fit in that page faults in just that page. The slab is kept
  // across run() calls — re-faulting a page per fiber on every phase of a
  // multi-phase benchmark costs more host time than the dirty pages cost
  // memory.
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t stride = (config_.stack_bytes + page - 1) / page * page;
  const std::size_t needed = tasks_.size() * stride + page;
  if (slab_ == nullptr || slab_bytes_ < needed) {
    if (slab_ != nullptr) slab_pool().release(slab_, slab_bytes_);
    slab_ = slab_pool().acquire(needed, &slab_bytes_);
    if (slab_ == nullptr) {
      slab_bytes_ = needed;
      void* slab = ::mmap(nullptr, slab_bytes_, PROT_READ | PROT_WRITE,
                          MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
      SION_CHECK(slab != MAP_FAILED) << "mmap of fiber stack slab failed";
#ifdef MADV_NOHUGEPAGE
      // Sparse by design: a 2 MiB page would back 4 KiB of live frames.
      ::madvise(slab, slab_bytes_, MADV_NOHUGEPAGE);
#endif
      slab_ = static_cast<std::byte*>(slab);
    }
  }

  ready_.clear();
  ready_.reserve(tasks_.size() + 64);
  runs_.clear();
  runs_.reserve(64);
  current_ = nullptr;
  done_count_ = 0;
  suspensions_ = 0;
  error_ = nullptr;

  const auto stack_of = [&](int r) {
    return slab_ + (page - sizeof(kCanary)) +
           static_cast<std::size_t>(r) * stride;
  };
  // fiber_make writes the two top lines of each stack, the upper one shared
  // with the next stack's canary. The slab dwarfs the caches, so fetch both
  // a few ranks early.
  constexpr int kSetupAhead = 4;
  for (int r = 0; r < ntasks; ++r) {
    if (r + kSetupAhead < ntasks) {
      const std::byte* top = stack_of(r + kSetupAhead + 1);
      __builtin_prefetch(top, 1);
      __builtin_prefetch(top - 64, 1);
    }
    TaskState& task = tasks_[static_cast<std::size_t>(r)];
    task.engine_ = this;
    task.rank_ = r;
    task.vtime_ = epoch_;
    task.stack_ = stack_of(r);
    // Re-armed on EVERY acquisition: pooled slabs are MADV_FREE, so the
    // kernel may have zero-reclaimed the page holding a previous canary
    // (testing::scribble_cached_stack_slabs simulates exactly that).
    std::memcpy(task.stack_, &kCanary, sizeof(kCanary));
    fiber_make(task.fiber_, task.stack_, stride, &fiber_entry, &task);
  }

  // The initial schedule — every task runnable at the epoch, in rank order
  // — is one release run over init_members_, not ntasks heap entries.
  ReleaseRun init;
  init.members = &init_members_;
  init.t = epoch_;
  init.end = static_cast<std::uint32_t>(ntasks);
  runs_.push_back(init);

  // World communicator (rank i == task i).
  world_ = &adopt_comm(Comm::create(*this, init_members_, config_.network));

  // Every suspension dispatches the next fiber directly, so control comes
  // back here only once the last fiber has retired.
  TaskState& first = *next_task();
  first.state_ = TaskState::Run::kRunning;
  current_ = &first;
  g_current_task = &first;
  fiber_adopt_thread(sched_);
  fiber_switch(sched_, first.fiber_);

  std::exception_ptr error = std::move(error_);
  error_ = nullptr;
  ready_.clear();
  runs_.clear();
  tasks_.clear();
  comms_.clear();
  world_ = nullptr;
  body_ = nullptr;

  if (error) std::rethrow_exception(error);
}

}  // namespace sion::par
