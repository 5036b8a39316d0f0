// Minimal stackful-fiber context switch for the task engine.
//
// glibc's swapcontext() performs two rt_sigprocmask system calls per switch
// (POSIX requires the signal mask to travel with the context). The engine
// switches contexts twice per collective per task — hundreds of millions of
// times in a 64Ki-task sweep — so those syscalls dominate host wall-clock
// long before the cost model does. Fibers here never touch the signal mask
// and never run concurrently (one OS thread, cooperative scheduling), so a
// userspace-only switch is sufficient: save the callee-saved registers and
// the FP control words, swap stacks, restore.
//
// The fast path is x86-64 assembly (fiber_swap.S). Builds on other
// architectures, and ASan builds (ASan tracks stack switches through its
// swapcontext interceptor, which a raw assembly switch would bypass), fall
// back to ucontext via SION_FIBER_UCONTEXT; ASan builds also announce every
// switch through ASan's fiber API, so it always knows which stack runs.
// Either way a fiber keeps its own FP rounding mode across switches.
#pragma once

#include <cstddef>

#if defined(__SANITIZE_ADDRESS__)
#define SION_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SION_ASAN 1
#endif
#endif

#if !defined(SION_FIBER_UCONTEXT) && \
    (!defined(__x86_64__) || defined(SION_ASAN))
#define SION_FIBER_UCONTEXT 1
#endif

#if defined(SION_FIBER_UCONTEXT)
#include <ucontext.h>
#else
extern "C" {
// Save the current execution context (callee-saved registers, x87/SSE
// control words, stack pointer) to *save_sp and resume the one frozen at
// restore_sp. Returns when something swaps back into *save_sp.
void sion_fiber_swap(void** save_sp, void* restore_sp);
}
#endif
#if defined(SION_ASAN)
#include <sanitizer/common_interface_defs.h>
#endif

namespace sion::par {

// A suspended execution context: whoever switches away saves itself here.
struct FiberContext {
#if defined(SION_FIBER_UCONTEXT)
  ucontext_t uc{};
#else
  void* sp = nullptr;  // the frame fiber_swap.S froze on the fiber's stack
#endif
#if defined(SION_ASAN)
  // The stack this context runs on, and ASan's fake stack while suspended.
  const void* stack_bottom = nullptr;
  std::size_t stack_size = 0;
  void* fake_stack = nullptr;
#endif
};

// Lay out a fresh suspended context on [stack, stack + bytes) so the first
// fiber_switch into `ctx` enters entry(arg) on that stack. `entry` must
// never return; it must hand control back with a final fiber_switch.
void fiber_make(FiberContext& ctx, std::byte* stack, std::size_t bytes,
                void (*entry)(void*), void* arg);

// Make `ctx` the calling thread's own context, the one that switches into
// the first fiber and that the last fiber switches back to. ASan builds
// record the thread's stack bounds; elsewhere there is nothing to do.
void fiber_adopt_thread(FiberContext& ctx);

// Save the running context to `from` and resume `to`. Returns when
// something switches back into `from`.
inline void fiber_switch(FiberContext& from, FiberContext& to) {
#if defined(SION_ASAN)
  __sanitizer_start_switch_fiber(&from.fake_stack, to.stack_bottom,
                                 to.stack_size);
#endif
#if defined(SION_FIBER_UCONTEXT)
  swapcontext(&from.uc, &to.uc);
#else
  sion_fiber_swap(&from.sp, to.sp);
#endif
#if defined(SION_ASAN)
  __sanitizer_finish_switch_fiber(from.fake_stack, nullptr, nullptr);
#endif
}

// Start loading a suspended context's memory ahead of a switch into it: the
// frame fiber_swap.S froze and the eight lines above it, where the frames
// it returns through sit. A no-op on the ucontext fallback.
inline void fiber_prefetch([[maybe_unused]] const FiberContext& ctx) {
#if !defined(SION_FIBER_UCONTEXT)
  constexpr int kLinesAbove = 8;
  const char* frame = static_cast<const char*>(ctx.sp);
  for (int line = 0; line <= kLinesAbove; ++line) {
    __builtin_prefetch(frame + 64 * line);
  }
#endif
}

}  // namespace sion::par
