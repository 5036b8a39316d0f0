#include "par/fiber.h"

#include <cstdint>
#include <cstring>

#if defined(SION_ASAN)
#include <pthread.h>

#include "common/log.h"
#endif

namespace sion::par {

void fiber_adopt_thread([[maybe_unused]] FiberContext& ctx) {
#if defined(SION_ASAN)
  pthread_attr_t attr;
  SION_CHECK(pthread_getattr_np(pthread_self(), &attr) == 0)
      << "pthread_getattr_np failed";
  void* bottom = nullptr;
  std::size_t size = 0;
  SION_CHECK(pthread_attr_getstack(&attr, &bottom, &size) == 0)
      << "pthread_attr_getstack failed";
  pthread_attr_destroy(&attr);
  ctx.stack_bottom = bottom;
  ctx.stack_size = size;
#endif
}

}  // namespace sion::par

#if defined(SION_FIBER_UCONTEXT)

namespace sion::par {
namespace {

// makecontext passes only int arguments, so the entry function and its
// argument travel as 32-bit halves.
void ucontext_start(unsigned int entry_hi, unsigned int entry_lo,
                    unsigned int arg_hi, unsigned int arg_lo) {
#if defined(SION_ASAN)
  // The first switch into this fiber ends here, not in fiber_switch.
  __sanitizer_finish_switch_fiber(nullptr, nullptr, nullptr);
#endif
  const auto join = [](unsigned int hi, unsigned int lo) {
    return static_cast<std::uintptr_t>((std::uint64_t{hi} << 32) | lo);
  };
  auto* entry = reinterpret_cast<void (*)(void*)>(join(entry_hi, entry_lo));
  entry(reinterpret_cast<void*>(join(arg_hi, arg_lo)));
}

}  // namespace

void fiber_make(FiberContext& ctx, std::byte* stack, std::size_t bytes,
                void (*entry)(void*), void* arg) {
  const auto entry_bits =
      static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(entry));
  const auto arg_bits =
      static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(arg));
#if defined(SION_ASAN)
  ctx.stack_bottom = stack;
  ctx.stack_size = bytes;
#endif
  getcontext(&ctx.uc);
  ctx.uc.uc_stack.ss_sp = stack;
  ctx.uc.uc_stack.ss_size = bytes;
  ctx.uc.uc_link = nullptr;  // entry never returns
  makecontext(&ctx.uc, reinterpret_cast<void (*)()>(&ucontext_start), 4,
              static_cast<unsigned int>(entry_bits >> 32),
              static_cast<unsigned int>(entry_bits & 0xFFFFFFFFu),
              static_cast<unsigned int>(arg_bits >> 32),
              static_cast<unsigned int>(arg_bits & 0xFFFFFFFFu));
}

}  // namespace sion::par

#else

extern "C" void sion_fiber_start();

namespace sion::par {

void fiber_make(FiberContext& ctx, std::byte* stack, std::size_t bytes,
                void (*entry)(void*), void* arg) {
  // Frame layout must mirror fiber_swap.S exactly; sp is 16-byte aligned so
  // the callq in sion_fiber_start enters `entry` with ABI-conformant
  // alignment.
  auto top = reinterpret_cast<std::uintptr_t>(stack) + bytes;
  top &= ~static_cast<std::uintptr_t>(15);
  std::byte* sp = reinterpret_cast<std::byte*>(top) - 64;
  std::memset(sp, 0, 64);

  // New fibers inherit the creator's FP environment, exactly as a plain
  // function call would.
  std::uint32_t mxcsr = 0;
  std::uint16_t fcw = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fcw));
  std::memcpy(sp + 0, &fcw, sizeof(fcw));
  std::memcpy(sp + 4, &mxcsr, sizeof(mxcsr));

  const auto r15 = reinterpret_cast<std::uintptr_t>(arg);
  const auto r12 = reinterpret_cast<std::uintptr_t>(entry);
  const auto ret = reinterpret_cast<std::uintptr_t>(&sion_fiber_start);
  std::memcpy(sp + 8, &r15, sizeof(r15));   // r15 = entry argument
  std::memcpy(sp + 32, &r12, sizeof(r12));  // r12 = entry function
  std::memcpy(sp + 56, &ret, sizeof(ret));  // return address = start stub
  ctx.sp = sp;
}

}  // namespace sion::par

#endif  // SION_FIBER_UCONTEXT
