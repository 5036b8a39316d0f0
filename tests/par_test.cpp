// Tests for the fiber task runtime: scheduling determinism, virtual time
// semantics, every collective, communicator splits, and point-to-point.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cfenv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/strings.h"
#include "par/comm.h"
#include "par/engine.h"

namespace sion::par {
namespace {

TEST(EngineTest, RunsAllTasksToCompletion) {
  Engine engine;
  std::vector<int> seen(17, 0);
  engine.run(17, [&](Comm& world) {
    seen[static_cast<std::size_t>(world.rank())] += 1;
    EXPECT_EQ(world.size(), 17);
  });
  for (int v : seen) EXPECT_EQ(v, 1);
}

TEST(EngineTest, SingleTaskWorks) {
  Engine engine;
  int calls = 0;
  engine.run(1, [&](Comm& world) {
    EXPECT_EQ(world.rank(), 0);
    EXPECT_EQ(world.size(), 1);
    world.barrier();  // must not deadlock at P=1
    EXPECT_EQ(world.allreduce_u64(9, ReduceOp::kSum), 9u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(EngineTest, VirtualTimeStartsAtEpochAndAdvances) {
  Engine engine;
  engine.run(4, [&](Comm&) {
    TaskState& t = *this_task();
    EXPECT_DOUBLE_EQ(t.now(), 0.0);
    t.compute(1.5);
    EXPECT_DOUBLE_EQ(t.now(), 1.5);
  });
  EXPECT_DOUBLE_EQ(engine.epoch(), 1.5);
}

TEST(EngineTest, EpochIsMonotonicAcrossRuns) {
  Engine engine;
  engine.run(2, [&](Comm&) { this_task()->compute(2.0); });
  EXPECT_DOUBLE_EQ(engine.epoch(), 2.0);
  engine.run(2, [&](Comm&) {
    EXPECT_DOUBLE_EQ(this_task()->now(), 2.0);
    this_task()->compute(1.0);
  });
  EXPECT_DOUBLE_EQ(engine.epoch(), 3.0);
}

TEST(EngineTest, SchedulerRunsSmallestClockFirst) {
  // Task 0 computes far into the future; others should complete first, and
  // execution order across yields must follow virtual time.
  Engine engine;
  std::vector<int> completion_order;
  engine.run(3, [&](Comm& world) {
    const int r = world.rank();
    this_task()->compute(r == 0 ? 100.0 : 1.0 * (r + 1));
    completion_order.push_back(r);
  });
  ASSERT_EQ(completion_order.size(), 3u);
  EXPECT_EQ(completion_order[0], 1);
  EXPECT_EQ(completion_order[1], 2);
  EXPECT_EQ(completion_order[2], 0);
}

TEST(EngineTest, DeterministicAcrossRepetition) {
  auto trace_of = []() {
    Engine engine;
    std::vector<std::pair<int, double>> trace;
    engine.run(8, [&](Comm& world) {
      this_task()->compute(0.001 * ((world.rank() * 7) % 5 + 1));
      world.barrier();
      this_task()->compute(0.002);
      trace.emplace_back(world.rank(), this_task()->now());
    });
    return trace;
  };
  EXPECT_EQ(trace_of(), trace_of());
}

TEST(EngineTest, ExceptionInTaskPropagates) {
  Engine engine;
  EXPECT_THROW(
      engine.run(3,
                 [&](Comm& world) {
                   if (world.rank() == 1) throw std::runtime_error("boom");
                 }),
      std::runtime_error);
  // Engine is reusable after a failed run.
  int ok = 0;
  engine.run(2, [&](Comm&) { ++ok; });
  EXPECT_EQ(ok, 2);
}

TEST(EngineTest, ManyTasksLowStack) {
  EngineConfig config;
  config.stack_bytes = 32 * 1024;
  Engine engine(config);
  std::atomic<int> count{0};
  engine.run(4096, [&](Comm& world) {
    world.barrier();
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 4096);
}

// ShardedEngine is the suite name this test and CanarySurvivesScribbledSlabPool
// were recorded under while the engine could spread fibers over several host
// threads; what they pin does not depend on the thread count, so the names stay.
TEST(ShardedEngine, ExceptionPropagatesAndEngineStaysUsable) {
  Engine engine;
  EXPECT_THROW(engine.run(32,
                          [](Comm& world) {
                            if (world.rank() == 13) {
                              throw std::runtime_error("boom on 13");
                            }
                          }),
               std::runtime_error);
  // The failed run must not poison the engine or the thread (RAII reset of
  // the run bindings): a fresh run on the same engine completes.
  int completions = 0;
  engine.run(32, [&completions](Comm& world) {
    world.allreduce_u64(1, ReduceOp::kSum);
    if (world.rank() == 0) ++completions;
  });
  EXPECT_EQ(completions, 1);
}

TEST(EngineTest, ErrorChoiceIsDeterministic) {
  // Several ranks throw at distinct virtual times; the engine must surface
  // the smallest (vtime, rank) throw: rank 60, which throws earliest.
  Engine engine;
  try {
    engine.run(64, [](Comm& world) {
      const int rank = world.rank();
      if (rank >= 5 && rank % 5 == 0) {
        this_task()->compute(1.0e-6 * static_cast<double>(64 - rank));
        throw std::runtime_error("rank " + std::to_string(rank));
      }
    });
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 60");
  }
}

// 1/3 in the running context's rounding mode, divided at run time.
double third() {
  volatile double one = 1.0;
  volatile double three = 3.0;
  return one / three;
}

// Each fiber keeps its own FP rounding mode, as an MPI rank would, on the
// assembly switch and on the ucontext fallback alike: a fiber starts in the
// mode of run()'s caller, a mode it sets survives its suspensions and does
// not leak into other fibers, and run() hands its caller's mode back.
TEST(EngineTest, FibersKeepTheirOwnRoundingMode) {
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  const double nearest = third();
  int mode0 = -1;
  int mode1 = -1;
  double third0 = 0.0;
  double third1 = 0.0;
  Engine engine;
  engine.run(2, [&](Comm& world) {
    if (world.rank() == 0) {
      ASSERT_EQ(std::fesetround(FE_UPWARD), 0);
      this_task()->compute(1.0);  // rank 1 runs and retires meanwhile
      mode0 = std::fegetround();
      third0 = third();
    } else {
      mode1 = std::fegetround();
      third1 = third();
    }
  });
  EXPECT_EQ(mode1, FE_TONEAREST);
  EXPECT_EQ(third1, nearest);
  EXPECT_EQ(mode0, FE_UPWARD);
  EXPECT_GT(third0, nearest);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_EQ(third(), nearest);
}

// Regression for the MADV_FREE canary false positive: the kernel may reclaim
// (zero) a pooled slab's pages at any moment, which used to trip the stack
// overflow check on the next engine that reused the slab. The canary is now
// re-armed on every acquisition, so a scribbled pool must be harmless.
TEST(ShardedEngine, CanarySurvivesScribbledSlabPool) {
  EngineConfig config;
  config.stack_bytes = 64 * 1024;
  {
    Engine engine(config);
    engine.run(64, [](Comm& world) { world.barrier(); });
  }  // the slab returns to the pool here
  par::testing::scribble_cached_stack_slabs();
  Engine engine(config);
  engine.run(64, [](Comm& world) { world.barrier(); });
  SUCCEED();
}

// Recurses through `frames` frames of over 512 bytes each. Every frame fills
// its whole pad, so a chain that runs off the bottom of a fiber stack writes
// across the canary instead of skipping over it.
[[gnu::noinline]] int fill_stack_frames(int frames) {
  volatile unsigned char pad[512];
  for (volatile unsigned char& b : pad) b = static_cast<unsigned char>(frames);
  if (frames == 0) return 0;
  const int deeper = fill_stack_frames(frames - 1);
  return deeper + pad[0];
}

TEST(EngineDeathTest, FiberStackOverflowIsDetected) {
  // Rank 0 runs first and retires at once; rank 1 then recurses through
  // ~22 KiB of frames on its 16 KiB stack, into rank 0's dead one, and
  // returns. The canary check at rank 1's retirement must catch it. ASan
  // may first report the frames that land on rank 0's stale stack shadow
  // as a stack-buffer-underflow; either message is a detection.
  EXPECT_DEATH(
      {
        EngineConfig config;
        config.stack_bytes = 16 * 1024;
        Engine engine(config);
        engine.run(2, [](Comm& world) {
          if (world.rank() == 1) (void)fill_stack_frames(44);
        });
      },
      "fiber stack overflow detected for rank 1|stack-buffer-underflow");
}

// Pages resident across the stacks of a 16Ki-fiber run whose body is one
// barrier, per fiber. Counts from the lowest live frame's page to the
// highest's, so it sees every fiber's top page and every canary but the
// first.
double resident_stack_pages_per_task() {
  constexpr int kTasks = 16 * 1024;
  EngineConfig config;
  config.stack_bytes = 16 * 1024;
  Engine engine(config);
  std::vector<std::uintptr_t> frames(kTasks);
  engine.run(kTasks, [&frames](Comm& world) {
    int local = 0;
    frames[static_cast<std::size_t>(world.rank())] =
        reinterpret_cast<std::uintptr_t>(&local);
    world.barrier();
  });
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const auto [lo, hi] = std::minmax_element(frames.begin(), frames.end());
  const std::uintptr_t begin = *lo & ~(page - 1);
  const std::uintptr_t end = (*hi & ~(page - 1)) + page;
  std::vector<unsigned char> resident((end - begin) / page);
  if (::mincore(reinterpret_cast<void*>(begin), end - begin,
                resident.data()) != 0) {
    return -1.0;
  }
  const auto pages = std::count_if(resident.begin(), resident.end(),
                                   [](unsigned char v) { return v & 1; });
  return static_cast<double>(pages) / kTasks;
}

TEST(EngineDeathTest, OneResidentPagePerFiber) {
  // A re-executed child: the process-wide slab pool starts empty, so every
  // resident page was faulted in by this run.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        const double per_task = resident_stack_pages_per_task();
        std::fprintf(stderr, "resident stack pages per task: %.3f\n",
                     per_task);
        std::exit(per_task >= 0.0 && per_task <= 1.25 ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "resident stack pages per task");
}

TEST(BarrierTest, ReleasesAllAtMaxTime) {
  Engine engine;
  engine.run(5, [&](Comm& world) {
    this_task()->compute(static_cast<double>(world.rank()));  // rank r at t=r
    world.barrier();
    // Everyone must be released at >= the slowest arrival (t=4).
    EXPECT_GE(this_task()->now(), 4.0);
  });
}

TEST(BarrierTest, CostScalesWithLogP) {
  NetworkModel net;
  EXPECT_EQ(net.tree_depth(1), 0);
  EXPECT_EQ(net.tree_depth(2), 1);
  EXPECT_EQ(net.tree_depth(1024), 10);
  EXPECT_EQ(net.tree_depth(65536), 16);
  EXPECT_EQ(net.tree_depth(65537), 17);
  EXPECT_LT(net.sync_cost(16), net.sync_cost(1024));
}

TEST(BcastTest, RootValueReachesEveryone) {
  Engine engine;
  engine.run(9, [&](Comm& world) {
    const std::uint64_t v =
        world.bcast_u64(world.rank() == 3 ? 777u : 0u, /*root=*/3);
    EXPECT_EQ(v, 777u);
  });
}

TEST(BcastTest, BytesBuffer) {
  Engine engine;
  engine.run(4, [&](Comm& world) {
    std::vector<std::byte> buf;
    if (world.rank() == 0) {
      for (std::size_t i = 0; i < 64; ++i) {
        buf.push_back(static_cast<std::byte>(i));
      }
    }
    world.steps({.blob = &buf}, 0);
    ASSERT_EQ(buf.size(), 64u);
    for (std::size_t i = 0; i < buf.size(); ++i) {
      EXPECT_EQ(std::to_integer<std::size_t>(buf[i]), i);
    }
  });
}

TEST(GatherTest, RootCollectsInRankOrder) {
  Engine engine;
  engine.run(6, [&](Comm& world) {
    auto all = world.gather_u64(
        static_cast<std::uint64_t>(world.rank() * 10), /*root=*/2);
    if (world.rank() == 2) {
      ASSERT_EQ(all.size(), 6u);
      for (int i = 0; i < 6; ++i) {
        EXPECT_EQ(all[static_cast<std::size_t>(i)],
                  static_cast<std::uint64_t>(i * 10));
      }
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST(GathervTest, VariableLengthArrays) {
  Engine engine;
  engine.run(4, [&](Comm& world) {
    // Rank r contributes r values [r, r, ...].
    std::vector<std::uint64_t> mine(static_cast<std::size_t>(world.rank()),
                                    static_cast<std::uint64_t>(world.rank()));
    auto all = world.gatherv_u64_flat(mine, 0);
    if (world.rank() == 0) {
      ASSERT_EQ(all.offsets.size(), 5u);
      ASSERT_EQ(all.data.size(), 6u);  // 0 + 1 + 2 + 3
      for (int r = 0; r < 4; ++r) {
        const auto piece = all.of(r);
        EXPECT_EQ(piece.size(), static_cast<std::size_t>(r));
        for (auto v : piece) EXPECT_EQ(v, static_cast<std::uint64_t>(r));
      }
    } else {
      EXPECT_TRUE(all.data.empty());
      EXPECT_TRUE(all.offsets.empty());
    }
  });
}

TEST(ScatterTest, EachTaskGetsItsValue) {
  Engine engine;
  engine.run(5, [&](Comm& world) {
    std::vector<std::uint64_t> values;
    if (world.rank() == 0) {
      values = {100, 101, 102, 103, 104};
    }
    const std::span<const std::uint64_t> in[] = {values};
    std::uint64_t v = 0;
    world.steps({.scatter_in = in, .scatter_out = {&v, 1}}, 0);
    EXPECT_EQ(v, 100u + static_cast<std::uint64_t>(world.rank()));
  });
}

TEST(AllgatherTest, EveryoneSeesEverything) {
  Engine engine;
  engine.run(7, [&](Comm& world) {
    auto all = world.allgather_u64(static_cast<std::uint64_t>(world.rank()));
    ASSERT_EQ(all.size(), 7u);
    for (int i = 0; i < 7; ++i) {
      EXPECT_EQ(all[static_cast<std::size_t>(i)],
                static_cast<std::uint64_t>(i));
    }
  });
}

TEST(AllreduceTest, SumMaxMin) {
  Engine engine;
  engine.run(8, [&](Comm& world) {
    const auto r = static_cast<std::uint64_t>(world.rank());
    EXPECT_EQ(world.allreduce_u64(r, ReduceOp::kSum), 28u);
    EXPECT_EQ(world.allreduce_u64(r, ReduceOp::kMax), 7u);
    EXPECT_EQ(world.allreduce_u64(r + 3, ReduceOp::kMin), 3u);
  });
}

TEST(ScattervBytesTest, PiecesReachTheirRanks) {
  Engine engine;
  engine.run(3, [&](Comm& world) {
    std::vector<std::byte> flat;
    std::vector<std::uint64_t> sizes;
    if (world.rank() == 0) {
      for (int r = 0; r < 3; ++r) {
        flat.insert(flat.end(), static_cast<std::size_t>(r + 2),
                    static_cast<std::byte>('A' + r));
        sizes.push_back(static_cast<std::uint64_t>(r + 2));
      }
    }
    std::vector<std::byte> mine;
    world.steps({.scatterv_out = &mine, .scatterv_data = flat,
                 .scatterv_sizes = sizes},
                0);
    ASSERT_EQ(mine.size(), static_cast<std::size_t>(world.rank() + 2));
    EXPECT_EQ(std::to_integer<char>(mine[0]),
              static_cast<char>('A' + world.rank()));
  });
}

TEST(SplitTest, GroupsByColorInParentOrder) {
  Engine engine;
  engine.run(8, [&](Comm& world) {
    const int color = world.rank() % 2;
    Comm* child = world.split(color);
    ASSERT_NE(child, nullptr);
    EXPECT_EQ(child->size(), 4);
    EXPECT_EQ(child->rank(), world.rank() / 2);
    // The child comm must be usable for collectives.
    const auto sum = child->allreduce_u64(
        static_cast<std::uint64_t>(world.rank()), ReduceOp::kSum);
    EXPECT_EQ(sum, color == 0 ? 12u : 16u);
  });
}

TEST(SplitTest, UndefinedColorYieldsNull) {
  Engine engine;
  engine.run(4, [&](Comm& world) {
    Comm* child = world.split(world.rank() == 0 ? -1 : 5);
    if (world.rank() == 0) {
      EXPECT_EQ(child, nullptr);
    } else {
      ASSERT_NE(child, nullptr);
      EXPECT_EQ(child->size(), 3);
    }
  });
}

TEST(SplitTest, NestedSplits) {
  Engine engine;
  engine.run(8, [&](Comm& world) {
    Comm* half = world.split(world.rank() / 4);
    ASSERT_NE(half, nullptr);
    Comm* quarter = half->split(half->rank() / 2);
    ASSERT_NE(quarter, nullptr);
    EXPECT_EQ(quarter->size(), 2);
    quarter->barrier();
  });
}

// Thousands of tasks and interleaved colors (one of them negative): every
// child rank and size must follow the parent order within each color, on
// world and on a sub-comm of every other rank, whose global ranks are not
// one range.
TEST(SplitTest, OrderAtScaleFollowsParentRanks) {
  constexpr int kTasks = 4096;
  const auto color_of = [](int p) { return (p * 37) % 5 - 1; };
  // Child rank and size per parent rank of an n-task parent; rank -1 for
  // the tasks in no child.
  struct Want {
    std::vector<int> rank;
    std::vector<int> size;
  };
  const auto want_for = [&](int n) {
    Want want{std::vector<int>(static_cast<std::size_t>(n), -1),
              std::vector<int>(static_cast<std::size_t>(n), 0)};
    std::map<int, int> members;
    for (int p = 0; p < n; ++p) {
      if (color_of(p) >= 0) {
        want.rank[static_cast<std::size_t>(p)] = members[color_of(p)]++;
      }
    }
    for (int p = 0; p < n; ++p) {
      if (color_of(p) >= 0) {
        want.size[static_cast<std::size_t>(p)] = members[color_of(p)];
      }
    }
    return want;
  };
  const Want whole = want_for(kTasks);
  const Want half = want_for(kTasks / 2);
  ASSERT_EQ(std::count(whole.rank.begin(), whole.rank.end(), -1),
            (kTasks + 4) / 5);

  const auto check = [&](Comm& parent, const Want& want) {
    const int p = parent.rank();
    Comm* child = parent.split(color_of(p));
    if (color_of(p) < 0) {
      EXPECT_EQ(child, nullptr);
      return;
    }
    ASSERT_NE(child, nullptr);
    EXPECT_EQ(child->rank(), want.rank[static_cast<std::size_t>(p)]);
    EXPECT_EQ(child->size(), want.size[static_cast<std::size_t>(p)]);
  };
  EngineConfig config;
  config.stack_bytes = 32 * 1024;
  Engine engine(config);
  engine.run(kTasks, [&](Comm& world) {
    check(world, whole);
    Comm* parity = world.split(world.rank() % 2);
    ASSERT_NE(parity, nullptr);
    ASSERT_EQ(parity->rank(), world.rank() / 2);
    check(*parity, half);
  });
}

TEST(P2pTest, SendThenRecv) {
  Engine engine;
  engine.run(2, [&](Comm& world) {
    if (world.rank() == 0) {
      std::vector<std::byte> msg{std::byte{1}, std::byte{2}, std::byte{3}};
      world.send_bytes(msg, 1, /*tag=*/7);
    } else {
      auto got = world.recv_bytes(0, 7);
      ASSERT_EQ(got.size(), 3u);
      EXPECT_EQ(std::to_integer<int>(got[2]), 3);
    }
  });
}

TEST(P2pTest, RecvBeforeSendAlsoWorks) {
  // Receiver at an earlier virtual time than the sender; the DES must order
  // the rendezvous correctly either way.
  Engine engine;
  engine.run(2, [&](Comm& world) {
    if (world.rank() == 0) {
      this_task()->compute(5.0);  // sender arrives late
      std::vector<std::byte> msg(10, std::byte{9});
      world.send_bytes(msg, 1, 0);
      EXPECT_GE(this_task()->now(), 5.0);
    } else {
      auto got = world.recv_bytes(0, 0);
      EXPECT_EQ(got.size(), 10u);
      EXPECT_GE(this_task()->now(), 5.0);  // could not complete before send
    }
  });
}

TEST(P2pTest, TagsKeepStreamsSeparate) {
  Engine engine;
  engine.run(2, [&](Comm& world) {
    if (world.rank() == 0) {
      std::vector<std::byte> a(1, std::byte{1});
      std::vector<std::byte> b(1, std::byte{2});
      world.send_bytes(a, 1, /*tag=*/1);
      world.send_bytes(b, 1, /*tag=*/2);
    } else {
      // Receive in the opposite order of the sends.
      auto b = world.recv_bytes(0, 2);
      auto a = world.recv_bytes(0, 1);
      EXPECT_EQ(std::to_integer<int>(a[0]), 1);
      EXPECT_EQ(std::to_integer<int>(b[0]), 2);
    }
  });
}

TEST(P2pTest, ManyPairsExchange) {
  Engine engine;
  engine.run(16, [&](Comm& world) {
    const int partner = world.rank() ^ 1;
    std::vector<std::byte> msg(4, static_cast<std::byte>(world.rank()));
    if (world.rank() < partner) {
      world.send_bytes(msg, partner, 0);
      auto got = world.recv_bytes(partner, 0);
      EXPECT_EQ(std::to_integer<int>(got[0]), partner);
    } else {
      auto got = world.recv_bytes(partner, 0);
      EXPECT_EQ(std::to_integer<int>(got[0]), partner);
      world.send_bytes(msg, partner, 0);
    }
  });
}

TEST(P2pTest, ViewShipsWithoutCopy) {
  Engine engine;
  engine.run(2, [&](Comm& world) {
    std::vector<std::byte> buf(64, static_cast<std::byte>(0xAB));
    if (world.rank() == 0) {
      // The blocking token keeps `buf` alive until the receiver is done,
      // mirroring the aggregation ship protocol.
      world.send_view(buf, 1, /*tag=*/3);
      (void)world.recv_bytes(1, /*tag=*/4);
    } else {
      const auto view = world.recv_view(0, 3);
      ASSERT_EQ(view.size(), 64u);
      EXPECT_EQ(std::to_integer<int>(view[63]), 0xAB);
      world.send_bytes({}, 0, 4);
    }
  });
}

TEST(P2pTest, ViewRecvBeforeSendBlocksAndDelivers) {
  Engine engine;
  engine.run(2, [&](Comm& world) {
    std::vector<std::byte> buf(8, static_cast<std::byte>(7));
    if (world.rank() == 0) {
      this_task()->compute(1.0);  // receiver blocks first
      world.send_view(buf, 1, 0);
      (void)world.recv_bytes(1, 1);
    } else {
      const auto view = world.recv_view(0, 0);
      ASSERT_EQ(view.size(), 8u);
      EXPECT_EQ(std::to_integer<int>(view[0]), 7);
      EXPECT_GE(this_task()->now(), 1.0);
      world.send_bytes({}, 0, 1);
    }
  });
}

TEST(P2pTest, ViewMessageReadableThroughRecvBytes) {
  // A copying receiver may consume a view message (it copies); only the
  // reverse pairing is a protocol error.
  Engine engine;
  engine.run(2, [&](Comm& world) {
    std::vector<std::byte> buf(5, static_cast<std::byte>(3));
    if (world.rank() == 0) {
      world.send_view(buf, 1, 0);
      (void)world.recv_bytes(1, 1);
    } else {
      const auto got = world.recv_bytes(0, 0);
      ASSERT_EQ(got.size(), 5u);
      EXPECT_EQ(std::to_integer<int>(got[4]), 3);
      world.send_bytes({}, 0, 1);
    }
  });
}

// ---------------------------------------------------------------------------
// group-to-group rotation (the buddy-replication ship primitive)
// ---------------------------------------------------------------------------

TEST(RotateTest, PayloadsMoveToTheBuddyGroup) {
  Engine engine;
  engine.run(8, [&](Comm& world) {
    // Two domains of four ranks: shift 4 ships every rank's payload to the
    // same-positioned rank of the buddy domain. Sizes vary per rank so a
    // mis-routed buffer is detected by length alone.
    std::vector<std::byte> mine(3 + static_cast<std::size_t>(world.rank()),
                                static_cast<std::byte>(world.rank()));
    const auto got = world.rotate_bytes(mine, 4);
    const int src = (world.rank() - 4 + 8) % 8;
    ASSERT_EQ(got.size(), 3 + static_cast<std::size_t>(src));
    for (const std::byte b : got) {
      EXPECT_EQ(std::to_integer<int>(b), src);
    }
  });
}

TEST(RotateTest, NegativeAndWrappedShiftsNormalize) {
  Engine engine;
  engine.run(6, [&](Comm& world) {
    std::vector<std::byte> mine(1, static_cast<std::byte>(world.rank()));
    // shift -1 receives from the rank ahead; shift size+1 from one behind.
    auto back = world.rotate_bytes(mine, -1);
    EXPECT_EQ(std::to_integer<int>(back[0]), (world.rank() + 1) % 6);
    auto fwd = world.rotate_bytes(mine, 7);
    EXPECT_EQ(std::to_integer<int>(fwd[0]), (world.rank() + 5) % 6);
  });
}

TEST(RotateTest, ShiftMultipleOfSizeIsALocalCopy) {
  Engine engine;
  engine.run(4, [&](Comm& world) {
    const double t0 = this_task()->now();
    std::vector<std::byte> mine(5, static_cast<std::byte>(world.rank()));
    const auto copy = world.rotate_bytes(mine, 8);
    EXPECT_EQ(copy, mine);
    EXPECT_DOUBLE_EQ(this_task()->now(), t0);  // no network charged
  });
}

TEST(RotateTest, RotationChargesLinkTime) {
  Engine engine;
  engine.run(4, [&](Comm& world) {
    const double t0 = this_task()->now();
    std::vector<std::byte> mine(1 << 20);
    (void)world.rotate_bytes(mine, 1);
    EXPECT_GT(this_task()->now(), t0);
  });
}

TEST(CollectiveTimeTest, GatherChargesTime) {
  Engine engine;
  double release = 0;
  engine.run(16, [&](Comm& world) {
    world.gather_u64(1, 0);
    if (world.rank() == 0) release = this_task()->now();
  });
  EXPECT_GT(release, 0.0);
  EXPECT_LT(release, 1e-2);  // microseconds-scale, not seconds
}

TEST(CollectiveTimeTest, LargePayloadCostsMore) {
  NetworkModel net;
  EXPECT_GT(net.rooted_cost(64, 64ULL * 1024 * 1024),
            net.rooted_cost(64, 64ULL * 8));
}

TEST(CollectiveStressTest, RepeatedMixedCollectives) {
  Engine engine;
  engine.run(32, [&](Comm& world) {
    for (int iter = 0; iter < 20; ++iter) {
      const auto sum = world.allreduce_u64(1, ReduceOp::kSum);
      EXPECT_EQ(sum, 32u);
      world.barrier();
      const auto v = world.bcast_u64(
          static_cast<std::uint64_t>(iter), iter % world.size());
      EXPECT_EQ(v, static_cast<std::uint64_t>(iter));
    }
  });
}

// ---------------------------------------------------------------------------
// Exact-cost fusion: each fused call against the calls it stands for, one
// engine run each. Every task's results and clocks must match bit for bit.
// ---------------------------------------------------------------------------

constexpr int kFuseTasks = 12;
constexpr char kFuseWhat[] = "fused test agreement";

// Sub-comms of 1, 3 and 8 members, interleaved over the world.
int fuse_color(int rank) {
  if (rank == 5) return 0;
  return rank % 4 == 0 ? 1 : 2;
}

// Runs `body(world, sub, record)` on every task after a rank-skewed
// compute, and returns each task's record followed by its final clock and
// then the makespan, doubles in hexfloat.
std::vector<std::string> fuse_run(
    const std::function<void(Comm&, Comm&, std::string&)>& body) {
  Engine engine;
  std::vector<std::string> out(kFuseTasks + 1);
  engine.run(kFuseTasks, [&](Comm& world) {
    const int r = world.rank();
    Comm* sub = world.split(fuse_color(r));
    this_task()->compute(1e-5 * ((r * 7) % 5));
    std::string& rec = out[static_cast<std::size_t>(r)];
    body(world, *sub, rec);
    rec += strformat(" t=%a", this_task()->now());
  });
  out.back() = strformat("epoch=%a", engine.epoch());
  return out;
}

void record(std::string& rec, const Status& st) { rec += " " + st.to_string(); }

void record(std::string& rec, std::span<const std::uint64_t> values) {
  rec += " [";
  for (const std::uint64_t v : values) {
    rec += strformat(" %llu", static_cast<unsigned long long>(v));
  }
  rec += " ]";
}

// share_status_global written out as its two collectives.
Status agreement_unfused(Comm& lcom, Comm& gcom, const Status& mine) {
  const std::uint64_t code =
      lcom.bcast_u64(static_cast<std::uint64_t>(mine.code()), 0);
  Status x = mine;
  if (code != 0 && lcom.rank() != 0) {
    x = Status(static_cast<ErrorCode>(code), kFuseWhat);
  }
  if (gcom.allreduce_u64(x.ok() ? 0 : 1, ReduceOp::kMax) == 0) {
    return Status::Ok();
  }
  return x.ok() ? Internal(kFuseWhat) : x;
}

// No failure, a failure on the root of the 3-member sub-comm, on a
// non-root of the 8-member one, and on the 1-member one's only task.
const std::vector<int> kFailingRanks[] = {{}, {0}, {9}, {5}, {4, 10}};

Status own_status(int rank, const std::vector<int>& failing) {
  for (const int f : failing) {
    if (f == rank) return IoError(strformat("injected on rank %d", rank));
  }
  return Status::Ok();
}

TEST(FusionTest, AgreementMatchesBcastThenAllreduce) {
  for (const auto& failing : kFailingRanks) {
    const auto mine = [&](Comm& world) {
      return own_status(world.rank(), failing);
    };
    const auto fused = fuse_run([&](Comm& world, Comm& sub, std::string& rec) {
      record(rec, share_status_global(sub, world, mine(world), 0, kFuseWhat));
    });
    const auto unfused =
        fuse_run([&](Comm& world, Comm& sub, std::string& rec) {
          record(rec, agreement_unfused(sub, world, mine(world)));
        });
    EXPECT_EQ(fused, unfused) << "failing ranks " << failing.size();
  }
}

TEST(FusionTest, AgreementWithBarrierMatchesTheTwoCalls) {
  for (const auto& failing : kFailingRanks) {
    const auto fused = fuse_run([&](Comm& world, Comm& sub, std::string& rec) {
      Status st = own_status(world.rank(), failing);
      world.steps({.status = &st, .within = &sub, .barrier = true}, 0,
                  kFuseWhat);
      record(rec, st);
    });
    const auto unfused =
        fuse_run([&](Comm& world, Comm& sub, std::string& rec) {
          const Status st =
              agreement_unfused(sub, world, own_status(world.rank(), failing));
          if (st.ok()) world.barrier();
          record(rec, st);
        });
    EXPECT_EQ(fused, unfused) << "failing ranks " << failing.size();
  }
}

// Every step kind on `comm`, fused or as separate calls (the scatters as
// one-step `steps` calls). The root's inputs are left empty when its status
// fails, so touching them would abort.
void all_steps(Comm& comm, bool fused, bool root_fails, std::string& rec) {
  const int n = comm.size();
  const int me = comm.rank();
  const bool root = me == 0;
  Status st = root && root_fails ? IoError("root failed") : Status::Ok();
  const bool feed = root && !root_fails;
  std::uint64_t words[3] = {0, 0, 0};
  std::vector<std::uint64_t> in_a;
  std::vector<std::uint64_t> in_b;
  std::vector<std::byte> flat;
  std::vector<std::uint64_t> sizes;
  if (feed) {
    for (int i = 0; i < n; ++i) {
      in_a.push_back(100 + static_cast<std::uint64_t>(i));
      in_b.push_back(200 + static_cast<std::uint64_t>(i * i));
      sizes.push_back(static_cast<std::uint64_t>(i % 3));
      flat.insert(flat.end(), static_cast<std::size_t>(i % 3),
                  static_cast<std::byte>(i));
    }
    words[0] = 7;
    words[1] = 11;
    words[2] = 13;
  }
  const std::uint64_t one = 1000 + static_cast<std::uint64_t>(me);
  const std::vector<std::uint64_t> var(static_cast<std::size_t>(me % 3),
                                       static_cast<std::uint64_t>(me));
  std::uint64_t got[2] = {0, 0};
  std::vector<std::byte> piece;
  Comm::FlatGatherU64 gathered[2];
  if (fused) {
    const std::span<const std::uint64_t> scatters[] = {in_a, in_b};
    const std::span<const std::uint64_t> gathers[] = {{&one, 1}, var};
    comm.steps({.status = &st, .bcast = words, .scatter_in = scatters,
                .scatter_out = got, .scatterv_out = &piece,
                .scatterv_data = flat, .scatterv_sizes = sizes,
                .gather_in = gathers, .gather_out = gathered,
                .barrier = true},
               0, kFuseWhat);
  } else {
    const std::uint64_t code =
        comm.bcast_u64(static_cast<std::uint64_t>(st.code()), 0);
    if (code != 0 && !root) st = Status(static_cast<ErrorCode>(code), kFuseWhat);
    if (code == 0) {
      for (std::uint64_t& w : words) w = comm.bcast_u64(w, 0);
      const std::span<const std::uint64_t> scatter_a[] = {in_a};
      const std::span<const std::uint64_t> scatter_b[] = {in_b};
      comm.steps({.scatter_in = scatter_a, .scatter_out = {&got[0], 1}}, 0);
      comm.steps({.scatter_in = scatter_b, .scatter_out = {&got[1], 1}}, 0);
      comm.steps({.scatterv_out = &piece, .scatterv_data = flat,
                  .scatterv_sizes = sizes},
                 0);
      gathered[0].data = comm.gather_u64(one, 0);
      gathered[1] = comm.gatherv_u64_flat(var, 0);
      comm.barrier();
    }
  }
  record(rec, st);
  record(rec, words);
  record(rec, got);
  rec += strformat(" piece=%zu", piece.size());
  for (const std::byte b : piece) rec += strformat(":%d", static_cast<int>(b));
  record(rec, gathered[0].data);
  record(rec, gathered[1].data);
  record(rec, gathered[1].offsets);
}

TEST(FusionTest, StepsMatchTheSeparateCalls) {
  for (const bool root_fails : {false, true}) {
    const auto run = [&](bool fused) {
      return fuse_run([&](Comm& world, Comm& sub, std::string& rec) {
        all_steps(sub, fused, root_fails, rec);
        all_steps(world, fused, root_fails, rec);
      });
    };
    EXPECT_EQ(run(true), run(false)) << "root fails: " << root_fails;
  }
}

// A failed status word charges the word's broadcast alone.
TEST(FusionTest, FailedStatusWordChargesOnlyItself) {
  double fused_release = 0.0;
  Engine engine;
  engine.run(4, [&](Comm& world) {
    Status st = world.rank() == 0 ? IoError("root failed") : Status::Ok();
    std::uint64_t word = 0;
    std::uint64_t got = 0;
    world.steps({.status = &st, .bcast = {&word, 1},
                 .scatter_out = {&got, 1}, .barrier = true},
                0, kFuseWhat);
    EXPECT_EQ(st.code(), ErrorCode::kIoError);
    fused_release = this_task()->now();
  });
  EXPECT_EQ(fused_release, NetworkModel{}.bcast_cost(4, 8));
}

// The blob reaches every task from the latest of rank-skewed arrivals,
// charged as its size word and then its bytes (zero bytes still cost a
// broadcast); a failed status word before it charges only itself and
// leaves every blob as it was.
TEST(FusionTest, BlobChargesItsSizeWordThenItsBytes) {
  constexpr int kRoot = 3;
  for (const std::size_t bytes : {std::size_t{0}, std::size_t{300}}) {
    for (const bool root_fails : {false, true}) {
      std::vector<std::byte> sent(bytes);
      for (std::size_t i = 0; i < bytes; ++i) {
        sent[i] = static_cast<std::byte>(i * 7 + 1);
      }
      double latest = 0.0;
      std::vector<double> release(kFuseTasks);
      Engine engine;
      engine.run(kFuseTasks, [&](Comm& world) {
        const int r = world.rank();
        this_task()->compute(1e-5 * ((r * 7) % 5));
        latest = std::max(latest, this_task()->now());
        Status st =
            r == kRoot && root_fails ? IoError("root failed") : Status::Ok();
        std::vector<std::byte> blob(r == kRoot ? sent
                                               : std::vector<std::byte>(5));
        world.steps({.status = &st, .blob = &blob}, kRoot, kFuseWhat);
        EXPECT_EQ(st.ok(), !root_fails);
        if (root_fails) {
          EXPECT_EQ(blob.size(), r == kRoot ? bytes : 5u);
        } else {
          EXPECT_EQ(blob, sent);
        }
        release[static_cast<std::size_t>(r)] = this_task()->now();
      });
      const NetworkModel net;
      double want = latest + net.bcast_cost(kFuseTasks, 8);
      if (!root_fails) {
        want = want + net.bcast_cost(kFuseTasks, 8);
        want = want + net.bcast_cost(kFuseTasks, bytes);
      }
      for (const double t : release) {
        EXPECT_EQ(t, want) << strformat("%a vs %a, %zu bytes, root fails %d",
                                        t, want, bytes, root_fails);
      }
    }
  }
}

class TaskCountParamTest : public ::testing::TestWithParam<int> {};

TEST_P(TaskCountParamTest, BarrierAndReduceAtScale) {
  const int n = GetParam();
  Engine engine;
  engine.run(n, [&](Comm& world) {
    world.barrier();
    const auto sum = world.allreduce_u64(1, ReduceOp::kSum);
    EXPECT_EQ(sum, static_cast<std::uint64_t>(n));
    const auto all = world.allgather_u64(
        static_cast<std::uint64_t>(world.rank()));
    EXPECT_EQ(all.size(), static_cast<std::size_t>(n));
  });
}

INSTANTIATE_TEST_SUITE_P(TaskCounts, TaskCountParamTest,
                         ::testing::Values(1, 2, 3, 7, 64, 255, 1024));

}  // namespace
}  // namespace sion::par
