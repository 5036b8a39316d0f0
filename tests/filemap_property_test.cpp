// Property tests for the file mappings, the computed (closed-form)
// contiguous one and a custom one: for every (ntasks, nfiles) combination
// the mapping must partition ranks into ascending local indices per file,
// with per-file counts that sum to ntasks — the invariants the multifile
// header format relies on.
#include <gtest/gtest.h>

#include <vector>

#include "core/filemap.h"

namespace sion::core {
namespace {

class FileMapSweepTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(FileMapSweepTest, ContiguousInvariants) {
  const auto [ntasks, nfiles] = GetParam();
  auto map = FileMap::contiguous(ntasks, nfiles).value();

  // Partition: counts sum to ntasks; every file non-empty.
  int total = 0;
  for (int f = 0; f < nfiles; ++f) {
    EXPECT_GE(map.tasks_in_file(f), 1);
    total += map.tasks_in_file(f);
  }
  EXPECT_EQ(total, ntasks);

  // Monotone file assignment and dense ascending local indices.
  std::vector<int> next_local(static_cast<std::size_t>(nfiles), 0);
  int prev_file = 0;
  for (int r = 0; r < ntasks; ++r) {
    const int f = map.file_of(r);
    ASSERT_GE(f, 0);
    ASSERT_LT(f, nfiles);
    EXPECT_GE(f, prev_file) << "contiguous mapping must be monotone";
    prev_file = f;
    EXPECT_EQ(map.local_index(r), next_local[static_cast<std::size_t>(f)]++)
        << "rank " << r;
  }
  for (int f = 0; f < nfiles; ++f) {
    EXPECT_EQ(next_local[static_cast<std::size_t>(f)], map.tasks_in_file(f));
  }

  // Balance: counts differ by at most one.
  int lo = ntasks;
  int hi = 0;
  for (int f = 0; f < nfiles; ++f) {
    lo = std::min(lo, map.tasks_in_file(f));
    hi = std::max(hi, map.tasks_in_file(f));
  }
  EXPECT_LE(hi - lo, 1);
}

// Round robin (rank r -> file r % nfiles) as a custom map, the most finely
// interleaved one; these invariants hold for any custom map.
TEST_P(FileMapSweepTest, RoundRobinInvariants) {
  const auto [ntasks, nfiles] = GetParam();
  std::vector<int> round_robin(static_cast<std::size_t>(ntasks));
  for (int r = 0; r < ntasks; ++r) {
    round_robin[static_cast<std::size_t>(r)] = r % nfiles;
  }
  auto map =
      FileMap::make(Mapping::kCustom, ntasks, nfiles, round_robin).value();
  int total = 0;
  for (int f = 0; f < nfiles; ++f) {
    EXPECT_GE(map.tasks_in_file(f), 1);
    total += map.tasks_in_file(f);
  }
  EXPECT_EQ(total, ntasks);
  std::vector<int> next_local(static_cast<std::size_t>(nfiles), 0);
  for (int r = 0; r < ntasks; ++r) {
    const int f = map.file_of(r);
    EXPECT_EQ(f, r % nfiles);
    EXPECT_EQ(map.local_index(r), next_local[static_cast<std::size_t>(f)]++);
  }
  for (int f = 0; f < nfiles; ++f) {
    EXPECT_EQ(next_local[static_cast<std::size_t>(f)], map.tasks_in_file(f));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FileMapSweepTest,
    ::testing::Values(std::pair{1, 1}, std::pair{2, 1}, std::pair{2, 2},
                      std::pair{7, 3}, std::pair{10, 3}, std::pair{16, 16},
                      std::pair{100, 7}, std::pair{1000, 13},
                      std::pair{65536, 152}, std::pair{65536, 128},
                      std::pair{12288, 3}, std::pair{31, 31}));

TEST(FileMapScaleTest, HugeMappingsAreConstantSpace) {
  // The whole point of the closed form: a 64 Ki-task mapping costs nothing.
  auto map = FileMap::contiguous(65536, 32).value();
  EXPECT_EQ(map.file_of(0), 0);
  EXPECT_EQ(map.file_of(65535), 31);
  EXPECT_EQ(map.tasks_in_file(0), 2048);
  EXPECT_EQ(map.local_index(2048), 0);   // first rank of file 1
  EXPECT_EQ(map.local_index(2047), 2047);
  EXPECT_EQ(sizeof(map) < 128, true);
}

}  // namespace
}  // namespace sion::core
