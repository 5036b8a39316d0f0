// Host-performance scaling sweep: the fig3 SION open/close path from 1Ki up
// to 16Mi tasks, reporting BOTH clocks per point — the virtual makespan (the
// paper's number, bit-stable across commits) and the host
// wall seconds the simulation itself took (the number the engine work moves,
// and the one CI budgets along with peak RSS).
//
// Flags beyond the usual --scale/--json:
//   --max-tasks=N   extend the sweep past 64Ki up to N tasks (the ROADMAP
//                   million-task points: 128Ki..16Mi, doubling)
//   --min-tasks=N   skip sweep points below N tasks, so CI can run a single
//                   large point (e.g. --min-tasks=1048576 --max-tasks=1048576)
//                   without the cumulative peak-RSS high-water of the ramp
//   --stack-bytes=B per-fiber stack; 0 (default) picks 48KiB up to 64Ki
//                   tasks and a compact 16KiB above, so a 1Mi-task point
//                   keeps its resident set bounded by touched stack pages
#include <algorithm>
#include <vector>

#include "bench_util.h"
#include "common/options.h"
#include "common/strings.h"
#include "core/api.h"

namespace {

using namespace sion;          // NOLINT(google-build-using-namespace)
using namespace sion::bench;   // NOLINT(google-build-using-namespace)

constexpr std::size_t kCompactStackBytes = 16 * 1024;
constexpr int kCompactStackThreshold = 65536;

struct PointResult {
  double create_virtual_s = 0.0;   // task-local create phase (virtual)
  double sion_virtual_s = 0.0;     // SION open_write + close (virtual)
  double wall_s = 0.0;             // host time for the whole point
};

PointResult run_point(const fs::SimConfig& machine, int ntasks,
                      int sion_nfiles, std::size_t stack_bytes) {
  const WallTimer wall;
  fs::SimFs fs(machine);
  if (stack_bytes == 0) {
    stack_bytes = ntasks <= kCompactStackThreshold ? 48 * 1024
                                                   : kCompactStackBytes;
  }
  par::Engine engine(engine_config_for(machine, stack_bytes));

  PointResult r;
  r.create_virtual_s = timed_run(engine, ntasks, [&](par::Comm& world) {
    auto f = fs.create(strformat("data.%06d", world.rank()));
    SION_CHECK(f.ok()) << f.status().to_string();
  });

  r.sion_virtual_s = timed_run(engine, ntasks, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "scale.sion";
    spec.chunksize = 64 * kKiB;
    spec.nfiles = sion_nfiles;
    auto sion = core::SionParFile::open_write(fs, world, spec);
    SION_CHECK(sion.ok()) << sion.status().to_string();
    SION_CHECK(sion.value()->close().ok());
  });

  r.wall_s = wall.seconds();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const double scale = opts.get_double("scale", 1.0);
  const int nfiles = checked_narrow<int>(opts.get_u64("nfiles", 32));
  const std::uint64_t max_tasks = opts.get_u64("max-tasks", 65536);
  const std::uint64_t min_tasks = opts.get_u64("min-tasks", 0);
  const auto stack_bytes =
      checked_narrow<std::size_t>(opts.get_u64("stack-bytes", 0));

  print_header("Host-performance scaling: fig3 open/close path, 1Ki..16Mi",
               "virtual times reproduce Fig. 3's SION-create seconds; wall "
               "seconds measure the simulator itself");

  Report report("scale", "Host wall-clock scaling of the fig3 open/close path");
  report.set_param("scale", scale);
  report.set_param("nfiles", nfiles);
  report.set_param("max_tasks", max_tasks);
  report.set_param("min_tasks", min_tasks);
  Table& table = report.table(
      "jugene", {"tasks", "create_files_virtual_s", "sion_create_virtual_s",
                 "wall_s"});

  std::printf("%8s %24s %22s %10s\n", "#tasks", "create files(virt s)",
              "SION create(virt s)", "wall(s)");
  const fs::SimConfig machine = fs::JugeneConfig();
  std::vector<std::uint64_t> sweep = {1024, 2048, 4096, 8192, 16384, 32768,
                                      65536};
  for (std::uint64_t n = 131072; n <= std::uint64_t{16} * 1024 * 1024;
       n *= 2) {
    sweep.push_back(n);  // the million-task extension, gated by --max-tasks
  }
  for (const std::uint64_t raw_n : sweep) {
    if (raw_n > max_tasks) break;
    if (raw_n < min_tasks) continue;
    const int n = std::max(
        1, checked_trunc<int>(static_cast<double>(raw_n) * scale));
    const PointResult r =
        run_point(machine, n, std::min(nfiles, n), stack_bytes);
    std::printf("%8s %24.2f %22.3f %10.3f\n",
                format_tasks(raw_n).c_str(), r.create_virtual_s / scale,
                r.sion_virtual_s / scale, r.wall_s);
    table.row({raw_n, r.create_virtual_s / scale, r.sion_virtual_s / scale,
               r.wall_s});
  }
  return report.write_if_requested(opts);
}
