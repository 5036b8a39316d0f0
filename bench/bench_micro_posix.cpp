// Wall-clock micro-benchmarks of the library itself on the real (POSIX)
// file system, using google-benchmark: multifile open/close cost, write and
// read throughput through the chunk-splitting paths, the serial tools, and
// the codec kernels (slz, CRC32C, GF(256) multiply-add). These complement
// the virtual-time paper reproductions — here real time is measured, so
// numbers vary by host.
#include <benchmark/benchmark.h>

#include <filesystem>

#include "common/rng.h"
#include "common/units.h"
#include "core/api.h"
#include "ext/compress.h"
#include "ext/gf256.h"
#include "ext/slz.h"
#include "fs/posix_fs.h"
#include "par/comm.h"
#include "par/engine.h"
#include "tools/defrag.h"
#include "tools/dump.h"

namespace {

using namespace sion;  // NOLINT(google-build-using-namespace)

std::string bench_dir() {
  static const std::string dir = [] {
    auto path = std::filesystem::temp_directory_path() /
                ("sion_bench_" + std::to_string(::getpid()));
    std::filesystem::create_directories(path);
    return path.string();
  }();
  return dir;
}

void BM_ParOpenClose(benchmark::State& state) {
  const int ntasks = static_cast<int>(state.range(0));
  fs::PosixFs pfs(64 * kKiB);
  par::Engine engine;
  const std::string name = bench_dir() + "/open.sion";
  for (auto _ : state) {
    engine.run(ntasks, [&](par::Comm& world) {
      core::ParOpenSpec spec;
      spec.filename = name;
      spec.chunksize = 4096;
      auto sion = core::SionParFile::open_write(pfs, world, spec);
      if (sion.ok()) (void)sion.value()->close();
    });
  }
  state.SetItemsProcessed(state.iterations() * ntasks);
}
BENCHMARK(BM_ParOpenClose)->Arg(4)->Arg(32)->Arg(256);

void BM_SionWriteThroughput(benchmark::State& state) {
  const std::uint64_t piece = static_cast<std::uint64_t>(state.range(0));
  fs::PosixFs pfs(64 * kKiB);
  par::Engine engine;
  const std::string name = bench_dir() + "/wr.sion";
  std::vector<std::byte> data(piece);
  Rng rng(1);
  rng.fill_bytes(data);
  for (auto _ : state) {
    engine.run(4, [&](par::Comm& world) {
      core::ParOpenSpec spec;
      spec.filename = name;
      spec.chunksize = 256 * kKiB;
      auto sion = core::SionParFile::open_write(pfs, world, spec);
      if (!sion.ok()) return;
      for (int i = 0; i < 16; ++i) {
        (void)sion.value()->write(fs::DataView(data));
      }
      (void)sion.value()->close();
    });
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * 4 * 16 * piece));
}
BENCHMARK(BM_SionWriteThroughput)->Arg(4 * kKiB)->Arg(64 * kKiB)->Arg(1 * kMiB);

void BM_SionReadThroughput(benchmark::State& state) {
  const std::uint64_t per_task = 4 * kMiB;
  fs::PosixFs pfs(64 * kKiB);
  par::Engine engine;
  const std::string name = bench_dir() + "/rd.sion";
  engine.run(4, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = name;
    spec.chunksize = 256 * kKiB;
    auto sion = core::SionParFile::open_write(pfs, world, spec);
    if (!sion.ok()) return;
    (void)sion.value()->write(fs::DataView::fill(std::byte{'r'}, per_task));
    (void)sion.value()->close();
  });
  std::vector<std::byte> buf(per_task);
  for (auto _ : state) {
    engine.run(4, [&](par::Comm& world) {
      auto sion = core::SionParFile::open_read(pfs, world, name);
      if (!sion.ok()) return;
      (void)sion.value()->read(buf);
      (void)sion.value()->close();
    });
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * 4 * per_task));
}
BENCHMARK(BM_SionReadThroughput);

void BM_DumpTool(benchmark::State& state) {
  fs::PosixFs pfs(64 * kKiB);
  par::Engine engine;
  const std::string name = bench_dir() + "/dump.sion";
  engine.run(64, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = name;
    spec.chunksize = 4096;
    auto sion = core::SionParFile::open_write(pfs, world, spec);
    if (!sion.ok()) return;
    (void)sion.value()->write(fs::DataView::fill(std::byte{'d'}, 1000));
    (void)sion.value()->close();
  });
  for (auto _ : state) {
    auto text = tools::dump_multifile(pfs, name);
    benchmark::DoNotOptimize(text);
  }
}
BENCHMARK(BM_DumpTool);

void BM_DefragTool(benchmark::State& state) {
  fs::PosixFs pfs(64 * kKiB);
  par::Engine engine;
  const std::string name = bench_dir() + "/df.sion";
  engine.run(16, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = name;
    spec.chunksize = 64 * kKiB;
    auto sion = core::SionParFile::open_write(pfs, world, spec);
    if (!sion.ok()) return;
    (void)sion.value()->write(
        fs::DataView::fill(std::byte{'x'}, 150 * kKiB));  // 3 blocks
    (void)sion.value()->close();
  });
  int i = 0;
  for (auto _ : state) {
    const std::string out = bench_dir() + "/df_out" + std::to_string(i++);
    auto st = tools::defrag_multifile(pfs, name, out);
    benchmark::DoNotOptimize(st);
  }
}
BENCHMARK(BM_DefragTool);

void BM_SlzCompress(benchmark::State& state) {
  // Mixed-entropy input, roughly trace-like.
  std::vector<std::byte> input(static_cast<std::size_t>(state.range(0)));
  Rng rng(3);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = (i % 16 < 12) ? static_cast<std::byte>(i / 64 % 251)
                             : static_cast<std::byte>(rng.next_below(256));
  }
  for (auto _ : state) {
    auto out = ext::slz_compress(input);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(input.size()));
}
BENCHMARK(BM_SlzCompress)->Arg(64 * kKiB)->Arg(1 * kMiB);

void BM_SlzDecompress(benchmark::State& state) {
  std::vector<std::byte> input(static_cast<std::size_t>(state.range(0)));
  Rng rng(3);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = (i % 16 < 12) ? static_cast<std::byte>(i / 64 % 251)
                             : static_cast<std::byte>(rng.next_below(256));
  }
  const auto compressed = ext::slz_compress(input);
  for (auto _ : state) {
    auto out = ext::slz_decompress(compressed);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(input.size()));
}
BENCHMARK(BM_SlzDecompress)->Arg(64 * kKiB)->Arg(1 * kMiB);

void BM_Crc32c(benchmark::State& state) {
  std::vector<std::byte> input(static_cast<std::size_t>(state.range(0)));
  Rng rng(5);
  rng.fill_bytes(input);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ext::crc32c(input));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(input.size()));
}
BENCHMARK(BM_Crc32c)->Arg(256 * kKiB);

void BM_GfMulAdd(benchmark::State& state) {
  std::vector<std::byte> src(static_cast<std::size_t>(state.range(0)));
  std::vector<std::byte> dst(src.size());
  Rng rng(7);
  rng.fill_bytes(src);
  const ext::GfMulTable table(0x8E);
  for (auto _ : state) {
    table.mul_add(dst, src);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(src.size()));
}
BENCHMARK(BM_GfMulAdd)->Arg(256 * kKiB);

class Cleanup {
 public:
  ~Cleanup() {
    std::error_code ec;
    std::filesystem::remove_all(bench_dir(), ec);
  }
} cleanup;

}  // namespace

BENCHMARK_MAIN();
