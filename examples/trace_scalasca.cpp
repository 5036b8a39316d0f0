// Scalasca-style event tracing (paper section 5.2): every task records
// events during "measurement", writes them at finalisation — optionally
// slz-compressed, like Scalasca's zlib traces — and a serial "analyzer"
// loads each rank's trace back through the task-local view afterwards.
//
//   $ ./trace_scalasca --ntasks=32 --events=50000 --compress
//   $ ./trace_scalasca --backend=tasklocal ...   (the pre-SIONlib layout)
#include <cstdio>

#include "common/options.h"
#include "common/units.h"
#include "fs/sim/machine.h"
#include "fs/sim/simfs.h"
#include "par/comm.h"
#include "par/engine.h"
#include "workloads/tracer.h"

using namespace sion;             // NOLINT(google-build-using-namespace)
using namespace sion::workloads;  // NOLINT(google-build-using-namespace)

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const int ntasks = static_cast<int>(opts.get_u64("ntasks", 32));
  const std::uint64_t events = opts.get_u64("events", 50000);
  const bool compress = opts.get_bool("compress");
  const std::string backend_name = opts.get_string("backend", "sion");

  TracerSpec spec;
  spec.path = "trace";
  spec.backend = backend_name == "tasklocal" ? TraceBackend::kTaskLocal
                                             : TraceBackend::kSion;
  spec.nfiles = 4;
  spec.buffer_bytes = events * kTraceEventBytes + 4096;
  if (compress) spec.compression = ext::CompressionSpec{};

  fs::SimFs fs(fs::JugeneConfig());
  par::EngineConfig config;
  config.network = fs.config().network;
  par::Engine engine(config);
  bool all_ok = true;
  double activation = 0;
  std::uint64_t written_total = 0;

  engine.run(ntasks, [&](par::Comm& world) {
    // Experiment activation — the phase Table 2 shows SIONlib improving
    // 13.1x at 32 Ki cores.
    world.barrier();
    const double t0 = par::this_task()->now();
    auto tracer = Tracer::open(fs, world, spec);
    world.barrier();
    if (world.rank() == 0) activation = par::this_task()->now() - t0;
    if (!tracer.ok()) {
      all_ok = false;
      return;
    }
    // "Measurement": record a deterministic event stream.
    for (const auto& e : trace_generate(world.rank(), events, /*seed=*/7)) {
      tracer.value()->record(e);
    }
    auto written = tracer.value()->flush_and_close();
    if (!written.ok()) {
      all_ok = false;
      return;
    }
    written_total += written.value();  // tasks run cooperatively: no race
  });

  // Postmortem analysis: serial reload of each rank (Scalasca's analyzer
  // reads task-local views of the multifile).
  for (int r = 0; r < ntasks && all_ok; ++r) {
    auto loaded = trace_load_rank(fs, spec, r);
    if (!loaded.ok() || loaded.value().size() != events) {
      std::fprintf(stderr, "rank %d trace reload failed: %s\n", r,
                   loaded.status().to_string().c_str());
      all_ok = false;
    }
  }

  const std::uint64_t raw_bytes =
      static_cast<std::uint64_t>(ntasks) * events * kTraceEventBytes;
  std::printf("traced %d tasks x %llu events (%s raw) via %s%s\n", ntasks,
              static_cast<unsigned long long>(events),
              format_bytes(raw_bytes).c_str(), backend_name.c_str(),
              compress ? " + slz compression" : "");
  std::printf("  activation: %s   bytes written: %s (ratio %.2f)   "
              "reload: %s\n",
              format_seconds(activation).c_str(),
              format_bytes(written_total).c_str(),
              written_total > 0
                  ? static_cast<double>(raw_bytes) /
                        static_cast<double>(written_total)
                  : 0.0,
              all_ok ? "OK" : "FAILED");
  return all_ok ? 0 : 1;
}
