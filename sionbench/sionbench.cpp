// sionbench: host wall time and peak memory of the sion simulator, measured
// from outside through the library's public API (par::Engine/Comm,
// fs::SimFs, core::SionParFile, ext::*, workloads::CheckpointSession).
//
// One process runs one workload; sionbench.py starts one per workload and
// turns the bench::Report this binary writes into the benchmark's metrics:
//
//   sionbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//             --json=<report.json> [--size=full|smoke] [--shards=<n>]
//             [--trace-out=<spans.json>]
//
// A run repeats the workload's rep until --seconds have passed and the
// size's minimum number of reps ran. A rep is set-up (fresh SimFs and
// Engine, payload generation, one empty Engine::run that faults in the
// fiber stacks), a write phase and a read phase. Every untraced rep must
// reproduce the same virtual makespans and SimFs counters bit for bit: they
// are the correctness oracle, next to the byte verification of restores.
//
// With --trace=1 the run alternates untraced and traced reps and then runs
// the per-layer probes. A traced rep puts a world.barrier() between
// successive public calls and rank 0 stamps the host clock after each, so
// every segment span covers one call by all tasks plus the barrier that
// closes it. The barriers change the traced reps' virtual times, which is
// why the oracle reads only untraced reps.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/options.h"
#include "common/strings.h"
#include "core/api.h"
#include "ext/buddy.h"
#include "ext/compress.h"
#include "ext/ecc.h"
#include "ext/gf256.h"
#include "ext/remap.h"
#include "fs/sim/fault.h"
#include "workloads/checkpoint_session.h"
#include "workloads/mp2c.h"
#include "workloads/tracer.h"

namespace {

using namespace sion;         // NOLINT(google-build-using-namespace)
using namespace sion::bench;  // NOLINT(google-build-using-namespace)

// Host seconds since the first call: one clock for every span of the run.
double host_now() {
  static const WallTimer origin;
  return origin.seconds();
}

double median(std::vector<double> v) {
  SION_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  SION_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(v.size()))));
  return v[std::min(rank, v.size()) - 1];
}

std::string hexfloat(double v) { return strformat("%a", v); }

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, written out once the run ends.
// ---------------------------------------------------------------------------

class SpanLog {
 public:
  int open(std::string name, int parent, int rep, double start) {
    spans_.push_back(Span{std::move(name), parent, rep, start, start});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id, double end) {
    spans_[static_cast<std::size_t>(id)].end = end;
  }

  [[nodiscard]] bool write(const std::string& path) const {
    std::string out = "{\"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out += i == 0 ? "\n" : ",\n";
      out += strformat(
          "  {\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
          "\"parent\": %d, \"rep\": %d}",
          i, s.name.c_str(), s.start, s.end, s.parent, s.rep);
    }
    out += "\n]}\n";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
    return std::fclose(f) == 0 && ok;
  }

 private:
  struct Span {
    std::string name;
    int parent;
    int rep;
    double start;
    double end;
  };
  std::vector<Span> spans_;
};

// Handed to every task body of a phase. Untraced, mark() does nothing, so
// the schedule is exactly that of the bare public calls.
class Segments {
 public:
  Segments(SpanLog* log, int rep) : log_(log), rep_(rep) {}

  void begin(const char* phase, int parent, double t) {
    phase_ = log_->open(phase, parent, rep_, t);
    current_ = log_->open("par.dispatch_s", phase_, rep_, t);
  }

  // Ends the span of the previous call and starts the one named `next`.
  // Collective over `world`.
  void mark(par::Comm& world, const char* next) {
    if (log_ == nullptr) return;
    world.barrier();
    if (world.rank() != 0) return;
    const double t = host_now();
    log_->close(current_, t);
    current_ = log_->open(next, phase_, rep_, t);
  }

  void finish(double t) {
    log_->close(current_, t);
    log_->close(phase_, t);
  }

 private:
  SpanLog* log_;
  int rep_;
  int phase_ = -1;
  int current_ = -1;
};

// ---------------------------------------------------------------------------
// Operation accounting. One op is one public-API call by one task; it fails
// on a non-OK status or when the bytes it restored do not match. Tasks of a
// 2-shard engine run on two host threads, hence the atomics.
// ---------------------------------------------------------------------------

class OpCount {
 public:
  bool check(const Status& st) {
    attempted_.fetch_add(1, std::memory_order_relaxed);
    if (st.ok()) return true;
    failed_.fetch_add(1, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(mu_);
    if (first_error_.empty()) first_error_ = st.to_string();
    return false;
  }
  template <typename T>
  bool check(const Result<T>& r) {
    return check(r.status());
  }
  // A restore op: its status, then its bytes against the generated payload.
  bool check_restore(const Status& st, std::span<const std::byte> got,
                     std::span<const std::byte> want) {
    if (!st.ok()) return check(st);
    return check(got.size() == want.size() &&
                         std::memcmp(got.data(), want.data(), got.size()) == 0
                     ? Status::Ok()
                     : Corrupt("restored bytes differ from the payload"));
  }

  void reset() {
    attempted_ = 0;
    failed_ = 0;
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] std::string first_error() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return first_error_;
  }

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  mutable std::mutex mu_;
  std::string first_error_;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

constexpr std::uint64_t kSampleBytes = 256 * kKiB;

struct Config {
  std::string name;
  int ntasks = 0;    // tasks of the write phase
  int nreaders = 0;  // tasks of the read/restore phase
  int shards = 1;
  std::size_t stack_bytes = 48 * kKiB;
  int min_reps = 3;
  std::uint64_t call_bytes = 0;  // fill workloads: bytes per write call
  int calls = 1;                 // fill workloads: write/read calls per task
  std::uint64_t nevents = 0;     // checkpoint_codec: trace events per task
  std::uint64_t particles = 0;   // buddy_remap: particles per task
};

// Full sizes keep one rep between 0.3 s and 3 s on a 4-core x86-64 host,
// so a 20 s run holds 8 to 50 reps for its medians, and the largest process
// under 1 GiB.
bool make_config(const std::string& name, bool smoke, Config* c) {
  c->name = name;
  if (name == "create_storm") {
    c->ntasks = smoke ? 2048 : 65536;
    c->stack_bytes = 16 * kKiB;
    c->call_bytes = 4 * kKiB;
  } else if (name == "bandwidth_sharded") {
    c->ntasks = smoke ? 512 : 8192;
    c->shards = 2;
    c->call_bytes = 2 * kMiB;
    c->calls = 16;
  } else if (name == "checkpoint_codec") {
    c->ntasks = smoke ? 32 : 256;
    c->nreaders = c->ntasks / 2;
    c->nevents = smoke ? 2000 : 25000;
  } else if (name == "buddy_remap") {
    c->ntasks = smoke ? 64 : 1024;
    c->nreaders = c->ntasks / 4;
    c->particles = smoke ? 252 : 2520;
  } else {
    return false;
  }
  if (c->nreaders == 0) c->nreaders = c->ntasks;
  if (smoke) c->min_reps = 2;
  return true;
}

class Workload {
 public:
  Workload(Config config, std::uint64_t seed)
      : c_(std::move(config)), seed_(seed), machine_(fs::JugeneConfig()) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual void setup() {
    fs_ = std::make_unique<fs::SimFs>(machine_);
    engine_ = std::make_unique<par::Engine>(
        engine_config_for(machine_, c_.stack_bytes, c_.shards));
    engine_->run(c_.ntasks, [](par::Comm&) {});
  }
  virtual void write(par::Comm& world, Segments& seg) = 0;
  virtual void between() {}  // untimed: what happens between the two jobs
  virtual void read(par::Comm& world, Segments& seg) = 0;
  virtual void teardown() {
    engine_.reset();
    fs_.reset();
  }

  // User payload bytes the write phase stores.
  [[nodiscard]] virtual std::uint64_t user_bytes() const = 0;
  // Bytes one task hands to one write call.
  [[nodiscard]] virtual std::uint64_t call_bytes() const = 0;
  // kSampleBytes of this workload's payload, for the kernel probes.
  [[nodiscard]] virtual std::vector<std::byte> sample() const = 0;

  [[nodiscard]] const Config& config() const { return c_; }
  [[nodiscard]] const fs::SimConfig& machine() const { return machine_; }
  [[nodiscard]] par::Engine& engine() { return *engine_; }
  [[nodiscard]] fs::SimFs& simfs() { return *fs_; }
  [[nodiscard]] OpCount& ops() { return ops_; }

 protected:
  // Contiguous slice of the concatenated global stream that restart task
  // `rank` of `m` receives.
  static std::pair<std::uint64_t, std::uint64_t> share(std::uint64_t total,
                                                       int m, int rank) {
    const auto lo = total * static_cast<std::uint64_t>(rank) /
                    static_cast<std::uint64_t>(m);
    const auto hi = total * static_cast<std::uint64_t>(rank + 1) /
                    static_cast<std::uint64_t>(m);
    return {lo, hi - lo};
  }

  Config c_;
  std::uint64_t seed_;
  fs::SimConfig machine_;
  OpCount ops_;
  std::unique_ptr<fs::SimFs> fs_;
  std::unique_ptr<par::Engine> engine_;
};

// Workloads whose payload is a fill view (SimFs stores it as a constant
// extent, so no bytes are copied), next to one task-local file per task.
class FillPayload : public Workload {
 public:
  FillPayload(Config c, std::uint64_t seed) : Workload(std::move(c), seed) {
    names_.reserve(static_cast<std::size_t>(c_.ntasks));
    for (int r = 0; r < c_.ntasks; ++r) {
      names_.push_back(strformat("task.%06d", r));
    }
  }

  [[nodiscard]] std::uint64_t call_bytes() const override {
    return c_.call_bytes;
  }
  [[nodiscard]] std::vector<std::byte> sample() const override {
    return std::vector<std::byte>(kSampleBytes, kFill);
  }

 protected:
  static constexpr std::byte kFill{'f'};

  [[nodiscard]] const std::string& task_file(const par::Comm& world) const {
    return names_[static_cast<std::size_t>(world.rank())];
  }

 private:
  std::vector<std::string> names_;
};

// The fig3 path at scale: a task-local create storm, then one SION multifile
// opened, written and closed, and the same again for reading by a later job.
class CreateStorm final : public FillPayload {
 public:
  using FillPayload::FillPayload;

  void write(par::Comm& world, Segments& seg) override {
    seg.mark(world, "fs.create_s");
    ops_.check(fs_->create(task_file(world)));
    seg.mark(world, "core.open_write_s");
    core::ParOpenSpec spec;
    spec.filename = kName;
    spec.chunksize = 64 * kKiB;
    spec.nfiles = std::min(32, c_.ntasks);
    auto sion = core::SionParFile::open_write(*fs_, world, spec);
    if (!ops_.check(sion)) return;
    seg.mark(world, "core.write_s");
    ops_.check(sion.value()->write(fs::DataView::fill(kFill, c_.call_bytes)));
    seg.mark(world, "core.close_s");
    ops_.check(sion.value()->close());
  }

  void between() override { fs_->drop_caches(); }

  void read(par::Comm& world, Segments& seg) override {
    seg.mark(world, "fs.open_rw_s");
    ops_.check(fs_->open_rw(task_file(world)));
    seg.mark(world, "core.open_read_s");
    auto sion = core::SionParFile::open_read(*fs_, world, kName);
    if (!ops_.check(sion)) return;
    seg.mark(world, "core.read_s");
    ops_.check(sion.value()->bytes_remaining_total() == c_.call_bytes
                   ? sion.value()->read_skip(c_.call_bytes)
                   : Corrupt("multifile lost the task's chunk"));
    seg.mark(world, "core.close_s");
    ops_.check(sion.value()->close());
  }

  [[nodiscard]] std::uint64_t user_bytes() const override {
    return c_.call_bytes * static_cast<std::uint64_t>(c_.ntasks);
  }

 private:
  static constexpr const char* kName = "storm.sion";
};

// The fig5 path: bulk fill payload through a 32-file multifile and through
// task-local files, on two host threads, so every SimFs call crosses
// FsOrderGate.
class BandwidthSharded final : public FillPayload {
 public:
  using FillPayload::FillPayload;

  void write(par::Comm& world, Segments& seg) override {
    const fs::DataView data = fs::DataView::fill(kFill, c_.call_bytes);
    seg.mark(world, "core.open_write_s");
    core::ParOpenSpec spec;
    spec.filename = kName;
    spec.chunksize = c_.call_bytes * static_cast<std::uint64_t>(c_.calls);
    spec.nfiles = std::min(32, c_.ntasks);
    auto sion = core::SionParFile::open_write(*fs_, world, spec);
    if (ops_.check(sion)) {
      seg.mark(world, "core.write_s");
      for (int i = 0; i < c_.calls; ++i) {
        ops_.check(sion.value()->write(data));
      }
      seg.mark(world, "core.close_s");
      ops_.check(sion.value()->close());
    }
    seg.mark(world, "fs.create_s");
    auto file = fs_->create(task_file(world));
    if (!ops_.check(file)) return;
    seg.mark(world, "fs.pwrite_s");
    for (int i = 0; i < c_.calls; ++i) {
      ops_.check(file.value()->pwrite(
          data, c_.call_bytes * static_cast<std::uint64_t>(i)));
    }
  }

  void read(par::Comm& world, Segments& seg) override {
    seg.mark(world, "core.open_read_s");
    auto sion = core::SionParFile::open_read(*fs_, world, kName);
    if (ops_.check(sion)) {
      seg.mark(world, "core.read_s");
      for (int i = 0; i < c_.calls; ++i) {
        ops_.check(sion.value()->read_skip(c_.call_bytes));
      }
      seg.mark(world, "core.close_s");
      ops_.check(sion.value()->close());
    }
    seg.mark(world, "fs.open_read_s");
    auto file = fs_->open_read(task_file(world));
    if (!ops_.check(file)) return;
    seg.mark(world, "fs.pread_s");
    for (int i = 0; i < c_.calls; ++i) {
      ops_.check(file.value()->pread_discard(
          c_.call_bytes, c_.call_bytes * static_cast<std::uint64_t>(i)));
    }
  }

  // The multifile and the task-local files each hold every task's calls.
  [[nodiscard]] std::uint64_t user_bytes() const override {
    return 2 * c_.call_bytes * static_cast<std::uint64_t>(c_.calls) *
           static_cast<std::uint64_t>(c_.ntasks);
  }

 private:
  static constexpr const char* kName = "bw.sion";
};

// Workloads whose tasks write generated real bytes: the payloads live in one
// global buffer (rank order = the concatenated global stream an N->M restore
// slices), and restores land in a second buffer of the same size.
class RealPayload : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    Workload::setup();
    payload_.clear();
    offsets_.assign(1, 0);
    for (int r = 0; r < c_.ntasks; ++r) {
      const std::vector<std::byte> mine = generate(r);
      payload_.insert(payload_.end(), mine.begin(), mine.end());
      offsets_.push_back(payload_.size());
    }
    restored_.assign(payload_.size(), std::byte{0});
  }

  void teardown() override {
    Workload::teardown();
    payload_ = {};
    restored_ = {};
  }

  // Every rank's payload has the same size (whole events or particles).
  [[nodiscard]] std::uint64_t user_bytes() const override {
    return call_bytes() * static_cast<std::uint64_t>(c_.ntasks);
  }
  [[nodiscard]] std::uint64_t call_bytes() const override {
    return generate(0).size();
  }
  [[nodiscard]] std::vector<std::byte> sample() const override {
    std::vector<std::byte> out;
    for (int r = 0; out.size() < kSampleBytes; ++r) {
      const std::vector<std::byte> mine = generate(r % c_.ntasks);
      out.insert(out.end(), mine.begin(), mine.end());
    }
    out.resize(kSampleBytes);
    return out;
  }

 protected:
  [[nodiscard]] virtual std::vector<std::byte> generate(int rank) const = 0;

  [[nodiscard]] fs::DataView payload_of(int rank) const {
    const auto r = static_cast<std::size_t>(rank);
    return fs::DataView(std::span<const std::byte>(payload_).subspan(
        offsets_[r], offsets_[r + 1] - offsets_[r]));
  }

  // Restore `rank`'s slice (of nreaders) through `restore`, then verify it.
  template <typename Fn>
  void restore_slice(int rank, Fn&& restore) {
    const auto [off, len] = share(payload_.size(), c_.nreaders, rank);
    const std::span<std::byte> out =
        std::span<std::byte>(restored_).subspan(off, len);
    const Status st = restore(out, len);
    ops_.check_restore(st, out,
                       std::span<const std::byte>(payload_).subspan(off, len));
  }

  std::vector<std::byte> payload_;
  std::vector<std::size_t> offsets_;
  std::vector<std::byte> restored_;
};

// Scalasca traces through CheckpointSession with slz compression, (8, 2)
// Reed-Solomon parity and kPacked collective aggregation, restored N->M
// with one data file lost and decoded inline.
class CheckpointCodec final : public RealPayload {
 public:
  CheckpointCodec(Config c, std::uint64_t seed)
      : RealPayload(std::move(c), seed),
        lost_(static_cast<int>(seed % kDataDomains)) {
    spec_.path = kName;
    spec_.nfiles = kDataDomains;
    spec_.compression = ext::CompressionSpec{};
    ext::EccConfig ecc;
    ecc.data_domains = kDataDomains;
    ecc.parity_domains = 2;
    ecc.restore_mode = ext::EccConfig::Restore::kDegraded;
    spec_.protection = ecc;
    ext::CollectiveConfig aggregation;
    aggregation.group_size = 16;
    aggregation.alignment = ext::CollectiveConfig::Alignment::kPacked;
    spec_.collective = aggregation;
    restart_ = spec_;
    restart_.restart_ntasks = c_.nreaders;
  }

  void write(par::Comm& world, Segments& seg) override {
    seg.mark(world, "session.open_s");
    auto session = workloads::CheckpointSession::open(*fs_, world, spec_);
    if (!ops_.check(session)) return;
    seg.mark(world, "session.write_async_s");
    ops_.check(session.value()->write_async(payload_of(world.rank())));
    seg.mark(world, "session.close_s");
    ops_.check(session.value()->close());
  }

  void between() override {
    fs_->drop_caches();
    fs::FaultPlan plan;
    plan.lose(core::physical_file_name(kName, lost_, kDataDomains));
    fs_->arm_faults(plan);
  }

  void read(par::Comm& world, Segments& seg) override {
    seg.mark(world, "restore.ecc_degraded_s");
    restore_slice(world.rank(),
                  [&](std::span<std::byte> out, std::uint64_t len) {
                    return workloads::CheckpointSession::restore(
                        *fs_, world, restart_, 0, len, out);
                  });
  }

 protected:
  [[nodiscard]] std::vector<std::byte> generate(int rank) const override {
    return workloads::trace_serialize(
        workloads::trace_generate(rank, c_.nevents, seed_));
  }

 private:
  static constexpr const char* kName = "codec.ckpt";
  static constexpr int kDataDomains = 8;
  int lost_;
  workloads::CheckpointSpec spec_;
  workloads::CheckpointSpec restart_;
};

// MP2C particles (incompressible real bytes) through plain Buddy r=2 over 8
// failure domains; one domain is lost, healed from its replica, and the
// checkpoint restored N->M through ext::Remap.
class BuddyRemap final : public RealPayload {
 public:
  BuddyRemap(Config c, std::uint64_t seed)
      : RealPayload(std::move(c), seed),
        lost_(static_cast<int>(seed % kDomains)) {
    buddy_.replicas = 2;
    buddy_.num_domains = kDomains;
  }

  void write(par::Comm& world, Segments& seg) override {
    seg.mark(world, "buddy.write_s");
    const fs::DataView mine = payload_of(world.rank());
    core::ParOpenSpec spec;
    spec.filename = kName;
    spec.chunksize = mine.size();
    spec.nfiles = kDomains;
    ops_.check(ext::Buddy::write(*fs_, world, spec, buddy_, mine));
  }

  void between() override {
    fs_->drop_caches();
    fs::FaultPlan plan;
    plan.lose(core::physical_file_name(kName, lost_, kDomains));
    plan.lose(core::physical_file_name(ext::Buddy::replica_name(kName, 1),
                                       lost_, kDomains));
    fs_->arm_faults(plan);
  }

  void read(par::Comm& world, Segments& seg) override {
    seg.mark(world, "restore.buddy_heal_s");
    if (!ops_.check(ext::Buddy::heal(*fs_, world, kName, buddy_))) return;
    seg.mark(world, "remap.open_s");
    auto remap = ext::Remap::open(*fs_, world, kName);
    if (!ops_.check(remap)) return;
    seg.mark(world, "remap.restore_s");
    restore_slice(world.rank(),
                  [&](std::span<std::byte> out, std::uint64_t len) {
                    return remap.value()->restore(out, len).status();
                  });
    seg.mark(world, "remap.close_s");
    ops_.check(remap.value()->close());
  }

 protected:
  [[nodiscard]] std::vector<std::byte> generate(int rank) const override {
    const std::uint64_t total =
        c_.particles * static_cast<std::uint64_t>(c_.ntasks);
    return workloads::mp2c_serialize(
        workloads::mp2c_generate(total, c_.ntasks, rank, seed_));
  }

 private:
  static constexpr const char* kName = "buddy.ckpt";
  static constexpr int kDomains = 8;
  int lost_;
  ext::BuddyConfig buddy_;
};

std::unique_ptr<Workload> make_workload(const Config& c, std::uint64_t seed) {
  if (c.name == "create_storm") return std::make_unique<CreateStorm>(c, seed);
  if (c.name == "bandwidth_sharded") {
    return std::make_unique<BandwidthSharded>(c, seed);
  }
  if (c.name == "checkpoint_codec") {
    return std::make_unique<CheckpointCodec>(c, seed);
  }
  return std::make_unique<BuddyRemap>(c, seed);
}

// ---------------------------------------------------------------------------
// One rep
// ---------------------------------------------------------------------------

struct PhaseResult {
  double wall_s = 0.0;
  double vtime = 0.0;
};

struct RepResult {
  bool traced = false;
  double setup_s = 0.0;
  PhaseResult write;
  PhaseResult read;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t stored_bytes = 0;  // SimFs allocation after the write phase
  fs::SimFs::Counters counters;
};

template <typename Body>
PhaseResult run_phase(par::Engine& engine, int ntasks, SpanLog* log,
                      int parent, int rep, const char* name, Body&& body) {
  Segments seg(log, rep);
  const double vt0 = engine.epoch();
  const double t0 = host_now();
  if (log != nullptr) seg.begin(name, parent, t0);
  engine.run(ntasks, [&](par::Comm& world) {
    body(world, seg);
    seg.mark(world, "par.reap_s");
  });
  const double t1 = host_now();
  if (log != nullptr) seg.finish(t1);
  return PhaseResult{t1 - t0, engine.epoch() - vt0};
}

RepResult run_rep(Workload& w, SpanLog* log, int rep) {
  const Config& c = w.config();
  RepResult r;
  r.traced = log != nullptr;
  w.ops().reset();
  const WallTimer setup;
  w.setup();
  r.setup_s = setup.seconds();

  const int rep_span =
      log != nullptr ? log->open("rep", -1, rep, host_now()) : -1;
  r.write = run_phase(w.engine(), c.ntasks, log, rep_span, rep, "write",
                      [&](par::Comm& world, Segments& seg) {
                        w.write(world, seg);
                      });
  r.stored_bytes = w.simfs().allocated_bytes();
  w.between();
  r.read = run_phase(w.engine(), c.nreaders, log, rep_span, rep, "read",
                     [&](par::Comm& world, Segments& seg) {
                       w.read(world, seg);
                     });
  if (log != nullptr) log->close(rep_span, host_now());

  r.counters = w.simfs().counters();
  r.attempted = w.ops().attempted();
  r.failed = w.ops().failed();
  if (r.failed != 0) {
    std::fprintf(stderr, "sionbench: %s rep %d: %llu of %llu ops failed; "
                 "first: %s\n", c.name.c_str(), rep,
                 static_cast<unsigned long long>(r.failed),
                 static_cast<unsigned long long>(r.attempted),
                 w.ops().first_error().c_str());
  }
  w.teardown();
  return r;
}

// ---------------------------------------------------------------------------
// Per-layer probes: public functions timed at the workload's own task
// count, shard count and payloads, after its reps.
// ---------------------------------------------------------------------------

struct Probe {
  std::string metric;
  double value;
  const char* unit;
};

constexpr int kProbeReps = 5;
constexpr int kCollectiveCalls = 8;
constexpr int kGateCalls = 16;
constexpr int kKernelCalls = 256;

double median_run_s(par::Engine& engine, int ntasks,
                    const par::Engine::TaskFn& body) {
  std::vector<double> t;
  for (int i = 0; i < kProbeReps; ++i) {
    const WallTimer wall;
    engine.run(ntasks, body);
    t.push_back(wall.seconds());
  }
  return median(t);
}

void probe_par(Workload& w, std::vector<Probe>* out) {
  const Config& c = w.config();
  const int n = c.ntasks;
  par::Engine one(engine_config_for(w.machine(), c.stack_bytes, 1));
  par::Engine two(engine_config_for(w.machine(), c.stack_bytes, 2));
  par::Engine& own = c.shards == 1 ? one : two;
  const double per_task = 1.0e6 / static_cast<double>(n);
  const double per_call = per_task / kCollectiveCalls;

  const double empty = median_run_s(own, n, [](par::Comm&) {});
  out->push_back({"par.run_us_per_task", empty * per_task, "us"});
  const double barrier = median_run_s(own, n, [](par::Comm& world) {
    for (int i = 0; i < kCollectiveCalls; ++i) world.barrier();
  });
  out->push_back(
      {"par.barrier_us_per_task", (barrier - empty) * per_call, "us"});
  const double gather = median_run_s(own, n, [](par::Comm& world) {
    const std::array<std::uint64_t, 1> mine{
        static_cast<std::uint64_t>(world.rank())};
    for (int i = 0; i < kCollectiveCalls; ++i) {
      const par::Comm::FlatGatherU64 all = world.gatherv_u64_flat(mine, 0);
      SION_CHECK(world.rank() != 0 || all.data.size() ==
                                          static_cast<std::size_t>(
                                              world.size()));
    }
  });
  out->push_back(
      {"par.gather_us_per_task", (gather - empty) * per_call, "us"});
  const double bcast = median_run_s(own, n, [](par::Comm& world) {
    std::array<std::uint64_t, 4> values{1, 2, 3, 4};
    for (int i = 0; i < kCollectiveCalls; ++i) {
      world.bcast_u64_seq(values, 0);
    }
  });
  out->push_back({"par.bcast_us_per_task", (bcast - empty) * per_call, "us"});

  const double run1 = median_run_s(one, n, [](par::Comm&) {});
  const double run2 = median_run_s(two, n, [](par::Comm&) {});
  out->push_back({"par.shard2_run_ratio", run2 / run1, "ratio"});

  fs::SimFs gate_fs(w.machine());
  const par::Engine::TaskFn exists = [&gate_fs](par::Comm&) {
    for (int i = 0; i < kGateCalls; ++i) {
      static_cast<void>(gate_fs.exists("gate.probe"));
    }
  };
  const double gated = median_run_s(two, n, exists);
  const double ungated = median_run_s(one, n, exists);
  out->push_back({"fsgate.us_per_op",
                  (gated - ungated) * per_task / kGateCalls, "us"});
}

void probe_simfs(Workload& w, const std::vector<std::byte>& sample,
                 std::vector<Probe>* out) {
  const int k = std::min(w.config().ntasks, 16384);
  std::vector<std::string> names;
  names.reserve(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) names.push_back(strformat("probe.%06d", i));

  fs::SimFs sim(w.machine());
  const auto per_call_us = [k](const WallTimer& t) {
    return t.seconds() * 1.0e6 / k;
  };
  {
    const WallTimer t;
    for (const std::string& name : names) SION_CHECK(sim.create(name).ok());
    out->push_back({"simfs.create_us", per_call_us(t), "us"});
  }
  sim.drop_caches();
  {
    const WallTimer t;
    for (const std::string& name : names) SION_CHECK(sim.open_rw(name).ok());
    out->push_back({"simfs.open_us", per_call_us(t), "us"});
  }

  const std::uint64_t len = w.call_bytes();
  auto fill = sim.create("probe.fill");
  SION_CHECK(fill.ok());
  {
    const WallTimer t;
    for (int i = 0; i < k; ++i) {
      SION_CHECK(fill.value()
                     ->pwrite(fs::DataView::fill(std::byte{'p'}, len),
                              len * static_cast<std::uint64_t>(i))
                     .ok());
    }
    out->push_back({"simfs.pwrite_fill_us", per_call_us(t), "us"});
  }
  {
    const WallTimer t;
    for (int i = 0; i < k; ++i) {
      SION_CHECK(fill.value()
                     ->pread_discard(len, len * static_cast<std::uint64_t>(i))
                     .ok());
    }
    out->push_back({"simfs.pread_discard_us", per_call_us(t), "us"});
  }

  auto real = sim.create("probe.real");
  SION_CHECK(real.ok());
  const double bytes = static_cast<double>(sample.size()) * kKernelCalls;
  {
    const WallTimer t;
    for (int i = 0; i < kKernelCalls; ++i) {
      SION_CHECK(real.value()
                     ->pwrite(fs::DataView(sample),
                              sample.size() * static_cast<std::uint64_t>(i))
                     .ok());
    }
    out->push_back({"simfs.pwrite_mbps", bytes / t.seconds() / 1.0e6, "MB/s"});
  }
  std::vector<std::byte> back(sample.size());
  {
    const WallTimer t;
    for (int i = 0; i < kKernelCalls; ++i) {
      SION_CHECK(real.value()
                     ->pread(back, sample.size() * static_cast<std::uint64_t>(i))
                     .ok());
    }
    out->push_back({"simfs.pread_mbps", bytes / t.seconds() / 1.0e6, "MB/s"});
  }
  SION_CHECK(back == sample);
}

// Throughput at the median call and at the 95th-percentile (slow) call.
void push_rate(const char* name, double bytes, const std::vector<double>& t,
               std::vector<Probe>* out) {
  out->push_back({std::string(name) + ".p50",
                  bytes / percentile(t, 0.5) / 1.0e6, "MB/s"});
  out->push_back({std::string(name) + ".p95",
                  bytes / percentile(t, 0.95) / 1.0e6, "MB/s"});
}

void probe_kernels(Workload& w, const std::vector<std::byte>& sample,
                   std::vector<Probe>* out, std::uint64_t* sink) {
  const auto bytes = static_cast<double>(sample.size());
  std::vector<double> t;
  std::vector<std::byte> encoded;
  for (int i = 0; i < kKernelCalls; ++i) {
    const WallTimer wall;
    auto enc = ext::compress_stream(sample);
    t.push_back(wall.seconds());
    SION_CHECK(enc.ok());
    encoded = std::move(enc).value();
  }
  push_rate("slz.compress_mbps", bytes, t, out);
  out->push_back({"compress.ratio",
                  bytes / static_cast<double>(encoded.size()), "ratio"});

  t.clear();
  for (int i = 0; i < kKernelCalls; ++i) {
    const WallTimer wall;
    auto dec = ext::decompress_stream(encoded);
    t.push_back(wall.seconds());
    SION_CHECK(dec.ok() && dec.value() == sample);
  }
  push_rate("slz.decompress_mbps", bytes, t, out);

  t.clear();
  for (int i = 0; i < kKernelCalls; ++i) {
    const WallTimer wall;
    *sink ^= ext::crc32c(sample);
    t.push_back(wall.seconds());
  }
  push_rate("crc32c.mbps", bytes, t, out);

  t.clear();
  const ext::GfMulTable table(0x8E);
  std::vector<std::byte> parity(sample.size());
  for (int i = 0; i < kKernelCalls; ++i) {
    const WallTimer wall;
    table.mul_add(parity, sample);
    t.push_back(wall.seconds());
  }
  push_rate("gf256.mul_add_mbps", bytes, t, out);
  *sink ^= ext::crc32c(parity);

  // Parity over a small multifile of the sample: 32 tasks, 8 data domains.
  constexpr int kTasks = 32;
  fs::SimFs sim(w.machine());
  par::Engine engine(engine_config_for(w.machine()));
  engine.run(kTasks, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "probe.ecc";
    spec.chunksize = sample.size();
    spec.nfiles = 8;
    auto sion = core::SionParFile::open_write(sim, world, spec);
    SION_CHECK(sion.ok());
    SION_CHECK(sion.value()->write(fs::DataView(sample)).ok());
    SION_CHECK(sion.value()->close().ok());
  });
  ext::EccConfig ecc;
  ecc.data_domains = 8;
  ecc.parity_domains = 2;
  const double encode = median_run_s(engine, kTasks, [&](par::Comm& world) {
    SION_CHECK(ext::Ecc::encode_parity(sim, world, "probe.ecc", ecc).ok());
  });
  out->push_back({"ecc.encode_parity_s", encode, "s"});
}

std::vector<Probe> run_probes(Workload& w, std::uint64_t* sink) {
  std::vector<Probe> out;
  const std::vector<std::byte> sample = w.sample();
  probe_par(w, &out);
  probe_simfs(w, sample, &out);
  probe_kernels(w, sample, &out, sink);
  return out;
}

// ---------------------------------------------------------------------------

void add_counters(Table& table, int rep, const RepResult& r) {
  const fs::SimFs::Counters& k = r.counters;
  const std::pair<const char*, std::uint64_t> rows[] = {
      {"creates", k.creates},
      {"opens", k.opens},
      {"cached_opens", k.cached_opens},
      {"client_token_opens", k.client_token_opens},
      {"writes", k.writes},
      {"reads", k.reads},
      {"bytes_written", k.bytes_written},
      {"bytes_read", k.bytes_read},
      {"lock_transfers", k.lock_transfers},
      {"read_revokes", k.read_revokes},
      {"allocated_bytes", r.stored_bytes},
  };
  for (const auto& [name, value] : rows) {
    // Strings: exact at any magnitude (Cell numbers print 10 digits).
    table.row({rep, name, std::to_string(value)});
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const std::string name = opts.get_string("workload");
  const std::string size = opts.get_string("size", "full");
  Config config;
  if ((size != "full" && size != "smoke") ||
      !make_config(name, size == "smoke", &config) || !opts.has("json")) {
    std::fprintf(stderr,
                 "usage: sionbench --workload=create_storm|bandwidth_sharded|"
                 "checkpoint_codec|buddy_remap --json=<path> [--seed=N] "
                 "[--seconds=S] [--trace=0|1] [--size=full|smoke] "
                 "[--shards=N] [--trace-out=<path>]\n");
    return 2;
  }
  if (opts.has("shards")) {
    config.shards = std::max(1, checked_narrow<int>(opts.get_u64("shards")));
  }
  const std::uint64_t seed = opts.get_u64("seed", 1);
  const double seconds = opts.get_double("seconds", 20.0);
  const bool trace = opts.get_u64("trace", 0) != 0;
  constexpr int kMaxReps = 200;

  Report report("sionbench_" + name, "sionbench workload " + name);
  report.set_param("workload", name);
  report.set_param("size", size);
  report.set_param("seed", seed);
  report.set_param("trace", trace ? 1 : 0);
  report.set_param("ntasks", config.ntasks);
  report.set_param("nreaders", config.nreaders);
  report.set_param("shards", config.shards);
  Table& reps = report.table(
      "reps", {"rep", "traced", "setup_s", "write_s", "read_s", "attempted",
               "failed", "stored_per_user_byte"});
  Table& vtime = report.table("vtime", {"rep", "traced", "phase", "makespan"});
  Table& counts = report.table("counts", {"rep", "counter", "value"});

  const std::unique_ptr<Workload> workload = make_workload(config, seed);
  const double user_bytes = static_cast<double>(workload->user_bytes());
  SpanLog log;
  int untraced = 0;
  int traced = 0;
  const WallTimer clock;
  for (int rep = 0; rep < kMaxReps; ++rep) {
    const bool traced_rep = trace && rep % 2 == 1;
    const RepResult r = run_rep(*workload, traced_rep ? &log : nullptr, rep);
    (traced_rep ? traced : untraced) += 1;
    reps.row({rep, traced_rep ? 1 : 0, r.setup_s, r.write.wall_s,
              r.read.wall_s, r.attempted, r.failed,
              static_cast<double>(r.stored_bytes) / user_bytes});
    vtime.row({rep, traced_rep ? 1 : 0, "write", hexfloat(r.write.vtime)});
    vtime.row({rep, traced_rep ? 1 : 0, "read", hexfloat(r.read.vtime)});
    if (!traced_rep) add_counters(counts, rep, r);
    // Rep 0 is the warm-up the runner leaves out of its medians.
    const int timed = trace ? 2 : config.min_reps;
    if (untraced >= 1 + timed && (!trace || traced >= timed) &&
        clock.seconds() >= seconds) {
      break;
    }
  }

  if (trace) {
    std::uint64_t sink = 0;
    Table& probes = report.table("probes", {"metric", "value", "unit"});
    for (const Probe& p : run_probes(*workload, &sink)) {
      probes.row({p.metric, p.value, p.unit});
    }
    report.set_param("kernel_sink", sink);
    const std::string path =
        opts.get_string("trace-out", "sionbench_trace.json");
    if (!log.write(path)) {
      std::fprintf(stderr, "sionbench: cannot write %s\n", path.c_str());
      return 1;
    }
  }
  return report.write_if_requested(opts);
}
