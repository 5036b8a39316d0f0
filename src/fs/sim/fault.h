// Fault-scenario layer for the SimFs machine models: deterministic,
// scriptable hardware-failure injection for the robustness batteries and
// benchmarks (the "as many scenarios as you can imagine" axis of the
// roadmap).
//
// A `FaultPlan` is a seeded list of rules. Arming a plan on a SimFs applies
// the destructive rules immediately (files lost, silently truncated, or
// silently bit-flipped — the crash and bit-rot artifacts a restart finds
// on disk) and keeps the operational
// rules live until disarmed (open/read/write errors and degraded bandwidth,
// the failures a restart *hits* while running). Every probabilistic draw
// comes from the plan's seed, so a scenario replays identically across
// runs, presets and hosts — tests and benches can script "lose failure
// domain 2, then every read of its replica fails with p=0.5" and assert
// exact outcomes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sion::fs {

// One injection rule. Rules select files by a '*'-wildcard path glob
// (matched against normalized paths) or, for the data-path kinds, by OST
// index — a per-OST rule hits every file whose stripe set includes that
// OST, modelling the loss or brown-out of one storage target.
struct FaultSpec {
  enum class Kind : std::uint8_t {
    kLost,        // matching files vanish from the namespace at arm time
    kTruncate,    // matching files silently truncated to truncate_to at arm
    kBitFlip,     // seeded in-place byte corruption at arm time (silent)
    kOpenError,   // create/open of matching paths fails (per-op probability)
    kReadError,   // reads of matching files fail (per-op probability)
    kWriteError,  // writes of matching files fail (per-op probability)
    kDegrade,     // matching files' transfers run at bandwidth_factor speed
  };
  Kind kind = Kind::kOpenError;
  std::string path_glob = "*";  // '*' matches any run of characters
  int ost = -1;  // >= 0: match by OST instead of path (data-path kinds only)
  double probability = 1.0;        // per-operation for the error kinds;
                                   // per-file at arm for the destructive ones
  std::uint64_t truncate_to = 0;   // kTruncate: new file size
  double bandwidth_factor = 1.0;   // kDegrade: fraction of healthy speed
  std::uint64_t flip_bytes = 1;    // kBitFlip: corrupted bytes per file
};

// A deterministic failure scenario: rules plus the seed behind every
// probabilistic decision. The fluent builders keep test scenarios readable.
struct FaultPlan {
  std::uint64_t seed = 0;
  std::vector<FaultSpec> faults;

  FaultPlan& lose(std::string glob, double p = 1.0) {
    faults.push_back({FaultSpec::Kind::kLost, std::move(glob), -1, p, 0, 1.0});
    return *this;
  }
  FaultPlan& truncate(std::string glob, std::uint64_t to, double p = 1.0) {
    faults.push_back(
        {FaultSpec::Kind::kTruncate, std::move(glob), -1, p, to, 1.0});
    return *this;
  }
  // Silent corruption: `nbytes` seeded in-place byte flips per matching
  // file at arm time — the bit-rot artifact only checksums (or parity
  // probes) can catch, as opposed to the loss/truncation kinds above.
  FaultPlan& bit_flip(std::string glob, std::uint64_t nbytes = 1,
                      double p = 1.0) {
    FaultSpec spec{FaultSpec::Kind::kBitFlip, std::move(glob), -1, p, 0, 1.0};
    spec.flip_bytes = nbytes;
    faults.push_back(std::move(spec));
    return *this;
  }
  FaultPlan& open_error(std::string glob, double p = 1.0) {
    faults.push_back(
        {FaultSpec::Kind::kOpenError, std::move(glob), -1, p, 0, 1.0});
    return *this;
  }
  FaultPlan& read_error(std::string glob, double p = 1.0) {
    faults.push_back(
        {FaultSpec::Kind::kReadError, std::move(glob), -1, p, 0, 1.0});
    return *this;
  }
  FaultPlan& write_error(std::string glob, double p = 1.0) {
    faults.push_back(
        {FaultSpec::Kind::kWriteError, std::move(glob), -1, p, 0, 1.0});
    return *this;
  }
  FaultPlan& degrade(std::string glob, double factor) {
    faults.push_back(
        {FaultSpec::Kind::kDegrade, std::move(glob), -1, 1.0, 0, factor});
    return *this;
  }
  FaultPlan& degrade_ost(int ost_index, double factor) {
    faults.push_back(
        {FaultSpec::Kind::kDegrade, "*", ost_index, 1.0, 0, factor});
    return *this;
  }
};

// What an armed plan has injected so far (assertable from tests).
struct FaultCounters {
  std::uint64_t files_lost = 0;
  std::uint64_t files_truncated = 0;
  std::uint64_t files_corrupted = 0;  // kBitFlip: files hit
  std::uint64_t bytes_flipped = 0;    // kBitFlip: bytes corrupted
  std::uint64_t open_errors = 0;
  std::uint64_t read_errors = 0;
  std::uint64_t write_errors = 0;
  std::uint64_t degraded_ops = 0;
};

// '*'-wildcard match ('*' = any run of characters, including empty; no
// other metacharacters). Classic two-pointer scan with backtracking.
bool glob_match(std::string_view glob, std::string_view path);

}  // namespace sion::fs
