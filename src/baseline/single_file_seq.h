// The single-file-sequential baseline: one designated I/O task (rank 0)
// accesses a single file on behalf of all others, gathering (or
// scattering) the data in staging-buffer-sized waves (paper section 1).
// This is the scheme MP2C originally used for checkpoint/restart files and
// the comparison baseline of Fig. 6; its bandwidth is limited to what a
// single task can push, and bounded staging memory forces many alternating
// gather/write rounds.
#pragma once

#include <cstdint>
#include <string>

#include "common/status.h"
#include "common/units.h"
#include "fs/filesystem.h"
#include "par/comm.h"

namespace sion::baseline {

struct SingleFileSeqOptions {
  // Staging buffer available on the I/O task; data is moved in pieces of at
  // most this size ("multiple gather or scatter operations may be required
  // while writing or reading the file incrementally").
  std::uint64_t staging_bytes = 8 * kMiB;
};

// Collective write: task data is concatenated in rank order into `path`.
// Every task passes its own payload.
Status write_single_file_seq(fs::FileSystem& fs, par::Comm& comm,
                             const std::string& path, fs::DataView my_data,
                             const SingleFileSeqOptions& options = {});

// Collective read of the same layout: every task passes the byte count it
// expects (must match what it wrote) and receives its slice into `out`;
// pass an empty span to run in timing-only mode (data is moved but
// discarded).
Status read_single_file_seq(fs::FileSystem& fs, par::Comm& comm,
                            const std::string& path, std::uint64_t my_bytes,
                            std::span<std::byte> out,
                            const SingleFileSeqOptions& options = {});

}  // namespace sion::baseline
