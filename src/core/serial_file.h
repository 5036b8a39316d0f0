// Serial access to SION multifiles — the analog of the paper's sion_open /
// sion_open_rank / sion_seek / sion_get_locations family (sections 3.2.3,
// 3.2.4). This is the foundation of the command-line utilities: a serial
// program can create a multifile for any number of logical tasks, read one
// logical file out of it (task-local view), or walk all of them (global
// view).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/chunk_stream.h"
#include "core/filemap.h"
#include "core/layout.h"
#include "core/metadata.h"
#include "fs/filesystem.h"

namespace sion::core {

struct SerialWriteSpec {
  std::string filename;
  std::vector<std::uint64_t> chunksizes;  // one per logical task (rank)
  int nfiles = 1;
  std::uint64_t fsblksize = 0;  // 0 = detect from the file system
  Mapping mapping = Mapping::kContiguous;
  std::vector<int> custom_file_of_rank;
  bool chunk_frames = false;
};

// The cursor is the stream itself (ChunkStream: ensure_free_space,
// write_raw, write, eof, read_raw, read, ...), pointed at one logical file
// at a time by seek().
class SionSerialFile : public ChunkStream {
 public:
  // Create a multifile set from a serial program (paper Listing 3): the
  // whole array of chunk sizes is supplied because there are no tasks to
  // gather it from.
  static Result<std::unique_ptr<SionSerialFile>> open_write(
      fs::FileSystem& fs, const SerialWriteSpec& spec);

  // Global view (paper Listing 5): all logical files are accessible;
  // locations() exposes the full metadata for choosing seek targets.
  static Result<std::unique_ptr<SionSerialFile>> open_read(
      fs::FileSystem& fs, const std::string& name);

  // Task-local view (paper Listing 4): like open_read but the cursor is
  // pinned to one rank.
  static Result<std::unique_ptr<SionSerialFile>> open_rank(
      fs::FileSystem& fs, const std::string& name, int rank);

  ~SionSerialFile();
  SionSerialFile(const SionSerialFile&) = delete;
  SionSerialFile& operator=(const SionSerialFile&) = delete;

  // ---- metadata (sion_get_locations) --------------------------------------
  struct Locations {
    int nranks = 0;
    int nfiles = 1;
    std::uint64_t fsblksize = 0;
    bool chunk_frames = false;
    std::vector<std::uint64_t> chunksizes;                // requested, per rank
    std::vector<std::vector<std::uint64_t>> bytes_written;  // per rank per chunk
    std::vector<int> file_of_rank;
    std::vector<std::string> physical_paths;  // per physical file
  };
  [[nodiscard]] const Locations& locations() const { return locations_; }

  // ---- navigation -----------------------------------------------------------
  // Position the cursor at byte `pos` of chunk `block` of logical file
  // `rank` (sion_seek). In a task-local view, `rank` must match the pinned
  // rank.
  Status seek(int rank, std::uint64_t block, std::uint64_t pos);

  [[nodiscard]] int current_rank() const { return rank_; }

  // ---- positioned logical-stream access ------------------------------------
  // Total payload bytes of logical file `rank` (sum over its chunks).
  [[nodiscard]] std::uint64_t logical_bytes(int rank) const;

  // Read bytes [offset, offset + out.size()) of logical file `rank`,
  // crossing chunk blocks as needed. Positioned: the cursor is untouched, so
  // interleaved range reads of different ranks never interfere (the
  // foundation of ext::Remap's N->M stream redistribution). Returns the
  // bytes delivered, which is short only when the stream ends.
  Result<std::uint64_t> read_at(int rank, std::uint64_t offset,
                                std::span<std::byte> out);

  // The entire logical stream of `rank` as one buffer, via positioned reads
  // (cursor untouched). This is the raw-byte foundation of the transparent
  // decompression layer (ext/compress.h) and of trace post-processing.
  Result<std::vector<std::byte>> read_logical(int rank);

  // Write mode: writes all metablocks 2 and patches trailers.
  Status close();

 private:
  struct PhysicalFile {
    std::string path;
    std::unique_ptr<fs::File> file;
    FileHeader header;
    FileLayout layout;
  };

  SionSerialFile() = default;

  static Result<std::unique_ptr<SionSerialFile>> open_existing(
      fs::FileSystem& fs, const std::string& name, int pinned_rank);

  // Checks that `rank` exists and that this view may access it.
  [[nodiscard]] Status check_rank(int rank) const;
  // Rank `rank`'s stream, its cursor at the stream's start.
  [[nodiscard]] ChunkStream stream_of(int rank);

  bool writable_ = false;
  int pinned_rank_ = -1;  // >= 0: task-local view
  int rank_ = 0;          // the rank the cursor streams
  Locations locations_;
  std::vector<PhysicalFile> physical_;
  std::vector<int> local_index_;  // per rank, index within its file
};

}  // namespace sion::core
