// On-disk metadata of a SION physical file: metablock 1 (written at open by
// the file-local master) and metablock 2 (written at close with the space
// actually used in every chunk). See DESIGN.md section 4 for the layout.
//
// Metablock 1 contains two fixed-offset trailer fields (`nblocks`,
// `meta2_offset`) that are zero after open and patched in place at close —
// if an application dies before parclose, they stay zero and the recovery
// extension (src/ext/recovery.h) can rebuild metablock 2 from per-chunk
// frames.
//
// This header is the one owner of the physical-file format. Besides the
// codecs it holds every whole-file step that the parallel, serial,
// collective, buddy, ECC, staging and recovery paths share: create, load,
// discover, probe, copy and close. None of these steps communicates; each
// collective opener keeps its own exchange around them.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/layout.h"
#include "fs/filesystem.h"
#include "par/comm.h"

namespace sion::core {

inline constexpr char kMagic[8] = {'S', 'I', 'O', 'N', 'S', 'I', 'M', '1'};
inline constexpr char kMagic2[8] = {'S', 'I', 'O', 'N', 'M', 'E', 'T', '2'};
inline constexpr char kFrameMagic[8] = {'S', 'I', 'O', 'N', 'F', 'R', 'M', '1'};
inline constexpr std::uint32_t kFormatVersion = 1;

// Flag bits (FileHeader::flags).
inline constexpr std::uint8_t kFlagChunkFrames = 0x01;

// Fixed byte offsets of the close-time trailer fields inside metablock 1.
inline constexpr std::uint64_t kTrailerNblocksOffset = 16;
inline constexpr std::uint64_t kTrailerMeta2Offset = 24;

// Size of the per-chunk recovery frame when kFlagChunkFrames is set; the
// frame occupies the first bytes of every chunk, shrinking its usable
// capacity (see src/ext/recovery.h).
inline constexpr std::uint64_t kChunkFrameSize = 64;

// Integrity checksum over a chunk frame's fields, stored in the frame and
// kept in step with every bytes-written patch: metablock-2 recovery must
// never rebuild metadata from a torn or bit-flipped frame (it would
// silently hand back wrong data), so a frame whose checksum disagrees is
// treated as damaged.
inline std::uint64_t chunk_frame_checksum(std::uint32_t grank,
                                          std::uint32_t lrank,
                                          std::uint64_t block,
                                          std::uint64_t bytes_written) {
  std::uint64_t h = 0x53494F4E46524D31ULL;  // "SIONFRM1"
  for (const std::uint64_t v :
       {static_cast<std::uint64_t>(grank) << 32 | lrank, block,
        bytes_written}) {
    h ^= v;
    h *= 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 29;
  }
  return h;
}

// One chunk's recovery frame: the first kChunkFrameSize bytes of every chunk
// when kFlagChunkFrames is set. A writer writes the whole frame when its
// task enters the chunk and patches bytes_written (with the checksum) after
// every write; ext::repair_multifile parses it back.
struct ChunkFrame {
  std::uint32_t grank = 0;  // global rank of the writing task
  std::uint32_t lrank = 0;  // its slot in the physical file
  std::uint64_t block = 0;
  std::uint64_t bytes_written = 0;

  [[nodiscard]] std::vector<std::byte> serialize() const;
  // Write the whole frame into the chunk that starts at `chunk_start`.
  Status write(fs::File& file, std::uint64_t chunk_start) const;
  // Rewrite only bytes_written and the checksum of that chunk's frame.
  Status patch_bytes_written(fs::File& file, std::uint64_t chunk_start) const;
  // kCorrupt for a short buffer, a missing magic or a checksum mismatch.
  static Result<ChunkFrame> parse(std::span<const std::byte> bytes);
};

struct FileHeader {
  std::uint32_t version = kFormatVersion;
  std::uint8_t flags = 0;
  std::uint64_t nblocks = 0;       // 0 until parclose
  std::uint64_t meta2_offset = 0;  // 0 until parclose
  std::uint64_t fsblksize = 0;
  std::uint32_t ntasks = 0;   // tasks mapped to THIS physical file
  std::uint32_t nfiles = 1;   // physical files in the multifile set
  std::uint32_t filenum = 0;  // index of this physical file
  std::vector<std::uint64_t> global_ranks;     // per local task
  std::vector<std::uint64_t> chunksizes_req;   // per local task

  [[nodiscard]] std::vector<std::byte> serialize() const;
  static Result<FileHeader> parse(std::span<const std::byte> bytes);
};

struct FileMeta2 {
  // bytes_written[local task][block] = payload bytes in that chunk.
  std::vector<std::vector<std::uint64_t>> bytes_written;

  [[nodiscard]] std::uint64_t nblocks() const;
  [[nodiscard]] std::vector<std::byte> serialize() const;
  static Result<FileMeta2> parse(std::span<const std::byte> bytes);

  // Metablock 2 from the close-time gather (on the file master) of every
  // local task's per-chunk usage, task t's piece being its bytes_written.
  static FileMeta2 from_gather(const par::Comm::FlatGatherU64& all);
};

// Read and parse metablock 1 from an open physical file.
Result<FileHeader> read_header(fs::File& file);

// Read and parse metablock 2 (requires header.meta2_offset != 0). kCorrupt
// unless header.nblocks blocks of the layout `header` describes end before
// metablock 2, it holds one array per task of `header`, no array is longer
// than header.nblocks and no chunk records more bytes than its capacity.
Result<FileMeta2> read_meta2(fs::File& file, const FileHeader& header);

// The chunk geometry that metablock 1 describes.
Result<FileLayout> layout_of(const FileHeader& header);

// Write metablock 2 behind the last block of a file laid out at
// (data_start, block_span) and patch the trailer fields of metablock 1.
Status write_meta2_and_trailer(fs::File& file, std::uint64_t data_start,
                               std::uint64_t block_span,
                               const FileMeta2& meta2);

// Name of physical file `filenum` of a multifile set with `nfiles` files:
// the base name itself for a single file, "<name>.<%06u>" otherwise.
std::string physical_file_name(const std::string& base, int filenum,
                               int nfiles);

// ---------------------------------------------------------------------------
// whole-file steps
// ---------------------------------------------------------------------------

struct CreatedFile {
  std::unique_ptr<fs::File> file;
  FileLayout layout;
};

// The file master's step of an open for writing: lay the physical file at
// `path` out from `header`, create it and write metablock 1.
Result<CreatedFile> create_physical_file(fs::FileSystem& fs,
                                         const std::string& path,
                                         const FileHeader& header);

struct LoadedFile {
  std::unique_ptr<fs::File> file;
  FileHeader header;
  std::uint64_t data_start = 0;
  std::uint64_t block_span = 0;
  std::vector<std::uint64_t> chunk_offsets;  // per task, within a block
  // Every task's bytes-written array serialized back to back (task t's
  // slice is usage_sizes[t] bytes): one buffer to scatter, not one per task.
  std::vector<std::byte> usage_flat;
  std::vector<std::uint64_t> usage_sizes;
};

// The file master's step of an open for reading by `ntasks` tasks: both
// metablocks of the physical file at `path`, checked against each other
// and the task count, and each task's view in scatterable form.
Result<LoadedFile> load_physical_file(fs::FileSystem& fs,
                                      const std::string& path, int ntasks);

struct FirstFile {
  std::unique_ptr<fs::File> file;
  FileHeader header;
};

// Physical file 0 of multifile `name` (the base name itself for a
// single-file set), opened for reading, with its metablock 1.
Result<FirstFile> open_first_file(fs::FileSystem& fs, const std::string& name);

struct MultifileMap {
  std::uint64_t nfiles = 0;
  std::vector<std::uint64_t> file_of_rank;
};

// Rank 0's step of an open for reading by `ntasks` tasks: the file count
// and every rank's physical file, from the headers of multifile `name`.
// The set must have been written by exactly `ntasks` tasks
// (kInvalidArgument otherwise); a global rank outside the set, or one that
// two headers claim, is kCorrupt.
Result<MultifileMap> discover_multifile(fs::FileSystem& fs,
                                        const std::string& name, int ntasks);

// Light probe: the physical file at `path` opens and both metablocks pass
// read_header and read_meta2 — what a reader needs. Missing files,
// injected faults and silent truncation (metablock 2 sits at the end) all
// fail it. With `nfiles` > 0 the file must also belong to a set that size.
bool physical_file_usable(fs::FileSystem& fs, const std::string& path,
                          int nfiles = 0);

// Copy the file `src` byte for byte into a new file `dst_path` on
// `dst_fs`, then, given `meta1`, rewrite the copy's metablock 1 from it: a
// copy whose header carries another filenum takes that place in its set.
// Each piece of up to `buffer_bytes` is one pwrite whose all-zero 4 KiB
// runs (chunk padding, unwritten chunks) travel as fills, so a simulated
// destination keeps them as constant extents instead of real bytes.
// Returns the bytes copied.
Result<std::uint64_t> copy_physical_file(fs::File& src, const FileHeader* meta1,
                                         fs::FileSystem& dst_fs,
                                         const std::string& dst_path,
                                         std::uint64_t buffer_bytes);

}  // namespace sion::core
