// Parallel access to a SION multifile — the C++ analog of the paper's
// sion_paropen_mpi / sion_parclose_mpi family (section 3.2).
//
// Open and close are collective over the *global* communicator `gcom`; the
// library splits `gcom` internally into one *local* communicator per
// physical file, exactly as SIONlib derives `lcom` from `gcom`. In between,
// reads and writes are fully independent per task:
//
//   auto sion = SionParFile::open_write(fs, world, spec).value();   // collective
//   sion->ensure_free_space(n);          // may advance to a fresh chunk
//   sion->write_raw(data);               // plain fwrite() equivalent
//   // or, without knowing a bound on n:
//   sion->write(data);                   // sion_fwrite: splits at chunk ends
//   sion->close();                       // collective
//
// and for reading:
//
//   auto sion = SionParFile::open_read(fs, world, name).value();    // collective
//   while (!sion->eof()) {
//     auto n = sion->bytes_avail_in_chunk();
//     sion->read_raw(buffer.first(n));   // plain fread() equivalent
//   }
//   sion->close();
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/filemap.h"
#include "core/layout.h"
#include "core/metadata.h"
#include "fs/filesystem.h"
#include "par/comm.h"

namespace sion::core {

struct ParOpenSpec {
  std::string filename;

  // Maximum number of bytes this task will write in one piece (may differ
  // per task). Required for write_raw; write() lifts the restriction.
  std::uint64_t chunksize = 0;

  // Number of underlying physical files (paper Fig. 2(d)).
  int nfiles = 1;

  // File-system block size to align chunks to; 0 = detect via
  // FileSystem::block_size (the paper's fstat()-based autodetection).
  std::uint64_t fsblksize = 0;

  // How tasks are distributed over physical files.
  Mapping mapping = Mapping::kContiguous;
  std::vector<int> custom_file_of_rank;  // used when mapping == kCustom

  // Robustness extension (paper section 6, future work): prepend a small
  // recovery frame to every chunk so metablock 2 can be reconstructed by
  // sionrepair if the application dies before close.
  bool chunk_frames = false;
};

class SionParFile {
 public:
  // Collective open for writing; every task of `gcom` must call it with the
  // same filename/nfiles/mapping (chunksize may differ per task).
  static Result<std::unique_ptr<SionParFile>> open_write(
      fs::FileSystem& fs, par::Comm& gcom, const ParOpenSpec& spec);

  // Collective open for reading; `gcom` must have exactly as many tasks as
  // the multifile was written with (the paper's stated invariant).
  static Result<std::unique_ptr<SionParFile>> open_read(fs::FileSystem& fs,
                                                        par::Comm& gcom,
                                                        const std::string& name);

  ~SionParFile();
  SionParFile(const SionParFile&) = delete;
  SionParFile& operator=(const SionParFile&) = delete;

  // ---- write mode ---------------------------------------------------------

  // Guarantee `nbytes` of contiguous space in the current chunk, advancing
  // to the next block's chunk when necessary (sion_ensure_free_space).
  Status ensure_free_space(std::uint64_t nbytes);

  // Write entirely within the current chunk (the ANSI C fwrite() analog);
  // fails with kOutOfRange when the chunk cannot hold `data` — call
  // ensure_free_space first.
  Result<std::uint64_t> write_raw(fs::DataView data);

  // sion_fwrite: splits `data` at chunk boundaries internally, so no bound
  // on the write size is needed.
  Result<std::uint64_t> write(fs::DataView data);

  // ---- read mode ------------------------------------------------------------

  [[nodiscard]] bool eof() const;                       // sion_feof
  [[nodiscard]] std::uint64_t bytes_avail_in_chunk() const;

  // Read within the current chunk (fread() analog); a preceding
  // bytes_avail_in_chunk() bounds the request.
  Result<std::uint64_t> read_raw(std::span<std::byte> out);

  // sion_fread: crosses chunk boundaries internally.
  Result<std::uint64_t> read(std::span<std::byte> out);

  // The entire remaining logical stream as one buffer — the raw-byte
  // foundation of the transparent decompression path (ext/compress.h),
  // where frame boundaries do not respect chunk boundaries.
  Result<std::vector<std::byte>> read_remaining();

  // Timing-only read used by benchmarks: charges full I/O cost and advances
  // the logical position without materialising bytes.
  Status read_skip(std::uint64_t nbytes);

  // Collective close. Write mode: gathers per-chunk usage to the file-local
  // master, which writes metablock 2 and patches the metablock-1 trailer.
  Status close();

  // ---- introspection ----------------------------------------------------------

  [[nodiscard]] bool writable() const { return writable_; }
  // Usable payload capacity of one chunk for this task.
  [[nodiscard]] std::uint64_t chunk_capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t current_block() const { return block_; }
  [[nodiscard]] std::uint64_t position_in_chunk() const { return pos_; }
  [[nodiscard]] int nfiles() const { return nfiles_; }
  [[nodiscard]] int filenum() const { return filenum_; }
  [[nodiscard]] std::uint64_t fsblksize() const { return fsblksize_; }
  // Total payload bytes this task has written / can still read.
  [[nodiscard]] std::uint64_t bytes_written_total() const;
  [[nodiscard]] std::uint64_t bytes_remaining_total() const;

 private:
  SionParFile() = default;

  [[nodiscard]] std::uint64_t chunk_file_offset(std::uint64_t block) const {
    return chunk_start_block0_ + block * block_span_ +
           (frames_ ? kChunkFrameSize : 0);
  }
  Status write_frame(std::uint64_t block);
  Status patch_frame(std::uint64_t block);
  Status advance_chunk_write();

  // Shared state.
  fs::FileSystem* fs_ = nullptr;
  par::Comm* gcom_ = nullptr;
  par::Comm* lcom_ = nullptr;
  std::unique_ptr<fs::File> file_;
  std::string path_;
  bool writable_ = false;
  bool closed_ = false;
  bool frames_ = false;
  int nfiles_ = 1;
  int filenum_ = 0;
  int lrank_ = 0;
  std::uint64_t fsblksize_ = 0;
  std::uint64_t chunk_start_block0_ = 0;  // my chunk's offset in block 0
  std::uint64_t block_span_ = 0;
  std::uint64_t capacity_ = 0;  // payload capacity per chunk
  std::uint64_t data_start_ = 0;

  // Cursor.
  std::uint64_t block_ = 0;
  std::uint64_t pos_ = 0;

  // Write mode: payload bytes per chunk so far. Read mode: payload bytes per
  // chunk as recorded in metablock 2.
  std::vector<std::uint64_t> chunk_bytes_;
};

}  // namespace sion::core
