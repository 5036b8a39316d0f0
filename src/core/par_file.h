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
#include "core/chunk_stream.h"
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

// The stream API (ensure_free_space, write_raw, write, eof, read_raw, read,
// read_skip, read_remaining, the totals) comes from ChunkStream.
class SionParFile : public ChunkStream {
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

  // Collective close. Write mode: gathers per-chunk usage to the file-local
  // master, which writes metablock 2 and patches the metablock-1 trailer.
  // `pending` is this task's own failure since open (a failed write): the
  // close still runs every collective, and its agreement fails every task.
  Status close(const Status& pending = Status::Ok());

  [[nodiscard]] int nfiles() const { return nfiles_; }
  [[nodiscard]] int filenum() const { return filenum_; }
  [[nodiscard]] std::uint64_t fsblksize() const {
    return std::uint64_t{1} << fsblksize_log2_;
  }

 private:
  SionParFile() = default;

  // Point the stream at this task's chunks of `handle_`.
  void attach(std::uint64_t chunk0, std::uint64_t block_span,
              std::uint64_t chunksize, bool writable, bool frames);

  // A power of two (checked at open, rejected by the header parser
  // otherwise), kept as its exponent in the stream's tail padding.
  std::uint8_t fsblksize_log2_ = 0;
  int nfiles_ = 1;
  int filenum_ = 0;
  par::Comm* gcom_ = nullptr;
  par::Comm* lcom_ = nullptr;
  std::unique_ptr<fs::File> handle_;
  std::string path_;

  // Write mode: payload bytes per chunk so far. Read mode: payload bytes per
  // chunk as recorded in metablock 2.
  std::vector<std::uint64_t> chunk_bytes_;
};

// The collective exchanges of a parallel open, shared by SionParFile and
// ext::Collective. Each is one fused rendezvous (par::Comm::steps).

// open_read's first exchange over `gcom`: rank 0 discovers the multifile
// set `name` (its failure reads `what` elsewhere), then every task learns
// the file count and the file that holds its logical file.
struct MultifileSlot {
  int nfiles = 0;
  int filenum = 0;
};
Result<MultifileSlot> locate_in_multifile(fs::FileSystem& fs,
                                          par::Comm& gcom,
                                          const std::string& name,
                                          const char* what);

// open_write's gather to the file-local master (lcom rank 0): every task's
// requested chunk size and global rank, in lcom rank order (empty
// elsewhere).
struct ChunkRequests {
  std::vector<std::uint64_t> chunksizes;
  std::vector<std::uint64_t> granks;
};
ChunkRequests gather_chunk_requests(par::Comm& lcom, std::uint64_t chunksize,
                                    int grank);

// open_read's scatter from the file-local master, which loaded the file:
// the `geometry` words (the master's reach every task), then each task's
// chunk offset and requested chunk size and its metablock-2 chunk counts
// (at least one).
struct ReaderChunks {
  std::uint64_t offset = 0;
  std::uint64_t request = 0;
  std::vector<std::uint64_t> bytes;
};
Result<ReaderChunks> scatter_reader_chunks(par::Comm& lcom,
                                           const LoadedFile& loaded,
                                           std::span<std::uint64_t> geometry);

}  // namespace sion::core
