// Collective write aggregation (paper section 6, "coalescing I/O"): the
// paper funnels task-local streams through per-I/O-node multifiles because
// many small uncoordinated writes collapse file-system bandwidth at scale;
// its roadmap names collective aggregation as the next step. This extension
// provides it on top of the SION multifile format.
//
// Ranks are grouped; rank 0 of each group is the *collector*. Members ship
// their chunk payloads to the collector over the par::NetworkModel (gather
// cost charged on the virtual clock), and the collector writes them through
// one core::ChunkStream per member into a coalescer that issues large,
// chunk-aligned writes on their behalf — members never touch the file
// system at all, which removes both the per-task open/token pressure and
// the one-write-per-task operation count. Reads run the same pipeline in
// reverse (the member streams read, the collector scatters).
//
// The on-disk format is the ordinary SION multifile: one logical chunk per
// member rank, so a file written collectively reads back per-rank through
// core::SionParFile::open_read (and vice versa). The chunks of a group are
// packed at `packing_granule` instead of one file-system block each — safe
// because a group has exactly one writer — and each group's end is padded
// to the real file-system block, so different collectors never share a
// block. This removes the "at least one file-system block per task" floor
// the paper calls out for small task payloads.
//
// Collective calls (open/write/read/read_skip/close) must be made by every
// rank of the communicator, in the same order, like every SIONlib
// collective. Recovery chunk frames are not supported in collective mode.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "core/chunk_stream.h"
#include "core/par_file.h"
#include "fs/filesystem.h"
#include "par/comm.h"

namespace sion::ext {

struct CollectiveConfig {
  // Member ranks per collector (the collector itself included). 0 makes
  // every task of a physical file one group: one collector per file.
  int group_size = 0;

  // Cap on the collector-side aggregation buffer; payloads are shipped and
  // flushed in waves of at most this many bytes, so host memory stays
  // bounded regardless of payload size.
  std::uint64_t buffer_bytes = 4 * kMiB;

  // The one layout, packed as the file comment describes. Nothing reads
  // this field; it stays only while callers still assign it.
  enum class Alignment : std::uint8_t { kPacked };
  Alignment alignment = Alignment::kPacked;

  // Chunk packing granule (power of two). Clamped to the real file-system
  // block size; a granule that is not a power of two dividing the block
  // falls back to the block.
  std::uint64_t packing_granule = 4 * kKiB;
};

class Collective {
 public:
  // Collective open for writing over `gcom`; every rank passes the same
  // filename/nfiles/mapping and config (chunksize may differ per rank).
  // Only collector ranks open the physical files.
  static Result<std::unique_ptr<Collective>> open_write(
      fs::FileSystem& fs, par::Comm& gcom, const core::ParOpenSpec& spec,
      const CollectiveConfig& config);

  // Collective open for reading; `gcom` must have as many ranks as the
  // multifile was written with. The file may have been written either
  // collectively or through core::SionParFile.
  static Result<std::unique_ptr<Collective>> open_read(
      fs::FileSystem& fs, par::Comm& gcom, const std::string& name,
      const CollectiveConfig& config);

  ~Collective();
  Collective(const Collective&) = delete;
  Collective& operator=(const Collective&) = delete;

  // Collective over the group: every member contributes its payload (sizes
  // may differ; empty is fine). Splits at chunk boundaries internally, like
  // sion_fwrite.
  Status write(fs::DataView data);

  // Collective over the group: every member receives up to out.size() bytes
  // of its own logical stream; returns the bytes actually delivered.
  Result<std::uint64_t> read(std::span<std::byte> out);

  // Collective over the group: every member receives its entire remaining
  // logical stream in one buffer, like SionParFile::read_remaining. The
  // compressed-checkpoint restore path reads whole streams this way because
  // compression frame boundaries do not respect chunk boundaries
  // (ext/compress.h).
  Result<std::vector<std::byte>> read_remaining();

  // Timing-only read: charges the full file-system and scatter cost and
  // advances the logical position without materialising payload bytes.
  Status read_skip(std::uint64_t nbytes);

  // Collective close; write mode gathers per-chunk usage to the file-local
  // master, which writes metablock 2 exactly like SionParFile::close, and
  // agrees on `pending` (a failed write) so that every task fails.
  Status close(const Status& pending = Status::Ok());

  // ---- introspection ------------------------------------------------------
  [[nodiscard]] bool writable() const { return writable_; }
  [[nodiscard]] bool is_collector() const { return group_->rank() == 0; }
  [[nodiscard]] int group_size() const { return group_->size(); }
  [[nodiscard]] int nfiles() const { return nfiles_; }
  // Packing granule the chunks were laid out with (the header's fsblksize).
  [[nodiscard]] std::uint64_t granule() const { return granule_; }
  // Usable payload capacity of one chunk of this rank.
  [[nodiscard]] std::uint64_t chunk_capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t bytes_written_total() const { return written_; }
  [[nodiscard]] std::uint64_t bytes_remaining_total() const { return unread_; }

 private:
  class CollectorFile;

  Collective() = default;

  // Collective over the group: every member's chunk start (data start plus
  // `offset`), capacity and, reading, metablock-2 `chunk_bytes` reach the
  // collector, which points one stream per member at them through io_.
  void attach_members(std::uint64_t offset,
                      std::span<const std::uint64_t> chunk_bytes);

  Status write_as_collector(fs::DataView own,
                            const std::vector<std::uint64_t>& sizes);
  Status write_as_member(fs::DataView data);
  Status read_as_collector(std::span<std::byte> own_out, bool skip,
                           const std::vector<std::uint64_t>& wants);
  Status read_as_member(std::span<std::byte> out, bool skip,
                        std::uint64_t deliver);
  Result<std::uint64_t> read_impl(std::span<std::byte> out, bool skip,
                                  std::uint64_t want);

  par::Comm* gcom_ = nullptr;
  par::Comm* lcom_ = nullptr;   // per physical file
  par::Comm* group_ = nullptr;  // aggregation group within the file
  std::unique_ptr<fs::File> file_;  // collectors only
  std::string path_;
  bool writable_ = false;
  bool open_ = false;  // from a successful open until close
  int nfiles_ = 1;
  int filenum_ = 0;
  int lrank_ = 0;
  std::uint64_t granule_ = 0;
  std::uint64_t buffer_bytes_ = 0;
  std::uint64_t data_start_ = 0;
  std::uint64_t block_span_ = 0;

  // This rank's stream, which only the collector touches, as counters: the
  // payload capacity of a chunk, the bytes in the stream (appended so far
  // when writing; core::appended_chunks gives the chunk counts) and the
  // bytes not yet read.
  std::uint64_t capacity_ = 0;
  std::uint64_t written_ = 0;
  std::uint64_t unread_ = 0;

  // Collector only: the file as its members' streams see it, and one stream
  // per group member (entry 0 is the collector) with its chunk counts.
  std::unique_ptr<CollectorFile> io_;
  std::vector<std::vector<std::uint64_t>> member_chunks_;
  std::vector<core::ChunkStream> streams_;
};

// Collective write of one multifile in which every rank of `comm` stores
// `payload`: through ext::Collective when `aggregation` is set, through
// core::SionParFile otherwise.
Status write_multifile(fs::FileSystem& fs, par::Comm& comm,
                       const core::ParOpenSpec& spec,
                       const CollectiveConfig* aggregation,
                       fs::DataView payload);

// Collective write of a protection scheme's primary multifile: `ndomains`
// physical files of contiguous equal rank blocks, through write_multifile.
// The block size is agreed up front so that companion files can be laid
// out again at heal time from the file geometry alone (the writers would
// otherwise detect it file by file). Returns the spec the primary used.
Result<core::ParOpenSpec> write_domain_primary(
    fs::FileSystem& fs, par::Comm& comm, core::ParOpenSpec spec, int ndomains,
    const CollectiveConfig* aggregation, fs::DataView payload);

}  // namespace sion::ext
