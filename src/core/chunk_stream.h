// One task's logical stream through its chunks of a SION physical file —
// the paper's fwrite-like stream API (sion_fwrite, sion_fread, sion_feof,
// sion_ensure_free_space, sion_seek) implemented once. A task's chunks sit
// at the same position in every block (paper Fig. 2(b)), so the stream
// needs only its chunk's offset in block 0, the block span and the chunk's
// payload capacity to address any of them.
//
// The per-chunk byte counts are held by the owner (a SionParFile's own
// vector, one rank's entry of SionSerialFile::Locations, a mirror writer's
// local), so pointing a stream at another task costs no copy. After every
// write a chunk's count becomes max(count, position): a writer that seeks
// back and overwrites does not grow it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "fs/filesystem.h"

namespace sion::core {

class ChunkStream {
 public:
  // A stream through `file`, whose chunk in block 0 starts at `chunk0` and
  // spans `chunksize` bytes, the next block's `block_span` bytes further
  // on. `chunks` (one count per chunk entered so far, at least one) must
  // outlive the stream. With `frames`, every chunk opens with a recovery
  // frame identifying the task as (grank, lrank), and its payload capacity
  // shrinks by the frame size.
  ChunkStream(fs::File* file, std::vector<std::uint64_t>* chunks,
              std::uint64_t chunk0, std::uint64_t block_span,
              std::uint64_t chunksize, bool writable, bool frames = false,
              std::uint32_t grank = 0, std::uint32_t lrank = 0);

  // ---- write mode -----------------------------------------------------------

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

  [[nodiscard]] bool eof() const;  // sion_feof
  [[nodiscard]] std::uint64_t bytes_avail_in_chunk() const;

  // Read within the current chunk (fread() analog); a preceding
  // bytes_avail_in_chunk() bounds the request. A short read inside a
  // recorded chunk is kCorrupt: metablock 2 promised those bytes.
  Result<std::uint64_t> read_raw(std::span<std::byte> out);

  // sion_fread: crosses chunk boundaries internally.
  Result<std::uint64_t> read(std::span<std::byte> out);

  // Timing-only read used by benchmarks: charges full I/O cost and advances
  // the logical position without materialising bytes.
  Status read_skip(std::uint64_t nbytes);

  // Read bytes [offset, offset + out.size()) of the logical stream, crossing
  // chunks as needed. Positioned: the cursor is untouched. Returns the bytes
  // delivered, which is short only when the stream ends.
  Result<std::uint64_t> read_at(std::uint64_t offset,
                                std::span<std::byte> out) const;

  // The entire remaining logical stream as one buffer — the raw-byte
  // foundation of the transparent decompression path (ext/compress.h),
  // where frame boundaries do not respect chunk boundaries.
  Result<std::vector<std::byte>> read_remaining();

  // ---- navigation -----------------------------------------------------------

  // Position the cursor at byte `pos` of chunk `block` (sion_seek). Writing,
  // chunks up to `block` come into being (with their frames); reading, the
  // position must hold data.
  Status seek(std::uint64_t block, std::uint64_t pos);

  // ---- recovery frames ------------------------------------------------------

  // Write chunk `block`'s whole frame, or patch its bytes-written field to
  // the chunk's count (every chunk's, for patch_frames); no-ops when chunks
  // carry no frames.
  Status write_frame(std::uint64_t block) const;
  Status patch_frame(std::uint64_t block) const;
  Status patch_frames() const;

  // ---- introspection --------------------------------------------------------

  [[nodiscard]] bool writable() const { return writable_; }
  // Usable payload capacity of one chunk.
  [[nodiscard]] std::uint64_t chunk_capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t current_block() const { return block_; }
  [[nodiscard]] std::uint64_t position_in_chunk() const { return pos_; }
  // Total payload bytes written / still readable.
  [[nodiscard]] std::uint64_t bytes_written_total() const;
  [[nodiscard]] std::uint64_t bytes_remaining_total() const;

 protected:
  // Closed until a derived file assigns it a stream at open.
  ChunkStream() = default;

  // File offset where chunk `block` starts: its frame, if any, then its
  // payload.
  [[nodiscard]] std::uint64_t chunk_start(std::uint64_t block) const {
    return chunk0_ + block * block_span_;
  }
  [[nodiscard]] std::uint64_t block_span() const { return block_span_; }

  // A null file means the stream is closed.
  fs::File* file_ = nullptr;

 private:
  [[nodiscard]] std::uint64_t payload_offset(std::uint64_t block) const;
  [[nodiscard]] Status check_writable() const;
  [[nodiscard]] Status check_readable() const;
  Status advance_chunk_write();
  // Writes `data`, which fits in the current chunk, at the cursor.
  Result<std::uint64_t> put(fs::DataView data);

  std::vector<std::uint64_t>* chunks_ = nullptr;
  std::uint64_t chunk0_ = 0;
  std::uint64_t block_span_ = 0;
  std::uint64_t capacity_ = 0;

  // Cursor.
  std::uint64_t block_ = 0;
  std::uint64_t pos_ = 0;

  std::uint32_t grank_ = 0;
  std::uint32_t lrank_ = 0;
  bool frames_ = false;
  bool writable_ = false;
};

// The per-chunk byte counts of a stream that only appended: `total` bytes
// in chunks of `capacity` leave every chunk full except the last, and an
// empty stream one empty chunk.
std::vector<std::uint64_t> appended_chunks(std::uint64_t total,
                                           std::uint64_t capacity);

}  // namespace sion::core
