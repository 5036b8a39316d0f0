#include "core/chunk_stream.h"

#include <algorithm>
#include <numeric>

#include "common/strings.h"
#include "common/units.h"
#include "core/metadata.h"

namespace sion::core {

ChunkStream::ChunkStream(fs::File* file, std::vector<std::uint64_t>* chunks,
                         std::uint64_t chunk0, std::uint64_t block_span,
                         std::uint64_t chunksize, bool writable, bool frames,
                         std::uint32_t grank, std::uint32_t lrank)
    : file_(file),
      chunks_(chunks),
      chunk0_(chunk0),
      block_span_(block_span),
      capacity_(chunksize - (frames ? kChunkFrameSize : 0)),
      grank_(grank),
      lrank_(lrank),
      frames_(frames),
      writable_(writable) {}

std::uint64_t ChunkStream::payload_offset(std::uint64_t block) const {
  return chunk_start(block) + (frames_ ? kChunkFrameSize : 0);
}

Status ChunkStream::check_writable() const {
  if (!writable_) return FailedPrecondition("file opened for reading");
  if (file_ == nullptr) return FailedPrecondition("file already closed");
  return Status::Ok();
}

Status ChunkStream::check_readable() const {
  if (writable_) return FailedPrecondition("file opened for writing");
  if (file_ == nullptr) return FailedPrecondition("file already closed");
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// recovery frames
// ---------------------------------------------------------------------------

Status ChunkStream::write_frame(std::uint64_t block) const {
  if (!frames_) return Status::Ok();
  return ChunkFrame{grank_, lrank_, block, 0}.write(*file_,
                                                    chunk_start(block));
}

Status ChunkStream::patch_frame(std::uint64_t block) const {
  if (!frames_) return Status::Ok();
  return ChunkFrame{grank_, lrank_, block, (*chunks_)[block]}
      .patch_bytes_written(*file_, chunk_start(block));
}

Status ChunkStream::patch_frames() const {
  for (std::uint64_t b = 0; frames_ && b < chunks_->size(); ++b) {
    SION_RETURN_IF_ERROR(patch_frame(b));
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// write path
// ---------------------------------------------------------------------------

Status ChunkStream::advance_chunk_write() {
  SION_RETURN_IF_ERROR(patch_frame(block_));
  ++block_;
  pos_ = 0;
  if (block_ == chunks_->size()) {
    chunks_->push_back(0);
    SION_RETURN_IF_ERROR(write_frame(block_));
  }
  return Status::Ok();
}

Status ChunkStream::ensure_free_space(std::uint64_t nbytes) {
  SION_RETURN_IF_ERROR(check_writable());
  if (nbytes > capacity_) {
    return InvalidArgument(
        strformat("request of %llu bytes exceeds the chunk capacity of %llu; "
                  "use write() instead",
                  static_cast<unsigned long long>(nbytes),
                  static_cast<unsigned long long>(capacity_)));
  }
  if (pos_ + nbytes > capacity_) return advance_chunk_write();
  return Status::Ok();
}

Result<std::uint64_t> ChunkStream::put(fs::DataView data) {
  SION_ASSIGN_OR_RETURN(const std::uint64_t n,
                        file_->pwrite(data, payload_offset(block_) + pos_));
  pos_ += n;
  std::uint64_t& count = (*chunks_)[block_];
  count = std::max(count, pos_);
  // Keep the recovery frame current after every write: this is what makes a
  // crash *between* writes recoverable (the paper's robustness plan), at the
  // cost of one small extra write per call (measured in bench_ablation).
  SION_RETURN_IF_ERROR(patch_frame(block_));
  return n;
}

Result<std::uint64_t> ChunkStream::write_raw(fs::DataView data) {
  SION_RETURN_IF_ERROR(check_writable());
  if (data.size() > capacity_ - pos_) {
    return OutOfRange(
        "write does not fit in the current chunk; call ensure_free_space");
  }
  return put(data);
}

Result<std::uint64_t> ChunkStream::write(fs::DataView data) {
  SION_RETURN_IF_ERROR(check_writable());
  std::uint64_t done = 0;
  while (done < data.size()) {
    if (pos_ == capacity_) SION_RETURN_IF_ERROR(advance_chunk_write());
    const std::uint64_t take =
        std::min(capacity_ - pos_, data.size() - done);
    SION_ASSIGN_OR_RETURN(const std::uint64_t n,
                          put(data.subview(done, take)));
    done += n;
  }
  return done;
}

// ---------------------------------------------------------------------------
// read path
// ---------------------------------------------------------------------------

bool ChunkStream::eof() const {
  std::uint64_t b = block_;
  std::uint64_t p = pos_;
  while (b < chunks_->size()) {
    if (p < (*chunks_)[b]) return false;
    ++b;
    p = 0;
  }
  return true;
}

std::uint64_t ChunkStream::bytes_avail_in_chunk() const {
  if (block_ >= chunks_->size()) return 0;
  return (*chunks_)[block_] - pos_;
}

Result<std::uint64_t> ChunkStream::read_raw(std::span<std::byte> out) {
  SION_RETURN_IF_ERROR(check_readable());
  const std::uint64_t want =
      std::min<std::uint64_t>(out.size(), bytes_avail_in_chunk());
  if (want == 0) return static_cast<std::uint64_t>(0);
  SION_ASSIGN_OR_RETURN(
      const std::uint64_t n,
      file_->pread(out.first(want), payload_offset(block_) + pos_));
  if (n < want) return Corrupt("short read inside a recorded chunk");
  pos_ += n;
  return n;
}

Result<std::uint64_t> ChunkStream::read(std::span<std::byte> out) {
  SION_RETURN_IF_ERROR(check_readable());
  std::uint64_t done = 0;
  while (done < out.size() && !eof()) {
    if (bytes_avail_in_chunk() == 0) {
      ++block_;
      pos_ = 0;
      continue;
    }
    SION_ASSIGN_OR_RETURN(const std::uint64_t n, read_raw(out.subspan(done)));
    done += n;
  }
  return done;
}

Status ChunkStream::read_skip(std::uint64_t nbytes) {
  SION_RETURN_IF_ERROR(check_readable());
  std::uint64_t done = 0;
  while (done < nbytes && !eof()) {
    const std::uint64_t avail = bytes_avail_in_chunk();
    if (avail == 0) {
      ++block_;
      pos_ = 0;
      continue;
    }
    const std::uint64_t take = std::min(nbytes - done, avail);
    SION_RETURN_IF_ERROR(
        file_->pread_discard(take, payload_offset(block_) + pos_));
    pos_ += take;
    done += take;
  }
  return Status::Ok();
}

Result<std::uint64_t> ChunkStream::read_at(std::uint64_t offset,
                                           std::span<std::byte> out) const {
  SION_RETURN_IF_ERROR(check_readable());
  const std::vector<std::uint64_t>& chunks = *chunks_;
  std::uint64_t done = 0;
  std::uint64_t skip = offset;
  for (std::uint64_t b = 0; b < chunks.size() && done < out.size(); ++b) {
    if (skip >= chunks[b]) {
      skip -= chunks[b];
      continue;
    }
    const std::uint64_t take =
        std::min<std::uint64_t>(chunks[b] - skip, out.size() - done);
    SION_ASSIGN_OR_RETURN(
        const std::uint64_t n,
        file_->pread(out.subspan(done, take), payload_offset(b) + skip));
    if (n < take) return Corrupt("short read inside a recorded chunk");
    done += n;
    skip = 0;
  }
  return done;
}

Result<std::vector<std::byte>> ChunkStream::read_remaining() {
  SION_RETURN_IF_ERROR(check_readable());
  const std::uint64_t total = bytes_remaining_total();
  std::vector<std::byte> out(static_cast<std::size_t>(total));
  SION_ASSIGN_OR_RETURN(const std::uint64_t got, read(out));
  if (got != total) {
    return Corrupt(strformat("logical stream delivered %llu of %llu "
                             "remaining bytes",
                             static_cast<unsigned long long>(got),
                             static_cast<unsigned long long>(total)));
  }
  return out;
}

// ---------------------------------------------------------------------------
// navigation and totals
// ---------------------------------------------------------------------------

Status ChunkStream::seek(std::uint64_t block, std::uint64_t pos) {
  if (file_ == nullptr) return FailedPrecondition("file already closed");
  std::vector<std::uint64_t>& chunks = *chunks_;
  if (writable_) {
    if (pos > capacity_) {
      return OutOfRange("seek position beyond chunk capacity");
    }
    const std::uint64_t old_blocks = chunks.size();
    if (block >= old_blocks) chunks.resize(block + 1, 0);
    for (std::uint64_t b = old_blocks; b <= block; ++b) {
      SION_RETURN_IF_ERROR(write_frame(b));
    }
  } else {
    if (block >= chunks.size()) return OutOfRange("seek beyond last chunk");
    if (pos > chunks[block]) {
      return OutOfRange("seek position beyond data in chunk");
    }
  }
  block_ = block;
  pos_ = pos;
  return Status::Ok();
}

std::uint64_t ChunkStream::bytes_written_total() const {
  return std::accumulate(chunks_->begin(), chunks_->end(), std::uint64_t{0});
}

std::uint64_t ChunkStream::bytes_remaining_total() const {
  std::uint64_t total = 0;
  for (std::uint64_t b = block_; b < chunks_->size(); ++b) {
    total += (*chunks_)[b] - (b == block_ ? pos_ : 0);
  }
  return total;
}

std::vector<std::uint64_t> appended_chunks(std::uint64_t total,
                                           std::uint64_t capacity) {
  std::vector<std::uint64_t> chunks(
      std::max<std::uint64_t>(1, ceil_div(total, capacity)), capacity);
  chunks.back() = total - (chunks.size() - 1) * capacity;
  return chunks;
}

}  // namespace sion::core
