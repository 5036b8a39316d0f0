// Geometry of a SION physical file (paper Fig. 2).
//
// A physical file is:
//
//   [ metablock 1 | block 0 | block 1 | ... | block B-1 | metablock 2 ]
//
// where each block holds one *chunk* per task mapped to this file. Chunk
// sizes are the per-task requests rounded up to a multiple of the
// file-system block size, and the data region starts on a file-system block
// boundary, so no two tasks ever share a file-system block (Fig. 2(c)) —
// the property that avoids write-lock false sharing.
//
// A task that exhausts its chunk gets the same-positioned chunk in the next
// block (Fig. 2(b)); every task can compute all of its chunk addresses
// locally from (data_start, block_span, own offset in block) without
// further communication.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace sion::core {

class FileLayout {
 public:
  // `chunksizes_req` are the per-local-task requested chunk sizes;
  // `meta1_bytes` is the serialized size of metablock 1.
  static Result<FileLayout> create(std::uint64_t fsblksize,
                                   std::vector<std::uint64_t> chunksizes_req,
                                   std::uint64_t meta1_bytes);

  [[nodiscard]] int ntasks() const {
    return static_cast<int>(aligned_.size());
  }
  [[nodiscard]] std::uint64_t fsblksize() const { return fsblksize_; }

  // Block-aligned chunk size of local task `t`.
  [[nodiscard]] std::uint64_t chunksize(int t) const {
    return aligned_[static_cast<std::size_t>(t)];
  }

  // First byte of the data region (block 0), on an fs-block boundary.
  [[nodiscard]] std::uint64_t data_start() const { return data_start_; }

  // Bytes spanned by one block (sum of aligned chunk sizes).
  [[nodiscard]] std::uint64_t block_span() const { return block_span_; }

  // Start offset of task `t`'s chunk within any block.
  [[nodiscard]] std::uint64_t chunk_offset_in_block(int t) const {
    return prefix_[static_cast<std::size_t>(t)];
  }

  // Every task's chunk offset within a block, and every aligned chunk size.
  [[nodiscard]] const std::vector<std::uint64_t>& chunk_offsets() const {
    return prefix_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& chunksizes() const {
    return aligned_;
  }

  // Absolute offset of task `t`'s chunk in block `b`.
  [[nodiscard]] std::uint64_t chunk_start(int t, std::uint64_t b) const {
    return data_start_ + b * block_span_ + chunk_offset_in_block(t);
  }

  // Where metablock 2 lives once `nblocks` blocks exist.
  [[nodiscard]] std::uint64_t meta2_offset(std::uint64_t nblocks) const {
    return data_start_ + nblocks * block_span_;
  }

 private:
  std::uint64_t fsblksize_ = 0;
  std::uint64_t data_start_ = 0;
  std::uint64_t block_span_ = 0;
  std::vector<std::uint64_t> aligned_;
  std::vector<std::uint64_t> prefix_;
};

}  // namespace sion::core
