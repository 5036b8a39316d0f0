#include "core/layout.h"

#include "common/units.h"

namespace sion::core {

Result<FileLayout> FileLayout::create(
    std::uint64_t fsblksize, std::vector<std::uint64_t> chunksizes_req,
    std::uint64_t meta1_bytes) {
  if (fsblksize == 0) return InvalidArgument("fsblksize must be positive");
  if (chunksizes_req.empty()) {
    return InvalidArgument("a SION file needs at least one task");
  }
  FileLayout layout;
  layout.fsblksize_ = fsblksize;
  layout.aligned_.reserve(chunksizes_req.size());
  layout.prefix_.reserve(chunksizes_req.size());
  std::uint64_t running = 0;
  for (const std::uint64_t req : chunksizes_req) {
    if (req == 0) return InvalidArgument("chunk size must be positive");
    // "not to waste any space without necessity, the chunk size is chosen to
    // be a multiple of the file-system block size" (paper 3.1).
    const std::uint64_t aligned = round_up(req, fsblksize);
    if (aligned < req || running + aligned < running) {
      return InvalidArgument("chunk sizes overflow a 64-bit file offset");
    }
    layout.aligned_.push_back(aligned);
    layout.prefix_.push_back(running);
    running += aligned;
  }
  layout.block_span_ = running;
  layout.data_start_ = round_up(meta1_bytes, fsblksize);
  return layout;
}

}  // namespace sion::core
