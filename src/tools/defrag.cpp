#include "tools/defrag.h"

#include <algorithm>
#include <vector>

#include "core/api.h"

namespace sion::tools {

namespace {
constexpr std::uint64_t kCopyBuffer = 1024 * 1024;
}

Status defrag_multifile(fs::FileSystem& fs, const std::string& input,
                        const std::string& output,
                        const DefragOptions& options) {
  SION_ASSIGN_OR_RETURN(auto in, core::SionSerialFile::open_read(fs, input));
  const auto& loc = in->locations();

  // One chunk per task, sized to what the task actually wrote.
  core::SerialWriteSpec spec;
  spec.filename = output;
  spec.nfiles = options.nfiles > 0 ? options.nfiles : loc.nfiles;
  spec.fsblksize = options.fsblksize > 0 ? options.fsblksize : loc.fsblksize;
  spec.chunksizes.reserve(static_cast<std::size_t>(loc.nranks));
  for (int r = 0; r < loc.nranks; ++r) {
    spec.chunksizes.push_back(
        std::max<std::uint64_t>(1, in->logical_bytes(r)));
  }
  SION_ASSIGN_OR_RETURN(auto out, core::SionSerialFile::open_write(fs, spec));

  std::vector<std::byte> buf(kCopyBuffer);
  for (int r = 0; r < loc.nranks; ++r) {
    SION_RETURN_IF_ERROR(in->seek(r, 0, 0));
    SION_RETURN_IF_ERROR(out->seek(r, 0, 0));
    while (!in->eof()) {
      SION_ASSIGN_OR_RETURN(const std::uint64_t n, in->read(buf));
      if (n == 0) break;
      SION_ASSIGN_OR_RETURN(
          const std::uint64_t w,
          out->write(fs::DataView(std::span<const std::byte>(buf.data(), n))));
      (void)w;
    }
  }
  SION_RETURN_IF_ERROR(out->close());
  return in->close();
}

}  // namespace sion::tools
