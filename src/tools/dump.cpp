#include "tools/dump.h"

#include "common/strings.h"
#include "common/units.h"
#include "core/api.h"

namespace sion::tools {

Result<std::string> dump_multifile(fs::FileSystem& fs, const std::string& name,
                                   const DumpOptions& options) {
  SION_ASSIGN_OR_RETURN(auto sion, core::SionSerialFile::open_read(fs, name));
  const auto& loc = sion->locations();

  std::string out;
  out += strformat("multifile:        %s\n", name.c_str());
  out += strformat("physical files:   %d\n", loc.nfiles);
  out += strformat("logical files:    %d\n", loc.nranks);
  out += strformat("fs block size:    %s\n",
                   format_bytes(loc.fsblksize).c_str());
  out += strformat("chunk frames:     %s\n", loc.chunk_frames ? "yes" : "no");
  for (int f = 0; f < loc.nfiles; ++f) {
    SION_ASSIGN_OR_RETURN(
        const fs::FileStat st,
        fs.stat_path(loc.physical_paths[static_cast<std::size_t>(f)]));
    int tasks = 0;
    for (int r = 0; r < loc.nranks; ++r) {
      if (loc.file_of_rank[static_cast<std::size_t>(r)] == f) ++tasks;
    }
    out += strformat("  file %2d: %s  size=%s allocated=%s tasks=%d\n", f,
                     loc.physical_paths[static_cast<std::size_t>(f)].c_str(),
                     format_bytes(st.size).c_str(),
                     format_bytes(st.allocated).c_str(), tasks);
  }

  std::uint64_t total_payload = 0;
  std::uint64_t max_blocks = 0;
  for (int r = 0; r < loc.nranks; ++r) {
    const auto& chunks = loc.bytes_written[static_cast<std::size_t>(r)];
    const std::uint64_t rank_total = sion->logical_bytes(r);
    total_payload += rank_total;
    max_blocks = std::max(max_blocks,
                          static_cast<std::uint64_t>(chunks.size()));
    if (options.per_chunk) {
      out += strformat("  rank %6d: file=%d chunksize=%llu blocks=%zu "
                       "payload=%llu\n",
                       r, loc.file_of_rank[static_cast<std::size_t>(r)],
                       static_cast<unsigned long long>(
                           loc.chunksizes[static_cast<std::size_t>(r)]),
                       chunks.size(),
                       static_cast<unsigned long long>(rank_total));
      for (std::size_t b = 0; b < chunks.size(); ++b) {
        out += strformat("    chunk %3zu: %llu bytes\n", b,
                         static_cast<unsigned long long>(chunks[b]));
      }
    }
  }
  out += strformat("blocks (max):     %llu\n",
                   static_cast<unsigned long long>(max_blocks));
  out += strformat("payload total:    %s\n",
                   format_bytes(total_payload).c_str());
  return out;
}

}  // namespace sion::tools
