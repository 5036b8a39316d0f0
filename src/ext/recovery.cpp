#include "ext/recovery.h"

#include <algorithm>
#include <vector>

#include "common/strings.h"
#include "common/units.h"
#include "core/api.h"
#include "ext/buddy.h"
#include "ext/ecc.h"

namespace sion::ext {

namespace {

// Rebuild one physical file's metablock 2 from its chunk frames.
Result<bool> repair_one(fs::FileSystem& fs, const std::string& path,
                        std::uint64_t* chunks_recovered) {
  SION_ASSIGN_OR_RETURN(auto file, fs.open_rw(path));
  SION_ASSIGN_OR_RETURN(const core::FileHeader header,
                        core::read_header(*file));
  if (header.meta2_offset != 0) {
    // Already closed cleanly; verify metablock 2 parses and leave it alone.
    auto meta2 = core::read_meta2(*file, header);
    if (meta2.ok()) return false;
  }
  if ((header.flags & core::kFlagChunkFrames) == 0) {
    return FailedPrecondition(
        strformat("'%s' was written without chunk frames; metablock 2 "
                  "cannot be reconstructed",
                  path.c_str()));
  }

  SION_ASSIGN_OR_RETURN(const core::FileLayout layout,
                        core::layout_of(header));
  SION_ASSIGN_OR_RETURN(const fs::FileStat st, file->stat());
  // Frames are written when a chunk is entered, so the last block of any
  // task is bounded by how far the file extends.
  const std::uint64_t data_bytes =
      st.size > layout.data_start() ? st.size - layout.data_start() : 0;
  const std::uint64_t max_blocks =
      std::max<std::uint64_t>(1, ceil_div(data_bytes, layout.block_span()));

  core::FileMeta2 meta2;
  meta2.bytes_written.resize(header.ntasks);
  std::vector<std::byte> frame_buf(core::kChunkFrameSize);
  for (std::uint32_t t = 0; t < header.ntasks; ++t) {
    auto& chunks = meta2.bytes_written[t];
    // The write path rejects chunks that cannot hold a frame, so a smaller
    // aligned chunk here means the header itself is damaged — and the
    // subtraction below would underflow, neutering the capacity check.
    const std::uint64_t aligned_chunk = layout.chunksize(static_cast<int>(t));
    if (aligned_chunk <= core::kChunkFrameSize) {
      return Corrupt(strformat(
          "task %u's chunk (%llu bytes) cannot hold a recovery frame; "
          "metablock 1 of '%s' is corrupted",
          t, static_cast<unsigned long long>(aligned_chunk), path.c_str()));
    }
    const std::uint64_t usable = aligned_chunk - core::kChunkFrameSize;
    // A damaged frame alone could simply mean the task never entered that
    // block; the whole grid is scanned so a valid frame *after* the damage
    // proves the chain was broken — truncating there would silently drop
    // the later chunks' data.
    bool chain_broken = false;
    for (std::uint64_t b = 0; b < max_blocks; ++b) {
      const std::uint64_t frame_off = layout.chunk_start(static_cast<int>(t), b);
      if (frame_off + core::kChunkFrameSize > st.size) break;
      SION_ASSIGN_OR_RETURN(const std::uint64_t got,
                            file->pread(frame_buf, frame_off));
      if (got < core::kChunkFrameSize) break;
      auto frame = core::ChunkFrame::parse(frame_buf);
      if (!frame.ok()) {
        chain_broken = true;  // damaged, or simply never entered
        continue;
      }
      if (chain_broken) {
        return Corrupt(strformat(
            "task %u has a valid frame at block %llu after a damaged or "
            "missing one; refusing a silent partial restore of '%s'",
            t, static_cast<unsigned long long>(b), path.c_str()));
      }
      if (frame.value().lrank != t || frame.value().block != b) {
        return Corrupt(strformat(
            "frame at task %u block %llu describes task %u block %llu "
            "(corrupted multifile)",
            t, static_cast<unsigned long long>(b), frame.value().lrank,
            static_cast<unsigned long long>(frame.value().block)));
      }
      if (frame.value().bytes_written > usable) {
        return Corrupt(strformat(
            "frame at task %u block %llu claims %llu payload bytes but the "
            "chunk holds at most %llu",
            t, static_cast<unsigned long long>(b),
            static_cast<unsigned long long>(frame.value().bytes_written),
            static_cast<unsigned long long>(usable)));
      }
      if (frame_off + core::kChunkFrameSize + frame.value().bytes_written >
          st.size) {
        return Corrupt(strformat(
            "chunk payload of task %u block %llu extends past the end of "
            "'%s' (truncated multifile)",
            t, static_cast<unsigned long long>(b), path.c_str()));
      }
      chunks.push_back(frame.value().bytes_written);
      ++*chunks_recovered;
    }
    if (chunks.empty()) chunks.push_back(0);
  }

  SION_RETURN_IF_ERROR(core::write_meta2_and_trailer(
      *file, layout.data_start(), layout.block_span(), meta2));
  return true;
}

// Light probe of a whole multifile set rooted at `base`: file 0's header
// gives the file count, then every physical file must be usable.
bool multifile_ok(fs::FileSystem& fs, const std::string& base) {
  auto first = core::open_first_file(fs, base);
  if (!first.ok()) return false;
  const int nfiles = static_cast<int>(first.value().header.nfiles);
  first.value().file.reset();
  for (int f = 0; f < nfiles; ++f) {
    if (!core::physical_file_usable(
            fs, core::physical_file_name(base, f, nfiles))) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result<RepairReport> repair_multifile(fs::FileSystem& fs,
                                      const std::string& name) {
  SION_ASSIGN_OR_RETURN(core::FirstFile first,
                        core::open_first_file(fs, name));
  first.file.reset();
  const int nfiles = static_cast<int>(first.header.nfiles);

  RepairReport report;
  report.physical_files = nfiles;
  for (int f = 0; f < nfiles; ++f) {
    const std::string path = core::physical_file_name(name, f, nfiles);
    SION_ASSIGN_OR_RETURN(const bool repaired,
                          repair_one(fs, path, &report.chunks_recovered));
    if (repaired) {
      ++report.repaired_files;
    } else {
      ++report.intact_files;
    }
  }
  return report;
}

bool ProtectionSet::heal_available() const {
  if (!intact_replica_sets.empty()) return true;
  // ECC reconstruction needs any k of the k + m files; the light probe's
  // intact counts give the survivor total.
  return parity_intact > 0 && ecc_k > 0 &&
         data_intact + parity_intact >= ecc_k;
}

std::string ProtectionSet::to_string() const {
  if (empty()) return "no protection companions";
  std::string s;
  if (!replica_sets.empty()) {
    s = strformat("%d buddy replica set(s), %d intact",
                  static_cast<int>(replica_sets.size()),
                  static_cast<int>(intact_replica_sets.size()));
  }
  if (parity_found > 0) {
    if (!s.empty()) s += "; ";
    s += strformat(
        "%d ECC parity file(s), %d intact (k=%d, m=%d, %d of %d data "
        "files intact)",
        parity_found, parity_intact, ecc_k, ecc_m, data_intact, ecc_k);
  }
  return s;
}

Result<ProtectionSet> discover_protection(fs::FileSystem& fs,
                                          const std::string& name) {
  ProtectionSet set;
  for (int k = 1;; ++k) {
    const std::string base = Buddy::replica_name(name, k);
    if (!fs.exists(base) &&
        !fs.exists(core::physical_file_name(base, 0, 2))) {
      break;
    }
    set.replica_sets.push_back(k);
    if (multifile_ok(fs, base)) set.intact_replica_sets.push_back(k);
  }
  for (int j = 0;; ++j) {
    const std::string path = Ecc::parity_name(name, j);
    if (!fs.exists(path)) break;
    ++set.parity_found;
    auto info = Ecc::inspect_parity(fs, path);
    if (!info.ok()) continue;  // present but not even a parseable header
    if (set.ecc_k == 0) {
      set.ecc_k = info.value().k;
      set.ecc_m = info.value().m;
    }
    if (info.value().intact) ++set.parity_intact;
  }
  if (set.ecc_k > 0) {
    for (int d = 0; d < set.ecc_k; ++d) {
      if (core::physical_file_usable(
              fs, core::physical_file_name(name, d, set.ecc_k))) {
        ++set.data_intact;
      }
    }
  }
  return set;
}

void StreamLossReport::merge(const StreamLossReport& other) {
  frames_decoded += other.frames_decoded;
  frames_skipped += other.frames_skipped;
  bytes_zero_filled += other.bytes_zero_filled;
  bytes_discarded += other.bytes_discarded;
}

std::string StreamLossReport::to_string() const {
  return strformat(
      "%llu frames decoded, %llu skipped (%s zero-filled, %s discarded)",
      static_cast<unsigned long long>(frames_decoded),
      static_cast<unsigned long long>(frames_skipped),
      format_bytes(bytes_zero_filled).c_str(),
      format_bytes(bytes_discarded).c_str());
}

}  // namespace sion::ext
