#include "core/metadata.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <optional>

#include "common/codec.h"
#include "common/strings.h"
#include "common/units.h"

namespace sion::core {

namespace {

// Offset of the bytes_written field inside a chunk frame: it follows the
// magic, the two ranks and the block number.
constexpr std::uint64_t kFrameBytesWrittenOffset = 24;

// The granule in which copy_physical_file looks for all-zero runs.
constexpr std::size_t kZeroRun = 4096;
constexpr std::array<std::byte, kZeroRun> kZeroPage{};

// `piece` as the parts of one gather view, its all-zero kZeroRun-byte runs
// as fills.
void zero_runs_as_fills(std::span<const std::byte> piece,
                        std::vector<fs::DataView>& parts) {
  parts.clear();
  std::size_t run_start = 0;
  bool run_zero = false;
  const auto end_run = [&](std::size_t end) {
    if (end == run_start) return;
    const std::size_t n = end - run_start;
    parts.push_back(run_zero ? fs::DataView::fill(std::byte{0}, n)
                             : fs::DataView(piece.subspan(run_start, n)));
    run_start = end;
  };
  for (std::size_t at = 0; at < piece.size(); at += kZeroRun) {
    const bool zero =
        piece.size() - at >= kZeroRun &&
        std::memcmp(piece.data() + at, kZeroPage.data(), kZeroRun) == 0;
    if (zero != run_zero) {
      end_run(at);
      run_zero = zero;
    }
  }
  end_run(piece.size());
}

}  // namespace

std::vector<std::byte> ChunkFrame::serialize() const {
  ByteWriter w;
  w.put_bytes(std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(kFrameMagic), sizeof(kFrameMagic)));
  w.put_u32(grank);
  w.put_u32(lrank);
  w.put_u64(block);
  w.put_u64(bytes_written);
  w.put_u64(chunk_frame_checksum(grank, lrank, block, bytes_written));
  w.pad_to(kChunkFrameSize);
  return w.take();
}

Status ChunkFrame::write(fs::File& file, std::uint64_t chunk_start) const {
  const std::vector<std::byte> bytes = serialize();
  SION_ASSIGN_OR_RETURN(const std::uint64_t n,
                        file.pwrite(fs::DataView(bytes), chunk_start));
  (void)n;
  return Status::Ok();
}

Status ChunkFrame::patch_bytes_written(fs::File& file,
                                       std::uint64_t chunk_start) const {
  ByteWriter w;
  w.put_u64(bytes_written);
  w.put_u64(chunk_frame_checksum(grank, lrank, block, bytes_written));
  SION_ASSIGN_OR_RETURN(
      const std::uint64_t n,
      file.pwrite(fs::DataView(w.bytes()),
                  chunk_start + kFrameBytesWrittenOffset));
  (void)n;
  return Status::Ok();
}

Result<ChunkFrame> ChunkFrame::parse(std::span<const std::byte> bytes) {
  if (bytes.size() < kChunkFrameSize) return Corrupt("short frame");
  if (std::memcmp(bytes.data(), kFrameMagic, sizeof(kFrameMagic)) != 0) {
    return Corrupt("no frame magic");
  }
  ByteReader r(bytes.subspan(sizeof(kFrameMagic)));
  ChunkFrame f;
  SION_ASSIGN_OR_RETURN(f.grank, r.get_u32());
  SION_ASSIGN_OR_RETURN(f.lrank, r.get_u32());
  SION_ASSIGN_OR_RETURN(f.block, r.get_u64());
  SION_ASSIGN_OR_RETURN(f.bytes_written, r.get_u64());
  SION_ASSIGN_OR_RETURN(const std::uint64_t checksum, r.get_u64());
  if (checksum !=
      chunk_frame_checksum(f.grank, f.lrank, f.block, f.bytes_written)) {
    return Corrupt("frame checksum mismatch (torn or bit-flipped frame)");
  }
  return f;
}

std::vector<std::byte> FileHeader::serialize() const {
  ByteWriter w;
  w.put_bytes(std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(kMagic), sizeof(kMagic)));
  w.put_u32(version);
  w.put_u8(flags);
  w.put_u8(0);
  w.put_u16(0);
  // Trailer fields at fixed offsets 16 and 24 (patched at close).
  w.put_u64(nblocks);
  w.put_u64(meta2_offset);
  w.put_u64(fsblksize);
  w.put_u32(ntasks);
  w.put_u32(nfiles);
  w.put_u32(filenum);
  w.put_u32(0);
  w.put_u64_array(global_ranks);
  w.put_u64_array(chunksizes_req);
  return w.take();
}

Result<FileHeader> FileHeader::parse(std::span<const std::byte> bytes) {
  ByteReader r(bytes);
  SION_ASSIGN_OR_RETURN(auto magic, r.get_bytes(sizeof(kMagic)));
  if (std::memcmp(magic.data(), kMagic, sizeof(kMagic)) != 0) {
    return Corrupt("bad magic: not a SION multifile");
  }
  FileHeader h;
  SION_ASSIGN_OR_RETURN(h.version, r.get_u32());
  if (h.version != kFormatVersion) {
    return Corrupt(strformat("unsupported format version %u", h.version));
  }
  SION_ASSIGN_OR_RETURN(h.flags, r.get_u8());
  SION_RETURN_IF_ERROR(r.skip(3));
  SION_ASSIGN_OR_RETURN(h.nblocks, r.get_u64());
  SION_ASSIGN_OR_RETURN(h.meta2_offset, r.get_u64());
  SION_ASSIGN_OR_RETURN(h.fsblksize, r.get_u64());
  SION_ASSIGN_OR_RETURN(h.ntasks, r.get_u32());
  SION_ASSIGN_OR_RETURN(h.nfiles, r.get_u32());
  SION_ASSIGN_OR_RETURN(h.filenum, r.get_u32());
  SION_RETURN_IF_ERROR(r.skip(4));
  SION_ASSIGN_OR_RETURN(h.global_ranks, r.get_u64_array());
  SION_ASSIGN_OR_RETURN(h.chunksizes_req, r.get_u64_array());
  if (!is_power_of_two(h.fsblksize)) {
    return Corrupt("fsblksize is not a power of two");
  }
  if (h.ntasks == 0) return Corrupt("header lists zero tasks");
  if (h.global_ranks.size() != h.ntasks ||
      h.chunksizes_req.size() != h.ntasks) {
    return Corrupt("per-task arrays do not match task count");
  }
  if (h.filenum >= h.nfiles) return Corrupt("filenum out of range");
  // The openers count physical files in an int.
  if (h.nfiles > static_cast<std::uint32_t>(std::numeric_limits<int>::max())) {
    return Corrupt("file count out of range");
  }
  return h;
}

std::uint64_t FileMeta2::nblocks() const {
  std::uint64_t most = 0;
  for (const auto& per_task : bytes_written) {
    most = std::max(most, static_cast<std::uint64_t>(per_task.size()));
  }
  return most;
}

std::vector<std::byte> FileMeta2::serialize() const {
  ByteWriter w;
  w.put_bytes(std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(kMagic2), sizeof(kMagic2)));
  w.put_u32(static_cast<std::uint32_t>(bytes_written.size()));
  for (const auto& per_task : bytes_written) {
    w.put_u64_array(per_task);
  }
  return w.take();
}

Result<FileMeta2> FileMeta2::parse(std::span<const std::byte> bytes) {
  ByteReader r(bytes);
  SION_ASSIGN_OR_RETURN(auto magic, r.get_bytes(sizeof(kMagic2)));
  if (std::memcmp(magic.data(), kMagic2, sizeof(kMagic2)) != 0) {
    return Corrupt("bad metablock-2 magic");
  }
  SION_ASSIGN_OR_RETURN(const std::uint32_t ntasks, r.get_u32());
  // Every task's array starts with its u64 length, so a count the remaining
  // bytes cannot hold is forged and must not size the reservation.
  if (r.remaining() / sizeof(std::uint64_t) < ntasks) {
    return Corrupt("metablock 2 lists more tasks than it holds");
  }
  FileMeta2 m;
  m.bytes_written.reserve(ntasks);
  for (std::uint32_t t = 0; t < ntasks; ++t) {
    SION_ASSIGN_OR_RETURN(auto per_task, r.get_u64_array());
    m.bytes_written.push_back(std::move(per_task));
  }
  return m;
}

FileMeta2 FileMeta2::from_gather(const par::Comm::FlatGatherU64& all) {
  const std::size_t ntasks = all.offsets.empty() ? 0 : all.offsets.size() - 1;
  FileMeta2 m;
  m.bytes_written.resize(ntasks);
  for (std::size_t t = 0; t < ntasks; ++t) {
    const auto piece = all.of(static_cast<int>(t));
    m.bytes_written[t].assign(piece.begin(), piece.end());
  }
  return m;
}

Result<FileHeader> read_header(fs::File& file) {
  SION_ASSIGN_OR_RETURN(const fs::FileStat st, file.stat());
  // Metablock 1 never exceeds the data_start, which is <= header size
  // rounded up one fs block; reading header-sized prefix plus one block is
  // always enough.
  std::uint64_t want = 64 * 1024;
  for (;;) {
    const std::uint64_t n = std::min<std::uint64_t>(want, st.size);
    std::vector<std::byte> buf(n);
    SION_ASSIGN_OR_RETURN(const std::uint64_t got, file.pread(buf, 0));
    buf.resize(got);
    auto parsed = FileHeader::parse(buf);
    if (parsed.ok()) return parsed;
    if (parsed.status().code() == ErrorCode::kCorrupt && n < st.size &&
        n < (1ULL << 32)) {
      want *= 4;  // header larger than the slice; retry bigger
      continue;
    }
    return parsed;
  }
}

Result<FileMeta2> read_meta2(fs::File& file, const FileHeader& header) {
  if (header.meta2_offset == 0) {
    return FailedPrecondition(
        "metablock 2 missing (file was never closed cleanly); "
        "run sionrepair to reconstruct it");
  }
  SION_ASSIGN_OR_RETURN(const fs::FileStat st, file.stat());
  if (header.meta2_offset >= st.size) {
    return Corrupt("metablock-2 offset beyond end of file");
  }
  // Every chunk a reader may touch must lie between the metablocks: the
  // layout may not wrap round, and nblocks blocks of it must end at or
  // before metablock 2.
  auto layout = layout_of(header);
  if (!layout.ok()) {
    return Corrupt("metablock 1 describes no layout: " +
                   layout.status().message());
  }
  const std::uint64_t data_start = layout.value().data_start();
  if (data_start > header.meta2_offset ||
      header.nblocks >
          (header.meta2_offset - data_start) / layout.value().block_span()) {
    return Corrupt("metablock 1 lists more blocks than fit before metablock 2");
  }
  std::vector<std::byte> buf(st.size - header.meta2_offset);
  SION_ASSIGN_OR_RETURN(const std::uint64_t got,
                        file.pread(buf, header.meta2_offset));
  buf.resize(got);
  SION_ASSIGN_OR_RETURN(FileMeta2 meta2, FileMeta2::parse(buf));
  // Every reader walks a task's chunks by these counts, so they must stay
  // inside the file the trailer describes: one array per task, no more
  // blocks than it lists, no chunk fuller than its capacity.
  if (meta2.bytes_written.size() != header.ntasks) {
    return Corrupt("metablock 2 task count mismatch");
  }
  const std::uint64_t frame =
      (header.flags & kFlagChunkFrames) != 0 ? kChunkFrameSize : 0;
  for (std::uint32_t t = 0; t < header.ntasks; ++t) {
    const std::vector<std::uint64_t>& chunks = meta2.bytes_written[t];
    if (chunks.size() > header.nblocks) {
      return Corrupt(strformat(
          "metablock 2 records %zu blocks for task %u; the file has %llu",
          chunks.size(), t, static_cast<unsigned long long>(header.nblocks)));
    }
    const std::uint64_t aligned =
        layout.value().chunksize(static_cast<int>(t));
    const std::uint64_t capacity = aligned > frame ? aligned - frame : 0;
    for (const std::uint64_t bytes : chunks) {
      if (bytes > capacity) {
        return Corrupt(strformat(
            "metablock 2 records %llu bytes in a chunk of task %u, which "
            "holds %llu",
            static_cast<unsigned long long>(bytes), t,
            static_cast<unsigned long long>(capacity)));
      }
    }
  }
  return meta2;
}

Result<FileLayout> layout_of(const FileHeader& header) {
  return FileLayout::create(header.fsblksize, header.chunksizes_req,
                            header.serialize().size());
}

Status write_meta2_and_trailer(fs::File& file, std::uint64_t data_start,
                               std::uint64_t block_span,
                               const FileMeta2& meta2) {
  const std::uint64_t nblocks = std::max<std::uint64_t>(1, meta2.nblocks());
  const std::uint64_t meta2_offset = data_start + nblocks * block_span;
  const std::vector<std::byte> blob = meta2.serialize();
  SION_ASSIGN_OR_RETURN(std::uint64_t n,
                        file.pwrite(fs::DataView(blob), meta2_offset));
  (void)n;
  ByteWriter trailer;
  trailer.put_u64(nblocks);
  trailer.put_u64(meta2_offset);
  SION_ASSIGN_OR_RETURN(
      n, file.pwrite(fs::DataView(trailer.bytes()), kTrailerNblocksOffset));
  (void)n;
  return Status::Ok();
}

std::string physical_file_name(const std::string& base, int filenum,
                               int nfiles) {
  if (nfiles <= 1) return base;
  return strformat("%s.%06d", base.c_str(), filenum);
}

// ---------------------------------------------------------------------------
// whole-file steps
// ---------------------------------------------------------------------------

Result<CreatedFile> create_physical_file(fs::FileSystem& fs,
                                         const std::string& path,
                                         const FileHeader& header) {
  const std::vector<std::byte> meta1 = header.serialize();
  CreatedFile out;
  SION_ASSIGN_OR_RETURN(out.layout,
                        FileLayout::create(header.fsblksize,
                                           header.chunksizes_req,
                                           meta1.size()));
  SION_ASSIGN_OR_RETURN(out.file, fs.create(path));
  SION_ASSIGN_OR_RETURN(const std::uint64_t n,
                        out.file->pwrite(fs::DataView(meta1), 0));
  (void)n;
  return out;
}

Result<LoadedFile> load_physical_file(fs::FileSystem& fs,
                                      const std::string& path, int ntasks) {
  LoadedFile out;
  SION_ASSIGN_OR_RETURN(out.file, fs.open_read(path));
  SION_ASSIGN_OR_RETURN(out.header, read_header(*out.file));
  if (static_cast<int>(out.header.ntasks) != ntasks) {
    return InvalidArgument(
        strformat("physical file %s holds %u logical files but %d tasks "
                  "opened it",
                  path.c_str(), out.header.ntasks, ntasks));
  }
  SION_ASSIGN_OR_RETURN(const FileMeta2 meta2,
                        read_meta2(*out.file, out.header));
  SION_ASSIGN_OR_RETURN(const FileLayout layout, layout_of(out.header));
  out.data_start = layout.data_start();
  out.block_span = layout.block_span();
  out.chunk_offsets = layout.chunk_offsets();
  out.usage_sizes.resize(out.header.ntasks);
  ByteWriter w;
  for (std::uint32_t t = 0; t < out.header.ntasks; ++t) {
    const std::size_t at = w.size();
    w.put_u64_array(meta2.bytes_written[t]);
    out.usage_sizes[t] = w.size() - at;
  }
  out.usage_flat = w.take();
  return out;
}

Result<FirstFile> open_first_file(fs::FileSystem& fs,
                                  const std::string& name) {
  const std::string path =
      fs.exists(name) ? name : physical_file_name(name, 0, 2);
  FirstFile out;
  SION_ASSIGN_OR_RETURN(out.file, fs.open_read(path));
  SION_ASSIGN_OR_RETURN(out.header, read_header(*out.file));
  return out;
}

Result<MultifileMap> discover_multifile(fs::FileSystem& fs,
                                        const std::string& name,
                                        int ntasks) {
  SION_ASSIGN_OR_RETURN(const FirstFile first, open_first_file(fs, name));
  const int nfiles = static_cast<int>(first.header.nfiles);
  constexpr std::uint64_t kUnclaimed = ~std::uint64_t{0};
  MultifileMap map;
  map.nfiles = static_cast<std::uint64_t>(nfiles);
  map.file_of_rank.assign(static_cast<std::size_t>(ntasks), kUnclaimed);
  std::uint64_t total_tasks = 0;
  std::optional<std::uint64_t> bad_rank;  // the first out of range or repeated
  for (int f = 0; f < nfiles; ++f) {
    FileHeader h = first.header;
    if (f != 0) {
      SION_ASSIGN_OR_RETURN(
          auto file, fs.open_read(physical_file_name(name, f, nfiles)));
      SION_ASSIGN_OR_RETURN(h, read_header(*file));
    }
    total_tasks += h.ntasks;
    for (const std::uint64_t r : h.global_ranks) {
      if (r < static_cast<std::uint64_t>(ntasks) &&
          map.file_of_rank[r] == kUnclaimed) {
        map.file_of_rank[r] = static_cast<std::uint64_t>(f);
      } else if (!bad_rank) {
        bad_rank = r;
      }
    }
  }
  // A set of another size is the caller's mismatch; in a set of the right
  // size, a rank outside it or one that two headers claim is damage.
  if (total_tasks != static_cast<std::uint64_t>(ntasks)) {
    return InvalidArgument(strformat(
        "multifile holds %llu logical files but %d tasks opened it",
        static_cast<unsigned long long>(total_tasks), ntasks));
  }
  if (bad_rank) {
    return Corrupt(strformat(
        "rank %llu is out of range or claimed twice: the multifile set "
        "holds %llu logical files",
        static_cast<unsigned long long>(*bad_rank),
        static_cast<unsigned long long>(total_tasks)));
  }
  return map;
}

bool physical_file_usable(fs::FileSystem& fs, const std::string& path,
                          int nfiles) {
  auto file = fs.open_read(path);
  if (!file.ok()) return false;
  auto header = read_header(*file.value());
  if (!header.ok()) return false;
  if (nfiles > 0 && static_cast<int>(header.value().nfiles) != nfiles) {
    return false;
  }
  return read_meta2(*file.value(), header.value()).ok();
}

Result<std::uint64_t> copy_physical_file(fs::File& src, const FileHeader* meta1,
                                         fs::FileSystem& dst_fs,
                                         const std::string& dst_path,
                                         std::uint64_t buffer_bytes) {
  SION_ASSIGN_OR_RETURN(const fs::FileStat st, src.stat());
  SION_ASSIGN_OR_RETURN(auto dst, dst_fs.create(dst_path));
  std::vector<std::byte> buf(static_cast<std::size_t>(
      std::max<std::uint64_t>(1, std::min(st.size, buffer_bytes))));
  std::vector<fs::DataView> parts;
  std::uint64_t done = 0;
  while (done < st.size) {
    const std::span<std::byte> piece = std::span<std::byte>(buf).first(
        static_cast<std::size_t>(
            std::min<std::uint64_t>(buf.size(), st.size - done)));
    SION_ASSIGN_OR_RETURN(const std::uint64_t got, src.pread(piece, done));
    if (got != piece.size()) {
      return Corrupt(strformat("source of '%s' shrank during the copy "
                               "(short read at %llu)",
                               dst_path.c_str(),
                               static_cast<unsigned long long>(done)));
    }
    zero_runs_as_fills(piece, parts);
    SION_ASSIGN_OR_RETURN(const std::uint64_t put,
                          dst->pwrite(fs::DataView::gather(parts), done));
    if (put != got) {
      return IoError(strformat("short write copying to '%s'",
                               dst_path.c_str()));
    }
    done += got;
  }
  if (meta1 != nullptr) {
    const std::vector<std::byte> bytes = meta1->serialize();
    SION_ASSIGN_OR_RETURN(const std::uint64_t put,
                          dst->pwrite(fs::DataView(bytes), 0));
    if (put != bytes.size()) {
      return IoError(strformat("short header patch on '%s'",
                               dst_path.c_str()));
    }
  }
  return done;
}

}  // namespace sion::core
