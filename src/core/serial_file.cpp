#include "core/serial_file.h"

#include <algorithm>

#include "common/log.h"
#include "common/strings.h"
#include "common/units.h"
#include "fs/path.h"

namespace sion::core {

// ---------------------------------------------------------------------------
// open for writing
// ---------------------------------------------------------------------------

Result<std::unique_ptr<SionSerialFile>> SionSerialFile::open_write(
    fs::FileSystem& fs, const SerialWriteSpec& spec) {
  const int nranks = static_cast<int>(spec.chunksizes.size());
  if (nranks == 0) return InvalidArgument("chunksizes must not be empty");
  SION_ASSIGN_OR_RETURN(
      const FileMap map,
      FileMap::make(spec.mapping, nranks, spec.nfiles,
                    spec.custom_file_of_rank));

  std::uint64_t fsblksize = spec.fsblksize;
  if (fsblksize == 0) {
    SION_ASSIGN_OR_RETURN(fsblksize,
                          fs.block_size(fs::parent(spec.filename)));
  }
  if (!is_power_of_two(fsblksize)) {
    return InvalidArgument("file-system block size must be a power of two");
  }

  auto out = std::unique_ptr<SionSerialFile>(new SionSerialFile());
  out->fs_ = &fs;
  out->writable_ = true;
  out->locations_.nranks = nranks;
  out->locations_.nfiles = map.nfiles();
  out->locations_.fsblksize = fsblksize;
  out->locations_.chunk_frames = spec.chunk_frames;
  out->locations_.chunksizes = spec.chunksizes;
  out->locations_.bytes_written.assign(
      static_cast<std::size_t>(nranks), std::vector<std::uint64_t>{0});
  out->locations_.file_of_rank.resize(static_cast<std::size_t>(nranks));
  out->local_index_.resize(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    out->locations_.file_of_rank[static_cast<std::size_t>(r)] = map.file_of(r);
    out->local_index_[static_cast<std::size_t>(r)] = map.local_index(r);
  }

  for (int f = 0; f < map.nfiles(); ++f) {
    FileHeader header;
    header.flags = spec.chunk_frames ? kFlagChunkFrames : 0;
    header.fsblksize = fsblksize;
    header.ntasks = static_cast<std::uint32_t>(map.tasks_in_file(f));
    header.nfiles = static_cast<std::uint32_t>(map.nfiles());
    header.filenum = static_cast<std::uint32_t>(f);
    for (int r = 0; r < nranks; ++r) {
      if (map.file_of(r) == f) {
        header.global_ranks.push_back(static_cast<std::uint64_t>(r));
        header.chunksizes_req.push_back(
            spec.chunksizes[static_cast<std::size_t>(r)]);
      }
    }
    const std::string path =
        physical_file_name(spec.filename, f, map.nfiles());
    SION_ASSIGN_OR_RETURN(CreatedFile created,
                          create_physical_file(fs, path, header));
    out->locations_.physical_paths.push_back(path);
    out->physical_.push_back(PhysicalFile{path, std::move(created.file),
                                          std::move(header),
                                          std::move(created.layout)});
  }

  if (spec.chunk_frames) {
    for (int r = 0; r < nranks; ++r) {
      SION_RETURN_IF_ERROR(out->write_frame(r, 0));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// open for reading
// ---------------------------------------------------------------------------

Result<std::unique_ptr<SionSerialFile>> SionSerialFile::open_existing(
    fs::FileSystem& fs, const std::string& name, int pinned_rank) {
  auto out = std::unique_ptr<SionSerialFile>(new SionSerialFile());
  out->fs_ = &fs;
  out->writable_ = false;
  out->pinned_rank_ = pinned_rank;

  SION_ASSIGN_OR_RETURN(FirstFile first, open_first_file(fs, name));
  const int nfiles = static_cast<int>(first.header.nfiles);
  out->locations_.nfiles = nfiles;
  out->locations_.fsblksize = first.header.fsblksize;
  out->locations_.chunk_frames =
      (first.header.flags & kFlagChunkFrames) != 0;

  // First pass: parse every physical file's metadata and count the logical
  // files.
  std::uint64_t nranks = 0;
  std::vector<FileHeader> headers;
  std::vector<std::unique_ptr<fs::File>> files;
  std::vector<FileMeta2> meta2s;
  for (int f = 0; f < nfiles; ++f) {
    std::unique_ptr<fs::File> file;
    FileHeader header;
    if (f == 0) {
      file = std::move(first.file);
      header = std::move(first.header);
    } else {
      SION_ASSIGN_OR_RETURN(file,
                            fs.open_read(physical_file_name(name, f, nfiles)));
      SION_ASSIGN_OR_RETURN(header, read_header(*file));
    }
    SION_ASSIGN_OR_RETURN(FileMeta2 meta2, read_meta2(*file, header));
    if (meta2.bytes_written.size() != header.ntasks) {
      return Corrupt("metablock 2 task count mismatch");
    }
    nranks += header.ntasks;
    headers.push_back(std::move(header));
    files.push_back(std::move(file));
    meta2s.push_back(std::move(meta2));
  }
  // Global ranks index every per-rank array below, so each must lie inside
  // the set before anything is sized or written by it. With duplicates
  // rejected in the second pass, the set then holds every rank exactly once.
  for (const FileHeader& header : headers) {
    for (const std::uint64_t r : header.global_ranks) {
      if (r >= nranks) {
        return Corrupt(strformat(
            "rank %llu out of range: the multifile set holds %llu logical "
            "files",
            static_cast<unsigned long long>(r),
            static_cast<unsigned long long>(nranks)));
      }
    }
  }

  out->locations_.nranks = static_cast<int>(nranks);
  out->locations_.chunksizes.assign(nranks, 0);
  out->locations_.bytes_written.assign(nranks, {});
  out->locations_.file_of_rank.assign(nranks, -1);
  out->local_index_.assign(nranks, -1);

  for (int f = 0; f < nfiles; ++f) {
    FileHeader& header = headers[static_cast<std::size_t>(f)];
    SION_ASSIGN_OR_RETURN(FileLayout layout, layout_of(header));
    for (std::uint32_t slot = 0; slot < header.ntasks; ++slot) {
      const std::uint64_t r = header.global_ranks[slot];
      if (out->locations_.file_of_rank[r] != -1) {
        return Corrupt(strformat("rank %llu appears in two physical files",
                                 static_cast<unsigned long long>(r)));
      }
      out->locations_.file_of_rank[r] = f;
      out->local_index_[r] = static_cast<int>(slot);
      out->locations_.chunksizes[r] = header.chunksizes_req[slot];
      out->locations_.bytes_written[r] =
          meta2s[static_cast<std::size_t>(f)].bytes_written[slot];
      if (out->locations_.bytes_written[r].empty()) {
        out->locations_.bytes_written[r].assign(1, 0);
      }
    }
    const std::string path = physical_file_name(name, f, nfiles);
    out->locations_.physical_paths.push_back(path);
    out->physical_.push_back(PhysicalFile{
        path, std::move(files[static_cast<std::size_t>(f)]),
        std::move(header), std::move(layout)});
  }

  if (pinned_rank >= 0) {
    if (pinned_rank >= static_cast<int>(nranks)) {
      return InvalidArgument(
          strformat("rank %d out of range [0, %d)", pinned_rank,
                    static_cast<int>(nranks)));
    }
    out->rank_ = pinned_rank;
  }
  return out;
}

Result<std::unique_ptr<SionSerialFile>> SionSerialFile::open_read(
    fs::FileSystem& fs, const std::string& name) {
  return open_existing(fs, name, /*pinned_rank=*/-1);
}

Result<std::unique_ptr<SionSerialFile>> SionSerialFile::open_rank(
    fs::FileSystem& fs, const std::string& name, int rank) {
  if (rank < 0) return InvalidArgument("rank must be non-negative");
  return open_existing(fs, name, rank);
}

SionSerialFile::~SionSerialFile() {
  if (!closed_ && writable_) {
    SION_LOG_WARN << "serial SION file destroyed without close; "
                     "metablock 2 was not written";
  }
}

// ---------------------------------------------------------------------------
// geometry helpers
// ---------------------------------------------------------------------------

std::uint64_t SionSerialFile::capacity(int rank) const {
  const std::uint64_t aligned =
      round_up(locations_.chunksizes[static_cast<std::size_t>(rank)],
               locations_.fsblksize);
  return aligned - (locations_.chunk_frames ? kChunkFrameSize : 0);
}

std::uint64_t SionSerialFile::chunk_file_offset(int rank,
                                                std::uint64_t block) const {
  const auto& pf = physical_[static_cast<std::size_t>(
      locations_.file_of_rank[static_cast<std::size_t>(rank)])];
  const int local = local_index_[static_cast<std::size_t>(rank)];
  return pf.layout.chunk_start(local, block) +
         (locations_.chunk_frames ? kChunkFrameSize : 0);
}

fs::File& SionSerialFile::file_of(int rank) const {
  return *physical_[static_cast<std::size_t>(
                        locations_.file_of_rank[static_cast<std::size_t>(rank)])]
              .file;
}

ChunkFrame SionSerialFile::frame(int rank, std::uint64_t block,
                                 std::uint64_t bytes_written) const {
  return ChunkFrame{
      static_cast<std::uint32_t>(rank),
      static_cast<std::uint32_t>(local_index_[static_cast<std::size_t>(rank)]),
      block, bytes_written};
}

Status SionSerialFile::write_frame(int rank, std::uint64_t block) {
  return frame(rank, block, 0).write(
      file_of(rank), chunk_file_offset(rank, block) - kChunkFrameSize);
}

Status SionSerialFile::patch_frame(int rank, std::uint64_t block) {
  const std::uint64_t bytes =
      locations_.bytes_written[static_cast<std::size_t>(rank)][block];
  return frame(rank, block, bytes).patch_bytes_written(
      file_of(rank), chunk_file_offset(rank, block) - kChunkFrameSize);
}

// ---------------------------------------------------------------------------
// navigation
// ---------------------------------------------------------------------------

Status SionSerialFile::seek(int rank, std::uint64_t block, std::uint64_t pos) {
  if (rank < 0 || rank >= locations_.nranks) {
    return InvalidArgument(strformat("rank %d out of range", rank));
  }
  if (pinned_rank_ >= 0 && rank != pinned_rank_) {
    return InvalidArgument(
        strformat("task-local view is pinned to rank %d", pinned_rank_));
  }
  auto& chunks = locations_.bytes_written[static_cast<std::size_t>(rank)];
  if (writable_) {
    if (pos > capacity(rank)) {
      return OutOfRange("seek position beyond chunk capacity");
    }
    if (block >= chunks.size()) {
      const std::uint64_t old_blocks = chunks.size();
      chunks.resize(block + 1, 0);
      if (locations_.chunk_frames) {
        for (std::uint64_t b = old_blocks; b <= block; ++b) {
          SION_RETURN_IF_ERROR(write_frame(rank, b));
        }
      }
    }
  } else {
    if (block >= chunks.size()) return OutOfRange("seek beyond last chunk");
    if (pos > chunks[block]) {
      return OutOfRange("seek position beyond data in chunk");
    }
  }
  rank_ = rank;
  block_ = block;
  pos_ = pos;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// write path
// ---------------------------------------------------------------------------

Status SionSerialFile::advance_chunk_write() {
  auto& chunks = locations_.bytes_written[static_cast<std::size_t>(rank_)];
  if (locations_.chunk_frames) SION_RETURN_IF_ERROR(patch_frame(rank_, block_));
  ++block_;
  pos_ = 0;
  if (block_ >= chunks.size()) {
    chunks.resize(block_ + 1, 0);
    if (locations_.chunk_frames) {
      SION_RETURN_IF_ERROR(write_frame(rank_, block_));
    }
  }
  return Status::Ok();
}

Status SionSerialFile::ensure_free_space(std::uint64_t nbytes) {
  if (!writable_) return FailedPrecondition("file opened for reading");
  if (closed_) return FailedPrecondition("file already closed");
  if (nbytes > capacity(rank_)) {
    return InvalidArgument("request exceeds chunk capacity; use write()");
  }
  if (pos_ + nbytes > capacity(rank_)) {
    SION_RETURN_IF_ERROR(advance_chunk_write());
  }
  return Status::Ok();
}

Result<std::uint64_t> SionSerialFile::write_raw(fs::DataView data) {
  if (!writable_) return FailedPrecondition("file opened for reading");
  if (closed_) return FailedPrecondition("file already closed");
  if (data.size() > capacity(rank_) - pos_) {
    return OutOfRange("write does not fit; call ensure_free_space");
  }
  SION_ASSIGN_OR_RETURN(
      const std::uint64_t n,
      file_of(rank_).pwrite(data, chunk_file_offset(rank_, block_) + pos_));
  pos_ += n;
  auto& chunks = locations_.bytes_written[static_cast<std::size_t>(rank_)];
  chunks[block_] = std::max(chunks[block_], pos_);
  if (locations_.chunk_frames) {
    SION_RETURN_IF_ERROR(patch_frame(rank_, block_));
  }
  return n;
}

Result<std::uint64_t> SionSerialFile::write(fs::DataView data) {
  if (!writable_) return FailedPrecondition("file opened for reading");
  if (closed_) return FailedPrecondition("file already closed");
  std::uint64_t done = 0;
  while (done < data.size()) {
    if (pos_ == capacity(rank_)) SION_RETURN_IF_ERROR(advance_chunk_write());
    const std::uint64_t take =
        std::min(capacity(rank_) - pos_, data.size() - done);
    SION_ASSIGN_OR_RETURN(
        const std::uint64_t n,
        file_of(rank_).pwrite(data.subview(done, take),
                              chunk_file_offset(rank_, block_) + pos_));
    pos_ += n;
    auto& chunks = locations_.bytes_written[static_cast<std::size_t>(rank_)];
    chunks[block_] = std::max(chunks[block_], pos_);
    done += n;
    if (locations_.chunk_frames) {
      SION_RETURN_IF_ERROR(patch_frame(rank_, block_));
    }
  }
  return done;
}

// ---------------------------------------------------------------------------
// read path
// ---------------------------------------------------------------------------

bool SionSerialFile::eof() const {
  const auto& chunks =
      locations_.bytes_written[static_cast<std::size_t>(rank_)];
  std::uint64_t b = block_;
  std::uint64_t p = pos_;
  while (b < chunks.size()) {
    if (p < chunks[b]) return false;
    ++b;
    p = 0;
  }
  return true;
}

std::uint64_t SionSerialFile::bytes_avail_in_chunk() const {
  const auto& chunks =
      locations_.bytes_written[static_cast<std::size_t>(rank_)];
  if (block_ >= chunks.size()) return 0;
  return chunks[block_] - pos_;
}

Result<std::uint64_t> SionSerialFile::read_raw(std::span<std::byte> out) {
  if (writable_) return FailedPrecondition("file opened for writing");
  const std::uint64_t want =
      std::min<std::uint64_t>(out.size(), bytes_avail_in_chunk());
  if (want == 0) return static_cast<std::uint64_t>(0);
  SION_ASSIGN_OR_RETURN(
      const std::uint64_t n,
      file_of(rank_).pread(out.subspan(0, want),
                           chunk_file_offset(rank_, block_) + pos_));
  pos_ += n;
  return n;
}

Result<std::uint64_t> SionSerialFile::read(std::span<std::byte> out) {
  if (writable_) return FailedPrecondition("file opened for writing");
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

// ---------------------------------------------------------------------------
// positioned logical-stream access
// ---------------------------------------------------------------------------

std::uint64_t SionSerialFile::logical_bytes(int rank) const {
  if (rank < 0 || rank >= locations_.nranks) return 0;
  std::uint64_t total = 0;
  for (const std::uint64_t b :
       locations_.bytes_written[static_cast<std::size_t>(rank)]) {
    total += b;
  }
  return total;
}

Result<std::uint64_t> SionSerialFile::read_at(int rank, std::uint64_t offset,
                                              std::span<std::byte> out) {
  if (writable_) return FailedPrecondition("file opened for writing");
  if (closed_) return FailedPrecondition("file already closed");
  if (rank < 0 || rank >= locations_.nranks) {
    return InvalidArgument(strformat("rank %d out of range", rank));
  }
  if (pinned_rank_ >= 0 && rank != pinned_rank_) {
    return InvalidArgument(
        strformat("task-local view is pinned to rank %d", pinned_rank_));
  }
  const auto& chunks = locations_.bytes_written[static_cast<std::size_t>(rank)];
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
        file_of(rank).pread(out.subspan(done, take),
                            chunk_file_offset(rank, b) + skip));
    if (n < take) return Corrupt("short read inside a recorded chunk");
    done += n;
    skip = 0;
  }
  return done;
}

Result<std::vector<std::byte>> SionSerialFile::read_logical(int rank) {
  const std::uint64_t total = logical_bytes(rank);
  std::vector<std::byte> out(static_cast<std::size_t>(total));
  SION_ASSIGN_OR_RETURN(const std::uint64_t got, read_at(rank, 0, out));
  if (got != total) {
    return Corrupt(strformat("logical stream of rank %d delivered %llu of "
                             "%llu recorded bytes",
                             rank, static_cast<unsigned long long>(got),
                             static_cast<unsigned long long>(total)));
  }
  return out;
}

// ---------------------------------------------------------------------------
// close
// ---------------------------------------------------------------------------

Status SionSerialFile::close() {
  if (closed_) return FailedPrecondition("file already closed");
  if (writable_) {
    for (auto& pf : physical_) {
      FileMeta2 meta2;
      for (std::uint32_t slot = 0; slot < pf.header.ntasks; ++slot) {
        const std::uint64_t r = pf.header.global_ranks[slot];
        meta2.bytes_written.push_back(locations_.bytes_written[r]);
        if (locations_.chunk_frames) {
          for (std::uint64_t b = 0; b < locations_.bytes_written[r].size();
               ++b) {
            SION_RETURN_IF_ERROR(
                patch_frame(static_cast<int>(r), b));
          }
        }
      }
      SION_RETURN_IF_ERROR(write_meta2_and_trailer(
          *pf.file, pf.layout.data_start(), pf.layout.block_span(), meta2));
    }
  }
  for (auto& pf : physical_) pf.file.reset();
  closed_ = true;
  return Status::Ok();
}

}  // namespace sion::core
