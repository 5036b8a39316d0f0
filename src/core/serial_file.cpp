#include "core/serial_file.h"

#include <numeric>

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

  for (int r = 0; r < nranks; ++r) {
    SION_RETURN_IF_ERROR(out->stream_of(r).write_frame(0));
  }
  out->ChunkStream::operator=(out->stream_of(0));
  return out;
}

// ---------------------------------------------------------------------------
// open for reading
// ---------------------------------------------------------------------------

Result<std::unique_ptr<SionSerialFile>> SionSerialFile::open_existing(
    fs::FileSystem& fs, const std::string& name, int pinned_rank) {
  auto out = std::unique_ptr<SionSerialFile>(new SionSerialFile());
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
  out->ChunkStream::operator=(out->stream_of(out->rank_));
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
  if (file_ != nullptr && writable_) {
    SION_LOG_WARN << "serial SION file destroyed without close; "
                     "metablock 2 was not written";
  }
}

// ---------------------------------------------------------------------------
// streams
// ---------------------------------------------------------------------------

Status SionSerialFile::check_rank(int rank) const {
  if (rank < 0 || rank >= locations_.nranks) {
    return InvalidArgument(strformat("rank %d out of range", rank));
  }
  if (pinned_rank_ >= 0 && rank != pinned_rank_) {
    return InvalidArgument(
        strformat("task-local view is pinned to rank %d", pinned_rank_));
  }
  return Status::Ok();
}

ChunkStream SionSerialFile::stream_of(int rank) {
  const auto r = static_cast<std::size_t>(rank);
  const PhysicalFile& pf = physical_[static_cast<std::size_t>(
      locations_.file_of_rank[r])];
  const int local = local_index_[r];
  return ChunkStream(pf.file.get(), &locations_.bytes_written[r],
                     pf.layout.chunk_start(local, 0), pf.layout.block_span(),
                     pf.layout.chunksize(local), writable_,
                     locations_.chunk_frames, static_cast<std::uint32_t>(rank),
                     static_cast<std::uint32_t>(local));
}

Status SionSerialFile::seek(int rank, std::uint64_t block, std::uint64_t pos) {
  SION_RETURN_IF_ERROR(check_rank(rank));
  ChunkStream stream = stream_of(rank);
  SION_RETURN_IF_ERROR(stream.seek(block, pos));
  rank_ = rank;
  ChunkStream::operator=(stream);
  return Status::Ok();
}

std::uint64_t SionSerialFile::logical_bytes(int rank) const {
  if (rank < 0 || rank >= locations_.nranks) return 0;
  const auto& chunks = locations_.bytes_written[static_cast<std::size_t>(rank)];
  return std::accumulate(chunks.begin(), chunks.end(), std::uint64_t{0});
}

Result<std::uint64_t> SionSerialFile::read_at(int rank, std::uint64_t offset,
                                              std::span<std::byte> out) {
  SION_RETURN_IF_ERROR(check_rank(rank));
  return stream_of(rank).read_at(offset, out);
}

Result<std::vector<std::byte>> SionSerialFile::read_logical(int rank) {
  SION_RETURN_IF_ERROR(check_rank(rank));
  return stream_of(rank).read_remaining();
}

// ---------------------------------------------------------------------------
// close
// ---------------------------------------------------------------------------

Status SionSerialFile::close() {
  if (file_ == nullptr) return FailedPrecondition("file already closed");
  if (writable_) {
    for (auto& pf : physical_) {
      FileMeta2 meta2;
      for (std::uint32_t slot = 0; slot < pf.header.ntasks; ++slot) {
        const std::uint64_t r = pf.header.global_ranks[slot];
        meta2.bytes_written.push_back(locations_.bytes_written[r]);
        SION_RETURN_IF_ERROR(stream_of(static_cast<int>(r)).patch_frames());
      }
      SION_RETURN_IF_ERROR(write_meta2_and_trailer(
          *pf.file, pf.layout.data_start(), pf.layout.block_span(), meta2));
    }
  }
  for (auto& pf : physical_) pf.file.reset();
  ChunkStream::operator=(stream_of(rank_));  // no file: closed
  return Status::Ok();
}

}  // namespace sion::core
