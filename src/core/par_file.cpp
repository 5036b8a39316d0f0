#include "core/par_file.h"

#include <bit>

#include "common/codec.h"
#include "common/log.h"
#include "common/strings.h"
#include "common/units.h"
#include "fs/path.h"

namespace sion::core {

namespace {

// Shared wording for the par::share_status* agreement helpers: a failure on
// the file-local master or on another physical file must surface on every
// task (see par/comm.h).
constexpr char kOpenFailed[] =
    "collective SION open/close failed on the file-local master or on "
    "another physical file";

}  // namespace

// ---------------------------------------------------------------------------
// open for writing
// ---------------------------------------------------------------------------

Result<std::unique_ptr<SionParFile>> SionParFile::open_write(
    fs::FileSystem& fs, par::Comm& gcom, const ParOpenSpec& spec) {
  const int grank = gcom.rank();
  const int gsize = gcom.size();
  if (spec.chunksize == 0) {
    return InvalidArgument("chunksize must be positive");
  }
  SION_ASSIGN_OR_RETURN(
      const FileMap map,
      FileMap::make(spec.mapping, gsize, spec.nfiles,
                    spec.custom_file_of_rank));

  auto out = std::unique_ptr<SionParFile>(new SionParFile());
  out->gcom_ = &gcom;
  out->nfiles_ = map.nfiles();
  out->filenum_ = map.file_of(grank);
  out->path_ =
      physical_file_name(spec.filename, out->filenum_, map.nfiles());

  // One local communicator per physical file (paper: gcom -> lcom split).
  out->lcom_ = gcom.split(out->filenum_, grank);
  SION_CHECK(out->lcom_ != nullptr) << "split returned no communicator";
  par::Comm& lcom = *out->lcom_;
  const bool master = lcom.rank() == 0;

  // The master detects the file-system block size (the paper's fstat()),
  // then everyone aligns their chunk to it.
  Status st;
  std::uint64_t fsblksize = spec.fsblksize;
  if (fsblksize == 0) {
    if (master) {
      auto detected = fs.block_size(fs::parent(out->path_));
      if (detected.ok()) {
        fsblksize = detected.value();
      } else {
        st = detected.status();
      }
    }
    SION_RETURN_IF_ERROR(par::share_status_global(lcom, gcom, st, 0, kOpenFailed));
    fsblksize = lcom.bcast_u64(fsblksize, 0);
  }
  if (!is_power_of_two(fsblksize)) {
    return InvalidArgument("file-system block size must be a power of two");
  }
  out->fsblksize_log2_ = static_cast<std::uint8_t>(std::countr_zero(fsblksize));

  // Collective metadata exchange: chunk sizes and global ranks to the
  // file-local master.
  const auto chunksizes = lcom.gather_u64(spec.chunksize, 0);
  const auto granks =
      lcom.gather_u64(static_cast<std::uint64_t>(grank), 0);

  // Master creates the physical file and writes metablock 1.
  std::uint64_t data_start = 0;
  std::uint64_t block_span = 0;
  std::vector<std::uint64_t> chunk_offsets;
  st = Status::Ok();
  if (master) {
    FileHeader header;
    header.flags = spec.chunk_frames ? kFlagChunkFrames : 0;
    header.fsblksize = fsblksize;
    header.ntasks = static_cast<std::uint32_t>(lcom.size());
    header.nfiles = static_cast<std::uint32_t>(map.nfiles());
    header.filenum = static_cast<std::uint32_t>(out->filenum_);
    header.global_ranks = granks;
    header.chunksizes_req = chunksizes;
    auto created = create_physical_file(fs, out->path_, header);
    if (created.ok()) {
      data_start = created.value().layout.data_start();
      block_span = created.value().layout.block_span();
      chunk_offsets = created.value().layout.chunk_offsets();
      out->handle_ = std::move(created.value().file);
    } else {
      st = created.status();
    }
  }
  SION_RETURN_IF_ERROR(par::share_status_global(lcom, gcom, st, 0, kOpenFailed));

  // Everyone learns where its chunks live; no further communication is
  // needed for any later chunk (paper 3.1). The two geometry broadcasts
  // fuse into one suspension (bit-identical virtual cost, see bcast_u64_seq).
  std::uint64_t geom[2] = {data_start, block_span};
  lcom.bcast_u64_seq(geom, 0);
  data_start = geom[0];
  block_span = geom[1];
  const std::uint64_t my_offset = lcom.scatter_u64(chunk_offsets, 0);
  const std::uint64_t aligned = round_up(spec.chunksize, fsblksize);

  // Non-masters open the (hot) physical file — the cheap path that makes
  // SIONlib creation orders of magnitude faster than task-local files.
  st = Status::Ok();
  if (spec.chunk_frames && aligned <= kChunkFrameSize) {
    st = InvalidArgument("chunk too small for recovery frame");
  } else if (!master) {
    auto opened = fs.open_rw(out->path_);
    if (!opened.ok()) {
      st = opened.status();
    } else {
      out->handle_ = std::move(opened).value();
    }
  }
  SION_RETURN_IF_ERROR(par::share_status_global(lcom, gcom, st, 0, kOpenFailed));

  out->chunk_bytes_.assign(1, 0);
  out->attach(data_start + my_offset, block_span, aligned, /*writable=*/true,
              spec.chunk_frames);
  st = out->write_frame(0);
  // The agreement doubles as the closing barrier: a failed first-frame
  // write (e.g. quota exceeded) on any task must fail the open everywhere.
  const std::uint64_t frame_failed =
      gcom.allreduce_u64(st.ok() ? 0 : 1, par::ReduceOp::kMax);
  if (frame_failed != 0) {
    if (!st.ok()) return st;
    return IoError("collective SION open failed on another task");
  }
  return out;
}

// ---------------------------------------------------------------------------
// open for reading
// ---------------------------------------------------------------------------

Result<std::unique_ptr<SionParFile>> SionParFile::open_read(
    fs::FileSystem& fs, par::Comm& gcom, const std::string& name) {
  const int grank = gcom.rank();
  const int gsize = gcom.size();

  // The global master discovers the multifile set and the rank->file map
  // from the per-file headers, then *scatters* it — each task learns only
  // its own file index, keeping the collective O(ntasks) total instead of
  // O(ntasks) per task.
  Status st;
  MultifileMap found;  // global master only
  if (grank == 0) {
    auto discovered = discover_multifile(fs, name, gsize);
    if (discovered.ok()) {
      found = std::move(discovered).value();
    } else {
      st = discovered.status();
    }
  }
  SION_RETURN_IF_ERROR(par::share_status(gcom, st, 0, kOpenFailed));

  const std::uint64_t nfiles = gcom.bcast_u64(found.nfiles, 0);
  const std::uint64_t my_file = gcom.scatter_u64(found.file_of_rank, 0);
  found = {};

  auto out = std::unique_ptr<SionParFile>(new SionParFile());
  out->gcom_ = &gcom;
  out->nfiles_ = static_cast<int>(nfiles);
  out->filenum_ = static_cast<int>(my_file);
  out->path_ = physical_file_name(name, out->filenum_, out->nfiles_);

  out->lcom_ = gcom.split(out->filenum_, grank);
  SION_CHECK(out->lcom_ != nullptr) << "split returned no communicator";
  par::Comm& lcom = *out->lcom_;
  const bool master = lcom.rank() == 0;

  // The file-local master parses both metablocks and scatters each task's
  // view: geometry plus the bytes-actually-written array per chunk.
  st = Status::Ok();
  LoadedFile loaded;  // file-local master only
  if (master) {
    auto result = load_physical_file(fs, out->path_, lcom.size());
    if (result.ok()) {
      loaded = std::move(result).value();
      out->handle_ = std::move(loaded.file);
    } else {
      st = result.status();
    }
  }
  SION_RETURN_IF_ERROR(par::share_status_global(lcom, gcom, st, 0, kOpenFailed));

  std::uint64_t geom[4] = {loaded.header.fsblksize, loaded.header.flags,
                           loaded.data_start, loaded.block_span};
  lcom.bcast_u64_seq(geom, 0);
  const auto [my_offset, my_request] = lcom.scatter2_u64(
      loaded.chunk_offsets, loaded.header.chunksizes_req, 0);
  const std::vector<std::byte> my_blob =
      lcom.scatterv_bytes_flat(loaded.usage_flat, loaded.usage_sizes, 0);
  ByteReader blob_reader(my_blob);
  SION_ASSIGN_OR_RETURN(auto chunk_bytes, blob_reader.get_u64_array());

  out->fsblksize_log2_ = static_cast<std::uint8_t>(std::countr_zero(geom[0]));
  out->chunk_bytes_ = std::move(chunk_bytes);
  if (out->chunk_bytes_.empty()) out->chunk_bytes_.assign(1, 0);

  st = Status::Ok();
  if (!master) {
    auto opened = fs.open_read(out->path_);
    if (!opened.ok()) {
      st = opened.status();
    } else {
      out->handle_ = std::move(opened).value();
    }
  }
  SION_RETURN_IF_ERROR(par::share_status_global(lcom, gcom, st, 0, kOpenFailed));
  out->attach(geom[2] + my_offset, geom[3], round_up(my_request, geom[0]),
              /*writable=*/false, (geom[1] & kFlagChunkFrames) != 0);

  gcom.barrier();
  return out;
}

SionParFile::~SionParFile() {
  if (file_ != nullptr && writable()) {
    SION_LOG_WARN << "SION file " << path_
                  << " destroyed without collective close; metablock 2 was "
                     "not written (sionrepair can reconstruct it if chunk "
                     "frames are enabled)";
  }
}

void SionParFile::attach(std::uint64_t chunk0, std::uint64_t block_span,
                         std::uint64_t chunksize, bool writable, bool frames) {
  ChunkStream::operator=(ChunkStream(
      handle_.get(), &chunk_bytes_, chunk0, block_span, chunksize, writable,
      frames, static_cast<std::uint32_t>(gcom_->rank()),
      static_cast<std::uint32_t>(lcom_->rank())));
}

// ---------------------------------------------------------------------------
// close
// ---------------------------------------------------------------------------

Status SionParFile::close() {
  if (file_ == nullptr) return FailedPrecondition("file already closed");
  par::Comm& lcom = *lcom_;
  if (writable()) {
    SION_RETURN_IF_ERROR(patch_frame(current_block()));
    // "the master collects the number of bytes from each task that was
    // effectively written and stores it in the metadata block" (paper 3.1).
    const auto all = lcom.gatherv_u64_flat(chunk_bytes_, 0);
    Status st;
    if (lcom.rank() == 0) {
      // The master's chunk opens block 0, so it starts at the data region.
      st = write_meta2_and_trailer(*file_, chunk_start(0), block_span(),
                                   FileMeta2::from_gather(all));
    }
    SION_RETURN_IF_ERROR(par::share_status_global(lcom, *gcom_, st, 0, kOpenFailed));
  }
  file_ = nullptr;
  handle_.reset();
  gcom_->barrier();
  return Status::Ok();
}

}  // namespace sion::core
