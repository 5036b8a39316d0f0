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
  out->lcom_ = gcom.split(out->filenum_);
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
  ChunkRequests requests = gather_chunk_requests(lcom, spec.chunksize, grank);

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
    header.global_ranks = std::move(requests.granks);
    header.chunksizes_req = std::move(requests.chunksizes);
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
  // needed for any later chunk (paper 3.1).
  std::uint64_t geom[2] = {data_start, block_span};
  const std::span<const std::uint64_t> offsets[] = {chunk_offsets};
  std::uint64_t my_offset = 0;
  lcom.steps({.bcast = geom, .scatter_in = offsets,
              .scatter_out = {&my_offset, 1}}, 0);
  data_start = geom[0];
  block_span = geom[1];
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
    out->file_ = nullptr;  // never opened: destroyed without the close warning
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
  SION_ASSIGN_OR_RETURN(const MultifileSlot slot,
                        locate_in_multifile(fs, gcom, name, kOpenFailed));
  auto out = std::unique_ptr<SionParFile>(new SionParFile());
  out->gcom_ = &gcom;
  out->nfiles_ = slot.nfiles;
  out->filenum_ = slot.filenum;
  out->path_ = physical_file_name(name, out->filenum_, out->nfiles_);

  out->lcom_ = gcom.split(out->filenum_);
  SION_CHECK(out->lcom_ != nullptr) << "split returned no communicator";
  par::Comm& lcom = *out->lcom_;
  const bool master = lcom.rank() == 0;

  // The file-local master parses both metablocks and scatters each task's
  // view: geometry plus the bytes-actually-written array per chunk.
  Status st;
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
  SION_ASSIGN_OR_RETURN(ReaderChunks mine,
                        scatter_reader_chunks(lcom, loaded, geom));
  out->fsblksize_log2_ = static_cast<std::uint8_t>(std::countr_zero(geom[0]));
  out->chunk_bytes_ = std::move(mine.bytes);

  st = Status::Ok();
  if (!master) {
    auto opened = fs.open_read(out->path_);
    if (!opened.ok()) {
      st = opened.status();
    } else {
      out->handle_ = std::move(opened).value();
    }
  }
  // The last agreement and the closing barrier, in one rendezvous.
  gcom.steps({.status = &st, .within = &lcom, .barrier = true}, 0,
             kOpenFailed);
  SION_RETURN_IF_ERROR(st);
  out->attach(geom[2] + mine.offset, geom[3], round_up(mine.request, geom[0]),
              /*writable=*/false, (geom[1] & kFlagChunkFrames) != 0);
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

Status SionParFile::close(const Status& pending) {
  if (file_ == nullptr) return FailedPrecondition("file already closed");
  par::Comm& lcom = *lcom_;
  Status st;
  if (writable()) {
    st = pending.ok() ? patch_frame(current_block()) : pending;
    // "the master collects the number of bytes from each task that was
    // effectively written and stores it in the metadata block" (paper 3.1).
    const auto all = lcom.gatherv_u64_flat(chunk_bytes_, 0);
    if (lcom.rank() == 0 && st.ok()) {
      // The master's chunk opens block 0, so it starts at the data region.
      st = write_meta2_and_trailer(*file_, chunk_start(0), block_span(),
                                   FileMeta2::from_gather(all));
    }
    st = par::share_status_global(lcom, *gcom_, st, 0, kOpenFailed);
  }
  // A close that fails on every task still releases the file.
  file_ = nullptr;
  handle_.reset();
  SION_RETURN_IF_ERROR(st);
  gcom_->barrier();
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// shared exchanges
// ---------------------------------------------------------------------------

Result<MultifileSlot> locate_in_multifile(fs::FileSystem& fs,
                                          par::Comm& gcom,
                                          const std::string& name,
                                          const char* what) {
  // The global master scatters the rank->file map: each task learns only
  // its own file index, keeping the collective O(ntasks) total instead of
  // O(ntasks) per task.
  Status st;
  MultifileMap found;  // global master only
  if (gcom.rank() == 0) {
    auto discovered = discover_multifile(fs, name, gcom.size());
    if (discovered.ok()) {
      found = std::move(discovered).value();
    } else {
      st = discovered.status();
    }
  }
  std::uint64_t nfiles = found.nfiles;
  std::uint64_t filenum = 0;
  const std::span<const std::uint64_t> file_of_rank[] = {found.file_of_rank};
  gcom.steps({.status = &st, .bcast = {&nfiles, 1}, .scatter_in = file_of_rank,
              .scatter_out = {&filenum, 1}},
             0, what);
  SION_RETURN_IF_ERROR(st);
  return MultifileSlot{static_cast<int>(nfiles), static_cast<int>(filenum)};
}

ChunkRequests gather_chunk_requests(par::Comm& lcom, std::uint64_t chunksize,
                                    int grank) {
  const auto rank = static_cast<std::uint64_t>(grank);
  const std::span<const std::uint64_t> in[] = {{&chunksize, 1}, {&rank, 1}};
  par::Comm::FlatGatherU64 out[2];
  lcom.steps({.gather_in = in, .gather_out = out}, 0);
  return {std::move(out[0].data), std::move(out[1].data)};
}

Result<ReaderChunks> scatter_reader_chunks(par::Comm& lcom,
                                           const LoadedFile& loaded,
                                           std::span<std::uint64_t> geometry) {
  const std::span<const std::uint64_t> per_task[] = {
      loaded.chunk_offsets, loaded.header.chunksizes_req};
  std::uint64_t mine[2] = {0, 0};
  std::vector<std::byte> blob;
  lcom.steps({.bcast = geometry, .scatter_in = per_task, .scatter_out = mine,
              .scatterv_out = &blob, .scatterv_data = loaded.usage_flat,
              .scatterv_sizes = loaded.usage_sizes},
             0);
  ReaderChunks out{mine[0], mine[1], {}};
  ByteReader reader(blob);
  SION_ASSIGN_OR_RETURN(out.bytes, reader.get_u64_array());
  if (out.bytes.empty()) out.bytes.assign(1, 0);
  return out;
}

}  // namespace sion::core
