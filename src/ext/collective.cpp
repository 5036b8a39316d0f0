#include "ext/collective.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <utility>

#include "common/codec.h"
#include "common/log.h"
#include "common/strings.h"
#include "core/metadata.h"
#include "fs/path.h"
#include "par/engine.h"

namespace sion::ext {

namespace {

// Ship-protocol tags (member <-> collector, within one group).
constexpr int kTokenTag = 0xC01;  // flow control: "my buffer is free"
constexpr int kHdrTag = 0xC02;    // wave descriptor
constexpr int kDataTag = 0xC03;   // wave payload

// Wave descriptor: fill payloads ship as a descriptor only (their link cost
// is charged on the sender's clock), so terabyte-scale synthetic benchmark
// payloads never materialise in host memory.
struct WaveHeader {
  std::uint64_t len = 0;
  bool is_fill = false;
  std::byte fill{0};
};

constexpr std::size_t kWaveHeaderSize = 10;

// Headers are tiny and iteration-scoped on the sender, so they ship as a
// copying send from this stack buffer (payloads ship as views instead).
std::array<std::byte, kWaveHeaderSize> encode_header(const WaveHeader& h) {
  std::array<std::byte, kWaveHeaderSize> buf{};
  detail::store_le(buf.data(), h.len);
  buf[8] = std::byte{h.is_fill ? std::uint8_t{1} : std::uint8_t{0}};
  buf[9] = h.fill;
  return buf;
}

Result<WaveHeader> decode_header(std::span<const std::byte> bytes) {
  ByteReader r(bytes);
  WaveHeader h;
  SION_ASSIGN_OR_RETURN(h.len, r.get_u64());
  SION_ASSIGN_OR_RETURN(const std::uint8_t fill_flag, r.get_u8());
  h.is_fill = fill_flag != 0;
  SION_ASSIGN_OR_RETURN(const std::uint8_t fill, r.get_u8());
  h.fill = static_cast<std::byte>(fill);
  return h;
}

// Shared wording for the par::share_status*/agree_status agreement helpers
// (see par/comm.h): a failure on the collector, on another physical file, or
// on another group rank must surface on every task.
constexpr char kAggregationFailed[] =
    "collective aggregation failed on another rank";

// Collective agreement at the end of a data op: protocol messages always
// complete (with dummy payloads on error); the outcome is agreed here.
Status agree(par::Comm& comm, const Status& mine) {
  return par::agree_status(comm, mine, kAggregationFailed);
}

// Splits a physical file's communicator into the aggregation groups
// `config` asks for; rank 0 of each group is its collector.
par::Comm* split_groups(par::Comm& lcom, const CollectiveConfig& config) {
  par::Comm* group = lcom.split_groups(config.group_size);
  SION_CHECK(group != nullptr) << "split_groups returned no communicator";
  return group;
}

}  // namespace

// The collector's physical file as its members' streams see it. Writes
// coalesce: segments arrive in file order, merge into maximal contiguous
// ranges, and flush as one pwrite per range once `cap` real bytes are
// staged — the "large, chunk-aligned writes on the members' behalf".
// Real-byte segments are not copied: they stay views into the shipping
// members' buffers, alive until the collective write returns (the Comm view
// contract), and reach the file system as one gather view per range. Fills
// stay O(1). Reads pass through.
//
// The first failure sticks until finish(): later calls are dropped but
// report success, so every member stream still advances as far as its
// member counts and every wave still ships.
class Collective::CollectorFile final : public fs::File {
 public:
  CollectorFile(fs::File& file, std::uint64_t cap) : file_(&file), cap_(cap) {}

  Result<std::uint64_t> pwrite(fs::DataView data,
                               std::uint64_t offset) override {
    if (!failed_.ok() || data.size() == 0) return data.size();
    Range* last = ranges_.empty() ? nullptr : &ranges_.back();
    const bool mergeable =
        last != nullptr && last->offset + last->len == offset &&
        last->is_fill == data.is_fill() &&
        (!data.is_fill() || last->fill == data.fill_byte());
    if (data.is_fill()) {
      if (mergeable) {
        last->len += data.size();
      } else {
        ranges_.push_back(
            Range{offset, data.size(), true, data.fill_byte(), segs_.size(), 0});
      }
      return data.size();
    }
    if (mergeable) {
      segs_.push_back(data);
      last->len += data.size();
      ++last->seg_count;
    } else {
      ranges_.push_back(Range{offset, data.size(), false, std::byte{0},
                              segs_.size(), 1});
      segs_.push_back(data);
    }
    staged_ += data.size();
    if (staged_ >= cap_) flush();
    return data.size();
  }

  Result<std::uint64_t> pread(std::span<std::byte> out,
                              std::uint64_t offset) override {
    if (failed_.ok()) {
      auto got = file_->pread(out, offset);
      if (!got.ok()) {
        failed_ = got.status();
      } else if (got.value() != out.size()) {
        failed_ = Corrupt("short read in collective scatter");
      }
    }
    return out.size();
  }

  Status pread_discard(std::uint64_t len, std::uint64_t offset) override {
    if (failed_.ok()) failed_ = file_->pread_discard(len, offset);
    return Status::Ok();
  }

  Result<fs::FileStat> stat() override { return file_->stat(); }
  Status truncate(std::uint64_t size) override { return file_->truncate(size); }
  Status sync() override { return file_->sync(); }

  // Flush what is staged, unless a call failed (then it is dropped), and
  // return the first failure since the last finish().
  Status finish() {
    flush();
    return std::exchange(failed_, Status::Ok());
  }

 private:
  struct Range {
    std::uint64_t offset;
    std::uint64_t len;
    bool is_fill;
    std::byte fill;
    std::size_t seg_begin;  // into segs_ when !is_fill
    std::size_t seg_count;
  };

  void flush() {
    for (const Range& r : ranges_) {
      if (!failed_.ok()) break;
      fs::DataView view = fs::DataView::fill(r.fill, r.len);
      if (!r.is_fill) {
        view = r.seg_count == 1
                   ? segs_[r.seg_begin]
                   : fs::DataView::gather(std::span<const fs::DataView>(
                         segs_.data() + r.seg_begin, r.seg_count));
      }
      failed_ = file_->pwrite(view, r.offset).status();
    }
    ranges_.clear();
    segs_.clear();
    staged_ = 0;
  }

  fs::File* file_;
  std::uint64_t cap_;
  Status failed_;
  std::uint64_t staged_ = 0;          // real bytes staged since last flush
  std::vector<fs::DataView> segs_;    // zero-copy source segments
  std::vector<Range> ranges_;
};

// ---------------------------------------------------------------------------
// open for writing
// ---------------------------------------------------------------------------

Result<std::unique_ptr<Collective>> Collective::open_write(
    fs::FileSystem& fs, par::Comm& gcom, const core::ParOpenSpec& spec,
    const CollectiveConfig& config) {
  const int grank = gcom.rank();
  const int gsize = gcom.size();
  if (spec.chunksize == 0) return InvalidArgument("chunksize must be positive");
  if (spec.chunk_frames) {
    return InvalidArgument(
        "recovery chunk frames are not supported in collective mode");
  }
  SION_ASSIGN_OR_RETURN(const core::FileMap map,
                        core::FileMap::make(spec.mapping, gsize, spec.nfiles,
                                            spec.custom_file_of_rank));

  auto out = std::unique_ptr<Collective>(new Collective());
  out->gcom_ = &gcom;
  out->writable_ = true;
  out->nfiles_ = map.nfiles();
  out->filenum_ = map.file_of(grank);
  out->path_ =
      core::physical_file_name(spec.filename, out->filenum_, map.nfiles());
  out->buffer_bytes_ = std::max<std::uint64_t>(1, config.buffer_bytes);

  out->lcom_ = gcom.split(out->filenum_);
  SION_CHECK(out->lcom_ != nullptr) << "split returned no communicator";
  par::Comm& lcom = *out->lcom_;
  out->lrank_ = lcom.rank();
  const int lsize = lcom.size();
  const bool master = out->lrank_ == 0;

  out->group_ = split_groups(lcom, config);
  const int group_size = out->group_->size();  // last group may be smaller
  const bool collector = out->group_->rank() == 0;

  // The file-local master detects the real file-system block size; group
  // padding is computed against it even when chunks pack at a finer granule.
  Status st;
  std::uint64_t real_blk = spec.fsblksize;
  if (real_blk == 0) {
    if (master) {
      auto detected = fs.block_size(fs::parent(out->path_));
      if (detected.ok()) {
        real_blk = detected.value();
      } else {
        st = detected.status();
      }
    }
    SION_RETURN_IF_ERROR(par::share_status_global(lcom, gcom, st, 0, kAggregationFailed));
    real_blk = lcom.bcast_u64(real_blk, 0);
  }
  if (!is_power_of_two(real_blk)) {
    return InvalidArgument("file-system block size must be a power of two");
  }
  std::uint64_t granule = std::min(
      config.packing_granule != 0 ? config.packing_granule : real_blk,
      real_blk);
  if (!is_power_of_two(granule) || real_blk % granule != 0) {
    granule = real_blk;
  }
  out->granule_ = granule;

  core::ChunkRequests requests =
      core::gather_chunk_requests(lcom, spec.chunksize, grank);
  std::vector<std::uint64_t>& chunksizes = requests.chunksizes;

  // Master lays the file out and writes metablock 1; the layout is the
  // ordinary SION geometry with fsblksize = granule, so any reader
  // reconstructs it from the header alone.
  std::uint64_t data_start = 0;
  std::uint64_t block_span = 0;
  std::vector<std::uint64_t> chunk_offsets;
  std::vector<std::uint64_t> requested;
  st = Status::Ok();
  if (master) {
    core::FileHeader header;
    header.fsblksize = granule;
    header.ntasks = static_cast<std::uint32_t>(lsize);
    header.nfiles = static_cast<std::uint32_t>(map.nfiles());
    header.filenum = static_cast<std::uint32_t>(out->filenum_);
    header.global_ranks = std::move(requests.granks);
    header.chunksizes_req = chunksizes;
    // serialize() size depends only on the task count, so the pre-padding
    // header already has the final metablock-1 size.
    const std::uint64_t meta1_size = header.serialize().size();
    if (granule < real_blk) {
      // Pad each group's last chunk so the group ends on a real file-system
      // block boundary: a group has exactly one writer, so only boundaries
      // *between* groups can false-share, and this removes them.
      const std::uint64_t start = round_up(meta1_size, granule);
      std::uint64_t prefix = 0;
      for (int t = 0; t < lsize; ++t) {
        const auto i = static_cast<std::size_t>(t);
        std::uint64_t aligned = round_up(chunksizes[i], granule);
        const bool group_end =
            t % group_size == group_size - 1 || t == lsize - 1;
        if (group_end) {
          const std::uint64_t end_abs = start + prefix + aligned;
          const std::uint64_t pad = round_up(end_abs, real_blk) - end_abs;
          chunksizes[i] += pad;
          aligned += pad;
        }
        prefix += aligned;
      }
      header.chunksizes_req = chunksizes;
    }
    auto created = core::create_physical_file(fs, out->path_, header);
    if (created.ok()) {
      data_start = created.value().layout.data_start();
      block_span = created.value().layout.block_span();
      chunk_offsets = created.value().layout.chunk_offsets();
      out->file_ = std::move(created.value().file);
    } else {
      st = created.status();
    }
    requested = chunksizes;
  }
  SION_RETURN_IF_ERROR(par::share_status_global(lcom, gcom, st, 0, kAggregationFailed));

  std::uint64_t geom[2] = {data_start, block_span};
  const std::span<const std::uint64_t> per_task[] = {chunk_offsets, requested};
  std::uint64_t mine[2] = {0, 0};  // chunk offset, requested size
  lcom.steps({.bcast = geom, .scatter_in = per_task, .scatter_out = mine}, 0);
  out->data_start_ = geom[0];
  out->block_span_ = geom[1];
  out->capacity_ = round_up(mine[1], granule);

  // Only collectors open the physical file — this is where the aggregated
  // path sheds the per-task metadata/open pressure (SimFs accounts for it
  // through cached opens and the client_open_service token model).
  st = Status::Ok();
  if (collector && !master) {
    auto opened = fs.open_rw(out->path_);
    if (!opened.ok()) {
      st = opened.status();
    } else {
      out->file_ = std::move(opened).value();
    }
  }
  SION_RETURN_IF_ERROR(par::share_status_global(lcom, gcom, st, 0, kAggregationFailed));

  // The collector learns its members' chunk geometry once; every later
  // chunk address comes from their streams (paper 3.1, lifted to groups).
  out->attach_members(mine[0], {});
  gcom.barrier();
  out->open_ = true;
  return out;
}

// ---------------------------------------------------------------------------
// open for reading
// ---------------------------------------------------------------------------

Result<std::unique_ptr<Collective>> Collective::open_read(
    fs::FileSystem& fs, par::Comm& gcom, const std::string& name,
    const CollectiveConfig& config) {

  // The global master (a collector by construction) discovers the multifile
  // set and scatters the rank -> file map, as in SionParFile::open_read.
  SION_ASSIGN_OR_RETURN(
      const core::MultifileSlot slot,
      core::locate_in_multifile(fs, gcom, name, kAggregationFailed));
  auto out = std::unique_ptr<Collective>(new Collective());
  out->gcom_ = &gcom;
  out->writable_ = false;
  out->nfiles_ = slot.nfiles;
  out->filenum_ = slot.filenum;
  out->path_ = core::physical_file_name(name, out->filenum_, out->nfiles_);
  out->buffer_bytes_ = std::max<std::uint64_t>(1, config.buffer_bytes);

  out->lcom_ = gcom.split(out->filenum_);
  SION_CHECK(out->lcom_ != nullptr) << "split returned no communicator";
  par::Comm& lcom = *out->lcom_;
  out->lrank_ = lcom.rank();
  const int lsize = lcom.size();
  const bool master = out->lrank_ == 0;

  out->group_ = split_groups(lcom, config);
  const bool collector = out->group_->rank() == 0;

  // The file-local master parses both metablocks and scatters every task's
  // view, so members learn their geometry without touching the file system.
  Status st;
  core::LoadedFile loaded;  // file-local master only
  if (master) {
    auto result = core::load_physical_file(fs, out->path_, lsize);
    if (!result.ok()) {
      st = result.status();
    } else if ((result.value().header.flags & core::kFlagChunkFrames) != 0) {
      st = InvalidArgument(
          "collective read of a chunk-framed file is not supported");
    } else {
      loaded = std::move(result).value();
      out->file_ = std::move(loaded.file);
    }
  }
  SION_RETURN_IF_ERROR(par::share_status_global(lcom, gcom, st, 0, kAggregationFailed));

  std::uint64_t geom[3] = {loaded.header.fsblksize, loaded.data_start,
                           loaded.block_span};
  SION_ASSIGN_OR_RETURN(const core::ReaderChunks mine,
                        core::scatter_reader_chunks(lcom, loaded, geom));
  out->granule_ = geom[0];
  out->data_start_ = geom[1];
  out->block_span_ = geom[2];
  out->capacity_ = round_up(mine.request, out->granule_);
  out->written_ = std::accumulate(mine.bytes.begin(), mine.bytes.end(),
                                  std::uint64_t{0});
  out->unread_ = out->written_;

  st = Status::Ok();
  if (collector && !master) {
    auto opened = fs.open_read(out->path_);
    if (!opened.ok()) {
      st = opened.status();
    } else {
      out->file_ = std::move(opened).value();
    }
  }
  SION_RETURN_IF_ERROR(par::share_status_global(lcom, gcom, st, 0, kAggregationFailed));

  out->attach_members(mine.offset, mine.bytes);
  gcom.barrier();
  out->open_ = true;
  return out;
}

Collective::~Collective() {
  // A failed open already returned its error; only a file that opened and
  // is dropped before close warns.
  if (open_ && writable_) {
    SION_LOG_WARN << "collective SION file " << path_
                  << " destroyed without collective close; metablock 2 was "
                     "not written";
  }
}

void Collective::attach_members(std::uint64_t offset,
                                std::span<const std::uint64_t> chunk_bytes) {
  const std::uint64_t start = data_start_ + offset;
  const std::span<const std::uint64_t> in[] = {
      {&start, 1}, {&capacity_, 1}, chunk_bytes};
  par::Comm::FlatGatherU64 got[3];
  const std::size_t ngathers = writable_ ? 2 : 3;
  group_->steps({.gather_in = std::span(in).first(ngathers),
                 .gather_out = std::span(got).first(ngathers)},
                0);
  if (!is_collector()) return;
  io_ = std::make_unique<CollectorFile>(*file_, buffer_bytes_);
  member_chunks_.resize(got[0].data.size());
  for (std::size_t m = 0; m < member_chunks_.size(); ++m) {
    if (writable_) {
      member_chunks_[m].assign(1, 0);
    } else {
      const auto counts = got[2].of(static_cast<int>(m));
      member_chunks_[m].assign(counts.begin(), counts.end());
    }
    streams_.emplace_back(io_.get(), &member_chunks_[m], got[0].data[m],
                          block_span_, got[1].data[m], writable_);
  }
}

// ---------------------------------------------------------------------------
// write path
// ---------------------------------------------------------------------------

Status Collective::write_as_collector(fs::DataView own,
                                      const std::vector<std::uint64_t>& sizes) {
  Status st;
  for (int m = 0; m < group_->size(); ++m) {
    const auto i = static_cast<std::size_t>(m);
    for (std::uint64_t done = 0; done < sizes[i];) {
      const std::uint64_t wave = std::min(buffer_bytes_, sizes[i] - done);
      fs::DataView piece = fs::DataView::fill(std::byte{0}, 0);
      if (m == 0) {
        piece = own.subview(done, wave);
      } else {
        // Token-paced ship: the member sends a wave only when the collector
        // is ready, so at most one wave per group is in flight. Both sides
        // compute wave sizes from the gathered totals, so a mismatch is a
        // protocol bug, not a recoverable I/O error. Payloads arrive as
        // views into the member's buffer — valid until that member's
        // write() returns, which the closing agreement sequences after the
        // final flush — so nothing is staged or copied on the way to the
        // coalescer.
        group_->send_bytes({}, m, kTokenTag);
        const std::vector<std::byte> hdr_bytes =
            group_->recv_bytes(m, kHdrTag);
        auto hdr = decode_header(hdr_bytes);
        SION_CHECK(hdr.ok() && hdr.value().len == wave)
            << "aggregation wave descriptor mismatch";
        if (hdr.value().is_fill) {
          piece = fs::DataView::fill(hdr.value().fill, wave);
        } else {
          const std::span<const std::byte> wave_view =
              group_->recv_view(m, kDataTag);
          SION_CHECK(wave_view.size() == wave)
              << "aggregation wave payload mismatch";
          piece = fs::DataView(wave_view);
        }
      }
      // The member's stream splits the wave at its chunk boundaries; the
      // coalescer merges contiguous chunks of adjacent members into one
      // large write when the packing leaves no gaps.
      const auto wrote = streams_[i].write(piece);
      if (st.ok() && !wrote.ok()) st = wrote.status();
      done += wave;
    }
  }
  const Status flushed = io_->finish();
  return st.ok() ? flushed : st;
}

Status Collective::write_as_member(fs::DataView data) {
  std::uint64_t remaining = data.size();
  std::uint64_t done = 0;
  while (remaining > 0) {
    const std::uint64_t wave = std::min(buffer_bytes_, remaining);
    const fs::DataView piece = data.subview(done, wave);
    (void)group_->recv_bytes(0, kTokenTag);
    WaveHeader hdr;
    hdr.len = wave;
    hdr.is_fill = piece.is_fill();
    if (piece.is_fill()) {
      hdr.fill = piece.fill_byte();
      // The payload never materialises; charge its link time here so the
      // virtual clock sees the same gather cost as a real ship.
      par::this_task()->compute(group_->network().p2p_cost(wave));
      group_->send_bytes(encode_header(hdr), 0, kHdrTag);
    } else {
      group_->send_bytes(encode_header(hdr), 0, kHdrTag);
      group_->send_view(piece.bytes(), 0, kDataTag);
    }
    remaining -= wave;
    done += wave;
  }
  return Status::Ok();
}

Status Collective::write(fs::DataView data) {
  if (!writable_) return FailedPrecondition("file opened for reading");
  if (!open_) return FailedPrecondition("file already closed");
  const auto sizes = group_->gather_u64(data.size(), 0);
  Status st;
  if (is_collector()) {
    st = write_as_collector(data, sizes);
  } else {
    st = write_as_member(data);
  }
  written_ += data.size();
  return agree(*group_, st);
}

// ---------------------------------------------------------------------------
// read path
// ---------------------------------------------------------------------------

Status Collective::read_as_collector(std::span<std::byte> own_out, bool skip,
                                     const std::vector<std::uint64_t>& wants) {
  Status st;
  std::vector<std::byte> wave_buf;
  for (int m = 0; m < group_->size(); ++m) {
    const auto i = static_cast<std::size_t>(m);
    core::ChunkStream& stream = streams_[i];
    const std::uint64_t deliver =
        std::min(wants[i], stream.bytes_remaining_total());
    for (std::uint64_t done = 0; done < deliver;) {
      const std::uint64_t wave = std::min(buffer_bytes_, deliver - done);
      if (m != 0) {
        (void)group_->recv_bytes(m, kTokenTag);
        // Only shipped waves stage in wave_buf; the collector's own data
        // reads straight into own_out.
        wave_buf.resize(static_cast<std::size_t>(skip ? 0 : wave));
      }
      const Status read =
          skip ? stream.read_skip(wave)
               : stream
                     .read(m == 0 ? own_out.subspan(done, wave)
                                  : std::span<std::byte>(wave_buf))
                     .status();
      if (st.ok()) st = read;
      if (m != 0) {
        if (skip) {
          // Timing-only restore: charge the scatter link time and hand the
          // member a completion descriptor instead of payload bytes.
          par::this_task()->compute(group_->network().p2p_cost(wave));
          WaveHeader hdr;
          hdr.len = wave;
          hdr.is_fill = true;
          group_->send_bytes(encode_header(hdr), m, kHdrTag);
        } else {
          group_->send_bytes(wave_buf, m, kDataTag);
        }
      }
      done += wave;
    }
  }
  const Status io = io_->finish();
  return st.ok() ? io : st;
}

Status Collective::read_as_member(std::span<std::byte> out, bool skip,
                                  std::uint64_t deliver) {
  std::uint64_t out_pos = 0;
  Status st;
  while (deliver > 0) {
    const std::uint64_t wave = std::min(buffer_bytes_, deliver);
    group_->send_bytes({}, 0, kTokenTag);
    if (skip) {
      const std::vector<std::byte> hdr_bytes = group_->recv_bytes(0, kHdrTag);
      auto hdr = decode_header(hdr_bytes);
      if (st.ok()) {
        if (!hdr.ok()) {
          st = hdr.status();
        } else if (hdr.value().len != wave) {
          st = Internal("scatter wave size mismatch");
        }
      }
    } else {
      const std::vector<std::byte> data = group_->recv_bytes(0, kDataTag);
      if (st.ok() && data.size() != wave) {
        st = Internal("scatter wave payload mismatch");
      }
      if (st.ok()) {
        std::copy(data.begin(), data.end(),
                  out.begin() + static_cast<std::ptrdiff_t>(out_pos));
      }
    }
    out_pos += wave;
    deliver -= wave;
  }
  return st;
}

Result<std::uint64_t> Collective::read_impl(std::span<std::byte> out,
                                            bool skip, std::uint64_t want) {
  if (writable_) return FailedPrecondition("file opened for writing");
  if (!open_) return FailedPrecondition("file already closed");
  const std::uint64_t deliver = std::min(want, unread_);
  const auto wants = group_->gather_u64(want, 0);
  Status st;
  if (is_collector()) {
    st = read_as_collector(out, skip, wants);
  } else {
    st = read_as_member(out, skip, deliver);
  }
  unread_ -= deliver;
  SION_RETURN_IF_ERROR(agree(*group_, st));
  return deliver;
}

Result<std::uint64_t> Collective::read(std::span<std::byte> out) {
  return read_impl(out, /*skip=*/false, out.size());
}

Result<std::vector<std::byte>> Collective::read_remaining() {
  const std::uint64_t total = bytes_remaining_total();
  std::vector<std::byte> out(static_cast<std::size_t>(total));
  SION_ASSIGN_OR_RETURN(const std::uint64_t got, read(out));
  if (got != total) {
    return Corrupt(strformat("collective stream delivered %llu of %llu "
                             "remaining bytes",
                             static_cast<unsigned long long>(got),
                             static_cast<unsigned long long>(total)));
  }
  return out;
}

Status Collective::read_skip(std::uint64_t nbytes) {
  SION_ASSIGN_OR_RETURN(const std::uint64_t n,
                        read_impl({}, /*skip=*/true, nbytes));
  (void)n;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// close
// ---------------------------------------------------------------------------

Status Collective::close(const Status& pending) {
  if (!open_) return FailedPrecondition("file already closed");
  par::Comm& lcom = *lcom_;
  Status st;
  if (writable_) {
    const auto all =
        lcom.gatherv_u64_flat(core::appended_chunks(written_, capacity_), 0);
    st = pending;
    if (lrank_ == 0 && st.ok()) {
      st = core::write_meta2_and_trailer(*file_, data_start_, block_span_,
                                         core::FileMeta2::from_gather(all));
    }
    st = par::share_status_global(lcom, *gcom_, st, 0, kAggregationFailed);
  }
  // A close that fails on every task still releases the file.
  io_.reset();
  file_.reset();
  open_ = false;
  SION_RETURN_IF_ERROR(st);
  gcom_->barrier();
  return Status::Ok();
}

Status write_multifile(fs::FileSystem& fs, par::Comm& comm,
                       const core::ParOpenSpec& spec,
                       const CollectiveConfig* aggregation,
                       fs::DataView payload) {
  // A failed write still runs the collective close, whose agreement then
  // fails every task; the write's own error wins.
  if (aggregation != nullptr) {
    SION_ASSIGN_OR_RETURN(auto sion,
                          Collective::open_write(fs, comm, spec, *aggregation));
    const Status wrote = sion->write(payload);
    const Status closed = sion->close(wrote);
    return wrote.ok() ? closed : wrote;
  }
  SION_ASSIGN_OR_RETURN(auto sion,
                        core::SionParFile::open_write(fs, comm, spec));
  const Status wrote = sion->write(payload).status();
  const Status closed = sion->close(wrote);
  return wrote.ok() ? closed : wrote;
}

Result<core::ParOpenSpec> write_domain_primary(
    fs::FileSystem& fs, par::Comm& comm, core::ParOpenSpec spec, int ndomains,
    const CollectiveConfig* aggregation, fs::DataView payload) {
  if (spec.fsblksize == 0) {
    Status st;
    if (comm.rank() == 0) {
      auto detected = fs.block_size(fs::parent(spec.filename));
      if (detected.ok()) {
        spec.fsblksize = detected.value();
      } else {
        st = detected.status();
      }
    }
    comm.steps({.status = &st, .bcast = {&spec.fsblksize, 1}}, 0,
               "primary multifile write failed on another rank");
    SION_RETURN_IF_ERROR(st);
  }
  spec.nfiles = ndomains;
  spec.mapping = core::Mapping::kContiguous;
  spec.custom_file_of_rank.clear();
  SION_RETURN_IF_ERROR(write_multifile(fs, comm, spec, aggregation, payload));
  return spec;
}

}  // namespace sion::ext
