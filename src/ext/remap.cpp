#include "ext/remap.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <optional>

#include "common/strings.h"

namespace sion::ext {

namespace {

// Shared wording for the par::share_status/agree_status agreement helpers
// (see par/comm.h): a failure on the metadata rank, a reader, or any other
// restart task must surface on every task.
constexpr char kRemapFailed[] = "N->M remap failed on another restart task";

// floor(a * b / c) without u64 overflow (a*b can exceed 64 bits for
// terabyte-scale payloads at large task counts).
std::uint64_t mul_div(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  return static_cast<std::uint64_t>(static_cast<unsigned __int128>(a) * b / c);
}

// A positioned encoded-byte reader over one source stream of the view.
ReadAtFn stream_read_at(core::SionSerialFile& view, int stream) {
  return [&view, stream](std::uint64_t offset, std::span<std::byte> o) {
    return view.read_at(stream, offset, o);
  };
}

// What source stream `r` delivers under transparent decompression.
struct StreamProbe {
  std::uint64_t bytes = 0;           // decoded size if framed, else raw size
  std::optional<FrameIndex> frames;  // set when the stream is framed
};

// A stream that leads with the frame sync marker is framed: one head read,
// then the header walk. Anything else passes through raw.
Result<StreamProbe> probe_stream(core::SionSerialFile& view, int r) {
  StreamProbe probe{view.logical_bytes(r), std::nullopt};
  std::array<std::byte, kFrameSync.size()> head{};
  if (probe.bytes < head.size()) return probe;
  SION_ASSIGN_OR_RETURN(const std::uint64_t got, view.read_at(r, 0, head));
  if (got < head.size() || !stream_is_framed(head)) return probe;
  SION_ASSIGN_OR_RETURN(probe.frames,
                        index_frames(probe.bytes, stream_read_at(view, r)));
  probe.bytes = probe.frames->decoded_bytes;
  return probe;
}

}  // namespace

// ---------------------------------------------------------------------------
// open
// ---------------------------------------------------------------------------

Result<std::unique_ptr<Remap>> Remap::open(fs::FileSystem& fs, par::Comm& mcom,
                                           const std::string& name,
                                           const RemapConfig& config) {
  const int m = mcom.rank();
  const int msize = mcom.size();

  auto out = std::unique_ptr<Remap>(new Remap());
  out->fs_ = &fs;
  out->mcom_ = &mcom;
  out->name_ = name;
  out->buffer_bytes_ = std::max<std::uint64_t>(1, config.buffer_bytes);
  out->transparent_ = config.transparent_decompress;

  // Rank 0 reads the global-view metadata once and broadcasts the N stream
  // sizes; every other task learns the partition without touching the file
  // system. The view is kept open in case rank 0 turns out to be a reader.
  // Under transparent decompression the advertised sizes are *decoded*
  // bytes: rank 0 walks each framed stream's headers (a few bytes per
  // frame), and the scan and the readers' decoders agree on the deliverable
  // size by construction (ext/compress.h).
  Status st;
  std::unique_ptr<core::SionSerialFile> view0;
  std::vector<std::uint64_t> sizes;
  if (m == 0) {
    auto view = core::SionSerialFile::open_read(fs, name);
    if (!view.ok()) {
      st = view.status();
    } else {
      view0 = std::move(view).value();
      const int nranks = view0->locations().nranks;
      sizes.reserve(static_cast<std::size_t>(nranks));
      for (int r = 0; r < nranks && st.ok(); ++r) {
        if (!config.transparent_decompress) {
          sizes.push_back(view0->logical_bytes(r));
          continue;
        }
        auto probe = probe_stream(*view0, r);
        if (!probe.ok()) {
          st = probe.status();
        } else {
          sizes.push_back(probe.value().bytes);
        }
      }
    }
  }
  {
    // The sizes travel as one blob, freed before the next rendezvous so
    // that no reader holds a second copy of them across it.
    const auto packed = std::as_bytes(std::span<const std::uint64_t>(sizes));
    std::vector<std::byte> blob(packed.begin(), packed.end());
    mcom.steps({.status = &st, .blob = &blob}, 0, kRemapFailed);
    SION_RETURN_IF_ERROR(st);
    sizes.resize(blob.size() / sizeof(std::uint64_t));
    std::copy(blob.begin(), blob.end(),
              std::as_writable_bytes(std::span<std::uint64_t>(sizes)).begin());
  }

  out->nwriters_ = static_cast<int>(sizes.size());
  out->stream_bytes_ = std::move(sizes);
  out->stream_offset_.reserve(out->stream_bytes_.size());
  for (const std::uint64_t s : out->stream_bytes_) {
    out->stream_offset_.push_back(out->total_bytes_);
    out->total_bytes_ += s;
  }

  // Contiguous byte-balanced partition of the N source streams over the M
  // readers: stream j goes to the reader whose even share of the payload
  // contains stream j's midpoint. Midpoints are nondecreasing in j, so the
  // assignment is contiguous; byte volumes balance within one stream.
  out->reader_of_.reserve(out->stream_bytes_.size());
  for (std::size_t j = 0; j < out->stream_bytes_.size(); ++j) {
    int reader;
    if (out->total_bytes_ == 0) {
      // Degenerate all-empty checkpoint: balance by stream count instead.
      reader = static_cast<int>(j * static_cast<std::size_t>(msize) /
                                out->stream_bytes_.size());
    } else {
      const std::uint64_t mid =
          out->stream_offset_[j] + out->stream_bytes_[j] / 2;
      reader = static_cast<int>(
          mul_div(mid, static_cast<std::uint64_t>(msize), out->total_bytes_));
    }
    out->reader_of_.push_back(std::min(reader, msize - 1));
  }
  for (int j = 0; j < out->nwriters_; ++j) {
    if (out->reader_of(j) == m) ++out->nstreams_;
  }

  // Only tasks with assigned streams hold the multifile open (the global
  // view is exactly the paper's serial access path, and M - readers tasks
  // stay off the file system entirely). Rank 0 reuses its metadata view.
  st = Status::Ok();
  if (out->nstreams_ > 0) {
    if (view0 != nullptr) {
      out->view_ = std::move(view0);
    } else {
      auto view = core::SionSerialFile::open_read(fs, name);
      if (view.ok()) {
        if (view.value()->locations().nranks != out->nwriters_) {
          st = Corrupt("multifile changed between metadata and data open");
        } else {
          out->view_ = std::move(view).value();
        }
      } else {
        st = view.status();
      }
    }
  } else if (view0 != nullptr) {
    st = view0->close();
    view0.reset();
  }
  SION_RETURN_IF_ERROR(par::agree_status(mcom, st, kRemapFailed));
  return out;
}

// Remap views are read-only, so destruction without close loses nothing
// (the same contract as SionSerialFile's read mode).
Remap::~Remap() = default;

// ---------------------------------------------------------------------------
// partitions
// ---------------------------------------------------------------------------

std::uint64_t Remap::even_share_offset(int rank) const {
  const auto msize = static_cast<std::uint64_t>(mcom_->size());
  return mul_div(total_bytes_, static_cast<std::uint64_t>(rank), msize);
}

std::uint64_t Remap::even_share(int rank) const {
  return even_share_offset(rank + 1) - even_share_offset(rank);
}

// ---------------------------------------------------------------------------
// restore
// ---------------------------------------------------------------------------

Result<RemapStats> Remap::restore(std::span<std::byte> out,
                                  std::uint64_t want) {
  // Local precondition failures are agreed before any further collective: a
  // single closed or under-buffered rank must fail every task cleanly, not
  // strand the rest in the allgather below.
  const bool discard = out.empty();
  Status pre;
  if (closed_) {
    pre = FailedPrecondition("remap already closed");
  } else if (!discard && out.size() < want) {
    pre = InvalidArgument("output buffer smaller than the requested bytes");
  }
  SION_RETURN_IF_ERROR(par::agree_status(*mcom_, pre, kRemapFailed));
  const int me = mcom_->rank();
  const int msize = mcom_->size();

  // Destination partition: the wants, in rank order, tile the concatenated
  // global stream. Every task derives the same prefix sums, so a mismatch
  // fails consistently everywhere before any wave moves.
  const std::vector<std::uint64_t> wants = mcom_->allgather_u64(want);
  std::vector<std::uint64_t> dest_offset(static_cast<std::size_t>(msize) + 1,
                                         0);
  for (int r = 0; r < msize; ++r) {
    dest_offset[static_cast<std::size_t>(r) + 1] =
        dest_offset[static_cast<std::size_t>(r)] +
        wants[static_cast<std::size_t>(r)];
  }
  if (dest_offset.back() != total_bytes_) {
    return InvalidArgument(strformat(
        "restore wants total %llu bytes but the checkpoint holds %llu",
        static_cast<unsigned long long>(dest_offset.back()),
        static_cast<unsigned long long>(total_bytes_)));
  }
  const std::uint64_t my_start = dest_offset[static_cast<std::size_t>(me)];

  // Walk every stream in bounded waves, in one global (stream, wave) order
  // shared by all tasks: the wave's reader reads and ships eagerly, each
  // overlapping destination receives. The earliest unprocessed wave always
  // has a reader with nothing left to block on, so the schedule is
  // deadlock-free.
  RemapStats stats;
  Status st;
  std::vector<std::byte> wave_buf;
  // Per-stream decode state: streams are walked in ascending order, so one
  // FrameStreamReader at a time suffices; its frame cache makes the
  // ascending waves decode each frame exactly once.
  int decode_stream = -1;
  std::unique_ptr<FrameStreamReader> decoder;
  std::uint64_t decoder_encoded_prev = 0;
  for (int j = 0; j < nwriters_; ++j) {
    const std::uint64_t stream_len =
        stream_bytes_[static_cast<std::size_t>(j)];
    const int reader = reader_of(j);
    for (std::uint64_t wave0 = 0; wave0 < stream_len;
         wave0 += buffer_bytes_) {
      const std::uint64_t wave_len =
          std::min(buffer_bytes_, stream_len - wave0);
      // Global byte range of this wave within the concatenated stream.
      const std::uint64_t g0 =
          stream_offset_[static_cast<std::size_t>(j)] + wave0;
      const std::uint64_t g1 = g0 + wave_len;

      if (reader == me) {
        if (transparent_ && decode_stream != j && st.ok()) {
          // New source stream: probe for the sync marker and build its frame
          // index. Failures fall back to zero-shipping + agree() like any
          // other reader-side error.
          decode_stream = j;
          decoder.reset();
          decoder_encoded_prev = 0;
          auto probe = probe_stream(*view_, j);
          if (!probe.ok()) {
            st = probe.status();
          } else if (probe.value().bytes != stream_len) {
            st = Corrupt("stream size changed between open and restore");
          } else if (probe.value().frames.has_value()) {
            decoder = std::make_unique<FrameStreamReader>(
                std::move(*probe.value().frames), stream_read_at(*view_, j),
                &stats.loss);
          }
        }
        wave_buf.resize(wave_len);
        if (decoder != nullptr && decode_stream == j) {
          const Status rd = decoder->read_decoded(wave0, wave_buf);
          if (!rd.ok()) st = rd;
          stats.bytes_read +=
              decoder->encoded_bytes_read() - decoder_encoded_prev;
          decoder_encoded_prev = decoder->encoded_bytes_read();
        } else {
          auto got = view_->read_at(j, wave0, wave_buf);
          if (!got.ok()) {
            st = got.status();
          } else if (got.value() != wave_len) {
            st = Corrupt("stream shorter than its metablock-2 record");
          }
          stats.bytes_read += wave_len;
        }
        if (!st.ok()) {
          // Keep the protocol alive: ship zeroes of the agreed sizes and
          // report the failure through agree() below.
          std::fill(wave_buf.begin(), wave_buf.end(), std::byte{0});
        }
        // First destination overlapping g0, then walk forward.
        int dst = static_cast<int>(
            std::upper_bound(dest_offset.begin(), dest_offset.end(), g0) -
            dest_offset.begin()) - 1;
        for (; dst < msize && dest_offset[static_cast<std::size_t>(dst)] < g1;
             ++dst) {
          const std::uint64_t p0 =
              std::max(g0, dest_offset[static_cast<std::size_t>(dst)]);
          const std::uint64_t p1 =
              std::min(g1, dest_offset[static_cast<std::size_t>(dst) + 1]);
          if (p0 >= p1) continue;
          const std::span<const std::byte> piece(wave_buf.data() + (p0 - g0),
                                                 p1 - p0);
          if (dst == me) {
            if (!discard) {
              std::memcpy(out.data() + (p0 - my_start), piece.data(),
                          piece.size());
            }
            stats.bytes_local += piece.size();
          } else {
            mcom_->send_bytes(piece, dst, /*tag=*/j);
            stats.bytes_sent += piece.size();
          }
        }
      } else {
        // My overlap with this wave, if any, arrives from its reader.
        const std::uint64_t p0 = std::max(g0, my_start);
        const std::uint64_t p1 = std::min(g1, my_start + want);
        if (p0 >= p1) continue;
        const std::vector<std::byte> piece = mcom_->recv_bytes(reader, j);
        if (piece.size() != p1 - p0) {
          st = Internal("remap wave size mismatch");
          continue;
        }
        if (!discard) {
          std::memcpy(out.data() + (p0 - my_start), piece.data(),
                      piece.size());
        }
        stats.bytes_received += piece.size();
      }
    }
  }
  SION_RETURN_IF_ERROR(par::agree_status(*mcom_, st, kRemapFailed));
  return stats;
}

// ---------------------------------------------------------------------------
// close
// ---------------------------------------------------------------------------

Status Remap::close() {
  // Double-close on one rank still reaches the agreement, so the other
  // tasks' close() calls fail cleanly instead of deadlocking.
  Status st;
  if (closed_) {
    st = FailedPrecondition("remap already closed");
  } else {
    if (view_ != nullptr) {
      st = view_->close();
      view_.reset();
    }
    closed_ = true;
  }
  return par::agree_status(*mcom_, st, kRemapFailed);
}

}  // namespace sion::ext
