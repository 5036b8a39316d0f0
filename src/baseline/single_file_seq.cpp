#include "baseline/single_file_seq.h"

#include <algorithm>
#include <vector>

#include "common/log.h"

namespace sion::baseline {

namespace {
constexpr int kDataTag = 0x5EC;
constexpr int kTokenTag = 0x70C;

// Collective error propagation: the I/O task's status must reach everyone or
// a failure there would strand the other tasks. Protocol messages always
// complete (with dummy payloads on error); the status is agreed at the end.
Status share_outcome(par::Comm& comm, const Status& mine) {
  const std::uint64_t failed =
      comm.allreduce_u64(mine.ok() ? 0 : 1, par::ReduceOp::kMax);
  if (failed == 0) return Status::Ok();
  if (!mine.ok()) return mine;
  return Internal("single-file-sequential I/O failed on the I/O task");
}
}  // namespace

Status write_single_file_seq(fs::FileSystem& fs, par::Comm& comm,
                             const std::string& path, fs::DataView my_data,
                             const SingleFileSeqOptions& options) {
  const int rank = comm.rank();
  const int io_rank = options.io_rank;
  const std::uint64_t staging = std::max<std::uint64_t>(1, options.staging_bytes);

  // Everyone announces its size so the I/O task knows the file offsets.
  const auto sizes = comm.gather_u64(my_data.size(), io_rank);

  Status st;
  if (rank == io_rank) {
    std::unique_ptr<fs::File> file;
    auto created = fs.create(path);
    if (created.ok()) {
      file = std::move(created).value();
    } else {
      st = created.status();
    }
    std::uint64_t offset = 0;
    for (int src = 0; src < comm.size(); ++src) {
      const std::uint64_t total = sizes[static_cast<std::size_t>(src)];
      std::uint64_t done = 0;
      while (done < total) {
        const std::uint64_t piece = std::min(staging, total - done);
        if (src == io_rank) {
          // Own data goes straight from the application buffer.
          if (st.ok()) {
            auto wrote = file->pwrite(my_data.subview(done, piece), offset);
            if (!wrote.ok()) st = wrote.status();
          }
        } else {
          // Gather one staging buffer's worth, then write it out — the
          // alternating gather/write pattern the paper describes. The token
          // handshake is the flow control a real implementation needs: the
          // I/O task has only one staging buffer, so senders must not run
          // ahead.
          comm.send_bytes({}, src, kTokenTag);
          const std::vector<std::byte> buf = comm.recv_bytes(src, kDataTag);
          if (st.ok() && buf.size() != piece) {
            st = Internal("staging piece size mismatch");
          }
          if (st.ok()) {
            auto wrote = file->pwrite(fs::DataView(buf), offset);
            if (!wrote.ok()) st = wrote.status();
          }
        }
        done += piece;
        offset += piece;
      }
    }
  } else {
    // Send the payload in staging-sized pieces; fill payloads are
    // materialised through one reusable buffer.
    std::vector<std::byte> staging_buf;
    std::uint64_t done = 0;
    while (done < my_data.size()) {
      const std::uint64_t piece = std::min(staging, my_data.size() - done);
      const fs::DataView view = my_data.subview(done, piece);
      (void)comm.recv_bytes(io_rank, kTokenTag);  // wait for the I/O task
      if (view.is_fill()) {
        staging_buf.assign(piece, view.fill_byte());
        comm.send_bytes(staging_buf, io_rank, kDataTag);
      } else {
        comm.send_bytes(view.bytes(), io_rank, kDataTag);
      }
      done += piece;
    }
  }
  return share_outcome(comm, st);
}

Status read_single_file_seq(fs::FileSystem& fs, par::Comm& comm,
                            const std::string& path, std::uint64_t my_bytes,
                            std::span<std::byte> out,
                            const SingleFileSeqOptions& options) {
  const int rank = comm.rank();
  const int io_rank = options.io_rank;
  const std::uint64_t staging = std::max<std::uint64_t>(1, options.staging_bytes);
  // A task whose buffer cannot hold its bytes still takes part in every
  // gather and scatter, dropping the bytes, so no other task strands; its
  // error joins the agreed outcome.
  const bool fits = out.empty() || out.size() >= my_bytes;
  const bool discard = out.empty() || !fits;

  const auto sizes = comm.gather_u64(my_bytes, io_rank);

  Status st;
  if (rank == io_rank) {
    std::unique_ptr<fs::File> file;
    auto opened = fs.open_read(path);
    if (opened.ok()) {
      file = std::move(opened).value();
    } else {
      st = opened.status();
    }
    std::vector<std::byte> buf;
    std::uint64_t offset = 0;
    for (int dst = 0; dst < comm.size(); ++dst) {
      const std::uint64_t total = sizes[static_cast<std::size_t>(dst)];
      std::uint64_t done = 0;
      while (done < total) {
        const std::uint64_t piece = std::min(staging, total - done);
        buf.assign(piece, std::byte{0});  // dummy payload if already failed
        if (st.ok()) {
          auto got = file->pread(buf, offset);
          if (!got.ok()) {
            st = got.status();
          } else if (got.value() != piece) {
            st = Corrupt("short read in restart file");
          }
        }
        if (dst == io_rank) {
          if (!discard && st.ok()) {
            std::copy(buf.begin(), buf.end(),
                      out.begin() + static_cast<std::ptrdiff_t>(done));
          }
        } else {
          comm.send_bytes(buf, dst, kDataTag);
        }
        done += piece;
        offset += piece;
      }
    }
  } else {
    std::uint64_t done = 0;
    while (done < my_bytes) {
      const std::uint64_t piece = std::min(staging, my_bytes - done);
      const std::vector<std::byte> buf = comm.recv_bytes(io_rank, kDataTag);
      if (st.ok() && buf.size() != piece) {
        st = Internal("staging piece size mismatch");
      }
      if (!discard && st.ok()) {
        std::copy(buf.begin(), buf.end(),
                  out.begin() + static_cast<std::ptrdiff_t>(done));
      }
      done += piece;
    }
  }
  if (!fits && st.ok()) {
    st = InvalidArgument("output buffer smaller than expected bytes");
  }
  return share_outcome(comm, st);
}

}  // namespace sion::baseline
