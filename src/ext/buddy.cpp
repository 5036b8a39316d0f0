#include "ext/buddy.h"

#include <algorithm>
#include <vector>

#include "common/codec.h"
#include "common/log.h"
#include "common/strings.h"
#include "core/chunk_stream.h"
#include "core/metadata.h"
#include "par/engine.h"

namespace sion::ext {

namespace {

// Payload-view leg of the mirror rotation (the descriptor leg travels
// through Comm::rotate_bytes).
constexpr int kMirrorDataTag = 0xB0DD;

// Shared wording for the par agreement helpers: a failure on any writer,
// any buddy host, or any heal task must surface on every task.
constexpr char kBuddyFailed[] = "buddy replication failed on another rank";

Status agree(par::Comm& comm, const Status& mine) {
  return par::agree_status(comm, mine, kBuddyFailed);
}

// Rotated rank -> physical-file mapping of replica set k: the streams of
// domain d land in the file owned by buddy domain (d + k) mod D.
std::vector<int> rotated_file_map(int gsize, int domain_size, int ndomains,
                                  int k) {
  std::vector<int> file_of(static_cast<std::size_t>(gsize));
  for (int i = 0; i < gsize; ++i) {
    file_of[static_cast<std::size_t>(i)] = (i / domain_size + k) % ndomains;
  }
  return file_of;
}

// Plain-mode mirror writer for replica set k: every rank ships its chunk
// descriptor and payload view to the buddy rank shift = k*S positions
// ahead over the group-to-group rotation, and each domain writes the
// streams it received into its own replica physical file — a valid SION
// physical file carrying the SOURCE ranks' identity, so the set reads like
// any other multifile.
Status mirror_write(fs::FileSystem& fs, par::Comm& gcom, par::Comm& dcom,
                    const std::string& set_name, int k, int domain_size,
                    int ndomains, std::uint64_t fsblksize,
                    std::uint64_t chunksize, fs::DataView payload) {
  const int gsize = gcom.size();
  const int me = gcom.rank();
  const int shift = k * domain_size;
  const int src_rank = (me - shift % gsize + gsize) % gsize;
  const int g = me / domain_size;  // the file my domain hosts
  const int p = dcom.rank();       // my slot within it

  // Descriptor rotation: chunk geometry and payload shape travel to the
  // buddy host so both sides know exactly what the view leg carries.
  ByteWriter w;
  w.put_u64(chunksize);
  w.put_u64(payload.size());
  w.put_u8(payload.is_fill() ? 1 : 0);
  w.put_u8(payload.is_fill() ? static_cast<std::uint8_t>(payload.fill_byte())
                             : 0);
  const std::vector<std::byte> desc = gcom.rotate_bytes(w.bytes(), shift);
  ByteReader r(desc);
  SION_ASSIGN_OR_RETURN(const std::uint64_t src_chunksize, r.get_u64());
  SION_ASSIGN_OR_RETURN(const std::uint64_t src_size, r.get_u64());
  SION_ASSIGN_OR_RETURN(const std::uint8_t src_is_fill, r.get_u8());
  SION_ASSIGN_OR_RETURN(const std::uint8_t src_fill, r.get_u8());

  // Payload-view leg: real bytes ship zero-copy (the payload stays alive
  // until this collective returns); fills never materialise — their link
  // time is charged on the sender's clock like the aggregation ship does.
  std::span<const std::byte> src_bytes;
  if (payload.size() > 0) {
    if (payload.is_fill()) {
      par::this_task()->compute(gcom.network().p2p_cost(payload.size()));
    } else {
      gcom.send_view(payload.bytes(), (me + shift) % gsize, kMirrorDataTag);
    }
  }
  if (src_size > 0 && src_is_fill == 0) {
    src_bytes = gcom.recv_view(src_rank, kMirrorDataTag);
    if (src_bytes.size() != src_size) {
      return Internal("buddy mirror ship size mismatch");
    }
  }

  // File-local metadata: the domain master lays the replica file out with
  // the source ranks' identity and geometry, exactly like a SionParFile
  // master would for those ranks.
  const std::string path =
      core::physical_file_name(set_name, g, ndomains);
  const auto chunksizes = dcom.gather_u64(src_chunksize, 0);
  Status st;
  std::unique_ptr<fs::File> file;
  std::uint64_t data_start = 0;
  std::uint64_t block_span = 0;
  std::vector<std::uint64_t> chunk_offsets;
  std::vector<std::uint64_t> capacities;
  if (p == 0) {
    core::FileHeader header;
    header.fsblksize = fsblksize;
    header.ntasks = static_cast<std::uint32_t>(domain_size);
    header.nfiles = static_cast<std::uint32_t>(ndomains);
    header.filenum = static_cast<std::uint32_t>(g);
    const int src_base =
        ((g - k) % ndomains + ndomains) % ndomains * domain_size;
    header.global_ranks.resize(static_cast<std::size_t>(domain_size));
    for (int t = 0; t < domain_size; ++t) {
      header.global_ranks[static_cast<std::size_t>(t)] =
          static_cast<std::uint64_t>(src_base + t);
    }
    header.chunksizes_req = chunksizes;
    auto created = core::create_physical_file(fs, path, header);
    if (created.ok()) {
      data_start = created.value().layout.data_start();
      block_span = created.value().layout.block_span();
      chunk_offsets = created.value().layout.chunk_offsets();
      capacities = created.value().layout.chunksizes();
      file = std::move(created.value().file);
    } else {
      st = created.status();
    }
  }
  SION_RETURN_IF_ERROR(par::share_status_global(dcom, gcom, st, 0, kBuddyFailed));

  std::uint64_t geom[2] = {data_start, block_span};
  const std::span<const std::uint64_t> per_task[] = {chunk_offsets,
                                                     capacities};
  std::uint64_t mine[2] = {0, 0};  // chunk offset, capacity
  dcom.steps({.bcast = geom, .scatter_in = per_task, .scatter_out = mine}, 0);
  data_start = geom[0];
  block_span = geom[1];
  const std::uint64_t my_offset = mine[0];
  const std::uint64_t my_capacity = mine[1];

  st = Status::Ok();
  if (p != 0) {
    auto opened = fs.open_rw(path);
    if (!opened.ok()) {
      st = opened.status();
    } else {
      file = std::move(opened).value();
    }
  }
  SION_RETURN_IF_ERROR(par::share_status_global(dcom, gcom, st, 0, kBuddyFailed));

  // Write the mirrored stream through the same chunk walk a SionParFile
  // writer uses.
  const fs::DataView mirrored =
      src_is_fill != 0
          ? fs::DataView::fill(static_cast<std::byte>(src_fill), src_size)
          : fs::DataView(src_bytes);
  std::vector<std::uint64_t> chunk_bytes{0};
  core::ChunkStream stream(file.get(), &chunk_bytes, data_start + my_offset,
                           block_span, my_capacity, /*writable=*/true);
  st = stream.write(mirrored).status();

  // Per-chunk usage to the master, which writes metablock 2 and the
  // trailer exactly like a parallel close.
  const auto all = dcom.gatherv_u64_flat(chunk_bytes, 0);
  if (p == 0 && st.ok()) {
    st = core::write_meta2_and_trailer(*file, data_start, block_span,
                                       core::FileMeta2::from_gather(all));
  }
  file.reset();
  SION_RETURN_IF_ERROR(agree(gcom, st));
  gcom.barrier();
  return Status::Ok();
}

// Copy a surviving replica file over the lost primary file and patch the
// header's filenum so the healed file takes the primary's place in the set.
Result<std::uint64_t> heal_one(fs::FileSystem& fs, const std::string& src_path,
                               const std::string& dst_path, int filenum,
                               std::uint64_t buffer_bytes) {
  SION_ASSIGN_OR_RETURN(auto src, fs.open_read(src_path));
  SION_ASSIGN_OR_RETURN(core::FileHeader header, core::read_header(*src));
  header.filenum = static_cast<std::uint32_t>(filenum);
  return core::copy_physical_file(*src, &header, fs, dst_path, buffer_bytes);
}

}  // namespace

std::string Buddy::replica_name(const std::string& name, int k) {
  return strformat("%s.b%d", name.c_str(), k);
}

Result<BuddyConfig> Buddy::resolve(const BuddyConfig& config, int nfiles,
                                   int ntasks) {
  BuddyConfig resolved = config;
  if (resolved.num_domains <= 0) resolved.num_domains = std::max(1, nfiles);
  const int domains = resolved.num_domains;
  if (config.replicas < 1) {
    return InvalidArgument("buddy replication degree must be at least 1");
  }
  if (config.replicas > domains) {
    return InvalidArgument(strformat(
        "replication degree %d exceeds the %d failure domains (the copies "
        "of a stream must live in distinct domains)",
        config.replicas, domains));
  }
  if (ntasks > 0 && ntasks % domains != 0) {
    return InvalidArgument(strformat(
        "%d tasks cannot form %d equal failure domains", ntasks, domains));
  }
  return resolved;
}

// ---------------------------------------------------------------------------
// write
// ---------------------------------------------------------------------------

Status Buddy::write(fs::FileSystem& fs, par::Comm& gcom,
                    const core::ParOpenSpec& spec, const BuddyConfig& config,
                    fs::DataView payload,
                    const CollectiveConfig* aggregation) {
  const int gsize = gcom.size();
  const int replicas = config.replicas;
  if (spec.chunk_frames) {
    return InvalidArgument(
        "chunk recovery frames are not supported with buddy replication");
  }
  SION_ASSIGN_OR_RETURN(const BuddyConfig resolved,
                        resolve(config, spec.nfiles, gsize));
  const int ndomains = resolved.num_domains;
  const int domain_size = gsize / ndomains;

  // The mirror ship rotates single-mode views; gather payloads would need
  // per-part descriptors. The check is agreed so a single gather-carrying
  // rank fails every task instead of deserting its buddy mid-rotation.
  if (replicas > 1 && aggregation == nullptr) {
    const bool gather = payload.is_gather();
    if (gcom.allreduce_u64(gather ? 1 : 0, par::ReduceOp::kMax) != 0) {
      return InvalidArgument(
          "gather payloads are not supported by the buddy mirror ship");
    }
  }

  // Primary: the ordinary multifile, one physical file per failure domain
  // (contiguous equal blocks == the domain mapping when D divides gsize).
  SION_ASSIGN_OR_RETURN(
      const core::ParOpenSpec pspec,
      write_domain_primary(fs, gcom, spec, ndomains, aggregation, payload));

  if (replicas == 1) return Status::Ok();

  // The plain-mode mirror writer needs the per-domain subcommunicator; the
  // split is collective, so make it unconditionally and once for all sets.
  par::Comm* dcom = gcom.split(gcom.rank() / domain_size);
  SION_CHECK(dcom != nullptr) << "domain split returned no communicator";

  for (int k = 1; k < replicas; ++k) {
    const std::string set_name = replica_name(spec.filename, k);
    if (aggregation != nullptr) {
      // Rotated mapping, identity preserved: rank i's payload ships through
      // ext::Collective to the collector of buddy domain (d_i + k) mod D's
      // file — the coalesced-copy-traffic path.
      core::ParOpenSpec rspec = pspec;
      rspec.filename = set_name;
      rspec.mapping = core::Mapping::kCustom;
      rspec.custom_file_of_rank =
          rotated_file_map(gsize, domain_size, ndomains, k);
      SION_RETURN_IF_ERROR(
          write_multifile(fs, gcom, rspec, aggregation, payload));
    } else {
      SION_RETURN_IF_ERROR(mirror_write(fs, gcom, *dcom, set_name, k,
                                        domain_size, ndomains, pspec.fsblksize,
                                        spec.chunksize, payload));
    }
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// heal
// ---------------------------------------------------------------------------

Result<BuddyHealReport> Buddy::heal(fs::FileSystem& fs, par::Comm& mcom,
                                    const std::string& name,
                                    const BuddyConfig& config,
                                    std::uint64_t copy_buffer_bytes) {
  const int me = mcom.rank();
  const int msize = mcom.size();
  const int ndomains = config.num_domains;
  const int replicas = config.replicas;

  // Rank 0 probes every primary physical file and picks, per damaged file,
  // the surviving replica candidates in preference order (nearest buddy
  // first). The plan is broadcast so the heal copies spread over the
  // restart tasks deterministically.
  Status st;
  std::vector<std::byte> plan;
  if (me == 0) {
    st = [&]() -> Status {
      if (ndomains < 1 || replicas < 1) {
        return InvalidArgument(
            "buddy heal needs the write-time num_domains and replicas");
      }
      ByteWriter w;
      std::uint64_t damaged = 0;
      ByteWriter body;
      for (int f = 0; f < ndomains; ++f) {
        if (core::physical_file_usable(
                fs, core::physical_file_name(name, f, ndomains), ndomains)) {
          continue;
        }
        std::vector<std::uint64_t> cands;
        for (int k = 1; k < replicas; ++k) {
          const std::string cand = core::physical_file_name(
              replica_name(name, k), (f + k) % ndomains, ndomains);
          if (core::physical_file_usable(fs, cand, ndomains)) {
            cands.push_back(static_cast<std::uint64_t>(k));
          }
        }
        if (cands.empty()) {
          return IoError(strformat(
              "buddy heal: all %d copies of primary file %d of '%s' are "
              "lost or damaged — the data cannot be recovered",
              replicas, f, name.c_str()));
        }
        ++damaged;
        body.put_u64(static_cast<std::uint64_t>(f));
        body.put_u64_array(cands);
      }
      w.put_u64(damaged);
      w.put_bytes(body.bytes());
      plan = w.take();
      return Status::Ok();
    }();
  }
  mcom.steps({.status = &st, .blob = &plan}, 0, kBuddyFailed);
  SION_RETURN_IF_ERROR(st);

  BuddyHealReport report;
  report.domains = ndomains;
  report.replicas = replicas;
  std::uint64_t my_healed = 0;
  std::uint64_t my_bytes = 0;
  st = Status::Ok();
  {
    ByteReader r(plan);
    SION_ASSIGN_OR_RETURN(const std::uint64_t damaged, r.get_u64());
    report.damaged_files = static_cast<int>(damaged);
    for (std::uint64_t i = 0; i < damaged; ++i) {
      SION_ASSIGN_OR_RETURN(const std::uint64_t f, r.get_u64());
      SION_ASSIGN_OR_RETURN(const auto cands, r.get_u64_array());
      if (static_cast<int>(i % static_cast<std::uint64_t>(msize)) != me) {
        continue;
      }
      Status tried = IoError("no replica candidate");
      for (const std::uint64_t k : cands) {
        const std::string src = core::physical_file_name(
            replica_name(name, static_cast<int>(k)),
            (static_cast<int>(f) + static_cast<int>(k)) % ndomains, ndomains);
        auto copied = heal_one(
            fs, src,
            core::physical_file_name(name, static_cast<int>(f), ndomains),
            static_cast<int>(f), copy_buffer_bytes);
        if (copied.ok()) {
          ++my_healed;
          my_bytes += copied.value();
          tried = Status::Ok();
          break;
        }
        // A candidate that probed healthy can still fail mid-copy (injected
        // read faults, concurrent damage): fall through to the next one.
        tried = copied.status();
      }
      if (!tried.ok() && st.ok()) st = tried;
    }
  }
  SION_RETURN_IF_ERROR(agree(mcom, st));
  report.healed_files =
      static_cast<int>(mcom.allreduce_u64(my_healed, par::ReduceOp::kSum));
  report.bytes_copied = mcom.allreduce_u64(my_bytes, par::ReduceOp::kSum);
  return report;
}

// ---------------------------------------------------------------------------
// restore
// ---------------------------------------------------------------------------

Result<RemapStats> Buddy::restore(fs::FileSystem& fs, par::Comm& mcom,
                                  const std::string& name,
                                  const BuddyConfig& config,
                                  std::span<std::byte> out, std::uint64_t want,
                                  const RemapConfig& remap_config) {
  SION_ASSIGN_OR_RETURN(const BuddyHealReport healed,
                        heal(fs, mcom, name, config,
                             remap_config.buffer_bytes));
  (void)healed;
  SION_ASSIGN_OR_RETURN(auto remap, Remap::open(fs, mcom, name, remap_config));
  SION_ASSIGN_OR_RETURN(const RemapStats stats, remap->restore(out, want));
  SION_RETURN_IF_ERROR(remap->close());
  return stats;
}

}  // namespace sion::ext
