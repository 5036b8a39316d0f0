#include "ext/ecc.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

#include "common/codec.h"
#include "common/strings.h"
#include "core/metadata.h"
#include "ext/compress.h"
#include "ext/gf256.h"
#include "fs/path.h"
#include "par/engine.h"

namespace sion::ext {

namespace {

// Shared wording for the par agreement helpers: a failure on any encoder,
// healer, or degraded reader must surface on every task.
constexpr char kEccFailed[] = "ecc protection failed on another rank";

Status agree(par::Comm& comm, const Status& mine) {
  return par::agree_status(comm, mine, kEccFailed);
}

// Parity file layout: a small self-describing header, the parity payload
// at `data_start` (zero stripes skipped, so alignment gaps of the data
// files stay sparse here too), and an 8-byte end marker at
// data_start + payload_bytes whose presence proves the encode completed
// and the file was not silently truncated.
constexpr char kParityMagic[] = "SIONECC1";
constexpr char kParityEnd[] = "SIONECC2";
constexpr std::uint32_t kParityVersion = 1;
constexpr std::uint64_t kParityAlign = 512;

struct ParityHeader {
  int k = 0;
  int m = 0;
  int index = 0;  // which parity file this is (j)
  std::uint64_t stripe_bytes = 0;
  std::uint64_t data_start = 0;
  std::uint64_t payload_bytes = 0;
  std::vector<std::uint64_t> data_bytes;  // k entries
};

std::uint64_t parity_data_start(int k) {
  // Serialized header size: magic + 4 u32 + 3 u64 + (count + k) u64 + crc.
  const std::uint64_t raw = 8 + 4 * 4 + 3 * 8 + 8 +
                            static_cast<std::uint64_t>(k) * 8 + 4;
  return (raw + kParityAlign - 1) / kParityAlign * kParityAlign;
}

std::vector<std::byte> serialize_parity_header(const ParityHeader& h) {
  ByteWriter w;
  w.put_bytes(std::as_bytes(std::span<const char>(kParityMagic, 8)));
  w.put_u32(kParityVersion);
  w.put_u32(static_cast<std::uint32_t>(h.k));
  w.put_u32(static_cast<std::uint32_t>(h.m));
  w.put_u32(static_cast<std::uint32_t>(h.index));
  w.put_u64(h.stripe_bytes);
  w.put_u64(h.data_start);
  w.put_u64(h.payload_bytes);
  w.put_u64_array(h.data_bytes);
  w.put_u32(crc32c(w.bytes()));
  return w.take();
}

Result<ParityHeader> parse_parity_header(fs::File& file) {
  // The header is bounded by k <= 255: 68 + 8k bytes < 4 KiB.
  std::vector<std::byte> buf(4096);
  SION_ASSIGN_OR_RETURN(const std::uint64_t got,
                        file.pread(std::span<std::byte>(buf), 0));
  buf.resize(static_cast<std::size_t>(got));
  if (got < 8 || std::memcmp(buf.data(), kParityMagic, 8) != 0) {
    return Corrupt("not an ECC parity file (bad magic)");
  }
  ByteReader r(std::span<const std::byte>(buf).subspan(8));
  SION_ASSIGN_OR_RETURN(const std::uint32_t version, r.get_u32());
  if (version != kParityVersion) {
    return Corrupt(strformat("unsupported ECC parity version %u", version));
  }
  ParityHeader h;
  SION_ASSIGN_OR_RETURN(const std::uint32_t k, r.get_u32());
  SION_ASSIGN_OR_RETURN(const std::uint32_t m, r.get_u32());
  SION_ASSIGN_OR_RETURN(const std::uint32_t index, r.get_u32());
  SION_ASSIGN_OR_RETURN(h.stripe_bytes, r.get_u64());
  SION_ASSIGN_OR_RETURN(h.data_start, r.get_u64());
  SION_ASSIGN_OR_RETURN(h.payload_bytes, r.get_u64());
  // Checked as stored, before the casts: an index of 2^31 or more would
  // otherwise become negative and pass `index < m`. The end marker's offset
  // data_start + payload_bytes + 8 must not wrap round. The writer always
  // starts the payload at parity_data_start(k); parity is byte-positional,
  // so any other start would decode shifted bytes.
  constexpr std::uint64_t kLastEnd = ~std::uint64_t{0} - 8;
  if (k < 1 || k > 255 || m < 1 || m > 255 - k || index >= m ||
      h.payload_bytes > kLastEnd || h.data_start > kLastEnd - h.payload_bytes ||
      h.data_start != parity_data_start(static_cast<int>(k))) {
    return Corrupt("ECC parity header carries impossible geometry");
  }
  h.k = static_cast<int>(k);
  h.m = static_cast<int>(m);
  h.index = static_cast<int>(index);
  SION_ASSIGN_OR_RETURN(h.data_bytes, r.get_u64_array());
  if (h.data_bytes.size() != static_cast<std::size_t>(h.k)) {
    return Corrupt("ECC parity header data-length table truncated");
  }
  SION_ASSIGN_OR_RETURN(const std::uint32_t stored_crc, r.get_u32());
  const std::size_t crc_at = 8 + 4 * 4 + 3 * 8 + 8 +
                             static_cast<std::size_t>(h.k) * 8;
  if (buf.size() < crc_at + 4 ||
      crc32c(std::span<const std::byte>(buf).first(crc_at)) != stored_crc) {
    return Corrupt("ECC parity header checksum mismatch");
  }
  return h;
}

// Whether the parity file ends exactly where its header says the payload
// ends, with the end marker there: proof that the encode completed and
// nothing was cut off since.
Result<bool> parity_complete(fs::File& file, const ParityHeader& h) {
  SION_ASSIGN_OR_RETURN(const fs::FileStat st, file.stat());
  if (st.size != h.data_start + h.payload_bytes + 8) return false;
  std::array<std::byte, 8> end{};
  SION_ASSIGN_OR_RETURN(
      const std::uint64_t got,
      file.pread(std::span<std::byte>(end), h.data_start + h.payload_bytes));
  return got == 8 && std::memcmp(end.data(), kParityEnd, 8) == 0;
}

// A parity file is usable when its header parses (checksummed), matches
// the expected geometry, and is complete — so silent truncation anywhere
// fails the probe.
Result<ParityHeader> parity_usable(fs::FileSystem& fs, const std::string& path,
                                   int k, int m, int index) {
  SION_ASSIGN_OR_RETURN(auto file, fs.open_read(path));
  SION_ASSIGN_OR_RETURN(ParityHeader h, parse_parity_header(*file));
  if (h.k != k || h.m != m || h.index != index) {
    return Corrupt(strformat(
        "parity file '%s' belongs to a (k=%d, m=%d, j=%d) set, expected "
        "(k=%d, m=%d, j=%d)",
        path.c_str(), h.k, h.m, h.index, k, m, index));
  }
  SION_ASSIGN_OR_RETURN(const bool complete, parity_complete(*file, h));
  if (!complete) {
    return Corrupt(strformat("parity file '%s' is truncated or has no end "
                             "marker (the encode never completed)",
                             path.c_str()));
  }
  return h;
}

// Rank 0 probes once and broadcasts the result, so one verdict drives every
// task's branch and decode identically (no per-task re-probing).
Result<EccProbe> shared_probe(fs::FileSystem& fs, par::Comm& mcom,
                              const std::string& name,
                              const EccConfig& config) {
  Status st;
  std::vector<std::byte> blob;
  if (mcom.rank() == 0) {
    auto probed = Ecc::probe(fs, name, config);
    if (probed.ok()) {
      blob = probed.value().serialize();
    } else {
      st = probed.status();
    }
  }
  mcom.steps({.status = &st, .blob = &blob}, 0, kEccFailed);
  SION_RETURN_IF_ERROR(st);
  return EccProbe::deserialize(blob);
}

// Survivor selection + decode rows for a set of lost data files: pick the
// first k usable files (data preferred — identity rows keep the matrix
// mostly trivial), build the k x k generator submatrix, invert it. Row d
// of the inverse reconstructs data file d from the survivors.
Status build_decode(const EccProbe& p, std::span<const int> lost,
                    std::vector<int>* survivor_ids,
                    std::vector<std::vector<std::uint8_t>>* rows) {
  const int k = p.k;
  std::vector<int> surv;
  for (int d = 0; d < k; ++d) {
    if (p.data_ok[static_cast<std::size_t>(d)] != 0) surv.push_back(d);
  }
  for (int j = 0; j < p.m; ++j) {
    if (p.parity_ok[static_cast<std::size_t>(j)] != 0) surv.push_back(k + j);
  }
  if (static_cast<int>(surv.size()) < k) {
    return IoError(strformat(
        "ecc: only %d of the %d+%d protection files survive — fewer than "
        "the %d any reconstruction needs; the data cannot be recovered",
        static_cast<int>(surv.size()), k, p.m, k));
  }
  surv.resize(static_cast<std::size_t>(k));
  std::vector<std::uint8_t> matrix(
      static_cast<std::size_t>(k) * static_cast<std::size_t>(k), 0);
  for (int i = 0; i < k; ++i) {
    const int s = surv[static_cast<std::size_t>(i)];
    if (s < k) {
      matrix[static_cast<std::size_t>(i) * static_cast<std::size_t>(k) +
             static_cast<std::size_t>(s)] = 1;
    } else {
      for (int d = 0; d < k; ++d) {
        matrix[static_cast<std::size_t>(i) * static_cast<std::size_t>(k) +
               static_cast<std::size_t>(d)] = gf_cauchy(k, s - k, d);
      }
    }
  }
  SION_RETURN_IF_ERROR(gf_invert_matrix(matrix, k));
  rows->clear();
  for (const int d : lost) {
    std::vector<std::uint8_t> row(static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i) {
      row[static_cast<std::size_t>(i)] =
          matrix[static_cast<std::size_t>(d) * static_cast<std::size_t>(k) +
                 static_cast<std::size_t>(i)];
    }
    rows->push_back(std::move(row));
  }
  *survivor_ids = std::move(surv);
  return Status::Ok();
}

std::string survivor_path(const std::string& name, const EccProbe& p, int id) {
  if (id < p.k) return core::physical_file_name(name, id, p.k);
  return Ecc::parity_name(name, id - p.k);
}

// The k open survivor handles a decode walks: reading range [off, off+n)
// of ANY data file maps to the same range of every survivor (parity
// shifted by data_start), because parity is byte-positional. Short reads
// and holes contribute zeros — exactly the implicit zero padding of the
// encode.
struct SurvivorSet {
  struct Src {
    std::unique_ptr<fs::File> file;
    bool parity = false;
  };
  std::vector<Src> srcs;
  std::uint64_t data_start = 0;

  static Result<SurvivorSet> open(fs::FileSystem& fs, const std::string& name,
                                  const EccProbe& p,
                                  std::span<const int> survivor_ids) {
    SurvivorSet set;
    set.data_start = p.data_start;
    for (const int id : survivor_ids) {
      Src src;
      src.parity = id >= p.k;
      SION_ASSIGN_OR_RETURN(src.file, fs.open_read(survivor_path(name, p, id)));
      set.srcs.push_back(std::move(src));
    }
    return set;
  }

  // out = sum_i tables[i] * survivor_i[off, off+out.size()).
  Status decode_range(std::span<std::byte> out, std::uint64_t off,
                      std::span<const GfMulTable> tables,
                      std::vector<std::byte>& scratch) {
    std::fill(out.begin(), out.end(), std::byte{0});
    scratch.resize(out.size());
    for (std::size_t i = 0; i < srcs.size(); ++i) {
      if (tables[i].coefficient() == 0) continue;
      std::fill(scratch.begin(), scratch.end(), std::byte{0});
      const std::uint64_t src_off = srcs[i].parity ? data_start + off : off;
      auto got = srcs[i].file->pread(std::span<std::byte>(scratch), src_off);
      if (!got.ok()) return got.status();
      // A read short of the range means the survivor ends there; the
      // pre-zeroed tail is the encode's zero padding.
      tables[i].mul_add(out, scratch);
    }
    return Status::Ok();
  }
};

std::vector<GfMulTable> make_tables(std::span<const std::uint8_t> coeffs) {
  std::vector<GfMulTable> tables;
  tables.reserve(coeffs.size());
  for (const std::uint8_t c : coeffs) tables.emplace_back(c);
  return tables;
}

// The degraded decode stream: a read-only fs::File whose pread()
// reconstructs any byte range of one lost data file from the k survivors.
class EccStreamReader final : public fs::File {
 public:
  static Result<std::unique_ptr<fs::File>> open(
      fs::FileSystem& base, const std::string& name, const EccProbe& probe,
      std::span<const int> survivor_ids, std::span<const std::uint8_t> row,
      std::uint64_t size, std::uint64_t block_size) {
    auto reader = std::unique_ptr<EccStreamReader>(new EccStreamReader());
    SION_ASSIGN_OR_RETURN(reader->set_,
                          SurvivorSet::open(base, name, probe, survivor_ids));
    reader->tables_ = make_tables(row);
    reader->size_ = size;
    reader->block_size_ = block_size;
    return std::unique_ptr<fs::File>(std::move(reader));
  }

  Result<std::uint64_t> pwrite(fs::DataView data, std::uint64_t offset)
      override {
    (void)data;
    (void)offset;
    return IoError("a degraded ECC decode stream is read-only");
  }

  Result<std::uint64_t> pread(std::span<std::byte> out,
                              std::uint64_t offset) override {
    if (offset >= size_) return 0;
    const std::uint64_t n =
        std::min<std::uint64_t>(out.size(), size_ - offset);
    SION_RETURN_IF_ERROR(set_.decode_range(
        out.first(static_cast<std::size_t>(n)), offset, tables_, scratch_));
    return n;
  }

  Result<fs::FileStat> stat() override {
    fs::FileStat st;
    st.size = size_;
    st.allocated = size_;
    st.block_size = block_size_;
    return st;
  }

  Status truncate(std::uint64_t size) override {
    (void)size;
    return IoError("a degraded ECC decode stream is read-only");
  }

  Status sync() override { return Status::Ok(); }

 private:
  EccStreamReader() = default;

  SurvivorSet set_;
  std::vector<GfMulTable> tables_;
  std::vector<std::byte> scratch_;
  std::uint64_t size_ = 0;
  std::uint64_t block_size_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// EccProbe
// ---------------------------------------------------------------------------

int EccProbe::lost_data() const {
  int lost = 0;
  for (const std::uint8_t ok : data_ok) lost += ok == 0 ? 1 : 0;
  return lost;
}

int EccProbe::lost_parity() const {
  int lost = 0;
  for (const std::uint8_t ok : parity_ok) lost += ok == 0 ? 1 : 0;
  return lost;
}

int EccProbe::survivors() const {
  return k + m - lost_data() - lost_parity();
}

std::vector<std::byte> EccProbe::serialize() const {
  ByteWriter w;
  w.put_u32(static_cast<std::uint32_t>(k));
  w.put_u32(static_cast<std::uint32_t>(m));
  w.put_u64(stripe_bytes);
  w.put_u64(data_start);
  w.put_u64(payload_bytes);
  w.put_u64_array(data_bytes);
  for (const std::uint8_t ok : data_ok) w.put_u8(ok);
  for (const std::uint8_t ok : parity_ok) w.put_u8(ok);
  return w.take();
}

Result<EccProbe> EccProbe::deserialize(std::span<const std::byte> bytes) {
  ByteReader r(bytes);
  EccProbe p;
  SION_ASSIGN_OR_RETURN(const std::uint32_t k, r.get_u32());
  SION_ASSIGN_OR_RETURN(const std::uint32_t m, r.get_u32());
  p.k = static_cast<int>(k);
  p.m = static_cast<int>(m);
  SION_ASSIGN_OR_RETURN(p.stripe_bytes, r.get_u64());
  SION_ASSIGN_OR_RETURN(p.data_start, r.get_u64());
  SION_ASSIGN_OR_RETURN(p.payload_bytes, r.get_u64());
  SION_ASSIGN_OR_RETURN(p.data_bytes, r.get_u64_array());
  p.data_ok.resize(static_cast<std::size_t>(p.k));
  for (int d = 0; d < p.k; ++d) {
    SION_ASSIGN_OR_RETURN(p.data_ok[static_cast<std::size_t>(d)], r.get_u8());
  }
  p.parity_ok.resize(static_cast<std::size_t>(p.m));
  for (int j = 0; j < p.m; ++j) {
    SION_ASSIGN_OR_RETURN(p.parity_ok[static_cast<std::size_t>(j)],
                          r.get_u8());
  }
  return p;
}

// ---------------------------------------------------------------------------
// Ecc
// ---------------------------------------------------------------------------

std::string Ecc::parity_name(const std::string& name, int j) {
  return strformat("%s.p%d", name.c_str(), j);
}

Result<EccParityInfo> Ecc::inspect_parity(fs::FileSystem& fs,
                                          const std::string& path) {
  SION_ASSIGN_OR_RETURN(auto file, fs.open_read(path));
  SION_ASSIGN_OR_RETURN(const ParityHeader h, parse_parity_header(*file));
  EccParityInfo info;
  info.k = h.k;
  info.m = h.m;
  info.index = h.index;
  info.stripe_bytes = h.stripe_bytes;
  info.payload_bytes = h.payload_bytes;
  SION_ASSIGN_OR_RETURN(info.intact, parity_complete(*file, h));
  return info;
}

Result<EccConfig> Ecc::resolve(const EccConfig& config, int nfiles,
                               int ntasks) {
  EccConfig resolved = config;
  if (resolved.data_domains <= 0) resolved.data_domains = std::max(1, nfiles);
  const int k = resolved.data_domains;
  const int m = config.parity_domains;
  if (m < 1) {
    return InvalidArgument(
        "ecc: at least one parity domain is required (leave the protection "
        "variant unset for none)");
  }
  if (m > 255 - k) {
    return InvalidArgument(strformat(
        "ecc: %d data + %d parity domains exceed the 255 failure domains "
        "GF(256) supports",
        k, m));
  }
  if (config.stripe_bytes == 0) {
    return InvalidArgument("ecc: stripe_bytes must be > 0");
  }
  if (ntasks > 0 && ntasks % k != 0) {
    return InvalidArgument(strformat(
        "%d writer tasks cannot form %d equal data domains (of the k+m "
        "failure domains, the k data domains must divide the writers)",
        ntasks, k));
  }
  return resolved;
}

Status Ecc::write(fs::FileSystem& fs, par::Comm& gcom,
                  const core::ParOpenSpec& spec, const EccConfig& config,
                  fs::DataView payload, const CollectiveConfig* aggregation) {
  if (spec.chunk_frames) {
    return InvalidArgument(
        "chunk recovery frames are not supported with ECC protection");
  }
  SION_ASSIGN_OR_RETURN(const EccConfig cfg,
                        resolve(config, spec.nfiles, gcom.size()));
  SION_RETURN_IF_ERROR(write_domain_primary(fs, gcom, spec, cfg.data_domains,
                                            aggregation, payload)
                           .status());
  return encode_parity(fs, gcom, spec.filename, cfg);
}

Status Ecc::encode_parity(fs::FileSystem& fs, par::Comm& comm,
                          const std::string& name, const EccConfig& config,
                          std::span<const int> only) {
  SION_ASSIGN_OR_RETURN(const EccConfig cfg, resolve(config, 1, 0));
  const int k = cfg.data_domains;
  const int m = cfg.parity_domains;
  const std::uint64_t stripe = cfg.stripe_bytes;
  std::vector<int> targets(only.begin(), only.end());
  if (targets.empty()) {
    for (int j = 0; j < m; ++j) targets.push_back(j);
  }

  // Rank 0 stats the data files, lays the parity files out (header now,
  // end marker after the payload lands) and broadcasts the geometry.
  Status st;
  std::vector<std::byte> plan;
  if (comm.rank() == 0) {
    st = [&]() -> Status {
      ParityHeader h;
      h.k = k;
      h.m = m;
      h.stripe_bytes = stripe;
      h.data_start = parity_data_start(k);
      h.data_bytes.resize(static_cast<std::size_t>(k));
      for (int d = 0; d < k; ++d) {
        SION_ASSIGN_OR_RETURN(
            const fs::FileStat fst,
            fs.stat_path(core::physical_file_name(name, d, k)));
        h.data_bytes[static_cast<std::size_t>(d)] = fst.size;
        h.payload_bytes = std::max(h.payload_bytes, fst.size);
      }
      for (const int j : targets) {
        h.index = j;
        SION_ASSIGN_OR_RETURN(auto file, fs.create(parity_name(name, j)));
        SION_ASSIGN_OR_RETURN(
            const std::uint64_t n,
            file->pwrite(fs::DataView(serialize_parity_header(h)), 0));
        (void)n;
      }
      ByteWriter w;
      w.put_u64(h.data_start);
      w.put_u64(h.payload_bytes);
      w.put_u64_array(h.data_bytes);
      plan = w.take();
      return Status::Ok();
    }();
  }
  comm.steps({.status = &st, .blob = &plan}, 0, kEccFailed);
  SION_RETURN_IF_ERROR(st);
  ByteReader r(plan);
  SION_ASSIGN_OR_RETURN(const std::uint64_t data_start, r.get_u64());
  SION_ASSIGN_OR_RETURN(const std::uint64_t payload_bytes, r.get_u64());
  SION_ASSIGN_OR_RETURN(const auto data_bytes, r.get_u64_array());

  // Contiguous stripe ranges per task: parity is byte-positional, so any
  // partition encodes the same bytes; contiguous keeps the I/O sequential.
  // The stripe may come from a parity header (heal), so neither the count
  // nor the buffer below may assume it is small.
  const std::uint64_t nstripes =
      payload_bytes / stripe + (payload_bytes % stripe != 0 ? 1 : 0);
  const auto msize = static_cast<std::uint64_t>(comm.size());
  const auto me = static_cast<std::uint64_t>(comm.rank());
  const std::uint64_t lo = nstripes * me / msize;
  const std::uint64_t hi = nstripes * (me + 1) / msize;

  st = Status::Ok();
  if (lo < hi) {
    st = [&]() -> Status {
      std::vector<std::unique_ptr<fs::File>> data_files(
          static_cast<std::size_t>(k));
      std::vector<std::unique_ptr<fs::File>> parity_files;
      std::vector<std::vector<GfMulTable>> tables;  // [target][d]
      for (const int j : targets) {
        SION_ASSIGN_OR_RETURN(auto file, fs.open_rw(parity_name(name, j)));
        parity_files.push_back(std::move(file));
        std::vector<std::uint8_t> row(static_cast<std::size_t>(k));
        for (int d = 0; d < k; ++d) {
          row[static_cast<std::size_t>(d)] = gf_cauchy(k, j, d);
        }
        tables.push_back(make_tables(row));
      }
      std::vector<std::byte> buf(
          static_cast<std::size_t>(std::min(stripe, payload_bytes)));
      std::vector<std::vector<std::byte>> acc(targets.size());
      for (std::uint64_t s = lo; s < hi; ++s) {
        const std::uint64_t off = s * stripe;
        const std::uint64_t take = std::min(stripe, payload_bytes - off);
        for (auto& a : acc) a.assign(static_cast<std::size_t>(take),
                                     std::byte{0});
        for (int d = 0; d < k; ++d) {
          const std::uint64_t len = data_bytes[static_cast<std::size_t>(d)];
          if (off >= len) continue;  // past this file's end: all zeros
          const std::uint64_t want = std::min(take, len - off);
          std::fill(buf.begin(),
                    buf.begin() + static_cast<std::ptrdiff_t>(take),
                    std::byte{0});
          if (data_files[static_cast<std::size_t>(d)] == nullptr) {
            SION_ASSIGN_OR_RETURN(
                data_files[static_cast<std::size_t>(d)],
                fs.open_read(core::physical_file_name(name, d, k)));
          }
          SION_ASSIGN_OR_RETURN(
              const std::uint64_t got,
              data_files[static_cast<std::size_t>(d)]->pread(
                  std::span<std::byte>(buf).first(
                      static_cast<std::size_t>(want)),
                  off));
          (void)got;  // short reads leave the pre-zeroed tail
          for (std::size_t t = 0; t < targets.size(); ++t) {
            tables[t][static_cast<std::size_t>(d)].mul_add(
                std::span<std::byte>(acc[t]),
                std::span<const std::byte>(buf).first(
                    static_cast<std::size_t>(take)));
          }
        }
        for (std::size_t t = 0; t < targets.size(); ++t) {
          // Zero-skip: where every data file has a hole (the multifile's
          // alignment gaps), the parity stays a hole too — this is what
          // keeps the byte overhead at m/k instead of m * file-size/k.
          const bool all_zero =
              std::all_of(acc[t].begin(), acc[t].end(),
                          [](std::byte b) { return b == std::byte{0}; });
          if (all_zero) continue;
          SION_ASSIGN_OR_RETURN(
              const std::uint64_t put,
              parity_files[t]->pwrite(fs::DataView(acc[t]), data_start + off));
          if (put != take) return IoError("short ECC parity write");
        }
      }
      return Status::Ok();
    }();
  }
  SION_RETURN_IF_ERROR(agree(comm, st));
  comm.barrier();

  // The end marker lands last: its presence proves a complete encode.
  st = Status::Ok();
  if (comm.rank() == 0) {
    st = [&]() -> Status {
      for (const int j : targets) {
        SION_ASSIGN_OR_RETURN(auto file, fs.open_rw(parity_name(name, j)));
        SION_ASSIGN_OR_RETURN(
            const std::uint64_t n,
            file->pwrite(fs::DataView(std::as_bytes(
                             std::span<const char>(kParityEnd, 8))),
                         data_start + payload_bytes));
        (void)n;
      }
      return Status::Ok();
    }();
  }
  return par::share_status(comm, st, 0, kEccFailed);
}

Result<EccProbe> Ecc::probe(fs::FileSystem& fs, const std::string& name,
                            const EccConfig& config) {
  SION_ASSIGN_OR_RETURN(const EccConfig cfg, resolve(config, 1, 0));
  const int k = cfg.data_domains;
  const int m = cfg.parity_domains;
  EccProbe p;
  p.k = k;
  p.m = m;
  p.stripe_bytes = cfg.stripe_bytes;
  p.data_ok.resize(static_cast<std::size_t>(k));
  p.parity_ok.resize(static_cast<std::size_t>(m));
  p.data_bytes.assign(static_cast<std::size_t>(k), 0);
  bool have_geometry = false;
  for (int j = 0; j < m; ++j) {
    auto h = parity_usable(fs, parity_name(name, j), k, m, j);
    if (!h.ok()) continue;
    p.parity_ok[static_cast<std::size_t>(j)] = 1;
    if (!have_geometry) {
      p.data_start = h.value().data_start;
      p.payload_bytes = h.value().payload_bytes;
      p.stripe_bytes = h.value().stripe_bytes;
      p.data_bytes = h.value().data_bytes;
      have_geometry = true;
    }
  }
  for (int d = 0; d < k; ++d) {
    const std::string path = core::physical_file_name(name, d, k);
    if (!core::physical_file_usable(fs, path, k)) continue;
    p.data_ok[static_cast<std::size_t>(d)] = 1;
    if (!have_geometry) {
      // No usable parity: lengths from the files themselves (enough for
      // the nothing-lost and re-encode cases).
      auto st = fs.stat_path(path);
      if (st.ok()) {
        p.data_bytes[static_cast<std::size_t>(d)] = st.value().size;
        p.payload_bytes = std::max(p.payload_bytes, st.value().size);
      }
    }
  }
  if (!have_geometry) p.data_start = parity_data_start(k);
  return p;
}

Result<EccHealReport> Ecc::heal(fs::FileSystem& fs, par::Comm& mcom,
                                const std::string& name,
                                const EccConfig& config,
                                std::uint64_t buffer_bytes) {
  const int me = mcom.rank();
  const int msize = mcom.size();

  SION_ASSIGN_OR_RETURN(const EccProbe p,
                        shared_probe(fs, mcom, name, config));

  EccHealReport report;
  report.data_files = p.k;
  report.parity_files = p.m;
  report.damaged_data = p.lost_data();
  report.damaged_parity = p.lost_parity();

  std::vector<int> lost_data;
  for (int d = 0; d < p.k; ++d) {
    if (p.data_ok[static_cast<std::size_t>(d)] == 0) lost_data.push_back(d);
  }
  std::uint64_t my_bytes = 0;
  std::uint64_t my_healed = 0;
  Status st;
  if (!lost_data.empty()) {
    std::vector<int> survivor_ids;
    std::vector<std::vector<std::uint8_t>> rows;
    SION_RETURN_IF_ERROR(agree(mcom, build_decode(p, lost_data, &survivor_ids,
                                                  &rows)));
    for (std::size_t i = 0; i < lost_data.size(); ++i) {
      if (static_cast<int>(i % static_cast<std::size_t>(msize)) != me) {
        continue;
      }
      // Decode the lost file through the degraded stream and write it back
      // like any copy of a physical file: in bounded pieces, zero runs as
      // fills.
      const int d = lost_data[i];
      auto healed = [&]() -> Result<std::uint64_t> {
        SION_ASSIGN_OR_RETURN(
            auto decoded,
            EccStreamReader::open(fs, name, p, survivor_ids, rows[i],
                                  p.data_bytes[static_cast<std::size_t>(d)],
                                  /*block_size=*/0));
        return core::copy_physical_file(*decoded, nullptr, fs,
                                        core::physical_file_name(name, d, p.k),
                                        buffer_bytes);
      }();
      if (healed.ok()) {
        my_bytes += healed.value();
        ++my_healed;
      } else if (st.ok()) {
        st = healed.status();
      }
    }
    SION_RETURN_IF_ERROR(agree(mcom, st));
    // Every healed data file must be durable before a parity re-encode
    // reads the set.
    mcom.barrier();
  }

  std::vector<int> lost_parity;
  for (int j = 0; j < p.m; ++j) {
    if (p.parity_ok[static_cast<std::size_t>(j)] == 0) lost_parity.push_back(j);
  }
  if (!lost_parity.empty()) {
    SION_ASSIGN_OR_RETURN(EccConfig cfg, resolve(config, 1, 0));
    cfg.stripe_bytes = p.stripe_bytes != 0 ? p.stripe_bytes : cfg.stripe_bytes;
    SION_RETURN_IF_ERROR(encode_parity(fs, mcom, name, cfg, lost_parity));
    if (me == 0) my_bytes += static_cast<std::uint64_t>(lost_parity.size()) *
                             p.payload_bytes;
  }

  report.healed_files = static_cast<int>(
      mcom.allreduce_u64(my_healed, par::ReduceOp::kSum) +
      static_cast<std::uint64_t>(lost_parity.size()));
  report.bytes_reconstructed = mcom.allreduce_u64(my_bytes, par::ReduceOp::kSum);
  return report;
}

Result<RemapStats> Ecc::restore(fs::FileSystem& fs, par::Comm& mcom,
                                const std::string& name,
                                const EccConfig& config,
                                std::span<std::byte> out, std::uint64_t want,
                                const RemapConfig& remap_config) {
  SION_ASSIGN_OR_RETURN(const EccProbe p,
                        shared_probe(fs, mcom, name, config));

  const auto remap_restore = [&](fs::FileSystem& through)
      -> Result<RemapStats> {
    SION_ASSIGN_OR_RETURN(auto remap,
                          Remap::open(through, mcom, name, remap_config));
    SION_ASSIGN_OR_RETURN(const RemapStats stats, remap->restore(out, want));
    SION_RETURN_IF_ERROR(remap->close());
    return stats;
  };

  if (config.restore_mode == EccConfig::Restore::kHeal &&
      p.lost_data() + p.lost_parity() > 0) {
    // Repair everything on disk — parity included, so the next restart
    // finds a fully healthy protection set — then restart from it.
    SION_ASSIGN_OR_RETURN(const EccHealReport healed,
                          heal(fs, mcom, name, config,
                               remap_config.buffer_bytes));
    (void)healed;
    return remap_restore(fs);
  }
  if (p.lost_data() == 0) {
    // Nothing to decode: the restart reads the primary directly. Degraded
    // mode ignores lost parity (heal() repairs it separately).
    return remap_restore(fs);
  }
  EccReadFs degraded(fs, name, p);
  SION_RETURN_IF_ERROR(agree(mcom, degraded.init_status()));
  return remap_restore(degraded);
}

// ---------------------------------------------------------------------------
// EccReadFs
// ---------------------------------------------------------------------------

EccReadFs::EccReadFs(fs::FileSystem& base, std::string name, EccProbe probe)
    : base_(&base), name_(std::move(name)), probe_(std::move(probe)) {
  for (int d = 0; d < probe_.k; ++d) {
    if (probe_.data_ok[static_cast<std::size_t>(d)] != 0) continue;
    lost_ids_.push_back(d);
    lost_paths_.push_back(core::physical_file_name(name_, d, probe_.k));
  }
  init_status_ = build_decode(probe_, lost_ids_, &survivor_ids_,
                              &decode_rows_);
}

int EccReadFs::lost_index_of(const std::string& path) const {
  for (std::size_t i = 0; i < lost_paths_.size(); ++i) {
    if (lost_paths_[i] == path) return static_cast<int>(i);
  }
  return -1;
}

Result<std::unique_ptr<fs::File>> EccReadFs::create(const std::string& path) {
  return base_->create(path);
}

Result<std::unique_ptr<fs::File>> EccReadFs::open_read(
    const std::string& path) {
  const int i = lost_index_of(path);
  if (i < 0) return base_->open_read(path);
  SION_RETURN_IF_ERROR(init_status_);
  std::uint64_t blk = 512;
  if (auto b = base_->block_size(fs::parent(path)); b.ok()) blk = b.value();
  return EccStreamReader::open(
      *base_, name_, probe_, survivor_ids_,
      decode_rows_[static_cast<std::size_t>(i)],
      probe_.data_bytes[static_cast<std::size_t>(
          lost_ids_[static_cast<std::size_t>(i)])],
      blk);
}

Result<std::unique_ptr<fs::File>> EccReadFs::open_rw(const std::string& path) {
  return base_->open_rw(path);
}

Status EccReadFs::mkdir(const std::string& path) { return base_->mkdir(path); }

Status EccReadFs::remove(const std::string& path) {
  return base_->remove(path);
}

Result<std::vector<std::string>> EccReadFs::list_dir(const std::string& path) {
  return base_->list_dir(path);
}

Result<fs::FileStat> EccReadFs::stat_path(const std::string& path) {
  const int i = lost_index_of(path);
  if (i < 0) return base_->stat_path(path);
  fs::FileStat st;
  st.size = probe_.data_bytes[static_cast<std::size_t>(
      lost_ids_[static_cast<std::size_t>(i)])];
  st.allocated = st.size;
  st.block_size = 512;
  return st;
}

bool EccReadFs::exists(const std::string& path) {
  if (lost_index_of(path) >= 0) return true;
  return base_->exists(path);
}

Result<std::uint64_t> EccReadFs::block_size(const std::string& path) {
  return base_->block_size(path);
}

}  // namespace sion::ext
