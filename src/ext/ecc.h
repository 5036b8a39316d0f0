// Erasure-coded checkpoint protection: GF(256) Reed-Solomon parity across
// failure domains — the ROADMAP's answer to ext::Buddy's (r-1)x byte
// overhead. The writer communicator is partitioned into k equal *data
// domains* of consecutive ranks; the primary checkpoint is the ordinary
// SION multifile with one physical file per data domain (exactly Buddy's
// primary). On top of it, m *parity files* "<name>.p0" .. "<name>.p<m-1>"
// each store one Cauchy-coded combination of the k data files' bytes:
//
//   parity_j[i] = sum_d c[j][d] * data_d[i]      (GF(256), i < L)
//
// where L is the largest data file size and shorter files are implicitly
// zero-padded. The k data files + m parity files form D = k + m failure
// domains; the code is MDS, so ANY m of them can be lost and every byte —
// headers and metablocks included, since parity covers raw physical file
// bytes — is still reconstructible from the k survivors, at m/k byte
// overhead instead of Buddy's (r-1)x for the same loss tolerance.
//
// Because parity is computed over the bytes that actually hit the disk, the
// layer composes with everything upstream for free: collective aggregation
// changes who writes the primary (not its bytes), transparent compression
// shrinks the stream before it lands (parity covers the compressed wire
// bytes), and a staging drain can fabricate parity on the parallel tier
// from the staged files (see ext/staging.h).
//
// Parity files are flat byte-parity companions with a small self-describing
// header — deliberately NOT SION multifiles: a parity "stream" is a field
// combination of k unrelated streams, and recording it as physical-byte
// parity is the only representation that also protects the primary's own
// metadata (a lost file is healed byte-identically, metablocks and all).
// Zero stripes are skipped at write time, so parity files are sparse
// wherever the data files are (the multifile's alignment gaps cost nothing).
//
// Restore paths, both collective:
//   * heal(): probe every file, reconstruct lost ones byte-identically
//     (data files by matrix inversion over the survivors, parity files by
//     re-encoding), then the unchanged ext::Remap N->M restart runs on the
//     repaired set.
//   * degraded read: EccReadFs wraps the file system and virtualises lost
//     primary files — open_read() of a lost file returns a decode stream
//     whose pread() reads the same range from the k surviving files and
//     combines them on the fly. Remap/SionSerialFile run unchanged on top,
//     so the restart completes with ZERO extra I/O passes (the decode reads
//     are the restart's own reads, k-wide).
//
// All Ecc methods are collective. Chunk recovery frames are not supported
// (parity supersedes frame-based metadata repair).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "core/par_file.h"
#include "ext/collective.h"
#include "ext/remap.h"
#include "fs/filesystem.h"
#include "par/comm.h"

namespace sion::ext {

struct EccConfig {
  // Data domains k: the writer ranks are split into k equal consecutive
  // blocks and the primary multifile gets one physical file per block.
  // 0 derives k from ParOpenSpec::nfiles / CheckpointSpec::nfiles.
  int data_domains = 0;

  // Parity domains m: number of parity files, i.e. how many of the k + m
  // failure domains may be lost. GF(256) requires k + m <= 255.
  int parity_domains = 2;

  // Encode/heal processing granule. Parity is byte-positional, so this
  // only batches I/O — any value reconstructs the same bytes — but it is
  // also the granularity of the zero-skip that keeps parity files sparse
  // across the primary's alignment gaps.
  std::uint64_t stripe_bytes = 256 * kKiB;

  // What restore() does when the probe finds damage: decode lost files on
  // the fly during the restart's own reads (kDegraded, the default), or
  // reconstruct them on disk first and restart from the repaired set
  // (kHeal — pays an extra pass, but leaves the checkpoint healthy for
  // the next restart).
  enum class Restore : std::uint8_t { kDegraded, kHeal };
  Restore restore_mode = Restore::kDegraded;
};

// Outcome of a probe-and-heal pass (assertable from tests and benches).
struct EccHealReport {
  int data_files = 0;    // k
  int parity_files = 0;  // m
  int damaged_data = 0;
  int damaged_parity = 0;
  int healed_files = 0;  // reconstructed, data + parity
  std::uint64_t bytes_reconstructed = 0;
};

// What rank 0's probe of a protection set found: geometry (from the parity
// headers, which record every data file's length) plus per-file usability.
// Serializable so one probe can be broadcast and drive every task's decode
// deterministically.
struct EccProbe {
  int k = 0;
  int m = 0;
  std::uint64_t stripe_bytes = 0;
  std::uint64_t data_start = 0;     // parity payload offset (after header)
  std::uint64_t payload_bytes = 0;  // L: largest data file size
  std::vector<std::uint64_t> data_bytes;  // per data file, zero-pad to L
  std::vector<std::uint8_t> data_ok;      // size k
  std::vector<std::uint8_t> parity_ok;    // size m

  [[nodiscard]] int lost_data() const;
  [[nodiscard]] int lost_parity() const;
  // Usable data + parity files; >= k means every loss is recoverable.
  [[nodiscard]] int survivors() const;

  [[nodiscard]] std::vector<std::byte> serialize() const;
  static Result<EccProbe> deserialize(std::span<const std::byte> bytes);
};

// One parity file's self-describing header, as read by tooling that does
// not know the set geometry up front (sionrepair's companion discovery).
struct EccParityInfo {
  int k = 0;
  int m = 0;
  int index = 0;  // which parity file this is (j)
  std::uint64_t stripe_bytes = 0;
  std::uint64_t payload_bytes = 0;
  // Full usability: header checksum, exact size, end marker present.
  bool intact = false;
};

class Ecc {
 public:
  // Collective write over `gcom`: the primary multifile at spec.filename
  // (spec.nfiles overridden by the data-domain count) followed by the m
  // parity files. spec.chunk_frames must be off. A set `aggregation` routes
  // the primary through ext::Collective (coalesced collector writes);
  // parity encoding is unaffected, it reads back the physical bytes
  // whoever wrote them.
  static Status write(fs::FileSystem& fs, par::Comm& gcom,
                      const core::ParOpenSpec& spec, const EccConfig& config,
                      fs::DataView payload,
                      const CollectiveConfig* aggregation = nullptr);

  // Collective (re-)encode of the parity files of an existing, closed
  // multifile: rank 0 stats the k data files and lays the parity files
  // out; the stripe ranges are partitioned over the comm tasks. `only`
  // restricts the pass to a subset of parity indices (empty = all m).
  // Also the staging drain's hook: parity on the parallel tier is
  // fabricated from the drained files by exactly this pass.
  static Status encode_parity(fs::FileSystem& fs, par::Comm& comm,
                              const std::string& name, const EccConfig& config,
                              std::span<const int> only = {});

  // Serial probe of the protection set (rank 0 calls this; the result is
  // broadcast). Geometry comes from any usable parity header; with zero
  // usable parity files the geometry fields are derived from the data
  // files instead (lengths from stat), which is enough for the
  // nothing-lost and re-encode cases.
  static Result<EccProbe> probe(fs::FileSystem& fs, const std::string& name,
                                const EccConfig& config);

  // Collective probe-and-heal over `mcom` (any size, including 1): lost or
  // damaged data files are rebuilt byte-identically by matrix inversion
  // over the k survivors (round-robin over the mcom tasks), then lost
  // parity files are re-encoded. Fails — consistently on every task — when
  // more than m of the k + m files are gone.
  static Result<EccHealReport> heal(fs::FileSystem& fs, par::Comm& mcom,
                                    const std::string& name,
                                    const EccConfig& config,
                                    std::uint64_t buffer_bytes = 4 * kMiB);

  // Collective restore: probe once, then either heal + Remap (kHeal, or
  // nothing lost) or Remap over an EccReadFs that decodes lost files
  // inline (kDegraded). The usual wants contract: `want` bytes of the
  // concatenated global stream per task, in rank order, summing to the
  // checkpoint total; empty `out` = timing-only.
  static Result<RemapStats> restore(fs::FileSystem& fs, par::Comm& mcom,
                                    const std::string& name,
                                    const EccConfig& config,
                                    std::span<std::byte> out,
                                    std::uint64_t want,
                                    const RemapConfig& remap = {});

  // Serial: read one parity file's header and check its intactness. Fails
  // only when the header itself does not parse (not a parity file / torn
  // header); a parseable but truncated file comes back with intact=false.
  static Result<EccParityInfo> inspect_parity(fs::FileSystem& fs,
                                              const std::string& path);

  // Name of parity file j (j >= 0): "<name>.p<j>".
  static std::string parity_name(const std::string& name, int j);

  // `config` with data_domains filled in (0 becomes max(1, nfiles)), once
  // the geometry rules every ECC entry point shares hold: m >= 1,
  // k + m <= 255 (GF(256)), a nonzero stripe and, for ntasks > 0, writers
  // that split into the k data domains. Restores pass ntasks <= 0: an N->M
  // restart comm need not divide.
  static Result<EccConfig> resolve(const EccConfig& config, int nfiles,
                                   int ntasks);
};

// Read-only FileSystem decorator serving degraded reads: paths of lost
// primary physical files (per the probe) are virtualised — exists() says
// yes, stat_path() reports the original length, open_read() returns a
// decode stream that reconstructs any byte range from the k surviving
// files on the fly. Every other call passes through to the base file
// system, so SionSerialFile, Remap and the collective readers run
// unchanged on top. Each task constructs its own instance from the same
// broadcast probe; the decode matrix is deterministic.
class EccReadFs final : public fs::FileSystem {
 public:
  EccReadFs(fs::FileSystem& base, std::string name, EccProbe probe);

  // Set by the constructor: non-OK when the probe admits no decode (more
  // than m losses) — surfaced from open_read() of a lost file.
  [[nodiscard]] const Status& init_status() const { return init_status_; }

  Result<std::unique_ptr<fs::File>> create(const std::string& path) override;
  Result<std::unique_ptr<fs::File>> open_read(const std::string& path) override;
  Result<std::unique_ptr<fs::File>> open_rw(const std::string& path) override;
  Status mkdir(const std::string& path) override;
  Status remove(const std::string& path) override;
  Result<std::vector<std::string>> list_dir(const std::string& path) override;
  Result<fs::FileStat> stat_path(const std::string& path) override;
  bool exists(const std::string& path) override;
  Result<std::uint64_t> block_size(const std::string& path) override;

 private:
  // Index into probe_.data_bytes if `path` is a lost data file, -1 else.
  [[nodiscard]] int lost_index_of(const std::string& path) const;

  fs::FileSystem* base_ = nullptr;
  std::string name_;
  EccProbe probe_;
  Status init_status_;
  std::vector<std::string> lost_paths_;  // parallel to lost_ids_
  std::vector<int> lost_ids_;            // data file indices
  // Survivor selection shared by every decode stream: k file ids (< k:
  // data file, >= k: parity file id - k) and, per lost data file, the k
  // decode coefficients against those survivors.
  std::vector<int> survivor_ids_;
  std::vector<std::vector<std::uint8_t>> decode_rows_;  // [lost][k]
};

}  // namespace sion::ext
