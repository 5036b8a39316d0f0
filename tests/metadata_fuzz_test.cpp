// Seeded mutations of a real multifile's metadata (label: fault): bit
// flips in metablock 1, metablock 2 and a chunk frame, truncation through
// both metablocks, and forged fields. The parsers under test are
// FileHeader::parse and FileMeta2::parse, reached through both openers
// (core::read_header, core::read_meta2), and ChunkFrame::parse.
//
// Metablocks carry no checksum, so damage can produce a plausible file.
// The contract is therefore: an open fails with a status, or it yields a
// file whose every read stays inside the physical file. Damage the parsers
// see is kCorrupt. A forged file count may name a physical file that does
// not exist (kNotFound), a zeroed trailer reads as a file that was never
// closed (kFailedPrecondition), and the parallel opener reports a forged
// task count as the wrong number of openers (kInvalidArgument), but a
// forged or repeated global rank as kCorrupt; its tasks that only learn of
// another's failure report kInternal. No mutation may
// crash, allocate by a forged count or hang; the asan and ubsan presets
// run this suite too.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/codec.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/api.h"
#include "core/metadata.h"
#include "fs/sim/machine.h"
#include "fs/sim/simfs.h"
#include "par/comm.h"
#include "par/engine.h"

namespace sion::core {
namespace {

constexpr int kTasks = 4;
constexpr int kFiles = 2;
constexpr std::uint64_t kBlock = 512;
constexpr char kName[] = "fz.sion";
constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint64_t kHalf = std::uint64_t{1} << 63;

std::vector<std::byte> payload(int rank) {
  std::vector<std::byte> out(1300 + 97 * static_cast<std::size_t>(rank));
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::byte>((rank * 41 + static_cast<int>(i)) & 0xFF);
  }
  return out;
}

// Forwards to `inner` and records every read that reaches past the end of
// its file: the reads a forged metablock must never cause.
class BoundsFs final : public fs::FileSystem {
 public:
  explicit BoundsFs(fs::FileSystem& inner) : inner_(inner) {}

  std::vector<std::string> violations;

  Result<std::unique_ptr<fs::File>> create(const std::string& p) override {
    return inner_.create(p);
  }
  Result<std::unique_ptr<fs::File>> open_read(const std::string& p) override {
    SION_ASSIGN_OR_RETURN(auto file, inner_.open_read(p));
    return std::unique_ptr<fs::File>(
        std::make_unique<BoundedFile>(std::move(file), p, violations));
  }
  Result<std::unique_ptr<fs::File>> open_rw(const std::string& p) override {
    return inner_.open_rw(p);
  }
  Status mkdir(const std::string& p) override { return inner_.mkdir(p); }
  Status remove(const std::string& p) override { return inner_.remove(p); }
  Result<std::vector<std::string>> list_dir(const std::string& p) override {
    return inner_.list_dir(p);
  }
  Result<fs::FileStat> stat_path(const std::string& p) override {
    return inner_.stat_path(p);
  }
  bool exists(const std::string& p) override { return inner_.exists(p); }
  Result<std::uint64_t> block_size(const std::string& p) override {
    return inner_.block_size(p);
  }

 private:
  class BoundedFile final : public fs::File {
   public:
    BoundedFile(std::unique_ptr<fs::File> inner, std::string path,
                std::vector<std::string>& violations)
        : inner_(std::move(inner)),
          path_(std::move(path)),
          violations_(violations) {}

    Result<std::uint64_t> pwrite(fs::DataView data,
                                 std::uint64_t offset) override {
      return inner_->pwrite(data, offset);
    }
    Result<std::uint64_t> pread(std::span<std::byte> out,
                                std::uint64_t offset) override {
      check(offset, out.size());
      return inner_->pread(out, offset);
    }
    Status pread_discard(std::uint64_t len, std::uint64_t offset) override {
      check(offset, len);
      return inner_->pread_discard(len, offset);
    }
    Result<fs::FileStat> stat() override { return inner_->stat(); }
    Status truncate(std::uint64_t size) override {
      return inner_->truncate(size);
    }
    Status sync() override { return inner_->sync(); }

   private:
    void check(std::uint64_t offset, std::uint64_t len) {
      auto st = inner_->stat();
      if (!st.ok()) return;
      const std::uint64_t size = st.value().size;
      if (offset > size || len > size - offset) {
        violations_.push_back(strformat(
            "%s: %llu bytes at %llu, file size %llu", path_.c_str(),
            static_cast<unsigned long long>(len),
            static_cast<unsigned long long>(offset),
            static_cast<unsigned long long>(size)));
      }
    }

    std::unique_ptr<fs::File> inner_;
    std::string path_;
    std::vector<std::string>& violations_;
  };

  fs::FileSystem& inner_;
};

void put_u64_at(std::vector<std::byte>& bytes, std::uint64_t at,
                std::uint64_t v) {
  ASSERT_LE(at + 8, bytes.size());
  for (int i = 0; i < 8; ++i) {
    bytes[at + static_cast<std::uint64_t>(i)] =
        static_cast<std::byte>((v >> (8 * i)) & 0xFF);
  }
}

class MetadataFuzzTest : public ::testing::Test {
 protected:
  MetadataFuzzTest() : fs_(fs::TestbedConfig()) {
    par::Engine engine;
    engine.run(kTasks, [&](par::Comm& world) {
      ParOpenSpec spec;
      spec.filename = kName;
      spec.chunksize = kBlock;
      spec.fsblksize = kBlock;
      spec.nfiles = kFiles;
      spec.chunk_frames = true;
      auto file = SionParFile::open_write(fs_, world, spec);
      ASSERT_TRUE(file.ok()) << file.status().to_string();
      const auto mine = payload(world.rank());
      ASSERT_TRUE(file.value()->write(fs::DataView(mine)).ok());
      ASSERT_TRUE(file.value()->close().ok());
    });
    clean_ = whole(path_);
    header_ = FileHeader::parse(clean_).value();
    meta2_ = FileMeta2::parse(std::span<const std::byte>(clean_).subspan(
                                  header_.meta2_offset))
                 .value();
    meta1_bytes_ = header_.serialize().size();
    data_start_ = layout_of(header_).value().data_start();
  }

  std::vector<std::byte> whole(const std::string& path) {
    auto file = fs_.open_read(path);
    EXPECT_TRUE(file.ok()) << path;
    if (!file.ok()) return {};
    std::vector<std::byte> bytes(file.value()->stat().value().size);
    EXPECT_TRUE(file.value()->pread(bytes, 0).ok());
    return bytes;
  }

  void store(std::span<const std::byte> bytes) {
    auto file = fs_.create(path_);
    ASSERT_TRUE(file.ok());
    if (!bytes.empty()) {
      ASSERT_TRUE(file.value()->pwrite(fs::DataView(bytes), 0).ok());
    }
  }

  // File 0 with its metablock 1 rebuilt from `h` (same length: the edits
  // below never resize an array) or its metablock 2 from `m`.
  std::vector<std::byte> with_header(const FileHeader& h) const {
    std::vector<std::byte> out = clean_;
    const std::vector<std::byte> meta1 = h.serialize();
    EXPECT_EQ(meta1.size(), meta1_bytes_);
    std::copy(meta1.begin(), meta1.end(), out.begin());
    return out;
  }
  std::vector<std::byte> with_meta2(const FileMeta2& m) const {
    std::vector<std::byte> out(
        clean_.begin(),
        clean_.begin() + static_cast<std::ptrdiff_t>(header_.meta2_offset));
    const std::vector<std::byte> meta2 = m.serialize();
    out.insert(out.end(), meta2.begin(), meta2.end());
    return out;
  }

  // Stores `bytes` as physical file 0, opens the multifile with the serial
  // and the parallel opener and reads every logical file through whatever
  // opened. Returns the serial open's status, and each task's parallel open
  // code in `parallel` if given; every failure must be one of the
  // contract's codes and every read must stay inside its file.
  Status open_and_read_all(std::span<const std::byte> bytes,
                           const std::string& what,
                           std::vector<ErrorCode>* parallel = nullptr) {
    store(bytes);
    BoundsFs bounded(fs_);
    Status serial_status;
    {
      auto serial = SionSerialFile::open_read(bounded, kName);
      serial_status = serial.status();
      if (serial.ok()) {
        SionSerialFile& f = *serial.value();
        for (int r = 0; r < f.locations().nranks; ++r) {
          auto got = f.read_logical(r);
          if (!got.ok()) {
            EXPECT_EQ(got.status().code(), ErrorCode::kCorrupt)
                << what << ", rank " << r << ": " << got.status().to_string();
          }
        }
      } else {
        expect_contract_code(serial_status, what + " (serial open)");
      }
    }
    par::Engine engine;
    if (parallel != nullptr) parallel->assign(kTasks, ErrorCode::kOk);
    engine.run(kTasks, [&](par::Comm& world) {
      auto par = SionParFile::open_read(bounded, world, kName);
      if (parallel != nullptr) {
        (*parallel)[static_cast<std::size_t>(world.rank())] =
            par.status().code();
      }
      if (!par.ok()) {
        if (par.status().code() != ErrorCode::kInternal) {
          expect_contract_code(par.status(), what + " (parallel open)");
        }
        return;
      }
      auto got = par.value()->read_remaining();
      if (!got.ok()) {
        EXPECT_EQ(got.status().code(), ErrorCode::kCorrupt)
            << what << ", task " << world.rank() << ": "
            << got.status().to_string();
      }
      EXPECT_TRUE(par.value()->close().ok());
    });
    for (const std::string& v : bounded.violations) {
      ADD_FAILURE() << what << ": read outside the file: " << v;
    }
    return serial_status;
  }

  static void expect_contract_code(const Status& st, const std::string& what) {
    const ErrorCode code = st.code();
    EXPECT_TRUE(code == ErrorCode::kCorrupt || code == ErrorCode::kNotFound ||
                code == ErrorCode::kFailedPrecondition ||
                code == ErrorCode::kInvalidArgument)
        << what << ": " << st.to_string();
  }

  fs::SimFs fs_;
  std::string path_ = physical_file_name(kName, 0, kFiles);
  std::vector<std::byte> clean_;
  FileHeader header_;
  FileMeta2 meta2_;
  std::uint64_t meta1_bytes_ = 0;
  std::uint64_t data_start_ = 0;
};

TEST_F(MetadataFuzzTest, CleanFileOpensAndReadsBack) {
  ASSERT_EQ(header_.ntasks, static_cast<std::uint32_t>(kTasks / kFiles));
  ASSERT_GT(header_.nblocks, 1U);
  EXPECT_TRUE(open_and_read_all(clean_, "clean").ok());
  BoundsFs bounded(fs_);
  auto serial = SionSerialFile::open_read(bounded, kName);
  ASSERT_TRUE(serial.ok()) << serial.status().to_string();
  for (int r = 0; r < kTasks; ++r) {
    auto got = serial.value()->read_logical(r);
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    EXPECT_EQ(got.value(), payload(r)) << "rank " << r;
  }
  EXPECT_TRUE(bounded.violations.empty());
}

TEST_F(MetadataFuzzTest, SeededBitFlipsInEitherMetablockStayInBounds) {
  // Metablock 1 and metablock 2 in turn, up to 8 flips per round.
  const std::pair<std::uint64_t, std::uint64_t> regions[] = {
      {0, meta1_bytes_}, {header_.meta2_offset, clean_.size()}};
  Rng rng(0x5107F);
  int opened = 0;
  for (int round = 0; round < 400; ++round) {
    const auto [lo, hi] = regions[round % 2];
    std::vector<std::byte> bytes = clean_;
    const int flips = 1 + static_cast<int>(rng.next_below(8));
    for (int f = 0; f < flips; ++f) {
      bytes[lo + rng.next_below(hi - lo)] ^=
          static_cast<std::byte>(1u << rng.next_below(8));
    }
    opened += open_and_read_all(bytes, strformat("round %d", round)).ok();
  }
  // Flips in array entries leave a plausible file; most others do not.
  EXPECT_GT(opened, 0);
  EXPECT_LT(opened, 400);
}

TEST_F(MetadataFuzzTest, TruncationThroughEitherMetablockIsCorrupt) {
  std::vector<std::uint64_t> lengths;
  for (std::uint64_t n = 0; n <= meta1_bytes_; ++n) lengths.push_back(n);
  for (std::uint64_t n = header_.meta2_offset; n < clean_.size(); ++n) {
    lengths.push_back(n);
  }
  for (const std::uint64_t n : lengths) {
    const Status st = open_and_read_all(
        std::span<const std::byte>(clean_).first(n),
        strformat("truncated to %llu", static_cast<unsigned long long>(n)));
    EXPECT_EQ(st.code(), ErrorCode::kCorrupt)
        << "length " << n << ": " << st.to_string();
  }
}

// Each rewrite pins the serial open's code. Two kinds of hole were open
// here: an nfiles of 2^31 or more became a negative int in the serial
// opener, which then streamed rank 0 of an empty set; and chunk sizes or a
// block size whose alignment or sum wraps round, or more blocks than fit
// between the metablocks, opened and read past the end of the file.
TEST_F(MetadataFuzzTest, ForgedMetablock1FieldsStayInBounds) {
  constexpr ErrorCode kOk = ErrorCode::kOk;
  constexpr ErrorCode kCorrupt = ErrorCode::kCorrupt;
  const std::uint64_t size = clean_.size();
  struct Case {
    const char* what;
    ErrorCode want;
    std::function<void(FileHeader&)> edit;
    // Whether every task's parallel open must report `want` too.
    bool parallel_too = false;
  };
  const Case cases[] = {
      {"ntasks = 0", kCorrupt, [](FileHeader& h) { h.ntasks = 0; }},
      {"ntasks + 1", kCorrupt, [](FileHeader& h) { ++h.ntasks; }},
      {"ntasks = 2^32 - 1", kCorrupt,
       [](FileHeader& h) { h.ntasks = 0xFFFFFFFFu; }},
      {"nfiles = 0", kCorrupt, [](FileHeader& h) { h.nfiles = 0; }},
      // File 0 alone, holding ranks 0 and 1, is a consistent set.
      {"nfiles = 1", kOk, [](FileHeader& h) { h.nfiles = 1; }},
      {"nfiles = 3", ErrorCode::kNotFound, [](FileHeader& h) { h.nfiles = 3; }},
      {"nfiles = 2^31", kCorrupt,
       [](FileHeader& h) { h.nfiles = 0x80000000u; }},
      {"nfiles = 2^32 - 1", kCorrupt,
       [](FileHeader& h) { h.nfiles = 0xFFFFFFFFu; }},
      {"filenum = 1", kOk, [](FileHeader& h) { h.filenum = 1; }},
      {"filenum = nfiles", kCorrupt,
       [](FileHeader& h) { h.filenum = h.nfiles; }},
      {"filenum = 2^32 - 1", kCorrupt,
       [](FileHeader& h) { h.filenum = 0xFFFFFFFFu; }},
      {"fsblksize = 0", kCorrupt, [](FileHeader& h) { h.fsblksize = 0; }},
      // Smaller blocks shift the chunks, but they stay inside the file.
      {"fsblksize = 1", kOk, [](FileHeader& h) { h.fsblksize = 1; }},
      {"fsblksize = 3", kCorrupt, [](FileHeader& h) { h.fsblksize = 3; }},
      {"fsblksize / 2", kOk, [](FileHeader& h) { h.fsblksize /= 2; }},
      {"fsblksize * 2", kCorrupt, [](FileHeader& h) { h.fsblksize *= 2; }},
      {"fsblksize = 2^63", kCorrupt,
       [](FileHeader& h) { h.fsblksize = kHalf; }},
      {"fsblksize = 2^64 - 1", kCorrupt,
       [](FileHeader& h) { h.fsblksize = kMax; }},
      {"nblocks = 0", kCorrupt, [](FileHeader& h) { h.nblocks = 0; }},
      {"nblocks - 1", kCorrupt, [](FileHeader& h) { --h.nblocks; }},
      {"nblocks + 1", kCorrupt, [](FileHeader& h) { ++h.nblocks; }},
      {"nblocks = 2^63", kCorrupt, [](FileHeader& h) { h.nblocks = kHalf; }},
      {"nblocks = 2^64 - 1", kCorrupt, [](FileHeader& h) { h.nblocks = kMax; }},
      {"meta2_offset = 0", ErrorCode::kFailedPrecondition,
       [](FileHeader& h) { h.meta2_offset = 0; }},
      {"meta2_offset = 8", kCorrupt, [](FileHeader& h) { h.meta2_offset = 8; }},
      {"meta2_offset + 8", kCorrupt,
       [](FileHeader& h) { h.meta2_offset += 8; }},
      {"meta2_offset = size", kCorrupt,
       [size](FileHeader& h) { h.meta2_offset = size; }},
      {"meta2_offset = 2^63", kCorrupt,
       [](FileHeader& h) { h.meta2_offset = kHalf; }},
      {"meta2_offset = 2^64 - 1", kCorrupt,
       [](FileHeader& h) { h.meta2_offset = kMax; }},
      {"global rank = ntasks of the set", kCorrupt,
       [](FileHeader& h) { h.global_ranks[1] = kTasks; }, true},
      {"global rank = 2^63", kCorrupt,
       [](FileHeader& h) { h.global_ranks[0] = kHalf; }, true},
      {"global rank = 2^64 - 1", kCorrupt,
       [](FileHeader& h) { h.global_ranks[1] = kMax; }, true},
      {"duplicate global rank", kCorrupt,
       [](FileHeader& h) { h.global_ranks[1] = h.global_ranks[0]; }, true},
      {"chunk size = 0", kCorrupt,
       [](FileHeader& h) { h.chunksizes_req[0] = 0; }},
      {"chunk size = 2^63 - 1", kCorrupt,
       [](FileHeader& h) { h.chunksizes_req[0] = kHalf - 1; }},
      {"chunk size = 2^63", kCorrupt,
       [](FileHeader& h) { h.chunksizes_req[1] = kHalf; }},
      {"chunk sizes = 2^63, 2^63", kCorrupt,
       [](FileHeader& h) { h.chunksizes_req = {kHalf, kHalf}; }},
      {"chunk size = 2^64 - 512", kCorrupt,
       [](FileHeader& h) { h.chunksizes_req[0] = kMax - 511; }},
      {"chunk size = 2^64 - 1", kCorrupt,
       [](FileHeader& h) { h.chunksizes_req[1] = kMax; }},
      {"fsblksize = 2^63, three chunks' worth", kCorrupt,
       [](FileHeader& h) {
         h.fsblksize = kHalf;
         h.chunksizes_req = {1, kHalf};
       }},
  };
  for (const Case& c : cases) {
    FileHeader h = header_;
    c.edit(h);
    std::vector<ErrorCode> parallel;
    const Status st = open_and_read_all(with_header(h), c.what, &parallel);
    EXPECT_EQ(st.code(), c.want) << c.what << ": " << st.to_string();
    if (c.parallel_too) {
      EXPECT_EQ(parallel, std::vector<ErrorCode>(kTasks, c.want))
          << c.what << " (parallel open)";
    }
  }
}

TEST_F(MetadataFuzzTest, ForgedMetablock2FieldsStayInBounds) {
  const std::uint64_t capacity = kBlock - kChunkFrameSize;
  const std::pair<std::string, std::function<void(FileMeta2&)>> cases[] = {
      {"no tasks", [](FileMeta2& m) { m.bytes_written.clear(); }},
      {"one task more", [](FileMeta2& m) { m.bytes_written.push_back({1}); }},
      {"a block more than nblocks",
       [](FileMeta2& m) { m.bytes_written[1].push_back(1); }},
      {"count = capacity + 1",
       [capacity](FileMeta2& m) { m.bytes_written[1][0] = capacity + 1; }},
      {"count = 2^63 - 1",
       [](FileMeta2& m) { m.bytes_written[0][0] = kHalf - 1; }},
      {"count = 2^63", [](FileMeta2& m) { m.bytes_written[1][1] = kHalf; }},
      {"count = 2^64 - 1", [](FileMeta2& m) { m.bytes_written[0][2] = kMax; }},
  };
  for (const auto& [what, edit] : cases) {
    FileMeta2 m = meta2_;
    edit(m);
    const Status st = open_and_read_all(with_meta2(m), what);
    EXPECT_EQ(st.code(), ErrorCode::kCorrupt) << what << ": " << st.to_string();
  }
  // Raw counts the serializer cannot produce: the task count and the first
  // task's array length, forged in place.
  const std::uint64_t ntasks_at = header_.meta2_offset + sizeof(kMagic2);
  const std::uint64_t length_at = ntasks_at + 4;
  for (const std::uint64_t forged :
       {std::uint64_t{1} << 61, kHalf - 1, kHalf, kMax - 7, kMax}) {
    std::vector<std::byte> bytes = clean_;
    put_u64_at(bytes, length_at, forged);
    const std::string what =
        strformat("array length %llu", static_cast<unsigned long long>(forged));
    EXPECT_EQ(open_and_read_all(bytes, what).code(), ErrorCode::kCorrupt)
        << what;
  }
  for (const std::uint32_t forged : {0u, 3u, 0x80000000u, 0xFFFFFFFFu}) {
    std::vector<std::byte> bytes = clean_;
    for (int i = 0; i < 4; ++i) {
      bytes[ntasks_at + static_cast<std::uint64_t>(i)] =
          static_cast<std::byte>((forged >> (8 * i)) & 0xFF);
    }
    const std::string what = strformat("metablock-2 task count %u", forged);
    EXPECT_EQ(open_and_read_all(bytes, what).code(), ErrorCode::kCorrupt)
        << what;
  }
}

TEST_F(MetadataFuzzTest, SeededBitFlipsInAChunkFrameAreCaught) {
  // Rank 0's frame in block 0 opens the data region.
  const auto frame_bytes = std::span<const std::byte>(clean_).subspan(
      data_start_, kChunkFrameSize);
  const ChunkFrame clean = ChunkFrame::parse(frame_bytes).value();
  EXPECT_EQ(clean.grank, 0U);
  EXPECT_EQ(clean.block, 0U);
  Rng rng(0xF2A3E);
  int parsed = 0;
  for (int round = 0; round < 500; ++round) {
    std::vector<std::byte> frame(frame_bytes.begin(), frame_bytes.end());
    const int flips = 1 + static_cast<int>(rng.next_below(8));
    for (int f = 0; f < flips; ++f) {
      frame[rng.next_below(frame.size())] ^=
          static_cast<std::byte>(1u << rng.next_below(8));
    }
    if (round % 5 == 0) {
      frame.resize(rng.next_below(frame.size() + 1));
    }
    auto got = ChunkFrame::parse(frame);
    if (!got.ok()) {
      EXPECT_EQ(got.status().code(), ErrorCode::kCorrupt) << "round " << round;
      continue;
    }
    // Only flips in the padding behind the checksum leave a frame that
    // parses, and then it parses to the same fields.
    ++parsed;
    EXPECT_EQ(got.value().grank, clean.grank) << "round " << round;
    EXPECT_EQ(got.value().lrank, clean.lrank) << "round " << round;
    EXPECT_EQ(got.value().block, clean.block) << "round " << round;
    EXPECT_EQ(got.value().bytes_written, clean.bytes_written)
        << "round " << round;
  }
  EXPECT_LT(parsed, 500);
  // The readers skip frames, so a damaged one costs nothing but its bytes.
  std::vector<std::byte> bytes = clean_;
  for (std::uint64_t i = 0; i < 40; i += 7) {
    bytes[data_start_ + i] ^= std::byte{0x5A};
  }
  EXPECT_TRUE(open_and_read_all(bytes, "damaged frame").ok());
}

}  // namespace
}  // namespace sion::core
