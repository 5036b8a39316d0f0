// FileSystem wrappers shared by the test suites: RecordingFs logs what
// reaches the file system, FailOpenFs fails the opens of one chosen task,
// FailNthFs fails one chosen call of one chosen task.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/strings.h"
#include "fs/filesystem.h"
#include "par/engine.h"

namespace sion::testfs {

// Forwards everything to `inner` and records every open by kind and path
// ("create:", "rw:" or "read:" before the path) and every pwrite to a file
// it created or opened read/write.
class RecordingFs final : public fs::FileSystem {
 public:
  // One part of a pwrite: `size` real bytes, or `size` copies of `byte`.
  struct Part {
    bool fill = false;
    std::uint8_t byte = 0;
    std::uint64_t size = 0;

    [[nodiscard]] bool zero_fill() const { return fill && byte == 0; }
  };

  struct Write {
    std::string path;
    std::uint64_t offset = 0;
    std::vector<Part> parts;

    // "<offset>:" then each part as " b<size>" (bytes) or " f<byte>x<size>".
    [[nodiscard]] std::string str() const {
      std::string out = std::to_string(offset) + ":";
      for (const Part& p : parts) {
        out += p.fill ? strformat(" f%ux%llu", p.byte,
                                  static_cast<unsigned long long>(p.size))
                      : strformat(" b%llu",
                                  static_cast<unsigned long long>(p.size));
      }
      return out;
    }
  };

  explicit RecordingFs(fs::FileSystem& inner) : inner_(inner) {}

  std::vector<Write> writes;
  std::vector<std::string> opens;

  Result<std::unique_ptr<fs::File>> create(const std::string& path) override {
    opens.push_back("create:" + path);
    SION_ASSIGN_OR_RETURN(auto file, inner_.create(path));
    return recorded(std::move(file), path);
  }
  Result<std::unique_ptr<fs::File>> open_read(const std::string& p) override {
    opens.push_back("read:" + p);
    return inner_.open_read(p);
  }
  Result<std::unique_ptr<fs::File>> open_rw(const std::string& path) override {
    opens.push_back("rw:" + path);
    SION_ASSIGN_OR_RETURN(auto file, inner_.open_rw(path));
    return recorded(std::move(file), path);
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
  class RecordingFile final : public fs::File {
   public:
    RecordingFile(std::unique_ptr<fs::File> inner, std::string path,
                  std::vector<Write>& writes)
        : inner_(std::move(inner)), path_(std::move(path)), writes_(writes) {}

    Result<std::uint64_t> pwrite(fs::DataView data,
                                 std::uint64_t offset) override {
      Write& w = writes_.emplace_back(Write{path_, offset, {}});
      const auto record = [&](const fs::DataView& part) {
        w.parts.push_back(
            {part.is_fill(),
             part.is_fill() ? static_cast<std::uint8_t>(part.fill_byte())
                            : std::uint8_t{0},
             part.size()});
      };
      if (data.is_gather()) {
        for (const fs::DataView& part : data.parts()) record(part);
      } else {
        record(data);
      }
      return inner_->pwrite(data, offset);
    }
    Result<std::uint64_t> pread(std::span<std::byte> out,
                                std::uint64_t offset) override {
      return inner_->pread(out, offset);
    }
    Status pread_discard(std::uint64_t len, std::uint64_t offset) override {
      return inner_->pread_discard(len, offset);
    }
    Result<fs::FileStat> stat() override { return inner_->stat(); }
    Status truncate(std::uint64_t size) override {
      return inner_->truncate(size);
    }
    Status sync() override { return inner_->sync(); }

   private:
    std::unique_ptr<fs::File> inner_;
    std::string path_;
    std::vector<Write>& writes_;
  };

  Result<std::unique_ptr<fs::File>> recorded(std::unique_ptr<fs::File> file,
                                             const std::string& path) {
    return std::unique_ptr<fs::File>(
        std::make_unique<RecordingFile>(std::move(file), path, writes));
  }

  fs::FileSystem& inner_;
};

// Forwards everything to `inner`, except that open_rw and open_read of a
// path containing `needle` fail with kIoError when the calling task's
// world rank is `rank`: a deterministic open failure on one chosen task.
class FailOpenFs final : public fs::FileSystem {
 public:
  FailOpenFs(fs::FileSystem& inner, int rank, std::string needle = "")
      : inner_(inner), rank_(rank), needle_(std::move(needle)) {}

  Result<std::unique_ptr<fs::File>> create(const std::string& p) override {
    return inner_.create(p);
  }
  Result<std::unique_ptr<fs::File>> open_read(const std::string& p) override {
    if (fails(p)) return IoError("injected open_read failure on " + p);
    return inner_.open_read(p);
  }
  Result<std::unique_ptr<fs::File>> open_rw(const std::string& p) override {
    if (fails(p)) return IoError("injected open_rw failure on " + p);
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
  [[nodiscard]] bool fails(const std::string& path) const {
    return par::this_task()->rank() == rank_ &&
           path.find(needle_) != std::string::npos;
  }

  fs::FileSystem& inner_;
  int rank_;
  std::string needle_;
};

// Forwards everything to `inner`, except that the k-th (from 1) fallible
// call that task `rank` makes fails with kIoError. Fallible calls are the
// ones that return a status: every FileSystem call but exists(), and every
// call on a file opened through this wrapper. Calls made outside an engine
// run are not counted.
class FailNthFs final : public fs::FileSystem {
 public:
  FailNthFs(fs::FileSystem& inner, int rank, int k)
      : inner_(inner), rank_(rank), k_(k) {}

  // Whether the k-th call happened (and failed).
  [[nodiscard]] bool fired() const { return calls_ >= k_; }

  Result<std::unique_ptr<fs::File>> create(const std::string& p) override {
    if (fails()) return injected("create", p);
    return wrapped(inner_.create(p), p);
  }
  Result<std::unique_ptr<fs::File>> open_read(const std::string& p) override {
    if (fails()) return injected("open_read", p);
    return wrapped(inner_.open_read(p), p);
  }
  Result<std::unique_ptr<fs::File>> open_rw(const std::string& p) override {
    if (fails()) return injected("open_rw", p);
    return wrapped(inner_.open_rw(p), p);
  }
  Status mkdir(const std::string& p) override {
    if (fails()) return injected("mkdir", p);
    return inner_.mkdir(p);
  }
  Status remove(const std::string& p) override {
    if (fails()) return injected("remove", p);
    return inner_.remove(p);
  }
  Result<std::vector<std::string>> list_dir(const std::string& p) override {
    if (fails()) return injected("list_dir", p);
    return inner_.list_dir(p);
  }
  Result<fs::FileStat> stat_path(const std::string& p) override {
    if (fails()) return injected("stat_path", p);
    return inner_.stat_path(p);
  }
  bool exists(const std::string& p) override { return inner_.exists(p); }
  Result<std::uint64_t> block_size(const std::string& p) override {
    if (fails()) return injected("block_size", p);
    return inner_.block_size(p);
  }

 private:
  class FailNthFile final : public fs::File {
   public:
    FailNthFile(FailNthFs& owner, std::unique_ptr<fs::File> inner,
                std::string path)
        : owner_(owner), inner_(std::move(inner)), path_(std::move(path)) {}

    Result<std::uint64_t> pwrite(fs::DataView data,
                                 std::uint64_t offset) override {
      if (owner_.fails()) return injected("pwrite", path_);
      return inner_->pwrite(data, offset);
    }
    Result<std::uint64_t> pread(std::span<std::byte> out,
                                std::uint64_t offset) override {
      if (owner_.fails()) return injected("pread", path_);
      return inner_->pread(out, offset);
    }
    Status pread_discard(std::uint64_t len, std::uint64_t offset) override {
      if (owner_.fails()) return injected("pread_discard", path_);
      return inner_->pread_discard(len, offset);
    }
    Result<fs::FileStat> stat() override {
      if (owner_.fails()) return injected("stat", path_);
      return inner_->stat();
    }
    Status truncate(std::uint64_t size) override {
      if (owner_.fails()) return injected("truncate", path_);
      return inner_->truncate(size);
    }
    Status sync() override {
      if (owner_.fails()) return injected("sync", path_);
      return inner_->sync();
    }

   private:
    FailNthFs& owner_;
    std::unique_ptr<fs::File> inner_;
    std::string path_;
  };

  static Status injected(const char* call, const std::string& path) {
    return IoError(strformat("injected %s failure on %s", call, path.c_str()));
  }

  [[nodiscard]] bool fails() {
    const par::TaskState* task = par::this_task();
    if (task == nullptr || task->rank() != rank_) return false;
    return ++calls_ == k_;
  }

  Result<std::unique_ptr<fs::File>> wrapped(
      Result<std::unique_ptr<fs::File>> file, const std::string& path) {
    SION_ASSIGN_OR_RETURN(auto inner, std::move(file));
    return std::unique_ptr<fs::File>(
        std::make_unique<FailNthFile>(*this, std::move(inner), path));
  }

  fs::FileSystem& inner_;
  int rank_;
  int k_;
  int calls_ = 0;
};

}  // namespace sion::testfs
