#include "core/filemap.h"

#include "common/log.h"
#include "common/strings.h"

namespace sion::core {

namespace {
Status validate_counts(int ntasks, int nfiles) {
  if (ntasks <= 0) return InvalidArgument("ntasks must be positive");
  if (nfiles <= 0 || nfiles > ntasks) {
    return InvalidArgument(
        strformat("nfiles=%d must be in [1, ntasks=%d]", nfiles, ntasks));
  }
  return Status::Ok();
}
}  // namespace

Result<FileMap> FileMap::contiguous(int ntasks, int nfiles) {
  SION_RETURN_IF_ERROR(validate_counts(ntasks, nfiles));
  return FileMap(Mapping::kContiguous, ntasks, nfiles);
}

Result<FileMap> FileMap::custom(std::vector<int> file_of_rank, int nfiles) {
  if (file_of_rank.empty()) return InvalidArgument("empty custom mapping");
  if (nfiles <= 0) return InvalidArgument("nfiles must be positive");
  FileMap map(Mapping::kCustom, static_cast<int>(file_of_rank.size()), nfiles);
  map.custom_tasks_in_file_.assign(static_cast<std::size_t>(nfiles), 0);
  map.custom_local_index_.resize(file_of_rank.size());
  for (std::size_t r = 0; r < file_of_rank.size(); ++r) {
    const int f = file_of_rank[r];
    if (f < 0 || f >= nfiles) {
      return InvalidArgument(
          strformat("custom mapping entry %d out of [0, %d)", f, nfiles));
    }
    auto& count = map.custom_tasks_in_file_[static_cast<std::size_t>(f)];
    map.custom_local_index_[r] = count;
    ++count;
  }
  for (int f = 0; f < nfiles; ++f) {
    if (map.custom_tasks_in_file_[static_cast<std::size_t>(f)] == 0) {
      return InvalidArgument(
          strformat("custom mapping leaves file %d without tasks", f));
    }
  }
  map.custom_file_of_rank_ = std::move(file_of_rank);
  return map;
}

Result<FileMap> FileMap::make(Mapping mapping, int ntasks, int nfiles,
                              const std::vector<int>& custom_map) {
  switch (mapping) {
    case Mapping::kContiguous: return contiguous(ntasks, nfiles);
    case Mapping::kCustom: {
      if (custom_map.size() != static_cast<std::size_t>(ntasks)) {
        return InvalidArgument(
            strformat("custom mapping has %zu entries for %d tasks",
                      custom_map.size(), ntasks));
      }
      auto copy = custom_map;
      return custom(std::move(copy), nfiles);
    }
  }
  return InvalidArgument("unknown mapping kind");
}

int FileMap::contiguous_first_rank(int f) const {
  // Smallest r with r*nfiles/ntasks == f, i.e. ceil(f*ntasks / nfiles).
  const long long num = static_cast<long long>(f) * ntasks_;
  return static_cast<int>((num + nfiles_ - 1) / nfiles_);
}

int FileMap::file_of(int rank) const {
  SION_CHECK(rank >= 0 && rank < ntasks_) << "rank out of range";
  switch (kind_) {
    case Mapping::kContiguous:
      return static_cast<int>(static_cast<long long>(rank) * nfiles_ /
                              ntasks_);
    case Mapping::kCustom:
      return custom_file_of_rank_[static_cast<std::size_t>(rank)];
  }
  return 0;
}

int FileMap::local_index(int rank) const {
  switch (kind_) {
    case Mapping::kContiguous:
      return rank - contiguous_first_rank(file_of(rank));
    case Mapping::kCustom:
      return custom_local_index_[static_cast<std::size_t>(rank)];
  }
  return 0;
}

int FileMap::tasks_in_file(int filenum) const {
  SION_CHECK(filenum >= 0 && filenum < nfiles_) << "file index out of range";
  switch (kind_) {
    case Mapping::kContiguous:
      return contiguous_first_rank(filenum + 1) -
             contiguous_first_rank(filenum);
    case Mapping::kCustom:
      return custom_tasks_in_file_[static_cast<std::size_t>(filenum)];
  }
  return 0;
}

}  // namespace sion::core
