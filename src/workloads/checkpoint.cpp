#include "workloads/checkpoint.h"

#include "workloads/checkpoint_session.h"

namespace sion::workloads {

Status validate_protection(const CheckpointSpec& spec, int ntasks) {
  const bool has_protection =
      !std::holds_alternative<std::monostate>(spec.protection);
  if (!has_protection) return Status::Ok();
  if (spec.strategy != IoStrategy::kSion) {
    return InvalidArgument(
        "checkpoint protection (buddy or ecc) requires the SIONlib strategy");
  }
  if (const ext::BuddyConfig* b = spec.buddy_protection(); b != nullptr) {
    return ext::Buddy::resolve(*b, spec.nfiles, ntasks).status();
  }
  return ext::Ecc::resolve(*spec.ecc_protection(), spec.nfiles, ntasks)
      .status();
}

// The free functions are compatibility wrappers over a one-write session.
// Sync-mode session open/close perform no I/O and no collectives, so these
// cost exactly what the pre-session implementations did.

Status write_checkpoint(fs::FileSystem& fs, par::Comm& comm,
                        const CheckpointSpec& spec, fs::DataView payload) {
  SION_ASSIGN_OR_RETURN(auto session, CheckpointSession::open(fs, comm, spec));
  SION_ASSIGN_OR_RETURN(const CheckpointSession::Ticket ticket,
                        session->write_async(payload));
  SION_RETURN_IF_ERROR(session->wait(ticket));
  return session->close();
}

Status read_checkpoint(fs::FileSystem& fs, par::Comm& comm,
                       const CheckpointSpec& spec,
                       std::uint64_t expected_bytes,
                       std::span<std::byte> out) {
  return CheckpointSession::restore(fs, comm, spec, /*index=*/0,
                                    expected_bytes, out);
}

}  // namespace sion::workloads
