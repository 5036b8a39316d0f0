// MPI-flavoured communicator for the fiber runtime.
//
// SIONlib is written against MPI communicators: a *global* communicator of
// all tasks writing one multifile and a *local* communicator per physical
// file (paper section 3.2). `Comm` provides exactly the collective surface
// SIONlib and the baselines need — barrier, bcast, gather(v), scatter(v),
// allgather, allreduce, split, and blocking point-to-point — with virtual-
// time costs from the alpha/beta tree model in `NetworkModel`.
//
// Semantics mirror MPI: collectives must be called by every member of the
// communicator, in the same order. Data moves through shared memory (all
// fibers live in one address space); blocked callers keep their buffers
// alive, so the implementation exchanges spans without copies until the
// final placement — the view-based point-to-point calls (`send_view`/
// `recv_view`) extend that contract to the aggregation ship protocol.
//
// Unlike MPI, a communicator's members are always in global-rank order:
// `split` takes no key, because SIONlib orders every split by the parent
// rank (paper section 3.2). A collective therefore releases its members as
// one rank-ordered run (Engine::wake_members), and the world comm and every
// SION file comm are contiguous rank ranges.
//
// Host-performance notes (the collective surface is the hottest code in a
// 64Ki-task sweep):
//   * collectives rendezvous on ONE reusable per-comm site — a comm never
//     has two collectives in flight, so there is no per-operation map or
//     slot-vector allocation;
//   * every rendezvous costs each waiting task two fiber switches, so
//     back-to-back collectives fuse into one (`steps`, below);
//   * the gather/scatter results are flat single buffers plus offsets
//     (`FlatGatherU64`, `Steps::scatterv_data`), never vector-of-vectors;
//   * rank() is one subtraction on a contiguous comm and a binary search
//     otherwise, not a hash table;
//   * the members' slots sit on their suspended fiber stacks, each on its
//     own cold page at 64Ki tasks, so every finalize that reads them walks
//     them in rank order through one helper that prefetches the slot 16
//     members ahead and what that slot points to 8 members ahead; split
//     copies the colors out once and sorts the contiguous copy.
//
// Exact-cost fusion. Collectives that follow each other with no clock
// advance in between run as ONE rendezvous (`steps`): its last arrival
// charges every step's own cost in call order, starting from the latest
// arrival, and releases everyone once. The unfused calls reach the same
// double: each of them starts from the previous release, which every
// member shares, and adds the same cost, so only the number of suspensions
// changes, never a release time or a result. Two things end a fusion:
//   * a clock advance between two calls (a file-system call, compute, a
//     SimFile close). It may differ per task, so the next call starts from
//     the latest advanced clock, not from the previous release;
//   * a change of comm. One rendezvous releases its members together, at
//     one time, while collectives on sub-comms release each sub-comm at
//     its own, and a comm with other members cannot join the rendezvous at
//     all. The one exception is the status agreement (`Steps::within`):
//     its sub-comm broadcasts come first and only feed the maximum the
//     allreduce starts from, so the fused rendezvous computes each
//     sub-comm's release without releasing anyone at it.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "par/engine.h"

namespace sion::par {

enum class ReduceOp : std::uint8_t { kSum, kMax, kMin };

class Comm {
 public:
  // Engine-internal factory; user code obtains the world comm from
  // Engine::run and sub-comms from split().
  static std::unique_ptr<Comm> create(Engine& engine,
                                      std::vector<TaskState*> members,
                                      NetworkModel net);

  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  // Rank of the calling task within this communicator.
  [[nodiscard]] int rank() const;
  [[nodiscard]] int size() const { return static_cast<int>(members_.size()); }
  [[nodiscard]] Engine& engine() const { return *engine_; }
  [[nodiscard]] const NetworkModel& network() const { return net_; }

  void barrier();

  // The root's value, on every task (a one-step `steps`).
  std::uint64_t bcast_u64(std::uint64_t value, int root);

  // `values.size()` consecutive bcast_u64 calls, fused (steps).
  void bcast_u64_seq(std::span<std::uint64_t> values, int root);

  // Returns the full vector on root, empty elsewhere.
  std::vector<std::uint64_t> gather_u64(std::uint64_t value, int root);

  // Variable-length u64 arrays, gathered into ONE flat buffer on root.
  // offsets has size()+1 entries: rank r's contribution is
  // data[offsets[r] .. offsets[r+1]). Empty on non-root ranks.
  struct FlatGatherU64 {
    std::vector<std::uint64_t> data;
    std::vector<std::uint64_t> offsets;

    [[nodiscard]] std::span<const std::uint64_t> of(int r) const {
      return std::span<const std::uint64_t>(data).subspan(
          offsets[static_cast<std::size_t>(r)],
          offsets[static_cast<std::size_t>(r) + 1] -
              offsets[static_cast<std::size_t>(r)]);
    }
  };
  FlatGatherU64 gatherv_u64_flat(std::span<const std::uint64_t> values,
                                 int root);

  std::vector<std::uint64_t> allgather_u64(std::uint64_t value);
  std::uint64_t allreduce_u64(std::uint64_t value, ReduceOp op);

  // Back-to-back collectives on this comm in one rendezvous, under the
  // exact-cost contract above. Every member passes the same shape; scatter
  // inputs are read and gather outputs filled on the root alone. The steps
  // run in this order, each charging what its own call charges:
  struct Steps {
    // 1. An optional status word, in: this task's status, out: the
    //    verdict. Alone it is share_status: the root's code, broadcast; a
    //    non-zero code ends the sequence, so nothing after it runs or is
    //    charged and the root's inputs are not touched. With `within`, the
    //    calling task's sub-comm of this comm, it is share_status_global
    //    with `root` a rank of each sub-comm, and any failure ends the
    //    sequence. Tasks failed by another's status report `what`.
    Status* status = nullptr;
    Comm* within = nullptr;
    // 2. Broadcast words: the root's values reach every task's span, one
    //    8-byte broadcast each (bcast_u64).
    std::span<std::uint64_t> bcast{};
    // 3. An optional byte blob: the root's *blob reaches every task's
    //    *blob, whatever its size there. It is charged as an 8-byte
    //    broadcast of its size and then a broadcast of its bytes, the two
    //    calls a receiver that cannot know the size in advance would make.
    std::vector<std::byte>* blob = nullptr;
    // 4. u64 scatters: the root's scatter_in[k] holds size() values and
    //    every task receives its own in scatter_out[k], each a rooted
    //    transfer of 8 * size() bytes.
    std::span<const std::span<const std::uint64_t>> scatter_in{};
    std::span<std::uint64_t> scatter_out{};
    // 5. An optional byte scatterv: the root's flat `scatterv_data`,
    //    sliced by `scatterv_sizes` in rank order, into each *scatterv_out.
    std::vector<std::byte>* scatterv_out = nullptr;
    std::span<const std::byte> scatterv_data{};
    std::span<const std::uint64_t> scatterv_sizes{};
    // 6. u64 gathers: gather_in[k] of every task lands in the root's
    //    gather_out[k] (gatherv_u64_flat; one value each is gather_u64).
    std::span<const std::span<const std::uint64_t>> gather_in{};
    std::span<FlatGatherU64> gather_out{};
    // 7. A closing barrier.
    bool barrier = false;
  };
  void steps(const Steps& s, int root, const char* what = "");

  // MPI_Comm_split keyed by the parent rank. Tasks passing the same color
  // land in the same child communicator, in parent order. color < 0 means
  // "not in any child" (MPI_UNDEFINED) and yields nullptr. Child comms are
  // owned by the engine and stay valid for the rest of the run.
  Comm* split(int color);

  // Split into consecutive-rank groups of `group_size` tasks (the last group
  // may be smaller). The aggregation helper used by ext::Collective: rank 0
  // of every child is the group's collector. group_size <= 0 or >= size()
  // yields one group spanning the whole communicator.
  Comm* split_groups(int group_size);

  // Point-to-point with MPI-like eager semantics: send buffers the message
  // and returns after charging link time; recv blocks until a matching
  // message (same src and tag, FIFO within the pair) is available.
  void send_bytes(std::span<const std::byte> data, int dst, int tag);
  std::vector<std::byte> recv_bytes(int src, int tag);

  // Zero-copy variants: send_view ships only the span — the sender must
  // keep the buffer alive and unmodified until the receiver's matching recv
  // completes (the blocking collective protocols in ext:: guarantee this);
  // recv_view returns that span directly and must only be paired with
  // send_view. Identical virtual-time cost to send_bytes/recv_bytes.
  void send_view(std::span<const std::byte> data, int dst, int tag);
  std::span<const std::byte> recv_view(int src, int tag);

  // Group-to-group copy collective (MPI_Sendrecv around the ring): every
  // task ships `data` to the task `shift` comm ranks ahead (mod size) and
  // receives the matching buffer from the task `shift` ranks behind. With
  // shift = k * group_size this moves every group's payloads to its k-th
  // neighbour group in one step — the buddy-replication ship pattern
  // (ext::Buddy mirrors checkpoint chunks to another failure domain with
  // it). Collective: every member must call it with the same shift. A
  // shift that is a multiple of size() degenerates to a local copy with no
  // network cost.
  std::vector<std::byte> rotate_bytes(std::span<const std::byte> data,
                                      int shift);

 private:
  Comm(Engine& engine, std::vector<TaskState*> members, NetworkModel net);

  // Generic collective rendezvous: every member registers its `slot`; the
  // last arrival runs `finalize(slots, tmax)` (which performs the data
  // movement and returns the release time) and wakes everyone. At most one
  // collective is ever in flight per comm (members cannot reach op k+1
  // before op k released them), so the site is a single reusable arena.
  template <typename F>
  void rendezvous(void* slot, F&& finalize);

  [[nodiscard]] TaskState& calling_task() const;

  struct Message {
    double t_avail = 0.0;  // earliest virtual time the receiver can have it
    std::span<const std::byte> view;  // always set; into `owned` or remote
    std::vector<std::byte> owned;     // empty for send_view messages
    bool is_view = false;
  };
  // FIFO mailbox for one (src, dst, tag) stream; a vector with a head
  // cursor, reset when drained, so steady-state token traffic allocates
  // nothing.
  struct Box {
    std::vector<Message> q;
    std::size_t head = 0;

    [[nodiscard]] bool empty() const { return head == q.size(); }
    Message take() {
      Message m = std::move(q[head++]);
      if (head == q.size()) {
        q.clear();
        head = 0;
      }
      return m;
    }
  };
  struct WaitingReceiver {
    TaskState* task = nullptr;
    double t_blocked = 0.0;
    std::vector<std::byte>* sink = nullptr;       // recv_bytes
    std::span<const std::byte>* view_sink = nullptr;  // recv_view
  };

  void deliver_or_enqueue(Message msg, int dst, int tag);
  Message take_or_block(int src, int tag, std::vector<std::byte>* sink,
                        std::span<const std::byte>* view_sink, bool* blocked);

  Engine* engine_;
  std::vector<TaskState*> members_;  // in ascending global rank
  std::vector<int> granks_;  // global rank per comm rank (member order)
  bool contiguous_ = false;  // granks_ is one range: rank = grank - front
  NetworkModel net_;

  std::vector<std::uint64_t> next_op_;  // per comm rank op counter

  // The last status word's verdict on this comm. A member reads it when
  // released, before it can reach the next collective here, which cannot
  // finalize before every member arrives.
  std::uint64_t verdict_code_ = 0;
  bool verdict_failed_ = false;
  // A `Steps::within` agreement's sub-comms, in order of first arrival.
  std::vector<Comm*> within_subs_;
  // Scratch of a parent comm's `Steps::within` agreement over this comm:
  // the latest arrival, the arrivals seen (0 between agreements) and the
  // root's status code, which members read when released.
  struct WithinScratch {
    double tmax = 0.0;
    int seen = 0;
    std::uint64_t code = 0;
  };
  WithinScratch within_;

  // The single reusable rendezvous site.
  std::uint64_t site_op_ = 0;
  int site_arrived_ = 0;
  double site_tmax_ = 0.0;
  std::vector<void*> site_slots_;

  // Keyed by (src, dst, tag).
  std::map<std::tuple<int, int, int>, Box> mailbox_;
  std::map<std::tuple<int, int, int>, WaitingReceiver> waiting_recv_;
};

// ---------------------------------------------------------------------------
// Collective status agreement. The protocol is subtle and deadlock-sensitive
// (every member must reach the same agreement points in the same order), so
// SIONlib's collective layers share these helpers instead of re-rolling them.
// ---------------------------------------------------------------------------

// Share the root's status with every task of `comm`: a failure on the rank
// doing the I/O becomes an error everywhere instead of a hang or a half-open
// file. Non-root tasks receive the root's error code with `what` as message.
Status share_status(Comm& comm, const Status& mine, int root,
                    const char* what);

// Agree on the outcome across `comm` (allreduce-max of failure): any task's
// error fails every task. Tasks that were locally fine report
// Internal(`what`).
Status agree_status(Comm& comm, const Status& mine, const char* what);

// Share the file-local master's status within the file (`lcom`), then agree
// across the whole multifile (`gcom`) on the shared status or, where that
// is OK, on the task's own: a failure on one physical file's master or on
// any single task must become an error on every task, not a deadlock of
// the others at the next collective. One rendezvous on `gcom`
// (Comm::Steps::within), charged as the lcom bcast then the gcom
// allreduce.
Status share_status_global(Comm& lcom, Comm& gcom, const Status& mine,
                           int root, const char* what);

}  // namespace sion::par
