#include "par/comm.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "common/log.h"

namespace sion::par {

namespace {

// Calls visit(i, slot) for every member's slot in rank order. The slots sit
// on the members' suspended fiber stacks, a page or more apart and cold
// once there are thousands of them, so the walk prefetches the slot 16
// members ahead and, 8 members ahead, the memory that `pointees` prefetches
// from a slot that has had time to arrive.
template <typename Slot, typename Pointees, typename Visit>
void walk_slots(const std::vector<void*>& slots, Pointees&& pointees,
                Visit&& visit) {
  constexpr std::size_t kSlotAhead = 16;
  constexpr std::size_t kPointeeAhead = 8;
  const std::size_t n = slots.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kSlotAhead < n) __builtin_prefetch(slots[i + kSlotAhead]);
    if (i + kPointeeAhead < n) {
      pointees(*static_cast<const Slot*>(slots[i + kPointeeAhead]));
    }
    visit(i, *static_cast<Slot*>(slots[i]));
  }
}

// walk_slots' pointees for slots that hold everything the walk reads.
constexpr auto kNoPointees = [](const auto&) {};

}  // namespace

std::unique_ptr<Comm> Comm::create(Engine& engine,
                                   std::vector<TaskState*> members,
                                   NetworkModel net) {
  return std::unique_ptr<Comm>(new Comm(engine, std::move(members), net));
}

Comm::Comm(Engine& engine, std::vector<TaskState*> members, NetworkModel net)
    : engine_(&engine), members_(std::move(members)), net_(net) {
  granks_.reserve(members_.size());
  for (const TaskState* member : members_) {
    SION_CHECK(granks_.empty() || member->rank() > granks_.back())
        << "comm members must be in ascending global rank order";
    granks_.push_back(member->rank());
  }
  contiguous_ = !granks_.empty() &&
                granks_.back() - granks_.front() == size() - 1;
  next_op_.assign(members_.size(), 0);
}

TaskState& Comm::calling_task() const {
  TaskState* task = this_task();
  SION_CHECK(task != nullptr) << "Comm used outside Engine::run";
  return *task;
}

int Comm::rank() const {
  const int grank = calling_task().rank();
  if (contiguous_) {
    const int r = grank - granks_.front();
    SION_CHECK(r >= 0 && r < size())
        << "calling task is not a member of this communicator";
    return r;
  }
  const auto it = std::lower_bound(granks_.begin(), granks_.end(), grank);
  SION_CHECK(it != granks_.end() && *it == grank)
      << "calling task is not a member of this communicator";
  return static_cast<int>(it - granks_.begin());
}

template <typename F>
void Comm::rendezvous(void* slot, F&& finalize) {
  TaskState& task = calling_task();
  const int my_rank = rank();
  const std::uint64_t opidx = next_op_[static_cast<std::size_t>(my_rank)]++;

  if (size() == 1) {
    site_slots_.assign(1, slot);
    const double release = finalize(site_slots_, task.now());
    task.advance_to(release);
    return;
  }

  if (site_arrived_ == 0) {
    // First arrival of a fresh collective claims the site. Slot entries are
    // not cleared between ops: every member overwrites its own entry before
    // the last arrival runs finalize.
    site_op_ = opidx;
    site_tmax_ = task.now();
    if (site_slots_.size() != members_.size()) {
      site_slots_.assign(members_.size(), nullptr);
    }
  } else {
    SION_CHECK(site_op_ == opidx)
        << "collective operation order mismatch on comm rank " << my_rank;
    if (task.now() > site_tmax_) site_tmax_ = task.now();
  }
  site_slots_[static_cast<std::size_t>(my_rank)] = slot;
  ++site_arrived_;

  if (site_arrived_ < size()) {
    engine_->block_current();
    // Woken by the last arrival; our slot already holds the results and our
    // clock was advanced by the release.
    return;
  }

  // Retire the site before waking anyone so a released task entering the
  // next collective starts a fresh operation.
  const double tmax = site_tmax_;
  site_arrived_ = 0;
  const double release = finalize(site_slots_, tmax);
  engine_->wake_members(members_, static_cast<std::size_t>(my_rank), release);
  task.advance_to(release);
}

void Comm::barrier() {
  const double cost = net_.sync_cost(size());
  rendezvous(nullptr, [cost](std::vector<void*>&, double tmax) {
    return tmax + cost;
  });
}

std::uint64_t Comm::bcast_u64(std::uint64_t value, int root) {
  std::uint64_t v = value;
  steps({.bcast = {&v, 1}}, root);
  return v;
}

void Comm::bcast_u64_seq(std::span<std::uint64_t> values, int root) {
  if (!values.empty()) steps({.bcast = values}, root);
}

std::vector<std::uint64_t> Comm::gather_u64(std::uint64_t value, int root) {
  const std::span<const std::uint64_t> in[] = {{&value, 1}};
  FlatGatherU64 out;
  steps({.gather_in = in, .gather_out = {&out, 1}}, root);
  return std::move(out.data);
}

Comm::FlatGatherU64 Comm::gatherv_u64_flat(
    std::span<const std::uint64_t> values, int root) {
  const std::span<const std::uint64_t> in[] = {values};
  FlatGatherU64 out;
  steps({.gather_in = in, .gather_out = {&out, 1}}, root);
  return out;
}

std::vector<std::uint64_t> Comm::allgather_u64(std::uint64_t value) {
  struct Slot {
    std::uint64_t in;
    std::vector<std::uint64_t>* out;
  };
  std::vector<std::uint64_t> result;
  Slot slot{value, &result};
  const int nranks = size();
  const NetworkModel net = net_;
  rendezvous(&slot, [nranks, net](std::vector<void*>& slots, double tmax) {
    std::vector<std::uint64_t> all(static_cast<std::size_t>(nranks));
    walk_slots<Slot>(slots, kNoPointees,
                     [&](std::size_t i, Slot& m) { all[i] = m.in; });
    walk_slots<Slot>(
        slots, [](const Slot& m) { __builtin_prefetch(m.out, 1); },
        [&](std::size_t, Slot& m) { *m.out = all; });
    // Gather up the tree plus broadcast down: twice the rooted volume.
    return tmax + net.rooted_cost(nranks,
                                  16ULL * static_cast<std::uint64_t>(nranks));
  });
  return result;
}

std::uint64_t Comm::allreduce_u64(std::uint64_t value, ReduceOp op) {
  struct Slot {
    std::uint64_t in;
    std::uint64_t out = 0;
  };
  Slot slot{value, 0};
  const int nranks = size();
  const NetworkModel net = net_;
  rendezvous(&slot, [op, nranks, net](std::vector<void*>& slots,
                                      double tmax) {
    std::uint64_t acc = static_cast<Slot*>(slots[0])->in;
    walk_slots<Slot>(slots, kNoPointees, [&](std::size_t i, Slot& m) {
      if (i == 0) return;
      switch (op) {
        case ReduceOp::kSum: acc += m.in; break;
        case ReduceOp::kMax: acc = std::max(acc, m.in); break;
        case ReduceOp::kMin: acc = std::min(acc, m.in); break;
      }
    });
    walk_slots<Slot>(slots, kNoPointees,
                     [&](std::size_t, Slot& m) { m.out = acc; });
    return tmax + net.sync_cost(nranks);
  });
  return slot.out;
}

namespace {

// One member's side of a fused rendezvous.
struct StepsSlot {
  const Comm::Steps* steps = nullptr;
  double arrival = 0.0;    // the member's clock on entry
  int within_rank = 0;     // its rank in steps->within
  std::uint64_t code = 0;  // its own status code
};

// walk_slots' pointees in a fused rendezvous: the member's Steps, whose
// first and last bytes may sit on two lines.
void prefetch_steps(const StepsSlot& m) {
  __builtin_prefetch(m.steps);
  __builtin_prefetch(reinterpret_cast<const char*>(m.steps + 1) - 1);
}

bool same_shape(const Comm::Steps& a, const Comm::Steps& b) {
  return (a.status == nullptr) == (b.status == nullptr) &&
         (a.within == nullptr) == (b.within == nullptr) &&
         a.bcast.size() == b.bcast.size() &&
         (a.blob == nullptr) == (b.blob == nullptr) &&
         a.scatter_out.size() == b.scatter_out.size() &&
         (a.scatterv_out == nullptr) == (b.scatterv_out == nullptr) &&
         a.gather_in.size() == b.gather_in.size() && a.barrier == b.barrier;
}

}  // namespace

void Comm::steps(const Steps& s, int root, const char* what) {
  SION_CHECK(root >= 0 && root < size()) << "steps root out of range";
  StepsSlot slot;
  slot.steps = &s;
  slot.arrival = calling_task().now();
  if (s.status != nullptr) {
    slot.code = static_cast<std::uint64_t>(s.status->code());
  }
  if (s.within != nullptr) {
    // The agreement stands in for one collective on the sub-comm, so its
    // op counter moves as that collective's would.
    Comm& w = *s.within;
    slot.within_rank = w.rank();
    SION_CHECK(root < w.size()) << "steps root out of range in sub-comm";
    SION_CHECK(w.site_arrived_ == 0) << "sub-comm has a collective in flight";
    ++w.next_op_[static_cast<std::size_t>(slot.within_rank)];
  }
  // The finalize walks the members' slots, which sit on cold fiber stacks,
  // at most once; the status verdict goes to this comm's fields (and each
  // sub-comm's scratch) instead, where every member reads it on release.
  const int n = size();
  rendezvous(&slot, [this, root, n](std::vector<void*>& slots, double tmax) {
    const auto& rslot =
        *static_cast<const StepsSlot*>(slots[static_cast<std::size_t>(root)]);
    const Steps& rs = *rslot.steps;
    double t = tmax;
    bool walked = false;  // every member's shape checked

    // 1. The status word.
    verdict_code_ = rslot.code;
    verdict_failed_ = rslot.code != 0;
    if (rs.status != nullptr && rs.within == nullptr) {
      t = t + net_.bcast_cost(n, sizeof(std::uint64_t));
    } else if (rs.status != nullptr) {
      // Group by sub-comm through each sub-comm's scratch: O(n), in rank
      // order. Sub-comm f's broadcast releases it at its latest arrival
      // plus its cost; the allreduce starts from the latest of those.
      walk_slots<StepsSlot>(
          slots, prefetch_steps, [&](std::size_t, const StepsSlot& m) {
            SION_CHECK(same_shape(*m.steps, rs))
                << "fused collective steps differ across members";
            Comm& sub = *m.steps->within;
            WithinScratch& w = sub.within_;
            if (w.seen++ == 0) {
              w.tmax = m.arrival;
              within_subs_.push_back(&sub);
            } else if (m.arrival > w.tmax) {
              w.tmax = m.arrival;
            }
            if (m.within_rank == root) w.code = m.code;
            verdict_failed_ = verdict_failed_ || m.code != 0;
          });
      walked = true;
      double latest = 0.0;
      for (std::size_t f = 0; f < within_subs_.size(); ++f) {
        WithinScratch& w = within_subs_[f]->within_;
        SION_CHECK(w.seen == within_subs_[f]->size())
            << "steps `within` is not a sub-comm of this comm";
        w.seen = 0;
        const double released =
            w.tmax + within_subs_[f]->net_.bcast_cost(
                         within_subs_[f]->size(), sizeof(std::uint64_t));
        if (f == 0 || released > latest) latest = released;
      }
      within_subs_.clear();
      t = latest + net_.sync_cost(n);
    }
    if (verdict_failed_) return t;

    // 2.-6. Broadcast words, the blob, u64 scatters, the byte scatterv and
    // u64 gathers: one walk moves the root's inputs out and the members'
    // gather inputs in, then the costs follow in step order.
    const auto nvalues = static_cast<std::size_t>(n);
    const bool moves = !rs.bcast.empty() || rs.blob != nullptr ||
                       !rs.scatter_out.empty() || rs.scatterv_out != nullptr ||
                       !rs.gather_in.empty();
    SION_CHECK(rs.scatter_in.size() == rs.scatter_out.size())
        << "steps root must supply every scatter";
    for (const auto& in : rs.scatter_in) {
      SION_CHECK(in.size() == nvalues)
          << "steps root must supply size() values per scatter";
    }
    SION_CHECK(rs.scatterv_out == nullptr ||
               rs.scatterv_sizes.size() == nvalues)
        << "scatterv root must supply size() sizes";
    SION_CHECK(rs.gather_out.size() == rs.gather_in.size())
        << "steps root must receive every gather";
    for (FlatGatherU64& out : rs.gather_out) {
      out = FlatGatherU64{{}, {0}};
      out.data.reserve(nvalues);
      out.offsets.reserve(nvalues + 1);
    }
    std::uint64_t pos = 0;
    if (moves || !walked) {
      walk_slots<StepsSlot>(slots, prefetch_steps, [&](std::size_t i,
                                                       const StepsSlot& ms) {
        const Steps& m = *ms.steps;
        SION_CHECK(walked || same_shape(m, rs))
            << "fused collective steps differ across members";
        if (&m != &rs) {
          std::copy(rs.bcast.begin(), rs.bcast.end(), m.bcast.begin());
          if (rs.blob != nullptr) *m.blob = *rs.blob;
        }
        for (std::size_t k = 0; k < rs.scatter_in.size(); ++k) {
          m.scatter_out[k] = rs.scatter_in[k][i];
        }
        if (rs.scatterv_out != nullptr) {
          const std::uint64_t len = rs.scatterv_sizes[i];
          SION_CHECK(pos + len <= rs.scatterv_data.size())
              << "scatterv sizes overrun the flat buffer";
          const auto piece = rs.scatterv_data.subspan(pos, len);
          m.scatterv_out->assign(piece.begin(), piece.end());
          pos += len;
        }
        for (std::size_t k = 0; k < rs.gather_in.size(); ++k) {
          FlatGatherU64& out = rs.gather_out[k];
          out.data.insert(out.data.end(), m.gather_in[k].begin(),
                          m.gather_in[k].end());
          out.offsets.push_back(out.data.size());
        }
      });
    }
    for (std::size_t k = 0; k < rs.bcast.size(); ++k) {
      t = t + net_.bcast_cost(n, sizeof(std::uint64_t));
    }
    if (rs.blob != nullptr) {
      t = t + net_.bcast_cost(n, sizeof(std::uint64_t));
      t = t + net_.bcast_cost(n, rs.blob->size());
    }
    for (std::size_t k = 0; k < rs.scatter_in.size(); ++k) {
      t = t + net_.rooted_cost(n, 8ULL * nvalues);
    }
    if (rs.scatterv_out != nullptr) t = t + net_.rooted_cost(n, pos);
    for (const FlatGatherU64& out : rs.gather_out) {
      t = t + net_.rooted_cost(n, 8 * out.data.size());
    }

    // 7. The closing barrier.
    if (rs.barrier) t = t + net_.sync_cost(n);
    return t;
  });

  // The verdict: a shared failure is the status root's own status there and
  // its code with `what` elsewhere; failing by another task's own status
  // reads Internal(what); a task's own failure stays its own.
  if (s.status == nullptr) return;
  Status& mine = *s.status;
  const std::uint64_t shared =
      s.within != nullptr ? s.within->within_.code : verdict_code_;
  if (!verdict_failed_) {
    mine = Status::Ok();
  } else if (shared != 0) {
    const bool is_root =
        (s.within != nullptr ? slot.within_rank : rank()) == root;
    if (!is_root) mine = Status(static_cast<ErrorCode>(shared), what);
  } else if (mine.ok()) {
    mine = Internal(what);
  }
}

Comm* Comm::split(int color) {
  struct Slot {
    int color;
    Comm* out = nullptr;
  };
  Slot slot{color, nullptr};
  const int nranks = size();
  const NetworkModel net = net_;
  Engine* engine = engine_;
  std::vector<TaskState*>* members = &members_;
  rendezvous(&slot, [nranks, net, engine, members](std::vector<void*>& slots,
                                                   double tmax) {
    // Group by color, each group in parent order. The sort runs on
    // (color, parent rank) copies, not through the members' cold slots; a
    // slot's index is its task's parent rank.
    std::vector<std::pair<int, int>> order;
    order.reserve(slots.size());
    walk_slots<Slot>(slots, kNoPointees, [&](std::size_t i, const Slot& s) {
      order.emplace_back(s.color, static_cast<int>(i));
    });
    std::sort(order.begin(), order.end());
    std::size_t i = 0;
    while (i < order.size()) {
      const int group_color = order[i].first;
      std::size_t j = i;
      while (j < order.size() && order[j].first == group_color) ++j;
      if (group_color >= 0) {
        std::vector<TaskState*> group;
        group.reserve(j - i);
        for (std::size_t k = i; k < j; ++k) {
          group.push_back(
              (*members)[static_cast<std::size_t>(order[k].second)]);
        }
        Comm& child = engine->adopt_comm(
            Comm::create(*engine, std::move(group), net));
        for (std::size_t k = i; k < j; ++k) {
          static_cast<Slot*>(slots[static_cast<std::size_t>(order[k].second)])
              ->out = &child;
        }
      }
      i = j;
    }
    return tmax + net.sync_cost(nranks);
  });
  return slot.out;
}

Comm* Comm::split_groups(int group_size) {
  if (group_size <= 0 || group_size >= size()) return split(0);
  return split(rank() / group_size);
}

// ---------------------------------------------------------------------------
// point-to-point
// ---------------------------------------------------------------------------

void Comm::deliver_or_enqueue(Message msg, int dst, int tag) {
  TaskState& task = calling_task();
  const int src = rank();
  SION_CHECK(src != dst) << "send to self would deadlock";
  const double t_avail = msg.t_avail;
  const auto key = std::make_tuple(src, dst, tag);

  const auto waiting = waiting_recv_.find(key);
  if (waiting != waiting_recv_.end()) {
    WaitingReceiver receiver = waiting->second;
    waiting_recv_.erase(waiting);
    if (receiver.view_sink != nullptr) {
      SION_CHECK(msg.is_view)
          << "recv_view must be paired with send_view (the span would "
             "dangle once a copying sender returns)";
      *receiver.view_sink = msg.view;
    } else {
      receiver.sink->assign(msg.view.begin(), msg.view.end());
    }
    engine_->wake(*receiver.task, std::max(receiver.t_blocked, msg.t_avail));
  } else {
    mailbox_[key].q.push_back(std::move(msg));
  }
  // Eager send: the sender only occupies its link, it does not wait for the
  // receiver (MPI small/eager protocol).
  task.advance_to(t_avail);
}

void Comm::send_bytes(std::span<const std::byte> data, int dst, int tag) {
  SION_CHECK(dst >= 0 && dst < size()) << "send destination out of range";
  Message msg;
  msg.t_avail = calling_task().now() + net_.p2p_cost(data.size());
  msg.owned.assign(data.begin(), data.end());
  msg.view = msg.owned;
  msg.is_view = false;
  deliver_or_enqueue(std::move(msg), dst, tag);
}

void Comm::send_view(std::span<const std::byte> data, int dst, int tag) {
  SION_CHECK(dst >= 0 && dst < size()) << "send destination out of range";
  Message msg;
  msg.t_avail = calling_task().now() + net_.p2p_cost(data.size());
  msg.view = data;
  msg.is_view = true;
  deliver_or_enqueue(std::move(msg), dst, tag);
}

Comm::Message Comm::take_or_block(int src, int tag,
                                  std::vector<std::byte>* sink,
                                  std::span<const std::byte>* view_sink,
                                  bool* blocked) {
  SION_CHECK(src >= 0 && src < size()) << "recv source out of range";
  TaskState& task = calling_task();
  const int dst = rank();
  SION_CHECK(src != dst) << "recv from self would deadlock";
  const auto key = std::make_tuple(src, dst, tag);

  const auto queued = mailbox_.find(key);
  if (queued != mailbox_.end() && !queued->second.empty()) {
    Message msg = queued->second.take();
    task.advance_to(std::max(task.now(), msg.t_avail));
    *blocked = false;
    return msg;
  }

  SION_CHECK(waiting_recv_.find(key) == waiting_recv_.end())
      << "two receivers blocked on the same (src, tag)";
  waiting_recv_[key] = WaitingReceiver{&task, task.now(), sink, view_sink};
  engine_->block_current();
  *blocked = true;
  return {};
}

std::vector<std::byte> Comm::recv_bytes(int src, int tag) {
  std::vector<std::byte> out;
  bool blocked = false;
  Message msg = take_or_block(src, tag, &out, nullptr, &blocked);
  if (blocked) return out;  // the sender filled the sink before waking us
  if (msg.is_view) {
    out.assign(msg.view.begin(), msg.view.end());
  } else {
    out = std::move(msg.owned);
  }
  return out;
}

std::span<const std::byte> Comm::recv_view(int src, int tag) {
  std::span<const std::byte> out;
  bool blocked = false;
  Message msg = take_or_block(src, tag, nullptr, &out, &blocked);
  if (blocked) return out;  // the sender stored the span before waking us
  SION_CHECK(msg.is_view)
      << "recv_view must be paired with send_view (the span would dangle "
         "once the mailbox copy is dropped)";
  return msg.view;
}

// ---------------------------------------------------------------------------
// group-to-group rotation
// ---------------------------------------------------------------------------

namespace {
// Reserved tag for the rotation collectives: rotation is collective, so no
// user point-to-point traffic is ever in flight on the comm at the same
// time, but a distinct tag keeps a mis-ordered program failing loudly
// instead of cross-matching application messages.
constexpr int kRotateTag = 0x707A7E;
}  // namespace

std::vector<std::byte> Comm::rotate_bytes(std::span<const std::byte> data,
                                          int shift) {
  const int n = size();
  const int s = ((shift % n) + n) % n;
  if (s == 0) return {data.begin(), data.end()};
  const int me = rank();
  // Eager send first, then receive: every task's send completes without
  // waiting for its receiver, so the ring never deadlocks.
  send_bytes(data, (me + s) % n, kRotateTag);
  return recv_bytes((me - s + n) % n, kRotateTag);
}

// ---------------------------------------------------------------------------
// status agreement
// ---------------------------------------------------------------------------

Status share_status(Comm& comm, const Status& mine, int root,
                    const char* what) {
  Status st = mine;
  comm.steps({.status = &st}, root, what);
  return st;
}

Status agree_status(Comm& comm, const Status& mine, const char* what) {
  const std::uint64_t failed =
      comm.allreduce_u64(mine.ok() ? 0 : 1, ReduceOp::kMax);
  if (failed == 0) return Status::Ok();
  if (!mine.ok()) return mine;
  return Internal(what);
}

Status share_status_global(Comm& lcom, Comm& gcom, const Status& mine,
                           int root, const char* what) {
  Status st = mine;
  gcom.steps({.status = &st, .within = &lcom}, root, what);
  return st;
}

}  // namespace sion::par
