#include "par/comm.h"

#include <algorithm>
#include <cstring>
#include <tuple>

#include "common/log.h"

namespace sion::par {

std::unique_ptr<Comm> Comm::create(Engine& engine,
                                   std::vector<TaskState*> members,
                                   NetworkModel net) {
  return std::unique_ptr<Comm>(new Comm(engine, std::move(members), net));
}

Comm::Comm(Engine& engine, std::vector<TaskState*> members, NetworkModel net)
    : engine_(&engine), members_(std::move(members)), net_(net) {
  granks_.reserve(members_.size());
  identity_ranks_ = true;
  ascending_ranks_ = true;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    const int g = members_[i]->rank();
    if (g != static_cast<int>(i)) identity_ranks_ = false;
    if (!granks_.empty() && g <= granks_.back()) ascending_ranks_ = false;
    granks_.push_back(g);
  }
  next_op_.assign(members_.size(), 0);
}

TaskState& Comm::calling_task() const {
  TaskState* task = this_task();
  SION_CHECK(task != nullptr) << "Comm used outside Engine::run";
  return *task;
}

int Comm::rank() const {
  const int grank = calling_task().rank();
  if (identity_ranks_) {
    SION_CHECK(grank >= 0 && grank < size())
        << "calling task is not a member of this communicator";
    return grank;
  }
  if (ascending_ranks_) {
    const auto it = std::lower_bound(granks_.begin(), granks_.end(), grank);
    SION_CHECK(it != granks_.end() && *it == grank)
        << "calling task is not a member of this communicator";
    return static_cast<int>(it - granks_.begin());
  }
  const auto it = std::find(granks_.begin(), granks_.end(), grank);
  SION_CHECK(it != granks_.end())
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
  if (ascending_ranks_) {
    engine_->wake_members(members_, static_cast<std::size_t>(my_rank),
                          release);
  } else {
    for (std::size_t i = 0; i < members_.size(); ++i) {
      if (static_cast<int>(i) != my_rank) engine_->wake(*members_[i], release);
    }
  }
  task.advance_to(release);
}

void Comm::barrier() {
  const double cost = net_.sync_cost(size());
  rendezvous(nullptr, [cost](std::vector<void*>&, double tmax) {
    return tmax + cost;
  });
}

void Comm::bcast_bytes(std::span<std::byte> buf, int root) {
  SION_CHECK(root >= 0 && root < size()) << "bcast root out of range";
  struct Slot {
    std::span<std::byte> buf;
  };
  Slot slot{buf};
  const int nranks = size();
  const NetworkModel net = net_;
  rendezvous(&slot, [root, nranks, net](std::vector<void*>& slots,
                                        double tmax) {
    auto& src = *static_cast<Slot*>(slots[static_cast<std::size_t>(root)]);
    for (int i = 0; i < nranks; ++i) {
      if (i == root) continue;
      auto& dst = *static_cast<Slot*>(slots[static_cast<std::size_t>(i)]);
      SION_CHECK(dst.buf.size() == src.buf.size())
          << "bcast buffer size mismatch";
      std::memcpy(dst.buf.data(), src.buf.data(), src.buf.size());
    }
    return tmax + net.bcast_cost(nranks, src.buf.size());
  });
}

std::uint64_t Comm::bcast_u64(std::uint64_t value, int root) {
  std::uint64_t v = value;
  bcast_bytes(std::as_writable_bytes(std::span<std::uint64_t>(&v, 1)), root);
  return v;
}

void Comm::bcast_u64_seq(std::span<std::uint64_t> values, int root) {
  SION_CHECK(root >= 0 && root < size()) << "bcast root out of range";
  if (values.empty()) return;
  struct Slot {
    std::span<std::uint64_t> values;
  };
  Slot slot{values};
  const int nranks = size();
  const std::size_t count = values.size();
  const NetworkModel net = net_;
  rendezvous(&slot, [root, nranks, count, net](std::vector<void*>& slots,
                                               double tmax) {
    auto& src = *static_cast<Slot*>(slots[static_cast<std::size_t>(root)]);
    SION_CHECK(src.values.size() == count) << "bcast_u64_seq count mismatch";
    for (int i = 0; i < nranks; ++i) {
      if (i == root) continue;
      auto& dst = *static_cast<Slot*>(slots[static_cast<std::size_t>(i)]);
      SION_CHECK(dst.values.size() == count) << "bcast_u64_seq count mismatch";
      std::copy(src.values.begin(), src.values.end(), dst.values.begin());
    }
    // Each value is charged as its own 8-byte broadcast, summed in call
    // order — bit-identical to `count` back-to-back bcast_u64 calls.
    double release = tmax;
    for (std::size_t k = 0; k < count; ++k) {
      release = release + net.bcast_cost(nranks, sizeof(std::uint64_t));
    }
    return release;
  });
}

std::vector<std::uint64_t> Comm::gather_u64(std::uint64_t value, int root) {
  SION_CHECK(root >= 0 && root < size()) << "gather root out of range";
  struct Slot {
    std::uint64_t in;
    std::vector<std::uint64_t>* out;
  };
  std::vector<std::uint64_t> result;
  Slot slot{value, &result};
  const int nranks = size();
  const NetworkModel net = net_;
  rendezvous(&slot, [root, nranks, net](std::vector<void*>& slots,
                                        double tmax) {
    auto& root_slot = *static_cast<Slot*>(slots[static_cast<std::size_t>(root)]);
    root_slot.out->resize(static_cast<std::size_t>(nranks));
    for (int i = 0; i < nranks; ++i) {
      (*root_slot.out)[static_cast<std::size_t>(i)] =
          static_cast<Slot*>(slots[static_cast<std::size_t>(i)])->in;
    }
    return tmax + net.rooted_cost(nranks,
                                  8ULL * static_cast<std::uint64_t>(nranks));
  });
  return result;
}

Comm::FlatGatherU64 Comm::gatherv_u64_flat(
    std::span<const std::uint64_t> values, int root) {
  SION_CHECK(root >= 0 && root < size()) << "gatherv root out of range";
  struct Slot {
    std::span<const std::uint64_t> in;
    FlatGatherU64* out;
  };
  FlatGatherU64 result;
  Slot slot{values, &result};
  const int nranks = size();
  const NetworkModel net = net_;
  rendezvous(&slot, [root, nranks, net](std::vector<void*>& slots,
                                        double tmax) {
    auto& root_slot = *static_cast<Slot*>(slots[static_cast<std::size_t>(root)]);
    auto& out = *root_slot.out;
    out.offsets.resize(static_cast<std::size_t>(nranks) + 1);
    std::uint64_t total = 0;
    std::uint64_t elems = 0;
    for (int i = 0; i < nranks; ++i) {
      auto& s = *static_cast<Slot*>(slots[static_cast<std::size_t>(i)]);
      out.offsets[static_cast<std::size_t>(i)] = elems;
      elems += s.in.size();
      total += s.in.size() * 8;
    }
    out.offsets[static_cast<std::size_t>(nranks)] = elems;
    out.data.resize(elems);
    for (int i = 0; i < nranks; ++i) {
      auto& s = *static_cast<Slot*>(slots[static_cast<std::size_t>(i)]);
      std::copy(s.in.begin(), s.in.end(),
                out.data.begin() +
                    static_cast<std::ptrdiff_t>(
                        out.offsets[static_cast<std::size_t>(i)]));
    }
    return tmax + net.rooted_cost(nranks, total);
  });
  return result;
}

std::uint64_t Comm::scatter_u64(std::span<const std::uint64_t> values,
                                int root) {
  SION_CHECK(root >= 0 && root < size()) << "scatter root out of range";
  struct Slot {
    std::span<const std::uint64_t> in;  // root only
    std::uint64_t out = 0;
  };
  Slot slot{values, 0};
  const int nranks = size();
  const NetworkModel net = net_;
  rendezvous(&slot, [root, nranks, net](std::vector<void*>& slots,
                                        double tmax) {
    auto& root_slot = *static_cast<Slot*>(slots[static_cast<std::size_t>(root)]);
    SION_CHECK(root_slot.in.size() == static_cast<std::size_t>(nranks))
        << "scatter_u64 root must supply size() values";
    for (int i = 0; i < nranks; ++i) {
      static_cast<Slot*>(slots[static_cast<std::size_t>(i)])->out =
          root_slot.in[static_cast<std::size_t>(i)];
    }
    return tmax + net.rooted_cost(nranks,
                                  8ULL * static_cast<std::uint64_t>(nranks));
  });
  return slot.out;
}

std::pair<std::uint64_t, std::uint64_t> Comm::scatter2_u64(
    std::span<const std::uint64_t> a, std::span<const std::uint64_t> b,
    int root) {
  SION_CHECK(root >= 0 && root < size()) << "scatter root out of range";
  struct Slot {
    std::span<const std::uint64_t> a;  // root only
    std::span<const std::uint64_t> b;  // root only
    std::uint64_t out_a = 0;
    std::uint64_t out_b = 0;
  };
  Slot slot{a, b, 0, 0};
  const int nranks = size();
  const NetworkModel net = net_;
  rendezvous(&slot, [root, nranks, net](std::vector<void*>& slots,
                                        double tmax) {
    auto& root_slot = *static_cast<Slot*>(slots[static_cast<std::size_t>(root)]);
    SION_CHECK(root_slot.a.size() == static_cast<std::size_t>(nranks) &&
               root_slot.b.size() == static_cast<std::size_t>(nranks))
        << "scatter2_u64 root must supply size() values per array";
    for (int i = 0; i < nranks; ++i) {
      auto& s = *static_cast<Slot*>(slots[static_cast<std::size_t>(i)]);
      s.out_a = root_slot.a[static_cast<std::size_t>(i)];
      s.out_b = root_slot.b[static_cast<std::size_t>(i)];
    }
    // Two scatters charged in sequence — bit-identical to two calls.
    const double cost =
        net.rooted_cost(nranks, 8ULL * static_cast<std::uint64_t>(nranks));
    return (tmax + cost) + cost;
  });
  return {slot.out_a, slot.out_b};
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
    for (int i = 0; i < nranks; ++i) {
      all[static_cast<std::size_t>(i)] =
          static_cast<Slot*>(slots[static_cast<std::size_t>(i)])->in;
    }
    for (int i = 0; i < nranks; ++i) {
      *static_cast<Slot*>(slots[static_cast<std::size_t>(i)])->out = all;
    }
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
    for (int i = 1; i < nranks; ++i) {
      const std::uint64_t v =
          static_cast<Slot*>(slots[static_cast<std::size_t>(i)])->in;
      switch (op) {
        case ReduceOp::kSum: acc += v; break;
        case ReduceOp::kMax: acc = std::max(acc, v); break;
        case ReduceOp::kMin: acc = std::min(acc, v); break;
      }
    }
    for (int i = 0; i < nranks; ++i) {
      static_cast<Slot*>(slots[static_cast<std::size_t>(i)])->out = acc;
    }
    return tmax + net.sync_cost(nranks);
  });
  return slot.out;
}

std::vector<std::byte> Comm::scatterv_bytes_flat(
    std::span<const std::byte> data, std::span<const std::uint64_t> sizes,
    int root) {
  SION_CHECK(root >= 0 && root < size()) << "scatterv root out of range";
  struct Slot {
    std::span<const std::byte> data;          // root only
    std::span<const std::uint64_t> sizes;     // root only
    std::vector<std::byte> out;
  };
  Slot slot{data, sizes, {}};
  const int nranks = size();
  const NetworkModel net = net_;
  rendezvous(&slot, [root, nranks, net](std::vector<void*>& slots,
                                        double tmax) {
    auto& root_slot = *static_cast<Slot*>(slots[static_cast<std::size_t>(root)]);
    SION_CHECK(root_slot.sizes.size() == static_cast<std::size_t>(nranks))
        << "scatterv_bytes_flat root must supply size() sizes";
    std::uint64_t total = 0;
    std::uint64_t pos = 0;
    for (int i = 0; i < nranks; ++i) {
      const std::uint64_t n = root_slot.sizes[static_cast<std::size_t>(i)];
      SION_CHECK(pos + n <= root_slot.data.size())
          << "scatterv_bytes_flat sizes overrun the flat buffer";
      const auto piece = root_slot.data.subspan(pos, n);
      auto& s = *static_cast<Slot*>(slots[static_cast<std::size_t>(i)]);
      s.out.assign(piece.begin(), piece.end());
      pos += n;
      total += n;
    }
    return tmax + net.rooted_cost(nranks, total);
  });
  return std::move(slot.out);
}

Comm* Comm::split(int color, int key) {
  struct Slot {
    int color;
    int key;
    int parent_rank;
    Comm* out = nullptr;
  };
  Slot slot{color, key, rank(), nullptr};
  const int nranks = size();
  const NetworkModel net = net_;
  Engine* engine = engine_;
  std::vector<TaskState*>* members = &members_;
  rendezvous(&slot, [nranks, net, engine, members](std::vector<void*>& slots,
                                                   double tmax) {
    // Group by color, order each group by (key, parent rank).
    std::vector<Slot*> all;
    all.reserve(static_cast<std::size_t>(nranks));
    for (auto* raw : slots) all.push_back(static_cast<Slot*>(raw));
    std::vector<int> order(static_cast<std::size_t>(nranks));
    for (int i = 0; i < nranks; ++i) order[static_cast<std::size_t>(i)] = i;
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const Slot* sa = all[static_cast<std::size_t>(a)];
      const Slot* sb = all[static_cast<std::size_t>(b)];
      return std::tie(sa->color, sa->key, sa->parent_rank) <
             std::tie(sb->color, sb->key, sb->parent_rank);
    });
    std::size_t i = 0;
    while (i < order.size()) {
      const int group_color = all[static_cast<std::size_t>(order[i])]->color;
      std::size_t j = i;
      while (j < order.size() &&
             all[static_cast<std::size_t>(order[j])]->color == group_color) {
        ++j;
      }
      if (group_color >= 0) {
        std::vector<TaskState*> group;
        group.reserve(j - i);
        for (std::size_t k = i; k < j; ++k) {
          group.push_back(
              (*members)[static_cast<std::size_t>(order[k])]);
        }
        Comm& child = engine->adopt_comm(
            Comm::create(*engine, std::move(group), net));
        for (std::size_t k = i; k < j; ++k) {
          all[static_cast<std::size_t>(order[k])]->out = &child;
        }
      }
      i = j;
    }
    return tmax + net.sync_cost(nranks);
  });
  return slot.out;
}

Comm* Comm::split_groups(int group_size) {
  const int me = rank();
  if (group_size <= 0 || group_size >= size()) return split(0, me);
  return split(me / group_size, me);
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
  const std::uint64_t code =
      comm.bcast_u64(static_cast<std::uint64_t>(mine.code()), root);
  if (code == 0) return Status::Ok();
  if (comm.rank() == root) return mine;
  return Status(static_cast<ErrorCode>(code), what);
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
  const Status shared = share_status(lcom, mine, root, what);
  return agree_status(gcom, shared.ok() ? mine : shared, what);
}

}  // namespace sion::par
