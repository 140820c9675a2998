#include "simmpi/comm.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "obs/metrics.hpp"
#include "simmpi/cluster_core.hpp"
#include "support/error.hpp"

namespace clmpi::mpi {

namespace {
/// Host CPU cost of posting one MPI operation (library call overhead).
constexpr vt::Duration kCallOverhead = vt::microseconds(0.5);

/// Coalescing excludes operations with non-default tuning: bandwidth caps
/// and wire-decomposition stamps belong to the transfer layer's lockstep
/// protocols, and deadline-armed operations stay on the exhaustively tested
/// direct recovery path.
bool default_opts(const P2POptions& opts) {
  return !std::isfinite(opts.wire_bw_cap) &&
         opts.wire_decomp == std::numeric_limits<std::size_t>::max() &&
         !(opts.deadline > vt::Duration{});
}
}  // namespace

Comm::Comm(detail::ClusterCore* core, int context, std::vector<int> group, int my_rank)
    : core_(core), context_(context), group_(std::move(group)), my_rank_(my_rank) {
  CLMPI_REQUIRE(core_ != nullptr, "comm needs a cluster");
  CLMPI_REQUIRE(my_rank_ >= 0 && my_rank_ < size(), "rank outside the comm group");
}

Comm::Comm(const Comm& other)
    : core_(other.core_),
      context_(other.context_),
      group_(other.group_),
      my_rank_(other.my_rank_),
      coll_seq_(other.coll_seq_.load()),
      win_seq_(other.win_seq_.load()) {}

Comm& Comm::operator=(const Comm& other) {
  core_ = other.core_;
  context_ = other.context_;
  group_ = other.group_;
  my_rank_ = other.my_rank_;
  coll_seq_.store(other.coll_seq_.load());
  win_seq_.store(other.win_seq_.load());
  return *this;
}

int Comm::node_of(int rank_in_comm) const {
  CLMPI_REQUIRE(rank_in_comm >= 0 && rank_in_comm < size(), "rank outside the comm group");
  return group_[static_cast<std::size_t>(rank_in_comm)];
}

FaultEngine* Comm::faults() const noexcept { return core_->faults.get(); }

void Comm::check_peer(int peer, bool allow_any) const {
  if (allow_any && peer == any_source) return;
  if (peer < 0 || peer >= size()) {
    throw Error("peer rank " + std::to_string(peer) + " outside the comm group of size " +
                    std::to_string(size()),
                Status::invalid_rank);
  }
}

namespace {

/// Tenancy hook shared by every point-to-point post funnel: cancellation
/// point + mailbox-depth quota charge (credited back when the operation
/// settles) + registration with the cancel backstop. Runs strictly BEFORE
/// the operation is posted, on the posting rank's own fiber/thread — a
/// QuotaError/CancelledError leaves nothing in flight. No-op in standalone
/// mode (core->job == nullptr).
void tenant_admit_p2p(detail::ClusterCore* core,
                      const std::shared_ptr<detail::RequestState>& state, const char* where) {
  tenant::JobControl* job = core->job;
  if (job == nullptr) return;
  job->check_cancelled(where);
  job->charge_mailbox();
  state->on_settle(
      [job](vt::TimePoint, const MsgStatus&, const std::exception_ptr&) noexcept {
        job->credit_mailbox();
      });
  core->register_pending(state);
}

}  // namespace

Request Comm::post_send(std::span<const std::byte> data, int dst, int tag,
                        vt::TimePoint ready, const P2POptions& opts, bool coalescable) {
  check_peer(dst, /*allow_any=*/false);
  auto state = detail::make_request_state();
  tenant_admit_p2p(core_, state, "isend");
  detail::Envelope env;
  env.src_rank = my_rank_;
  env.src_node = group_[static_cast<std::size_t>(my_rank_)];
  env.tag = tag;
  env.context = context_;
  env.bytes = data.size();
  env.payload = data;
  env.eager = data.size() <= core_->network->model().eager_threshold;
  env.post_time = ready;
  env.bw_cap = opts.wire_bw_cap;
  env.wire_decomp = opts.wire_decomp;
  env.sreq = state;
  // Arm the deadline BEFORE posting: completion may race this thread the
  // moment the envelope is visible, and the clamp must already be in place.
  // Registration with the progress driver gives the deadline liveness
  // whether or not a thread ever blocks on the request.
  if (opts.deadline > vt::Duration{}) {
    state->arm_deadline(ready + opts.deadline);
    core_->register_deadline(state);
  }
  detail::Mailbox& box = core_->mailboxes[static_cast<std::size_t>(node_of(dst))];
  detail::SendCoalescer& co = core_->coalescers[static_cast<std::size_t>(env.src_node)];
  // Hint set strictly before the envelope is visible: the wait path reads it
  // without synchronization.
  state->set_flush_hint(&co);
  if (coalescable && env.eager && detail::progress_config().coalescable_size(env.bytes) &&
      default_opts(opts)) {
    co.offer(box, std::move(env));
    return Request(state);
  }
  // A direct post overtaking a queued batch to the same (mailbox, context)
  // would reorder arrival stamps against program order, which wildcard
  // receives can observe: flush that key first.
  if (co.has_pending()) co.flush_key(box, context_);
  box.post_send(std::move(env));
  return Request(state);
}

Request Comm::post_recv(std::span<std::byte> data, int src, int tag, vt::TimePoint ready,
                        const P2POptions& opts) {
  check_peer(src, /*allow_any=*/true);
  auto state = detail::make_request_state();
  tenant_admit_p2p(core_, state, "irecv");
  detail::PostedRecv pr;
  pr.src_rank = src;
  pr.tag = tag;
  pr.context = context_;
  pr.buffer = data;
  pr.post_time = ready;
  pr.bw_cap = opts.wire_bw_cap;
  pr.wire_decomp = opts.wire_decomp;
  pr.rreq = state;
  if (opts.deadline > vt::Duration{}) {
    state->arm_deadline(ready + opts.deadline);
    core_->register_deadline(state);
  }
  // A blocked receiver's own queued sends may be exactly what its peer is
  // waiting for before answering: hint the receiver's coalescer so the wait
  // path flushes it.
  state->set_flush_hint(
      &core_->coalescers[static_cast<std::size_t>(group_[static_cast<std::size_t>(my_rank_)])]);
  core_->mailboxes[static_cast<std::size_t>(group_[static_cast<std::size_t>(my_rank_)])]
      .post_recv(std::move(pr));
  return Request(state);
}

Request Comm::isend(std::span<const std::byte> data, int dst, int tag, vt::TimePoint ready,
                    P2POptions opts) {
  return post_send(data, dst, tag, ready, opts);
}

Request Comm::irecv(std::span<std::byte> data, int src, int tag, vt::TimePoint ready,
                    P2POptions opts) {
  return post_recv(data, src, tag, ready, opts);
}

Request Comm::isend(std::span<const std::byte> data, int dst, int tag, vt::Clock& clock) {
  clock.advance(kCallOverhead);
  return post_send(data, dst, tag, clock.now(), {}, /*coalescable=*/true);
}

Request Comm::irecv(std::span<std::byte> data, int src, int tag, vt::Clock& clock) {
  clock.advance(kCallOverhead);
  return post_recv(data, src, tag, clock.now(), {});
}

void Comm::send(std::span<const std::byte> data, int dst, int tag, vt::Clock& clock) {
  // Not the coalescable isend: a blocking send waits immediately, so queuing
  // it would only be flushed straight back out by its own wait.
  clock.advance(kCallOverhead);
  Request req = post_send(data, dst, tag, clock.now(), {});
  req.wait(clock);
}

MsgStatus Comm::recv(std::span<std::byte> data, int src, int tag, vt::Clock& clock) {
  Request req = irecv(data, src, tag, clock);
  req.wait(clock);
  return req.status();
}

void Comm::sendrecv(std::span<const std::byte> send_data, int dst, int send_tag,
                    std::span<std::byte> recv_data, int src, int recv_tag,
                    vt::Clock& clock) {
  Request rr = irecv(recv_data, src, recv_tag, clock);
  Request sr = isend(send_data, dst, send_tag, clock);
  sr.wait(clock);
  rr.wait(clock);
}

// --- persistent requests -----------------------------------------------------

/// Everything a replay does NOT have to redo: peer checks, header assembly,
/// destination-mailbox resolution, coalescing eligibility. start() only
/// stamps a fresh RequestState and ready time onto a copy of the template.
struct PersistentRequest::Impl {
  detail::ClusterCore* core{nullptr};
  detail::Mailbox* box{nullptr};  ///< destination (send) or own (recv) mailbox
  detail::SendCoalescer* co{nullptr};  ///< own node's coalescer
  bool is_send{false};
  bool coalescable{false};
  vt::Duration deadline{};
  detail::Envelope env;    ///< send template (sreq/post_time restamped per start)
  detail::PostedRecv pr;   ///< recv template (rreq/post_time restamped per start)
};

PersistentRequest Comm::send_init(std::span<const std::byte> data, int dst, int tag,
                                  P2POptions opts) {
  check_peer(dst, /*allow_any=*/false);
  auto impl = std::make_shared<PersistentRequest::Impl>();
  impl->core = core_;
  impl->is_send = true;
  impl->box = &core_->mailboxes[static_cast<std::size_t>(node_of(dst))];
  impl->deadline = opts.deadline;
  impl->env.src_rank = my_rank_;
  impl->env.src_node = group_[static_cast<std::size_t>(my_rank_)];
  impl->env.tag = tag;
  impl->env.context = context_;
  impl->env.bytes = data.size();
  impl->env.payload = data;
  impl->env.eager = data.size() <= core_->network->model().eager_threshold;
  impl->env.bw_cap = opts.wire_bw_cap;
  impl->env.wire_decomp = opts.wire_decomp;
  impl->co = &core_->coalescers[static_cast<std::size_t>(impl->env.src_node)];
  impl->coalescable = impl->env.eager &&
                      detail::progress_config().coalescable_size(impl->env.bytes) &&
                      default_opts(opts);
  if (obs::metrics_enabled()) detail::progress_metrics().persistent_inits.add();
  return PersistentRequest(std::move(impl));
}

PersistentRequest Comm::recv_init(std::span<std::byte> data, int src, int tag,
                                  P2POptions opts) {
  check_peer(src, /*allow_any=*/true);
  auto impl = std::make_shared<PersistentRequest::Impl>();
  impl->core = core_;
  impl->is_send = false;
  impl->box =
      &core_->mailboxes[static_cast<std::size_t>(group_[static_cast<std::size_t>(my_rank_)])];
  impl->deadline = opts.deadline;
  impl->pr.src_rank = src;
  impl->pr.tag = tag;
  impl->pr.context = context_;
  impl->pr.buffer = data;
  impl->pr.bw_cap = opts.wire_bw_cap;
  impl->pr.wire_decomp = opts.wire_decomp;
  impl->co =
      &core_->coalescers[static_cast<std::size_t>(group_[static_cast<std::size_t>(my_rank_)])];
  if (obs::metrics_enabled()) detail::progress_metrics().persistent_inits.add();
  return PersistentRequest(std::move(impl));
}

Request PersistentRequest::start_at(vt::TimePoint ready, bool coalescable) {
  CLMPI_REQUIRE(impl_ != nullptr, "start() on a null persistent request");
  auto state = detail::make_request_state();
  tenant_admit_p2p(impl_->core, state, "persistent-start");
  state->set_flush_hint(impl_->co);
  if (obs::metrics_enabled()) detail::progress_metrics().persistent_starts.add();
  if (impl_->is_send) {
    detail::Envelope env = impl_->env;
    env.post_time = ready;
    env.sreq = state;
    if (impl_->deadline > vt::Duration{}) {
      state->arm_deadline(ready + impl_->deadline);
      impl_->core->register_deadline(state);
    }
    if (coalescable && impl_->coalescable) {
      impl_->co->offer(*impl_->box, std::move(env));
    } else {
      if (impl_->co->has_pending()) impl_->co->flush_key(*impl_->box, env.context);
      impl_->box->post_send(std::move(env));
    }
  } else {
    detail::PostedRecv pr = impl_->pr;
    pr.post_time = ready;
    pr.rreq = state;
    if (impl_->deadline > vt::Duration{}) {
      state->arm_deadline(ready + impl_->deadline);
      impl_->core->register_deadline(state);
    }
    impl_->box->post_recv(std::move(pr));
  }
  return Request(state);
}

Request PersistentRequest::start(vt::TimePoint ready) {
  // Runtime-facing (explicit-time) replays never coalesce: their waiters go
  // through event latches, which do not know about coalescers; the direct
  // post keeps them independent of the driver tick.
  return start_at(ready, /*coalescable=*/false);
}

Request PersistentRequest::start(vt::Clock& clock) {
  // Same per-call overhead as isend/irecv: a persistent replay is
  // virtual-time-identical to re-issuing the plain non-blocking call.
  clock.advance(kCallOverhead);
  return start_at(clock.now(), /*coalescable=*/true);
}

std::optional<MsgStatus> Comm::iprobe(int src, int tag) const {
  check_peer(src, /*allow_any=*/true);
  return core_->mailboxes[static_cast<std::size_t>(group_[static_cast<std::size_t>(my_rank_)])]
      .iprobe(src, tag, context_);
}

MsgStatus Comm::probe(int src, int tag, vt::Clock& clock) {
  check_peer(src, /*allow_any=*/true);
  // Cancellation point at entry only: a probe already blocked on arrival is
  // woken by its peers' cancel-failed sends unwinding, not by the backstop.
  if (core_->job != nullptr) core_->job->check_cancelled("probe");
  auto [status, available] =
      core_->mailboxes[static_cast<std::size_t>(group_[static_cast<std::size_t>(my_rank_)])]
          .probe(src, tag, context_);
  clock.sync_to(available);
  return status;
}

Comm Comm::dup(vt::Clock& clock) {
  // Root allocates the context id and broadcasts it so every member agrees.
  int ctx = 0;
  if (my_rank_ == 0) ctx = core_->next_context.fetch_add(1);
  bcast(std::as_writable_bytes(std::span(&ctx, 1)), 0, clock);
  return Comm(core_, ctx, group_, my_rank_);
}

Comm Comm::split(int color, int key, vt::Clock& clock) {
  struct Entry {
    int color, key, old_rank;
  };
  const Entry mine{color, key, my_rank_};
  std::vector<Entry> all(static_cast<std::size_t>(size()));
  allgather(std::as_bytes(std::span(&mine, 1)), std::as_writable_bytes(std::span(all)),
            clock);

  int ctx = 0;
  if (my_rank_ == 0) ctx = core_->next_context.fetch_add(1);
  bcast(std::as_writable_bytes(std::span(&ctx, 1)), 0, clock);

  std::vector<Entry> members;
  for (const Entry& e : all)
    if (e.color == color) members.push_back(e);
  std::sort(members.begin(), members.end(), [](const Entry& a, const Entry& b) {
    return a.key != b.key ? a.key < b.key : a.old_rank < b.old_rank;
  });

  std::vector<int> new_group;
  int new_rank = -1;
  for (const Entry& e : members) {
    if (e.old_rank == my_rank_) new_rank = static_cast<int>(new_group.size());
    new_group.push_back(group_[static_cast<std::size_t>(e.old_rank)]);
  }
  CLMPI_REQUIRE(new_rank >= 0, "split: calling rank missing from its color group");
  return Comm(core_, ctx, std::move(new_group), new_rank);
}

}  // namespace clmpi::mpi
