// Shared state of a running simulated cluster (internal).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "simmpi/fault.hpp"
#include "simmpi/mailbox.hpp"
#include "simmpi/network.hpp"
#include "simmpi/progress.hpp"
#include "simmpi/request.hpp"
#include "support/sched.hpp"
#include "support/tenant.hpp"
#include "systems/profile.hpp"
#include "vt/tracer.hpp"

namespace clmpi::mpi::detail {

struct WindowShared;  // window.cpp: shared state of one RMA window

struct ClusterCore {
  const sys::SystemProfile* profile{nullptr};
  vt::Tracer* tracer{nullptr};
  /// Tenancy control block when this cluster runs as a service job; null in
  /// standalone mode (every hook below is then skipped). Quotas are charged
  /// at the comm/pool allocation points; the cancel flag is observed at
  /// cancellation points and enforced on blocked operations via
  /// fail_pending_as_cancelled.
  tenant::JobControl* job{nullptr};
  /// Fault oracle; null unless Cluster::Options::faults is enabled. Must
  /// outlive `network`, which holds a raw pointer to it.
  std::unique_ptr<FaultEngine> faults;
  std::unique_ptr<Network> network;
  std::deque<Mailbox> mailboxes;  ///< one per node, indexed by global node id
  std::atomic<int> next_context{1};

  /// Progress engine (progress.hpp): one send coalescer per SOURCE node.
  std::deque<SendCoalescer> coalescers;

  /// The liveness backstop, run by the fiber scheduler's idle task and
  /// teardown (with `wire`) and by the progress driver's tick (without).
  /// With `wire` set it puts every queued batch on the wire and drains
  /// mailbox completion queues — only at points serialized with the
  /// cooperative schedule, since a real-time flush would perturb wire post
  /// order; then it fails a cancelled job's still-pending operations.
  void backstop(bool wire);

  /// Register with the progress driver: a process-wide service thread that
  /// every ProgressConfig::driver_tick runs the cancel part of the backstop
  /// and rescues stale deadlines — so no rank has to block to make a peer's
  /// operation complete. One shared thread services every live cluster, so a
  /// run never pays a driver spawn + join.
  void start_progress_driver();
  /// Deregister and run one final backstop + deadline-rescue pass; must run
  /// before the mailboxes are torn down.
  void stop_progress_driver();

  /// RMA window-creation rendezvous slots, keyed (context << 32) | win_seq.
  /// A slot only lives for the duration of one collective create_window call
  /// (the participating ranks erase it once all have their shared pointer).
  std::mutex win_mutex;
  std::unordered_map<std::uint64_t, std::shared_ptr<WindowShared>> windows;

  /// Auxiliary runtime services (non-blocking collective progression), run
  /// as fibers of the cluster's scheduler. Registered
  /// here so Cluster::run joins them before tearing the cluster down — a
  /// progression task must never outlive the mailboxes.
  std::mutex aux_mutex;
  std::vector<sched::ServiceHandle> aux_services;

  void register_aux_service(sched::ServiceHandle s) {
    std::lock_guard lock(aux_mutex);
    aux_services.push_back(std::move(s));
  }

  /// Per-rank blocked-site mirrors for watchdog diagnostics. Sized by
  /// Cluster::run before ranks start; each rank's execution context mirrors
  /// its current blocked site here (ctx::BlockedScope), so the watchdog can
  /// report where every rank is stuck even after rank contexts are gone.
  /// deque: atomics are immovable.
  std::deque<std::atomic<const char*>> blocked_sites;

  /// Liveness side of per-operation deadlines. Every deadline-armed request
  /// registers here; the progress driver's tick fails any that stayed
  /// pending past the real-time grace, at their VIRTUAL deadline
  /// (RequestState::rescue_if_stale) — so a deadline surfaces as
  /// CLMPI_TIMEOUT whether or not a thread waits on it, instead of the
  /// watchdog killing the run.
  void register_deadline(std::shared_ptr<RequestState> state);

  std::mutex deadline_mutex;
  std::vector<std::weak_ptr<RequestState>> armed_requests;

  /// The driver's rescue pass: rescue stale deadline-armed requests outside
  /// the registry lock (counting progress.rescued_waits once per rescue),
  /// then prune resolved entries.
  void rescue_stale_deadlines();

  /// Cancellation liveness (service jobs only; `job` must be set). Every
  /// point-to-point operation registers its request state at post time; when
  /// the job's cancel flag is up, fail_pending_as_cancelled fails every
  /// still-pending one with CancelledError so blocked waiters wake instead
  /// of hanging on peers that already unwound. Called from backstop() — a
  /// wall-clock backstop; the cooperative cancellation points in the post
  /// paths do the prompt part.
  void register_pending(std::shared_ptr<RequestState> state);
  void fail_pending_as_cancelled();

  std::mutex pending_mutex;
  std::vector<std::weak_ptr<RequestState>> pending_ops;
};

}  // namespace clmpi::mpi::detail
