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
  /// The job's control block: the service's for a service job, a private
  /// one for a standalone run — never null. Quotas are charged at the
  /// comm/pool allocation points; the cancel flag is observed at
  /// cancellation points and blocking waits, and enforced on pending
  /// operations via fail_pending_as_cancelled.
  tenant::JobControl* job{nullptr};
  /// The scheduler the run's fibers are tagged `job->id()` on.
  sched::Scheduler* scheduler{nullptr};
  /// Fault oracle; null unless Cluster::Options::faults is enabled. Must
  /// outlive `network`, which holds a raw pointer to it.
  std::unique_ptr<FaultEngine> faults;
  std::unique_ptr<Network> network;
  std::deque<Mailbox> mailboxes;  ///< one per node, indexed by global node id
  std::atomic<int> next_context{1};

  /// Progress engine (progress.hpp): one send coalescer per SOURCE node.
  std::deque<SendCoalescer> coalescers;

  /// The wire and cancel backstop: put every queued batch on the wire,
  /// drain mailbox completion queues, and fail a cancelled job's
  /// still-pending operations. Runs only at points serialized with the
  /// cooperative schedule (the job's idle task, teardown), since a real-time
  /// flush would perturb wire post order. Returns whether it did anything.
  bool backstop();

  /// The job's scheduler idle task (sched::Scheduler::add_idle_task): the
  /// backstop, then — when the job is stuck and the backstop found nothing
  /// to do — resolve_stuck. Returns whether either made progress.
  bool on_quiet(bool stuck) { return backstop() || (stuck && resolve_stuck()); }

  /// The job is stuck: every fiber blocked, nothing queued, nothing to
  /// cancel. Expire the pending operations with the earliest virtual
  /// deadline at that deadline (progress.rescued_waits counts each), so
  /// whatever their waiters do next runs before any later deadline is
  /// judged; with no deadline left, fail the job with a DeadlockError that
  /// lists where each of its unfinished fibers is blocked. Returns whether it resolved anything.
  bool resolve_stuck();

  /// RMA window-creation rendezvous slots, keyed (context << 32) | win_seq.
  /// A slot only lives for the duration of one collective create_window call
  /// (the participating ranks erase it once all have their shared pointer).
  std::mutex win_mutex;
  std::unordered_map<std::uint64_t, std::shared_ptr<WindowShared>> windows;

  /// Auxiliary runtime services (non-blocking collective progression), run
  /// as fibers of the cluster's scheduler. Registered
  /// here so the run's teardown joins them before tearing the cluster down —
  /// a progression task must never outlive the mailboxes.
  std::mutex aux_mutex;
  std::vector<sched::ServiceHandle> aux_services;

  void register_aux_service(sched::ServiceHandle s) {
    std::lock_guard lock(aux_mutex);
    aux_services.push_back(std::move(s));
  }

  /// Pending-operation registry. Every point-to-point operation registers
  /// its request state at post time, so the backstop can fail a cancelled
  /// job's operations (blocked waiters wake instead of hanging on peers
  /// that already unwound) and a stuck job's deadlines can be found.
  void register_pending(std::shared_ptr<RequestState> state);
  /// Fail every still-pending operation with the job's cancel error;
  /// returns whether there was one.
  bool fail_pending_as_cancelled();
  /// The still-pending registered operations, in registration order;
  /// resolved and dead entries are pruned.
  std::vector<std::shared_ptr<RequestState>> live_pending();

  std::mutex pending_mutex;
  std::vector<std::weak_ptr<RequestState>> pending_ops;
};

}  // namespace clmpi::mpi::detail
