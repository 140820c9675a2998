// Cluster: the top-level runner of the simulated machine.
//
// Cluster::launch spawns one fiber per MPI rank (one rank per node, as in
// the paper's evaluation) on the cooperative scheduler (support/sched.hpp),
// runs the supplied body on each, and hands per-rank virtual end times to a
// completion callback; Cluster::run is launch plus a blocking wait. A
// real-time watchdog turns a livelock into a diagnosed abort, not a hang.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "simmpi/comm.hpp"
#include "simmpi/fault.hpp"
#include "systems/profile.hpp"
#include "vt/clock.hpp"
#include "vt/tracer.hpp"

namespace clmpi::sched {
class Scheduler;  // support/sched.hpp
}
namespace clmpi::tenant {
class JobControl;  // support/tenant.hpp
}

namespace clmpi::mpi {

namespace detail {
struct ClusterCore;
struct ClusterRun;
}

/// Per-rank execution context handed to the user body.
class Rank {
 public:
  Rank(detail::ClusterCore* core, int id, int nranks);

  Rank(const Rank&) = delete;
  Rank& operator=(const Rank&) = delete;

  [[nodiscard]] int rank() const noexcept { return id_; }
  [[nodiscard]] int size() const noexcept { return world_.size(); }

  /// MPI_COMM_WORLD for this rank.
  [[nodiscard]] Comm& world() noexcept { return world_; }

  /// The host thread's virtual clock.
  [[nodiscard]] vt::Clock& clock() noexcept { return clock_; }

  [[nodiscard]] const sys::SystemProfile& profile() const;
  [[nodiscard]] vt::Tracer* tracer() const;

  /// Internal: cluster-shared state, used by the clMPI runtime layers.
  [[nodiscard]] detail::ClusterCore* core() const noexcept { return core_; }

  /// Host-side busy work of virtual duration `d` (traced as compute).
  void compute(vt::Duration d, const std::string& label = "host");

  /// Current virtual time of this rank's host thread, in seconds.
  [[nodiscard]] double now_s() const { return clock_.now().s; }

 private:
  detail::ClusterCore* core_;
  int id_;
  vt::Clock clock_;
  Comm world_;
};

struct RunResult {
  /// Virtual end time of each rank's body.
  std::vector<double> rank_end_s;
  /// max(rank_end_s): the virtual makespan of the run.
  double makespan_s{0.0};
  /// Fault-injection tallies for the run (all zero when injection is off).
  FaultCounters faults;
};

class Cluster {
 public:
  struct Options {
    int nranks{2};
    const sys::SystemProfile* profile{nullptr};  ///< required
    vt::Tracer* tracer{nullptr};
    /// Real-time deadlock watchdog; 0 disables.
    double watchdog_seconds{120.0};
    /// Deterministic fault-injection plan; all-zero rates disable injection.
    FaultPlan faults{};

    // --- service (multi-tenant) mode — set by svc::Service ---------------
    /// Run rank fibers on this external scheduler instead of creating a
    /// private one. It must outlive the run; launch() needs it, run()
    /// creates a private one when it is null.
    sched::Scheduler* scheduler{nullptr};
    /// Quota/cancellation control block of a service job; must outlive the
    /// run. Its id is the fibers' job tag (the fair-pick round robin keys
    /// on it). Null makes the run use a private, unlimited one with id 0,
    /// so cancellation and deadlock failure work the same either way.
    tenant::JobControl* job{nullptr};
  };

  /// Completion callback: the result, and the first exception a rank threw.
  using Done = std::function<void(RunResult, std::exception_ptr)>;

  /// A launched run; dropping it does not stop the run.
  class Handle {
   public:
    /// The watchdog: once the run is unfinished Options::watchdog_seconds
    /// after launch, print where every unfinished rank and fiber is
    /// blocked, flush the observability state, and abort the process.
    void check_watchdog() const;

   private:
    friend class Cluster;
    std::shared_ptr<detail::ClusterRun> run_;
  };

  /// Start `body` on every rank of a new cluster on `options.scheduler`
  /// (required) and return at once; throws, without calling `done`, when
  /// the run cannot start. The last rank to finish tears the cluster down
  /// and calls `done` on its fiber, so `done` must not block. A rank's
  /// failure cancels the job, so its peers' blocked operations fail
  /// (CancelledError) instead of hanging; a job whose ranks all block with
  /// no deadline left to expire fails with a DeadlockError.
  static Handle launch(const Options& options, std::function<void(Rank&)> body, Done done);

  /// launch() and block until `done`, under the watchdog. The first
  /// exception thrown by any rank is re-thrown here after all ranks finish.
  static RunResult run(const Options& options, const std::function<void(Rank&)>& body);
};

}  // namespace clmpi::mpi
