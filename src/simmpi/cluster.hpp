// Cluster: the top-level runner of the simulated machine.
//
// Cluster::run spawns one fiber per MPI rank (one rank per node, as in the
// paper's evaluation) on the cooperative scheduler (support/sched.hpp),
// executes the supplied body on each, and reports per-rank virtual end
// times. A real-time watchdog converts accidental communication deadlocks
// (which block the ranks forever, exactly as they would block real MPI
// processes) into a diagnosed abort instead of a hang.
#pragma once

#include <cstdint>
#include <functional>
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
    /// Run rank fibers on this external persistent scheduler instead of
    /// creating a private one. The scheduler must already be started and
    /// outlive the run.
    sched::Scheduler* scheduler{nullptr};
    /// Tenancy tag for fibers spawned onto the external scheduler (the
    /// fair-pick round robin keys on it). Meaningful only with `scheduler`.
    std::uint64_t job_tag{0};
    /// Quota/cancellation control block; null = standalone (no hooks). Must
    /// outlive the run.
    tenant::JobControl* job{nullptr};
  };

  /// Run `body` on every rank; blocks until all ranks return. The first
  /// exception thrown by any rank is re-thrown here after all ranks finish.
  static RunResult run(const Options& options, const std::function<void(Rank&)>& body);
};

}  // namespace clmpi::mpi
