// Cooperative rank scheduler: stackful fibers over a small worker pool.
//
// Every mpi::Cluster::run launches its ranks here: each rank body runs as a
// resumable ucontext fiber, multiplexed over `CLMPI_FIBER_WORKERS` OS
// threads (default: hardware concurrency), so the paper's 100-node runs and
// the 1000-rank scaling benches fit in a small pool. Every blocking point in
// the runtime — Request waits, collective rendezvous, window fences, mailbox
// probes, event waits, the dispatcher's and the queue workers' idle waits —
// goes through sched::wait / sched::yield, which suspends the FIBER instead
// of parking the OS thread.
//
// Execution model: one turn per job. At most one fiber of a given job tag
// runs at a time, and a job's fibers take their turns in FIFO order, so each
// job's resume sequence is the one-worker sequence at any worker count.
// Different jobs (svc::Service tenants) run in parallel. Pure compute that
// needs no turn — kernel bodies — leaves it through sched::offload, which is
// where a single cluster run gets its parallelism.
//
// Blocking model: poll-yield. A blocked fiber stays in the round-robin ready
// queue and re-checks its predicate on every resume. There is no wakeup
// bookkeeping to lose: completions produced by other fibers, by the progress
// driver, or by any plain thread are observed on the next resume regardless
// of who produced them. The cost — fruitless resumes while everybody waits
// on an external thread — is bounded by an idle backoff: workers watch a
// global progress epoch (note_progress(), bumped at every completion site)
// and sleep briefly when a full pass over the ready queue advanced nothing.
//
// Determinism contract: the scheduler never touches virtual time, and the
// turn fixes the order in which a job's fibers reach shared virtual
// resources (vt::Resource backfill alone is order-independent only for
// contenders with equal ready times). So trace hashes, makespans and fault
// counters of a run do not depend on the worker count or on the wall-clock
// interleaving (tests/test_sched.cpp holds 1, 2 and 4 workers to that).
//
// Plain threads: code outside a scheduler (a queue created on a test's main
// thread, the progress driver) still works — yield() is an OS yield there,
// wait() a plain cv wait and spawn_service() a std::thread.
//
// Sanitizers: fiber stack switches are annotated for ASan
// (__sanitizer_{start,finish}_switch_fiber) and TSan (__tsan_*_fiber), so
// CLMPI_SANITIZE=address / thread builds run fibers cleanly.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "support/context.hpp"

namespace clmpi::sched {

/// True when the calling code runs on a scheduler fiber.
[[nodiscard]] bool on_fiber() noexcept;

/// Cooperative reschedule point. On a fiber: suspend and hand the worker to
/// the next ready fiber (the caller resumes later, possibly on a different
/// worker). On a plain thread: std::this_thread::yield().
void yield();

/// Run `fn` off the caller's turn. `fn` must be pure compute: it may not
/// block, yield, or touch virtual time or the caller's execution context.
/// On a fiber: yield, handing `fn` to the worker that ran the caller; that
/// worker releases the job's turn and runs `fn` while other workers carry
/// on with the job. At the caller's next turn it waits, keeping the turn,
/// until `fn` finished. The caller's turn sequence is the same as with `fn`
/// inline plus one yield, at any worker count. Returns once `fn` returned,
/// rethrowing its exception. On a plain thread: runs `fn` inline.
void offload(const std::function<void()>& fn);

/// Completion-side hook: something observable by a blocked task happened
/// (request settled, event completed, message arrived, epoch closed). Bumps
/// the global progress epoch that gates the workers' idle backoff — cheap
/// (one relaxed add), safe to call from any thread, never required for
/// correctness (blocked fibers re-poll regardless).
void note_progress() noexcept;

/// Fiber-aware condition wait. Publishes `site` as the caller's blocked site
/// (watchdog diagnostics) on fibers and plain threads alike. Fiber path:
/// unlock-yield-relock until `pred()` holds — the cv is not used (poll-yield
/// needs no wakeup).
/// Thread path: exactly cv.wait(lock, pred). `site` must be a string
/// literal (or otherwise outlive the wait).
template <typename Pred>
void wait(std::unique_lock<std::mutex>& lock, std::condition_variable& cv, Pred&& pred,
          const char* site) {
  ctx::BlockedScope blocked(site);
  if (on_fiber()) {
    while (!pred()) {
      lock.unlock();
      yield();
      lock.lock();
    }
    return;
  }
  cv.wait(lock, std::forward<Pred>(pred));
}

/// A long-lived service task (command-queue worker, clMPI dispatcher,
/// collective progression): a fiber when spawned from inside a running
/// scheduler, a plain std::thread otherwise. join() is fiber-aware on both
/// ends — a fiber joining a fiber-backed service yields until it finishes.
class ServiceHandle {
 public:
  ServiceHandle() = default;
  ServiceHandle(ServiceHandle&&) = default;
  ServiceHandle& operator=(ServiceHandle&&) = default;
  ServiceHandle(const ServiceHandle&) = delete;
  ServiceHandle& operator=(const ServiceHandle&) = delete;
  ~ServiceHandle();

  [[nodiscard]] bool joinable() const noexcept;
  void join();

 private:
  friend ServiceHandle spawn_service(std::string label, std::function<void()> fn);
  std::thread thread_;
  std::shared_ptr<std::atomic<bool>> fiber_done_;
};

/// Spawn `fn` as a service task labelled `label` (becomes its log label).
ServiceHandle spawn_service(std::string label, std::function<void()> fn);

/// The fiber scheduler backing one standalone Cluster::run — or, in
/// persistent mode, the process-wide worker pool a svc::Service multiplexes
/// MANY concurrent cluster runs (jobs) onto.
///
/// Multi-tenancy: every fiber carries a job tag (0 = untagged). The ready
/// structure is one FIFO deque per job plus a round-robin rotation across
/// jobs that have runnable fibers and a free turn, so each scheduling
/// decision picks the next job in rotation and the oldest ready fiber of
/// that job, and takes that job's turn until the fiber yields. A job's
/// fibers therefore execute in exactly the FIFO order they would with the
/// job alone on a one-worker scheduler (co-tenants and extra workers only
/// interleave BETWEEN its resumes, never reorder or overlap them), which is
/// what keeps per-job trace hashes independent of co-tenancy and of the
/// worker count. With a single job the rotation degenerates to the classic
/// single-deque round robin.
class Scheduler {
 public:
  struct Options {
    /// Worker OS threads; 0 = min(hardware concurrency, task count).
    int workers{0};
    /// Per-fiber stack bytes; 0 = CLMPI_FIBER_STACK_KB or the built-in
    /// default (256 KiB, 1 MiB under sanitizer builds).
    std::size_t stack_bytes{0};
    /// Persistent (service) mode: workers idle when no fibers are live
    /// instead of exiting, so jobs can keep arriving; stop() begins the
    /// shutdown and join() then waits for the drain. start() sizes the pool
    /// from `workers` alone (there may be zero fibers yet).
    bool persistent{false};
  };

  explicit Scheduler(Options options);
  /// Joins the workers; every fiber must have finished (Cluster::run joins
  /// via join() on the success path and aborts via the watchdog otherwise).
  /// A persistent scheduler is stopped first.
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Queue a fiber under job tag `job` (0 = untagged). Thread-safe; fibers
  /// spawn service fibers mid-run (these inherit the spawner's job tag —
  /// see spawn_service). `label` becomes the fiber's log label.
  void spawn(std::function<void()> fn, std::string label, std::uint64_t job = 0);

  /// Queue one fiber per task under job tag `job`, in order, as one batch:
  /// none of them runs before all are queued, so on a running (persistent)
  /// scheduler the job's first turns do not depend on how fast the workers
  /// pick up the first fibers.
  struct Task {
    std::function<void()> fn;
    std::string label;
  };
  void spawn(std::vector<Task> tasks, std::uint64_t job = 0);

  /// Launch the worker pool. Call once, after the initial spawns.
  void start();

  /// Register / remove a quiescence backstop, run by a worker after a full
  /// pass over the ready queue advanced nothing (before the idle nap). This
  /// is where the wire backstop of the runtime (the progress engine's
  /// coalescer flush and completion drain) runs instead of on the progress
  /// driver's wall-clock tick: a racing
  /// real-time thread would perturb post order against the deterministic
  /// cooperative schedule, while the task runs inside job `job`'s turn —
  /// serialized with that job's fibers — at a schedule-determined point (a
  /// pass that finds the turn taken skips the task). Each cluster run adds
  /// its task for its lifetime, keyed by `token`; tasks must be callable
  /// from any worker. remove_idle_task blocks while an idle pass is in
  /// flight, so after it returns the task is guaranteed never to run again.
  void add_idle_task(const void* token, std::uint64_t job, std::function<void()> task);
  void remove_idle_task(const void* token);

  /// Persistent mode: stop admitting idle waits — workers exit once no fiber
  /// is live. Call before join() (the destructor does both). No-op in
  /// one-shot mode.
  void stop();

  /// Block until every fiber (including ones spawned mid-run) finished, then
  /// join the workers.
  void join();

  /// Diagnostic snapshot of every unfinished fiber: (label, blocked site or
  /// nullptr, job tag). Safe to call from the watchdog while workers run.
  struct FiberInfo {
    std::string label;
    const char* blocked{nullptr};
    std::uint64_t job{0};
  };
  [[nodiscard]] std::vector<FiberInfo> snapshot() const;

  /// Stack bytes per fiber after defaulting (for the scaling bench's
  /// memory accounting).
  [[nodiscard]] std::size_t stack_bytes() const noexcept;

  struct Impl;

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace clmpi::sched
