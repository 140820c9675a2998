#include "simmpi/cluster.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <mutex>
#include <numeric>
#include <optional>

#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"
#include "simmpi/cluster_core.hpp"
#include "support/context.hpp"
#include "support/error.hpp"
#include "support/log.hpp"
#include "support/sched.hpp"

namespace clmpi::mpi {

namespace detail {

bool ClusterCore::backstop() {
  bool progressed = false;
  for (SendCoalescer& co : coalescers) {
    if (!co.has_pending()) continue;
    co.flush_all(FlushTrigger::tick);
    progressed = true;
  }
  for (Mailbox& mb : mailboxes) progressed = mb.drain_completions() || progressed;
  // Fail the cancelled job's still-pending operations so its blocked ranks
  // wake and unwind.
  if (job->cancel_requested()) progressed = fail_pending_as_cancelled() || progressed;
  return progressed;
}

bool ClusterCore::resolve_stuck() {
  const std::vector<std::shared_ptr<RequestState>> live = live_pending();
  std::optional<vt::TimePoint> earliest;
  for (const auto& s : live) {
    const auto d = s->pending_deadline();
    if (d && (!earliest || *d < *earliest)) earliest = d;
  }
  if (earliest) {
    bool rescued = false;
    for (const auto& s : live) {
      if (s->pending_deadline() != earliest || !s->rescue_deadline()) continue;
      rescued = true;
      if (obs::metrics_enabled()) progress_metrics().rescued_waits.add();
    }
    return rescued;
  }
  // Where each of the job's tasks (ranks, then the services they started)
  // is blocked.
  std::string sites;
  for (const sched::Scheduler::FiberInfo& f : scheduler->snapshot()) {
    if (f.job != job->id() || f.blocked == nullptr) continue;
    sites += (sites.empty() ? "" : "; ") + f.label + ": blocked at " + f.blocked;
  }
  const std::string what = "communication deadlock in job " + std::to_string(job->id()) +
                           ": every task is blocked and no operation deadline is left to "
                           "expire (" + sites + ")";
  // A job that already failed has nothing left to try; the watchdog guards
  // waits that never look at the job's failure.
  if (!job->fail(std::make_exception_ptr(DeadlockError(what)))) return false;
  fail_pending_as_cancelled();
  return true;
}

void ClusterCore::register_pending(std::shared_ptr<RequestState> state) {
  std::lock_guard lock(pending_mutex);
  // Opportunistic pruning keeps the registry proportional to in-flight
  // operations rather than to the job's lifetime message count.
  if (pending_ops.size() >= 64 && (pending_ops.size() & (pending_ops.size() - 1)) == 0) {
    std::erase_if(pending_ops, [](const std::weak_ptr<RequestState>& weak) {
      const auto s = weak.lock();
      return s == nullptr || s->done();
    });
  }
  pending_ops.push_back(std::move(state));
}

std::vector<std::shared_ptr<RequestState>> ClusterCore::live_pending() {
  std::vector<std::shared_ptr<RequestState>> live;
  std::lock_guard lock(pending_mutex);
  std::erase_if(pending_ops, [&live](const std::weak_ptr<RequestState>& weak) {
    auto s = weak.lock();
    if (s == nullptr || s->done()) return true;
    live.push_back(std::move(s));
    return false;
  });
  return live;
}

bool ClusterCore::fail_pending_as_cancelled() {
  // Fail outside the registry lock: settle callbacks may re-enter the
  // cluster (fire events, post follow-ups that call register_pending).
  bool failed = false;
  for (auto& s : live_pending()) {
    failed = s->cancel_now(job->cancel_error("a pending operation")) || failed;
  }
  return failed;
}

}  // namespace detail

namespace {

std::vector<int> iota_group(int n) {
  std::vector<int> g(static_cast<std::size_t>(n));
  std::iota(g.begin(), g.end(), 0);
  return g;
}

std::string describe_exception(std::exception_ptr e) {
  try {
    std::rethrow_exception(std::move(e));
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "non-std exception";
  }
}

/// CLMPI_TRACE auto-export arbitration across concurrent Cluster::run calls.
/// Each run takes a sequence number at START; only the latest-started run
/// writes the file ("last run wins", now deterministic under concurrency:
/// start order decides, not finish order), and writes are serialized so two
/// finishing runs can never interleave output in the same path.
std::mutex g_trace_export_mutex;
std::uint64_t g_trace_export_seq = 0;      // last sequence number handed out
std::uint64_t g_trace_exported_seq = 0;    // highest sequence that exported

}  // namespace

Rank::Rank(detail::ClusterCore* core, int id, int nranks)
    : core_(core), id_(id), clock_(), world_(core, /*context=*/0, iota_group(nranks), id) {}

const sys::SystemProfile& Rank::profile() const { return *core_->profile; }

vt::Tracer* Rank::tracer() const { return core_->tracer; }

void Rank::compute(vt::Duration d, const std::string& label) {
  // Cancellation point: compute loops are where a rank can go longest
  // without touching the comm layer's posts.
  core_->job->check_cancelled("compute");
  const vt::TimePoint start = clock_.now();
  clock_.advance(d);
  if (core_->tracer != nullptr) {
    core_->tracer->record("host" + std::to_string(id_), label, vt::SpanKind::compute, start,
                          clock_.now());
  }
}

namespace detail {

/// One launched cluster run, shared by its rank fibers and the caller's
/// Handle: whichever lets go last frees it.
struct ClusterRun {
  Cluster::Options options;
  std::function<void(Rank&)> body;
  Cluster::Done done;
  std::optional<tenant::JobControl> own_job;
  /// CLMPI_TRACE: attached when the caller attached no tracer, so
  /// clmpiDumpTrace and the auto-export see the run. Tracing is passive, so
  /// the virtual schedule is identical either way.
  vt::Tracer env_tracer;
  ClusterCore core;  // declared after `own_job` and `env_tracer`: points at both
  std::uint64_t run_seq{0};
  double watchdog_s{0.0};
  const std::chrono::steady_clock::time_point launched{std::chrono::steady_clock::now()};

  std::mutex mutex;  // guards the three below
  int remaining{0};
  std::exception_ptr first_error;
  int suppressed{0};
  RunResult result;  ///< rank_end_s[r] is written by rank r alone

  void rank_main(int r);
  void finish();
};

void ClusterRun::rank_main(int r) {
  // Tenancy: the rank task (and, via spawn_service propagation, every
  // runtime service it starts) charges allocations to the job.
  ctx::current().job = core.job;
  try {
    Rank rank(&core, r, options.nranks);
    body(rank);
    result.rank_end_s[static_cast<std::size_t>(r)] = rank.now_s();
  } catch (...) {
    {
      std::lock_guard lock(mutex);
      if (!first_error) {
        first_error = std::current_exception();
      } else {
        // First error wins the rethrow, but secondary failures (usually the
        // cascade the first one caused in peer ranks) must not vanish
        // silently: count and log each one.
        ++suppressed;
        CLMPI_WARN("rank " << r << ": secondary error suppressed: "
                           << describe_exception(std::current_exception()));
        if (obs::metrics_enabled()) {
          static auto& c = obs::Registry::instance().counter("cluster.suppressed_errors");
          c.add();
        }
      }
    }
    // A failed rank fails the whole job: without a runtime teardown to
    // poison them, peer ranks of a plain-MPI workload would block forever
    // on the dead rank's messages. The cancel backstop fails the job's
    // pending operations and blocked window and probe waits throw, so
    // peers unwind (as secondary, suppressed CancelledErrors — the line
    // above already recorded the real cause).
    core.job->request_cancel();
  }
  {
    std::lock_guard lock(mutex);
    if (--remaining > 0) return;
  }
  finish();  // the last rank tears the cluster down
}

void ClusterRun::finish() {
  // Join non-blocking-collective progression services before the mailboxes
  // and network go away. They terminate once every rank has issued its side
  // of the collective, which every rank returning guarantees for
  // well-formed programs.
  std::vector<sched::ServiceHandle> aux;
  {
    std::lock_guard lock(core.aux_mutex);
    aux.swap(core.aux_services);
  }
  for (auto& s : aux) s.join();
  // Detach the idle task; removal blocks while an idle pass is mid-flight,
  // so the task never runs again. Then one final backstop, so no envelope
  // is left stranded in a coalescer.
  core.scheduler->remove_idle_task(&core);
  core.backstop();
  if (core.faults) result.faults = core.faults->counters();
  // CLMPI_TRACE=<path>: auto-export the env-attached tracer as Perfetto
  // JSON. Last run wins when a process runs several clusters — decided by
  // run START order and serialized (see g_trace_export_mutex above).
  if (core.tracer == &env_tracer && !obs::trace_export_path().empty()) {
    std::lock_guard lock(g_trace_export_mutex);
    if (run_seq > g_trace_exported_seq) {
      g_trace_exported_seq = run_seq;
      obs::write_trace_file(env_tracer, obs::trace_export_path());
    }
  }
  if (first_error && suppressed > 0) {
    CLMPI_WARN("cluster: suppressed " << suppressed
                                      << " secondary rank error(s); reporting the first");
  }
  for (double e : result.rank_end_s) result.makespan_s = std::max(result.makespan_s, e);
  done(std::move(result), first_error);
}

}  // namespace detail

void Cluster::Handle::check_watchdog() const {
  detail::ClusterRun& run = *run_;
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - run.launched;
  if (run.watchdog_s <= 0.0 || elapsed.count() < run.watchdog_s) return;
  std::lock_guard lock(run.mutex);
  if (run.remaining == 0) return;
  // Last-resort livelock guard: a deadlock fails typed at the job's stuck
  // point long before this fires, so the run is busy without finishing (or
  // blocked where no failure reaches). There is no safe way to unwind a
  // foreign task, so dump everything we know about where each rank and
  // service fiber is, flush the observability state, and abort.
  std::cerr << "clmpi::mpi::Cluster watchdog: " << run.remaining << " of " << run.options.nranks
            << " ranks still unfinished after " << run.watchdog_s
            << "s of real time; aborting.\n";
  for (const auto& f : run.core.scheduler->snapshot()) {
    if (f.job != run.core.job->id()) continue;  // a co-tenant's
    std::cerr << "  fiber " << f.label << ": " << (f.blocked != nullptr ? f.blocked : "<runnable>")
              << "\n";
  }
  for (const auto& s : obs::Registry::instance().snapshot()) {
    if (s.value != 0) std::cerr << "  metric " << s.name << " = " << s.value << "\n";
  }
  if (run.core.tracer != nullptr && !obs::trace_export_path().empty()) {
    obs::write_trace_file(*run.core.tracer, obs::trace_export_path());
    std::cerr << "  trace flushed to " << obs::trace_export_path() << "\n";
  }
  std::cerr.flush();
  std::abort();
}

Cluster::Handle Cluster::launch(const Options& options, std::function<void(Rank&)> body,
                                Done done) {
  CLMPI_REQUIRE(options.nranks > 0, "cluster needs at least one rank");
  CLMPI_REQUIRE(options.profile != nullptr, "cluster needs a system profile");
  CLMPI_REQUIRE(options.scheduler != nullptr, "Cluster::launch needs a scheduler");
  auto run = std::make_shared<detail::ClusterRun>();
  run->options = options;
  run->body = std::move(body);
  run->done = std::move(done);
  // Every run has a job control block — a private one unless a service
  // passed its own — so a failed rank cancels its peers, and a stuck job
  // fails typed, the same way in both.
  tenant::JobControl* job =
      options.job != nullptr ? options.job : &run->own_job.emplace(0, tenant::JobQuotas{});
  // Rank-count quota: checked before anything is allocated, so an oversized
  // job fails typed without having touched shared state.
  job->check_ranks(options.nranks);

  {
    std::lock_guard lock(g_trace_export_mutex);
    run->run_seq = ++g_trace_export_seq;
  }

  detail::ClusterCore& core = run->core;
  core.profile = options.profile;
  core.tracer = options.tracer;
  core.job = job;
  core.scheduler = options.scheduler;
  if (core.tracer == nullptr && obs::trace_enabled()) core.tracer = &run->env_tracer;
  if (options.faults.enabled()) {
    core.faults = std::make_unique<FaultEngine>(options.faults);
  }
  core.network = std::make_unique<Network>(options.profile->nic, options.nranks,
                                           core.tracer, core.faults.get(),
                                           &options.profile->shmem);
  // The per-profile eager-inline cutoff is clamped by the envelope's fixed
  // store capacity (see Mailbox::inject_eager). A profile asking for more
  // would otherwise be silently degraded to heap-copied eager sends; surface
  // the clamp once and publish the effective cutoff for observability.
  {
    const std::size_t requested = options.profile->nic.eager_inline;
    const std::size_t effective = std::min(requested, detail::Envelope::kInlineEagerBytes);
    obs::Registry::instance()
        .gauge("simmpi.mailbox.eager_inline_effective")
        .record(effective);
    if (requested > effective) {
      static std::atomic<bool> warned{false};
      if (!warned.exchange(true)) {
        CLMPI_WARN("profile '" << options.profile->nic.name << "' requests eager_inline="
                               << requested << " B, above the envelope inline store ("
                               << detail::Envelope::kInlineEagerBytes
                               << " B); clamping to " << effective << " B");
      }
    }
  }
  // One mailbox and one coalescer per node, sized before any rank fiber
  // exists.
  for (int n = 0; n < options.nranks; ++n) {
    core.mailboxes.emplace_back(*core.network, n);
    core.coalescers.emplace_back();
  }

  run->remaining = options.nranks;
  run->result.rank_end_s.assign(static_cast<std::size_t>(options.nranks), 0.0);
  run->watchdog_s = options.watchdog_seconds;
#ifdef CLMPI_SANITIZE_BUILD
  // Sanitizer instrumentation slows the simulated ranks several-fold; scale
  // the watchdog so sanitize runs are not shot while merely slow.
  run->watchdog_s *= 4.0;
#endif

  // Ranks run as fibers tagged with the job's id. The idle task is the
  // job's liveness backstop: it runs only after a quiet round of the job's
  // turns, inside the turn, so batch composition and every rescue stay a
  // function of the cooperative schedule rather than of real time. It is
  // registered until finish(); `&core` keys its removal.
  core.scheduler->add_idle_task(&core, job->id(),
                                [&core](bool stuck) { return core.on_quiet(stuck); });
  // One batch, so on a running service scheduler no rank takes a turn
  // before its peers are queued.
  std::vector<sched::Scheduler::Task> ranks;
  for (int r = 0; r < options.nranks; ++r) {
    ranks.push_back({[run, r] { run->rank_main(r); }, "rank" + std::to_string(r)});
  }
  core.scheduler->spawn(std::move(ranks), job->id());
  Handle handle;
  handle.run_ = std::move(run);
  return handle;
}

RunResult Cluster::run(const Options& options, const std::function<void(Rank&)>& body) {
  std::optional<sched::Scheduler> own;
  Options launched = options;
  if (launched.scheduler == nullptr) launched.scheduler = &own.emplace(sched::Scheduler::Options{});

  std::mutex mutex;
  std::condition_variable done_cv;
  std::optional<RunResult> result;
  std::exception_ptr error;
  const Handle handle =
      launch(launched, [&body](Rank& rank) { body(rank); },
             [&](RunResult r, std::exception_ptr e) {
               // Notify under the lock: once `result` is set this function
               // may return and destroy `done_cv`.
               std::lock_guard lock(mutex);
               result = std::move(r);
               error = std::move(e);
               done_cv.notify_all();
             });
  if (own) own->start();
  {
    std::unique_lock lock(mutex);
    while (!done_cv.wait_for(lock, std::chrono::milliseconds(5),
                             [&] { return result.has_value(); })) {
      handle.check_watchdog();
    }
  }
  if (own) own->join();
  if (error) std::rethrow_exception(error);
  return std::move(*result);
}

}  // namespace clmpi::mpi
