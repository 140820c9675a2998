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
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"
#include "simmpi/cluster_core.hpp"
#include "support/context.hpp"
#include "support/error.hpp"
#include "support/log.hpp"
#include "support/sched.hpp"

namespace clmpi::mpi {

namespace detail {

namespace {

/// Process-wide progress driver: ONE long-lived thread services every live
/// cluster, instead of each Cluster::run paying a thread spawn + join
/// (~50-60 us on this class of machine — real money for millisecond-scale
/// runs). Cores register at run start and deregister at teardown; the
/// deregistration blocks while a tick is mid-pass (the tick holds the
/// registry mutex), so a removed core is never touched again. The thread is
/// detached and the singleton leaked: at process exit it is parked on the
/// leaked cv with an empty registry, touching nothing else.
class ProgressDriverService {
 public:
  static ProgressDriverService& instance() {
    static auto* service = new ProgressDriverService();
    return *service;
  }

  void add(ClusterCore* core) {
    std::lock_guard lock(mutex_);
    cores_.push_back(core);
    ++version_;
    if (!started_) {
      started_ = true;
      std::thread([this] {
        log::set_thread_label("progress-driver");
        loop();
      }).detach();
    }
    cv_.notify_all();
  }

  void remove(ClusterCore* core) {
    std::lock_guard lock(mutex_);
    std::erase(cores_, core);
    ++version_;
  }

 private:
  void loop() {
    std::unique_lock lock(mutex_);
    for (;;) {
      if (cores_.empty()) {
        cv_.wait(lock, [&] { return !cores_.empty(); });
        continue;  // re-read the tick under the current config
      }
      const std::uint64_t v = version_;
      const bool changed = cv_.wait_for(lock, progress_config().driver_tick,
                                        [&] { return version_ != v; });
      // A registry change only re-arms the sleep (picking up a possibly
      // changed tick); the flush pass runs on timeout alone, so a cluster
      // that configured a long tick before starting is never flushed early.
      if (changed) continue;
      if (obs::metrics_enabled()) progress_metrics().driver_ticks.add();
      // The tick is the liveness backstop for queued batches no blocking
      // wait will ever flush (poll-only peers, ranks that never wait), and
      // drains completions a producer left behind after losing the consumer
      // race. Everything here is wall-clock-only: the envelopes' virtual
      // stamps were fixed at post time.
      for (ClusterCore* core : cores_) {
        // The wire part of the backstop belongs to each cluster's scheduler
        // idle task: a wall-clock flush here would race the deterministic
        // cooperative schedule and perturb the wire post order. Job
        // cancellation and deadline rescue stay — both are wall-clock by
        // definition (the latter is the real-time grace of an armed
        // deadline).
        core->backstop(/*wire=*/false);
        core->rescue_stale_deadlines();
      }
    }
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<ClusterCore*> cores_;
  std::uint64_t version_{0};
  bool started_{false};
};

}  // namespace

void ClusterCore::backstop(bool wire) {
  if (wire) {
    for (SendCoalescer& co : coalescers) co.flush_all(FlushTrigger::tick);
    for (Mailbox& mb : mailboxes) mb.drain_completions();
  }
  // Fail the cancelled job's still-pending operations so its blocked ranks
  // wake and unwind.
  if (job != nullptr && job->cancel_requested()) fail_pending_as_cancelled();
}

void ClusterCore::register_deadline(std::shared_ptr<RequestState> state) {
  std::lock_guard lock(deadline_mutex);
  armed_requests.push_back(std::move(state));
}

void ClusterCore::rescue_stale_deadlines() {
  std::vector<std::shared_ptr<RequestState>> live;
  {
    std::lock_guard lock(deadline_mutex);
    live.reserve(armed_requests.size());
    for (auto& weak : armed_requests) {
      if (auto s = weak.lock()) live.push_back(std::move(s));
    }
  }
  // Rescue outside the registry lock: timeout callbacks may re-enter the
  // cluster (fire events, post follow-up operations).
  const auto grace = deadline_grace();
  const auto now = std::chrono::steady_clock::now();
  for (auto& s : live) {
    if (s->rescue_if_stale(now, grace) && obs::metrics_enabled()) {
      progress_metrics().rescued_waits.add();
    }
  }
  std::lock_guard lock(deadline_mutex);
  std::erase_if(armed_requests, [](const std::weak_ptr<RequestState>& weak) {
    const auto s = weak.lock();
    return s == nullptr || s->done();
  });
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

void ClusterCore::fail_pending_as_cancelled() {
  std::vector<std::shared_ptr<RequestState>> live;
  {
    std::lock_guard lock(pending_mutex);
    std::erase_if(pending_ops, [&live](const std::weak_ptr<RequestState>& weak) {
      auto s = weak.lock();
      if (s == nullptr || s->done()) return true;
      live.push_back(std::move(s));
      return false;
    });
  }
  // Fail outside the registry lock: settle callbacks may re-enter the
  // cluster (fire events, post follow-ups that call register_pending).
  for (auto& s : live) {
    s->cancel_now(std::make_exception_ptr(
        CancelledError("job " + std::to_string(job->id()) + " cancelled; pending "
                       "operation failed by the cancel backstop")));
  }
}

void ClusterCore::start_progress_driver() {
  ProgressDriverService::instance().add(this);
}

void ClusterCore::stop_progress_driver() {
  ProgressDriverService::instance().remove(this);
  // One final pass after deregistration, so no envelope is left stranded in
  // a coalescer at teardown (the service can no longer be mid-pass on this
  // core once remove() returns).
  backstop(/*wire=*/true);
  rescue_stale_deadlines();
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
  if (core_->job != nullptr) core_->job->check_cancelled("compute");
  const vt::TimePoint start = clock_.now();
  clock_.advance(d);
  if (core_->tracer != nullptr) {
    core_->tracer->record("host" + std::to_string(id_), label, vt::SpanKind::compute, start,
                          clock_.now());
  }
}

RunResult Cluster::run(const Options& options, const std::function<void(Rank&)>& body) {
  CLMPI_REQUIRE(options.nranks > 0, "cluster needs at least one rank");
  CLMPI_REQUIRE(options.profile != nullptr, "cluster needs a system profile");
  // Rank-count quota: checked before anything is allocated, so an oversized
  // job fails typed without having touched shared state.
  if (options.job != nullptr) options.job->check_ranks(options.nranks);

  std::uint64_t run_seq = 0;
  {
    std::lock_guard lock(g_trace_export_mutex);
    run_seq = ++g_trace_export_seq;
  }

  detail::ClusterCore core;
  core.profile = options.profile;
  core.tracer = options.tracer;
  core.job = options.job;
  // CLMPI_TRACE: when the caller did not attach a tracer, attach an
  // internally owned one so clmpiDumpTrace (and the optional auto-export
  // below) see the run. Tracing is passive — it never advances a clock — so
  // the virtual schedule is identical either way.
  vt::Tracer env_tracer;
  if (core.tracer == nullptr && obs::trace_enabled()) core.tracer = &env_tracer;
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
  // exists; the driver starts eagerly so completions progress from the
  // first post.
  for (int n = 0; n < options.nranks; ++n) {
    core.mailboxes.emplace_back(*core.network, n);
    core.coalescers.emplace_back();
  }
  core.start_progress_driver();

  // Per-rank blocked-site mirrors (watchdog diagnostics). Owned by the core
  // so they outlive the rank contexts that write them.
  for (int n = 0; n < options.nranks; ++n) core.blocked_sites.emplace_back(nullptr);

  RunResult result;
  result.rank_end_s.assign(static_cast<std::size_t>(options.nranks), 0.0);

  std::mutex state_mutex;
  std::condition_variable done_cv;
  int remaining = options.nranks;
  std::exception_ptr first_error;
  int suppressed = 0;
  std::vector<char> rank_done(static_cast<std::size_t>(options.nranks), 0);

  const auto rank_main = [&](int r) {
    ctx::current().blocked_mirror = &core.blocked_sites[static_cast<std::size_t>(r)];
    // Tenancy: the rank task (and, via spawn_service propagation, every
    // runtime service it starts) charges allocations to the job.
    ctx::current().job = options.job;
    log::set_thread_label("rank" + std::to_string(r));
    try {
      Rank rank(&core, r, options.nranks);
      body(rank);
      result.rank_end_s[static_cast<std::size_t>(r)] = rank.now_s();
    } catch (...) {
      {
        std::lock_guard lock(state_mutex);
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
      // pending operations, so peers unwind (as secondary, suppressed
      // CancelledErrors — the line above already recorded the real cause).
      if (options.job != nullptr) options.job->request_cancel();
    }
    {
      // Notify under the lock: once `remaining` reads 0, Cluster::run may
      // return and destroy `done_cv`, so it must not be touched after the
      // unlock.
      std::lock_guard lock(state_mutex);
      rank_done[static_cast<std::size_t>(r)] = 1;
      --remaining;
      done_cv.notify_all();
    }
    sched::note_progress();
  };

  // Ranks run as fibers: job-tagged on a shared service scheduler, job 0 on
  // a private one. The idle task is the progress engine's wire backstop: it
  // runs only at scheduler quiescence, inside the job's turn, so batch
  // composition stays a function of the cooperative schedule rather than of
  // a racing real-time tick. It is registered for exactly the run's
  // lifetime; `&core` keys its removal.
  std::optional<sched::Scheduler> scheduler;
  sched::Scheduler* external = options.scheduler;
  sched::Scheduler* fibers =
      external != nullptr ? external : &scheduler.emplace(sched::Scheduler::Options{});
  const std::uint64_t job_tag = external != nullptr ? options.job_tag : 0;
  fibers->add_idle_task(&core, job_tag, [&core] { core.backstop(/*wire=*/true); });
  {
    // One batch, so on a running service scheduler no rank takes a turn
    // before its peers are queued.
    const std::string tag =
        external != nullptr ? "job" + std::to_string(job_tag) + ".rank" : "rank";
    std::vector<sched::Scheduler::Task> ranks;
    for (int r = 0; r < options.nranks; ++r) {
      ranks.push_back({[&rank_main, r] { rank_main(r); }, tag + std::to_string(r)});
    }
    fibers->spawn(std::move(ranks), job_tag);
  }
  if (scheduler) scheduler->start();

  if (options.watchdog_seconds > 0.0) {
    double watchdog_s = options.watchdog_seconds;
#ifdef CLMPI_SANITIZE_BUILD
    // Sanitizer instrumentation slows the simulated ranks several-fold;
    // scale the deadlock watchdog so sanitize runs are not shot while
    // merely slow.
    watchdog_s *= 4.0;
#endif
    std::unique_lock lock(state_mutex);
    const bool finished =
        done_cv.wait_for(lock, std::chrono::duration<double>(watchdog_s),
                         [&] { return remaining == 0; });
    if (!finished) {
      // A rank is stuck in a blocking operation: this is a communication
      // deadlock in the user program, the same hang a real MPI job would
      // exhibit. There is no safe way to unwind a foreign stuck task, so
      // dump everything we know about where each rank is parked, flush the
      // observability state, and abort.
      std::cerr << "clmpi::mpi::Cluster watchdog: " << remaining << " of " << options.nranks
                << " ranks still blocked after " << watchdog_s
                << "s of real time — communication deadlock; aborting.\n";
      for (int r = 0; r < options.nranks; ++r) {
        if (rank_done[static_cast<std::size_t>(r)]) continue;
        const char* site =
            core.blocked_sites[static_cast<std::size_t>(r)].load(std::memory_order_acquire);
        std::cerr << "  rank" << r << ": blocked at "
                  << (site != nullptr ? site : "<running or unknown>") << "\n";
      }
      for (const auto& f : fibers->snapshot()) {
        // On a shared service scheduler, only this job's fibers are ours to
        // report.
        if (f.job != job_tag) continue;
        std::cerr << "  fiber " << f.label << ": "
                  << (f.blocked != nullptr ? f.blocked : "<runnable>") << "\n";
      }
      for (const auto& s : obs::Registry::instance().snapshot()) {
        if (s.value != 0) std::cerr << "  metric " << s.name << " = " << s.value << "\n";
      }
      if (core.tracer != nullptr && !obs::trace_export_path().empty()) {
        obs::write_trace_file(*core.tracer, obs::trace_export_path());
        std::cerr << "  trace flushed to " << obs::trace_export_path() << "\n";
      }
      std::cerr.flush();
      std::abort();
    }
  }

  if (external != nullptr) {
    // Shared scheduler: other jobs' fibers keep it busy, so "join" for this
    // job means waiting for its own ranks (the aux-service joins below cover
    // the service fibers they spawned).
    std::unique_lock lock(state_mutex);
    done_cv.wait(lock, [&] { return remaining == 0; });
  } else {
    // Waits for every fiber — ranks and the service fibers they spawned
    // (queue workers, dispatchers, collective progression) — then joins the
    // worker pool.
    scheduler->join();
  }
  // Join non-blocking-collective progression services before the mailboxes
  // and network (owned by `core`) go away. They terminate once every rank
  // has issued its side of the collective, which the rank joins above
  // guarantee for well-formed programs.
  {
    std::lock_guard lock(core.aux_mutex);
    for (auto& s : core.aux_services) s.join();
  }
  // Detach the idle task before `core` is torn down; removal blocks while an
  // idle pass is mid-flight, so the task never touches a dead core.
  fibers->remove_idle_task(&core);
  // The shared driver dereferences request states that the mailboxes keep
  // alive; detach from it before `core` (and everything it owns) is torn
  // down.
  core.stop_progress_driver();
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
  if (first_error) {
    if (suppressed > 0) {
      CLMPI_WARN("cluster: suppressed " << suppressed
                                        << " secondary rank error(s); rethrowing the first");
    }
    std::rethrow_exception(first_error);
  }

  result.makespan_s = 0.0;
  for (double e : result.rank_end_s) result.makespan_s = std::max(result.makespan_s, e);
  return result;
}

}  // namespace clmpi::mpi
