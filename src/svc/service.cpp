#include "svc/service.hpp"

#include <atomic>
#include <exception>
#include <utility>

#include "obs/metrics.hpp"
#include "support/log.hpp"
#include "svc/workloads.hpp"
#include "systems/profile.hpp"

namespace clmpi::svc {

namespace {

bool terminal(JobState s) noexcept {
  return s == JobState::succeeded || s == JobState::failed || s == JobState::cancelled;
}

double seconds_since(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t).count();
}

/// Job ids are unique per PROCESS, not per Service: the "job.<id>." metric
/// namespace lives in the process-global registry, and two services (or one
/// restarted) must never write into each other's series.
std::atomic<std::uint64_t> g_next_job_id{1};

}  // namespace

const char* to_string(JobKind k) noexcept {
  switch (k) {
    case JobKind::himeno:
      return "himeno";
    case JobKind::halo:
      return "halo";
    case JobKind::chaos:
      return "chaos";
  }
  return "?";
}

const char* to_string(JobState s) noexcept {
  switch (s) {
    case JobState::queued:
      return "queued";
    case JobState::running:
      return "running";
    case JobState::succeeded:
      return "succeeded";
    case JobState::failed:
      return "failed";
    case JobState::cancelled:
      return "cancelled";
  }
  return "?";
}

Service::Service(Options options)
    : opts_(options), pool_(sched::Scheduler::Options{.workers = options.workers}) {
  if (opts_.queue_limit == 0) opts_.queue_limit = 1;
  if (opts_.max_active == 0) opts_.max_active = 1;
  pool_.start();
  monitor_ = std::thread([this] { monitor_loop(); });
}

Service::~Service() {
  {
    // Drain: queued jobs launch from finishing jobs' completion callbacks,
    // which notify under the lock, so the wait ends after the last one.
    std::unique_lock<std::mutex> lock(mutex_);
    stopping_ = true;
    state_cv_.wait(lock, [&] { return active_ == 0 && queue_.empty(); });
  }
  // The last callbacks may still be unwinding on their fibers: join them
  // while mutex_ and state_cv_ live (pool_ is destroyed after them).
  pool_.join();
  monitor_cv_.notify_all();
  monitor_.join();
}

std::uint64_t Service::submit(JobSpec spec) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (stopping_) {
    ++rejected_;
    throw RejectedError("service is shutting down");
  }
  if (queue_.size() >= opts_.queue_limit) {
    ++rejected_;
    throw RejectedError("service queue full: " + std::to_string(queue_.size()) +
                        " jobs waiting (limit " + std::to_string(opts_.queue_limit) + ")");
  }
  const std::uint64_t id = g_next_job_id.fetch_add(1, std::memory_order_relaxed);
  auto rec = std::make_shared<JobRecord>(id, std::move(spec));
  // Reject an impossible ask at the door instead of queueing a job that
  // can only ever fail at launch.
  rec->control.check_ranks(rec->spec.nranks);
  rec->submitted = std::chrono::steady_clock::now();
  if (rec->spec.deadline_s > 0.0) {
    rec->deadline = rec->submitted + std::chrono::duration_cast<
                                         std::chrono::steady_clock::duration>(
                                         std::chrono::duration<double>(rec->spec.deadline_s));
  }
  ++submitted_;
  jobs_.emplace(id, rec);
  queue_.push_back(std::move(rec));
  launch_queued(lock);
  return id;
}

std::shared_ptr<Service::JobRecord> Service::find(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    throw Error("unknown job id " + std::to_string(id), Status::invalid_job);
  }
  return it->second;
}

JobResult Service::wait(std::uint64_t id) {
  std::shared_ptr<JobRecord> rec = find(id);
  std::unique_lock<std::mutex> lock(mutex_);
  state_cv_.wait(lock, [&] { return terminal(rec->result.state); });
  return rec->result;
}

bool Service::cancel(std::uint64_t id) {
  std::shared_ptr<JobRecord> rec = find(id);
  std::lock_guard<std::mutex> lock(mutex_);
  if (terminal(rec->result.state)) return false;
  rec->control.request_cancel();
  if (rec->result.state == JobState::queued) cancel_queued(rec);
  return true;
}

JobResult Service::counters(std::uint64_t id) {
  std::shared_ptr<JobRecord> rec = find(id);
  std::lock_guard<std::mutex> lock(mutex_);
  JobResult out = rec->result;
  if (!terminal(out.state)) out.usage = rec->control.usage();
  return out;
}

Service::Stats Service::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s;
  s.submitted = submitted_;
  s.rejected = rejected_;
  s.queued = queue_.size();
  s.active = active_;
  return s;
}

void Service::launch_queued(std::unique_lock<std::mutex>& lock) {
  while (active_ < opts_.max_active && !queue_.empty()) {
    std::shared_ptr<JobRecord> rec = std::move(queue_.front());
    queue_.pop_front();
    ++active_;
    rec->result.queue_delay_s = seconds_since(rec->submitted);
    rec->result.state = JobState::running;
    lock.unlock();
    // Building the cluster is the costly part: do it unlocked. The job may
    // even finish before the lock is back.
    std::optional<mpi::Cluster::Handle> cluster;
    std::exception_ptr launch_error;
    try {
      mpi::Cluster::Options copt;
      copt.nranks = rec->spec.nranks;
      copt.profile = &sys::profile_by_name(rec->spec.profile);
      copt.tracer = &rec->tracer;
      copt.watchdog_seconds = opts_.watchdog_seconds;
      copt.scheduler = &pool_;
      copt.job = &rec->control;
      cluster = mpi::Cluster::launch(copt, make_workload(rec->spec),
                                     [this, rec](mpi::RunResult run, std::exception_ptr error) {
                                       on_done(rec, run, error);
                                     });
    } catch (...) {
      launch_error = std::current_exception();
    }
    lock.lock();
    if (launch_error) {
      --active_;
      finalize(*rec, launch_error, 0.0);
    } else if (!terminal(rec->result.state)) {
      rec->cluster = std::move(cluster);
    }
  }
}

void Service::on_done(const std::shared_ptr<JobRecord>& rec, const mpi::RunResult& run,
                      const std::exception_ptr& error) {
  std::unique_lock<std::mutex> lock(mutex_);
  rec->cluster.reset();
  rec->result.run_wall_s = seconds_since(rec->submitted) - rec->result.queue_delay_s;
  --active_;
  finalize(*rec, error, run.makespan_s);
  launch_queued(lock);
}

void Service::finalize(JobRecord& rec, const std::exception_ptr& error, double makespan_s) {
  rec.result.state = JobState::succeeded;
  if (error) {
    try {
      std::rethrow_exception(error);
    } catch (const Error& e) {
      rec.result.state = e.status() == Status::cancelled ? JobState::cancelled : JobState::failed;
      rec.result.status = e.status();
      rec.result.error = e.what();
    } catch (const std::exception& e) {
      rec.result.state = JobState::failed;
      rec.result.status = Status::invalid_operation;
      rec.result.error = e.what();
    }
  }
  rec.result.makespan_s = makespan_s;
  rec.result.trace_hash = rec.tracer.hash();
  const tenant::JobControl::Usage u = rec.result.usage = rec.control.usage();
  // Publish the job's counters under its "job.<id>." namespace.
  const std::string prefix = rec.control.metric_prefix();
  obs::Registry& reg = obs::Registry::instance();
  reg.counter(prefix + "messages").add(u.messages);
  reg.counter(prefix + "quota.denials").add(u.staging_denials + u.mailbox_denials);
  reg.gauge(prefix + "staging.bytes").record(u.staging_hwm);
  reg.gauge(prefix + "mailbox.depth").record(u.mailbox_hwm);
  reg.gauge(prefix + "makespan.us").record(static_cast<std::uint64_t>(makespan_s * 1e6));
  reg.gauge(prefix + "state").record(static_cast<std::uint64_t>(rec.result.state));
  // Under the lock: ~Service may return once the last job is terminal.
  state_cv_.notify_all();
}

void Service::cancel_queued(const std::shared_ptr<JobRecord>& rec) {
  std::erase(queue_, rec);
  rec->result.queue_delay_s = seconds_since(rec->submitted);
  finalize(*rec,
           std::make_exception_ptr(
               CancelledError("job " + std::to_string(rec->id) + " cancelled before start")),
           0.0);
}

void Service::monitor_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!(stopping_ && active_ == 0 && queue_.empty())) {
    const auto now = std::chrono::steady_clock::now();
    for (auto& [id, rec] : jobs_) {
      (void)id;
      if (terminal(rec->result.state)) continue;
      if (rec->cluster) rec->cluster->check_watchdog();
      if (rec->deadline && now >= *rec->deadline) {
        rec->control.request_cancel();
        if (rec->result.state == JobState::queued) cancel_queued(rec);
      }
    }
    monitor_cv_.wait_for(lock, std::chrono::milliseconds(5));
  }
}

}  // namespace clmpi::svc
