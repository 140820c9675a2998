#include "support/sched.hpp"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <unordered_map>
#include <utility>

#include "support/error.hpp"
#include "support/log.hpp"

// Fiber-switch annotations keep the sanitizers' shadow state consistent
// across stack switches; without them ASan misattributes frames and TSan
// reports phantom races between tasks that share a worker.
#if defined(__SANITIZE_ADDRESS__)
#define CLMPI_SCHED_ASAN 1
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#define CLMPI_SCHED_TSAN 1
#include <sanitizer/tsan_interface.h>
#endif

namespace clmpi::sched {

namespace {

long env_long(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return 0;
  return std::strtol(env, nullptr, 10);
}

int default_workers() {
  const long n = env_long("CLMPI_FIBER_WORKERS");
  if (n > 0) return static_cast<int>(std::min<long>(n, 1024));
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

std::size_t default_stack_bytes() {
  const long kb = env_long("CLMPI_FIBER_STACK_KB");
  if (kb > 0) return static_cast<std::size_t>(kb) * 1024;
#ifdef CLMPI_SANITIZE_BUILD
  // Sanitizer instrumentation fattens frames (ASan redzones especially).
  return std::size_t{1} << 20;
#else
  return std::size_t{256} << 10;
#endif
}

/// One sched::offload in flight. Lives on the offloading fiber's stack,
/// which does not return from offload before `done` — so the worker running
/// the body may hold a raw pointer to it.
struct Offload {
  const std::function<void()>* fn{nullptr};
  std::exception_ptr error;
  bool done{false};  ///< guarded by Scheduler::Impl::mutex

  void run() noexcept {
    try {
      (*fn)();
    } catch (...) {
      error = std::current_exception();
    }
  }
};

struct Fiber {
  ucontext_t uc{};
  ucontext_t* ret_uc{nullptr};  ///< resuming worker's context, set per resume
  std::byte* stack_base{nullptr};
  std::size_t stack_size{0};
  std::byte* mapping{nullptr};  ///< stack + low guard page
  std::size_t mapping_size{0};
  std::function<void()> fn;
  std::atomic<bool> finished{false};
  bool started{false};
  std::uint64_t job{0};  ///< tenancy tag; 0 = untagged (single-job mode)
  Offload* offload{nullptr};  ///< body handed to the worker by this yield
  std::uint64_t polled_seq{0};  ///< ctx.blocked_seq at the previous yield
  ctx::ExecContext ctx;
  Scheduler::Impl* owner{nullptr};
#ifdef CLMPI_SCHED_ASAN
  void* fake_stack{nullptr};
  const void* ret_stack_bottom{nullptr};
  std::size_t ret_stack_size{0};
#endif
#ifdef CLMPI_SCHED_TSAN
  void* tsan_fiber{nullptr};
  void* tsan_ret{nullptr};
#endif
};

thread_local Fiber* t_current = nullptr;
thread_local ucontext_t t_worker_uc;
/// Handoff slot for the trampoline's argument: written by the worker right
/// before the FIRST switch into a fiber, read at trampoline entry on the
/// same OS thread before anything can intervene.
thread_local Fiber* t_trampoline_arg = nullptr;
#ifdef CLMPI_SCHED_ASAN
thread_local void* t_worker_fake = nullptr;
#endif

}  // namespace

struct Scheduler::Impl {
  Options opts;
  std::size_t stack_bytes{0};

  // Ready structure: one FIFO per job tag plus a round-robin rotation of
  // job tags that can run. A job holds the turn while one of its fibers (or
  // its idle task) runs, and no other fiber of that job is popped until the
  // turn is released. Invariant (under `mutex`): a tag appears in `rotation`
  // exactly once iff its deque is non-empty and its turn is free; a `jobs`
  // entry exists iff the job has a live fiber.
  struct Job {
    std::deque<Fiber*> ready;
    bool turn{false};
    int live{0};      ///< unfinished fibers
    int offloads{0};  ///< offload bodies in flight
    // The current run of quiet resumes (header comment): its length, and
    // whether a raw yield() was among them.
    int quiet{0};
    bool raw{false};
    void restart_round() noexcept {
      quiet = 0;
      raw = false;
    }
  };
  mutable std::mutex mutex;
  std::unordered_map<std::uint64_t, Job> jobs;
  std::deque<std::uint64_t> rotation;
  std::vector<std::unique_ptr<Fiber>> all;
  std::atomic<int> live{0};
  std::vector<std::thread> workers;
  bool started{false};
  bool stopping{false};  ///< join() called; guarded by `mutex`

  // `turn_cv` wakes an idle worker when a worker hands a job's turn on
  // before running an offloaded body, and every idle worker when join()
  // begins or the last fiber of a joining pool retires; `offload_done_cv`
  // wakes offloaders waiting for their body to finish (both under `mutex`).
  std::condition_variable turn_cv;
  std::condition_variable offload_done_cv;

  // Idle tasks, one per cluster run, keyed by token. They run under
  // `idle_mutex`, so remove_idle_task blocks while a pass is in flight and
  // a removed task can never run again after removal returns.
  struct IdleTask {
    const void* token;
    std::uint64_t job;
    std::function<bool(bool)> task;
  };
  std::mutex idle_mutex;
  std::vector<IdleTask> idle_tasks;

  std::unique_ptr<Fiber> make_fiber(std::function<void()> fn, std::string label,
                                    std::uint64_t job);
  void enqueue(std::vector<std::unique_ptr<Fiber>> fibers);
  // The three below require `mutex`; `j` is the job's entry in `jobs`.
  void push_ready(Fiber* f, Job& j);
  Fiber* pop_ready();  // takes the job's turn
  void release_turn(std::uint64_t job, Job& j);
  void offload(const std::function<void()>& fn);
  void worker_loop(int index);
  bool run_idle_tasks(std::uint64_t job, bool stuck);
  void resume(Fiber* f);
  void retire(Fiber* f);
};

void Scheduler::Impl::push_ready(Fiber* f, Job& j) {
  j.ready.push_back(f);
  if (!j.turn && j.ready.size() == 1) rotation.push_back(f->job);
}

Fiber* Scheduler::Impl::pop_ready() {
  if (rotation.empty()) return nullptr;
  const std::uint64_t id = rotation.front();
  rotation.pop_front();
  Job& j = jobs.find(id)->second;
  Fiber* f = j.ready.front();
  j.ready.pop_front();
  j.turn = true;
  return f;
}

void Scheduler::Impl::release_turn(std::uint64_t job, Job& j) {
  j.turn = false;
  if (j.live == 0) {
    jobs.erase(job);  // keep the map bounded across many short jobs
  } else if (!j.ready.empty()) {
    rotation.push_back(job);
  }
}

namespace {

[[noreturn]] void trampoline() {
  Fiber* f = t_trampoline_arg;
#ifdef CLMPI_SCHED_ASAN
  // First entry: complete the switch that brought us here and learn the
  // resuming worker's stack (where yields will return to).
  __sanitizer_finish_switch_fiber(nullptr, &f->ret_stack_bottom, &f->ret_stack_size);
#endif
  try {
    f->fn();
  } catch (...) {
    // Fiber bodies own their error handling (rank bodies report through the
    // cluster's first_error path, services poison their events/requests). An
    // exception escaping to here would kill a plain thread too — keep that
    // contract.
    CLMPI_WARN("unhandled exception escaped a scheduler fiber; terminating");
    std::terminate();
  }
  f->fn = nullptr;  // release captures before the stack goes away
  f->finished.store(true, std::memory_order_release);
#ifdef CLMPI_SCHED_TSAN
  __tsan_switch_to_fiber(f->tsan_ret, 0);
#endif
#ifdef CLMPI_SCHED_ASAN
  // nullptr fake-stack save: this fiber never runs again.
  __sanitizer_start_switch_fiber(nullptr, f->ret_stack_bottom, f->ret_stack_size);
#endif
  swapcontext(&f->uc, f->ret_uc);
  std::abort();  // unreachable: a finished fiber is never resumed
}

}  // namespace

bool on_fiber() noexcept { return t_current != nullptr; }

void offload(const std::function<void()>& fn) {
  if (Fiber* f = t_current) {
    f->owner->offload(fn);
  } else {
    fn();
  }
}

void yield() {
  Fiber* f = t_current;
  if (f == nullptr) {
    std::this_thread::yield();
    return;
  }
#ifdef CLMPI_SCHED_TSAN
  __tsan_switch_to_fiber(f->tsan_ret, 0);
#endif
#ifdef CLMPI_SCHED_ASAN
  __sanitizer_start_switch_fiber(&f->fake_stack, f->ret_stack_bottom, f->ret_stack_size);
#endif
  swapcontext(&f->uc, f->ret_uc);
  // Resumed — possibly on a different worker thread (rank migration).
#ifdef CLMPI_SCHED_ASAN
  __sanitizer_finish_switch_fiber(f->fake_stack, &f->ret_stack_bottom, &f->ret_stack_size);
#endif
}

std::unique_ptr<Fiber> Scheduler::Impl::make_fiber(std::function<void()> fn, std::string label,
                                                   std::uint64_t job) {
  auto f = std::make_unique<Fiber>();
  f->owner = this;
  f->fn = std::move(fn);
  f->job = job;
  f->ctx.log_label = std::move(label);

  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  f->stack_size = (stack_bytes + page - 1) / page * page;
  f->mapping_size = f->stack_size + page;  // + low guard page (stacks grow down)
  void* mem = mmap(nullptr, f->mapping_size, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  CLMPI_REQUIRE(mem != MAP_FAILED, "fiber stack allocation failed");
  f->mapping = static_cast<std::byte*>(mem);
  mprotect(f->mapping, page, PROT_NONE);
  f->stack_base = f->mapping + page;

  CLMPI_REQUIRE(getcontext(&f->uc) == 0, "getcontext failed");
  f->uc.uc_stack.ss_sp = f->stack_base;
  f->uc.uc_stack.ss_size = f->stack_size;
  f->uc.uc_link = nullptr;
  makecontext(&f->uc, &trampoline, 0);
#ifdef CLMPI_SCHED_TSAN
  f->tsan_fiber = __tsan_create_fiber(0);
  __tsan_set_fiber_name(f->tsan_fiber, f->ctx.log_label.c_str());
#endif
  return f;
}

void Scheduler::Impl::enqueue(std::vector<std::unique_ptr<Fiber>> fibers) {
  live.fetch_add(static_cast<int>(fibers.size()), std::memory_order_acq_rel);
  std::lock_guard lock(mutex);
  for (auto& f : fibers) {
    Job& j = jobs[f->job];
    ++j.live;
    j.restart_round();  // a round must include the newcomer
    push_ready(f.get(), j);
    all.push_back(std::move(f));
  }
}

void Scheduler::Impl::resume(Fiber* f) {
  f->ret_uc = &t_worker_uc;
  if (!f->started) {
    f->started = true;
    t_trampoline_arg = f;
  }
  t_current = f;
  ctx::set_current(&f->ctx);
#ifdef CLMPI_SCHED_TSAN
  f->tsan_ret = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(f->tsan_fiber, 0);
#endif
#ifdef CLMPI_SCHED_ASAN
  __sanitizer_start_switch_fiber(&t_worker_fake, f->stack_base, f->stack_size);
#endif
  swapcontext(&t_worker_uc, &f->uc);
#ifdef CLMPI_SCHED_ASAN
  __sanitizer_finish_switch_fiber(t_worker_fake, nullptr, nullptr);
#endif
  ctx::set_current(nullptr);
  t_current = nullptr;
}

void Scheduler::Impl::retire(Fiber* f) {
#ifdef CLMPI_SCHED_TSAN
  __tsan_destroy_fiber(f->tsan_fiber);
  f->tsan_fiber = nullptr;
#endif
  munmap(f->mapping, f->mapping_size);
  f->mapping = nullptr;
  f->stack_base = nullptr;
  f->ctx.clear_slots();
  {
    // Drop the Fiber record itself: a service pool hosts thousands of short
    // jobs over its life and must not accumulate their corpses.
    std::lock_guard lock(mutex);
    Job& j = jobs.find(f->job)->second;
    --j.live;
    j.restart_round();
    release_turn(f->job, j);
    std::erase_if(all, [f](const std::unique_ptr<Fiber>& p) { return p.get() == f; });
    if (live.fetch_sub(1, std::memory_order_acq_rel) != 1 || !stopping) return;
  }
  turn_cv.notify_all();  // join() began: the idle workers may exit now
}

void Scheduler::Impl::offload(const std::function<void()>& fn) {
  Offload job;
  job.fn = &fn;
  // Hand the body to this worker and the turn to the job's next fiber.
  t_current->offload = &job;
  yield();
  // Next turn: the body may still be running. Wait for it while KEEPING the
  // turn — yielding here instead would give the job's other fibers a
  // wall-clock-dependent number of extra turns.
  {
    ctx::BlockedScope blocked("sched.offload");
    std::unique_lock lock(mutex);
    offload_done_cv.wait(lock, [&] { return job.done; });
  }
  if (job.error) std::rethrow_exception(job.error);
}

bool Scheduler::Impl::run_idle_tasks(std::uint64_t job, bool stuck) {
  bool progressed = false;
  std::lock_guard ilock(idle_mutex);
  for (IdleTask& t : idle_tasks) {
    if (t.job == job && t.task(stuck)) progressed = true;
  }
  return progressed;
}

void Scheduler::Impl::worker_loop(int index) {
  log::set_thread_label("sched-worker" + std::to_string(index));
  for (;;) {
    Fiber* f = nullptr;
    {
      std::unique_lock lock(mutex);
      f = pop_ready();
      if (f == nullptr) {
        const bool idle = live.load(std::memory_order_acquire) == 0;
        if (idle && stopping) return;
        // Every runnable fiber belongs to a job whose turn is taken (or a
        // spawn is in flight): wait briefly for a turn to be handed on
        // rather than hammer the queue lock. With no fiber live, nap until
        // the next spawn or until join() wakes the pool to exit.
        turn_cv.wait_for(lock, std::chrono::microseconds(idle ? 200 : 50), [&] {
          return !rotation.empty() || (stopping && live.load(std::memory_order_acquire) == 0);
        });
        f = pop_ready();
      }
    }
    if (f == nullptr) continue;
    resume(f);
    if (f->finished.load(std::memory_order_acquire)) {
      retire(f);
      continue;
    }
    Offload* job = std::exchange(f->offload, nullptr);
    // Quiet: back from a raw yield(), or polling the wait it already polled
    // at its previous yield (the fiber is suspended: its context is ours to
    // read).
    const bool raw = f->ctx.blocked.load(std::memory_order_relaxed) == nullptr;
    const bool quiet = job == nullptr && (raw || f->ctx.blocked_seq == f->polled_seq);
    f->polled_seq = f->ctx.blocked_seq;
    bool idle_round = false;
    bool stuck = false;
    {
      // Push-back and turn release in one critical section: the job's next
      // fiber is popped strictly after this one is back in its FIFO, so the
      // job's resume sequence is the one-worker sequence at any worker count.
      std::lock_guard lock(mutex);
      Job& j = jobs.find(f->job)->second;
      push_ready(f, j);
      if (job != nullptr) ++j.offloads;
      if (quiet) {
        ++j.quiet;
        j.raw = j.raw || raw;
      } else {
        j.restart_round();
      }
      if (j.quiet >= j.live && j.offloads == 0) {
        // A full quiet round: keep the turn for the job's idle task.
        idle_round = true;
        stuck = !j.raw;
        j.restart_round();
      } else {
        release_turn(f->job, j);
      }
    }
    if (job != nullptr) {
      // The fiber offloaded a body: run it here, off the turn, while an
      // idle worker carries on with the job.
      turn_cv.notify_one();
      job->run();
      {
        std::lock_guard lock(mutex);
        job->done = true;
        --jobs.find(f->job)->second.offloads;
      }
      offload_done_cv.notify_all();
    }
    if (idle_round) {
      const bool progressed = run_idle_tasks(f->job, stuck);
      {
        std::lock_guard lock(mutex);
        release_turn(f->job, jobs.find(f->job)->second);
      }
      // Nothing inside the job can advance until something outside it acts
      // (a plain thread, a canceller); the watchdog guards the rest.
      if (!progressed) std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }
}

Scheduler::Scheduler(Options options) : impl_(std::make_unique<Impl>()) {
  impl_->opts = options;
  impl_->stack_bytes =
      std::max<std::size_t>(options.stack_bytes > 0 ? options.stack_bytes : default_stack_bytes(),
                            std::size_t{64} << 10);
}

Scheduler::~Scheduler() { join(); }

void Scheduler::spawn(std::function<void()> fn, std::string label, std::uint64_t job) {
  std::vector<std::unique_ptr<Fiber>> one;
  one.push_back(impl_->make_fiber(std::move(fn), std::move(label), job));
  impl_->enqueue(std::move(one));
}

void Scheduler::spawn(std::vector<Task> tasks, std::uint64_t job) {
  std::vector<std::unique_ptr<Fiber>> batch;
  batch.reserve(tasks.size());
  for (Task& t : tasks) batch.push_back(impl_->make_fiber(std::move(t.fn), std::move(t.label), job));
  impl_->enqueue(std::move(batch));
}

void Scheduler::add_idle_task(const void* token, std::uint64_t job,
                              std::function<bool(bool stuck)> task) {
  std::lock_guard lock(impl_->idle_mutex);
  impl_->idle_tasks.push_back({token, job, std::move(task)});
}

void Scheduler::remove_idle_task(const void* token) {
  std::lock_guard lock(impl_->idle_mutex);
  std::erase_if(impl_->idle_tasks,
                [token](const Impl::IdleTask& t) { return t.token == token; });
}

void Scheduler::start() {
  CLMPI_REQUIRE(!impl_->started, "scheduler started twice");
  impl_->started = true;
  int n = std::max(1, impl_->opts.workers > 0 ? impl_->opts.workers : default_workers());
  // A one-shot run's fibers are all queued: no point in more workers.
  const int queued = impl_->live.load(std::memory_order_relaxed);
  if (queued > 0) n = std::min(n, queued);
  impl_->workers.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    impl_->workers.emplace_back([this, i] { impl_->worker_loop(i); });
  }
}

void Scheduler::join() {
  {
    std::lock_guard lock(impl_->mutex);
    impl_->stopping = true;
  }
  impl_->turn_cv.notify_all();
  for (auto& w : impl_->workers) {
    if (w.joinable()) w.join();
  }
  impl_->workers.clear();
}

std::vector<Scheduler::FiberInfo> Scheduler::snapshot() const {
  std::vector<FiberInfo> out;
  std::lock_guard lock(impl_->mutex);
  for (const auto& f : impl_->all) {
    if (f->finished.load(std::memory_order_acquire)) continue;
    out.push_back({f->ctx.log_label, f->ctx.blocked.load(std::memory_order_relaxed), f->job});
  }
  return out;
}

std::size_t Scheduler::stack_bytes() const noexcept { return impl_->stack_bytes; }

ServiceHandle::~ServiceHandle() {
  if (joinable()) join();
}

bool ServiceHandle::joinable() const noexcept {
  return thread_.joinable() || fiber_done_ != nullptr;
}

void ServiceHandle::join() {
  if (thread_.joinable()) {
    thread_.join();
    return;
  }
  if (fiber_done_ != nullptr) {
    // Fiber-backed service: poll-yield until its wrapper flags completion.
    // Works from a fiber (cooperative) and from a plain thread (os yield).
    ctx::BlockedScope blocked("sched.service.join");
    while (!fiber_done_->load(std::memory_order_acquire)) yield();
    fiber_done_.reset();
  }
}

ServiceHandle spawn_service(std::string label, std::function<void()> fn) {
  ServiceHandle h;
  // Tenancy propagation: a runtime service works on behalf of the task that
  // started it, so it inherits the spawner's job (scheduler tag AND context
  // pointer — quota charges from inside the service bill the right tenant).
  tenant::JobControl* job_ctx = ctx::current().job;
  Fiber* cur = t_current;
  if (cur != nullptr) {
    auto done = std::make_shared<std::atomic<bool>>(false);
    h.fiber_done_ = done;
    std::vector<std::unique_ptr<Fiber>> one;
    one.push_back(cur->owner->make_fiber(
        [done, job_ctx, fn = std::move(fn)] {
          ctx::current().job = job_ctx;
          fn();
          done->store(true, std::memory_order_release);
        },
        std::move(label), cur->job));
    cur->owner->enqueue(std::move(one));
    return h;
  }
  h.thread_ = std::thread([label = std::move(label), job_ctx, fn = std::move(fn)] {
    log::set_thread_label(label);
    ctx::current().job = job_ctx;
    fn();
  });
  return h;
}

}  // namespace clmpi::sched
