#include "simmpi/request.hpp"

#include <chrono>
#include <cstdlib>
#include <mutex>
#include <new>
#include <vector>

#include "obs/metrics.hpp"
#include "simmpi/progress.hpp"
#include "support/context.hpp"
#include "support/error.hpp"
#include "support/sched.hpp"

namespace clmpi::mpi {

namespace detail {
namespace {

/// Fixed-size block pool behind make_request_state. Leaked singleton (the
/// usual static-destruction guard: completion callbacks may retire a state
/// arbitrarily late), mutex-guarded free list of raw blocks. allocate_shared
/// folds the control block and the RequestState into ONE block, so each
/// request costs a free-list pop/push instead of a malloc/free pair.
template <std::size_t Size>
class BlockPool {
 public:
  static BlockPool& instance() {
    static auto* pool = new BlockPool();
    return *pool;
  }

  void* get() {
    {
      std::lock_guard lock(mutex_);
      if (!blocks_.empty()) {
        void* b = blocks_.back();
        blocks_.pop_back();
        return b;
      }
    }
    return ::operator new(Size);
  }

  void put(void* b) {
    {
      std::lock_guard lock(mutex_);
      if (blocks_.size() < kMaxRetained) {
        blocks_.push_back(b);
        return;
      }
    }
    ::operator delete(b);
  }

 private:
  /// Retention cap: bounds pool memory at the workload's high-water mark of
  /// live requests (a few thousand in the densest bench scenario).
  static constexpr std::size_t kMaxRetained = 8192;

  std::mutex mutex_;
  std::vector<void*> blocks_;
};

/// Minimal allocator adapter routing single-object allocations of the
/// rebound control-block type through the matching BlockPool.
template <typename T>
struct PoolAllocator {
  using value_type = T;
  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}  // NOLINT(google-explicit-constructor)

  T* allocate(std::size_t n) {
    if (n != 1) return static_cast<T*>(::operator new(n * sizeof(T)));
    return static_cast<T*>(BlockPool<sizeof(T)>::instance().get());
  }

  void deallocate(T* p, std::size_t n) {
    if (n != 1) {
      ::operator delete(p);
      return;
    }
    BlockPool<sizeof(T)>::instance().put(p);
  }

  template <typename U>
  bool operator==(const PoolAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace

std::shared_ptr<RequestState> make_request_state() {
  return std::allocate_shared<RequestState>(PoolAllocator<RequestState>{});
}

}  // namespace detail

bool Request::done() const { return state_ != nullptr && state_->done(); }

bool Request::test(vt::Clock& clock) {
  if (!state_) return true;
  if (!state_->done()) return false;
  clock.sync_to(state_->completion_time());
  return true;
}

void Request::wait(vt::Clock& clock) {
  if (!state_) return;
  try {
    clock.sync_to(state_->block_until_done());
  } catch (...) {
    // A failed operation still resolved at a definite virtual time: move the
    // waiter's clock there before rethrowing so nothing the waiter does next
    // can be scheduled before the failure it just observed.
    clock.sync_to(state_->completion_time());
    throw;
  }
}

vt::TimePoint Request::wait() {
  if (!state_) return {};
  return state_->block_until_done();
}

MsgStatus Request::status() const {
  CLMPI_REQUIRE(state_ != nullptr, "status() on a null request");
  return state_->status();
}

vt::TimePoint Request::completion_time() const {
  CLMPI_REQUIRE(state_ != nullptr, "completion_time() on a null request");
  return state_->completion_time();
}

std::exception_ptr Request::error() const {
  return state_ != nullptr ? state_->error() : nullptr;
}

void Request::on_complete(std::function<void(vt::TimePoint, const MsgStatus&)> fn) {
  CLMPI_REQUIRE(state_ != nullptr, "on_complete() on a null request");
  state_->on_complete(std::move(fn));
}

void Request::on_settle(std::function<void(vt::TimePoint, const MsgStatus&,
                                           const std::exception_ptr&)> fn) {
  CLMPI_REQUIRE(state_ != nullptr, "on_settle() on a null request");
  state_->on_settle(std::move(fn));
}

void wait_all(std::initializer_list<Request*> requests, vt::Clock& clock) {
  for (Request* r : requests) r->wait(clock);
}

void wait_all(std::span<Request> requests, vt::Clock& clock) {
  for (Request& r : requests) r.wait(clock);
}

std::size_t wait_any(std::span<Request> requests, vt::Clock& clock) {
  CLMPI_REQUIRE(!requests.empty(), "wait_any over zero requests");
  // Any of the waited requests may depend on traffic still queued in a
  // coalescer (ours, or a peer's that our queued sends would unblock):
  // flush the hinted coalescers before polling.
  for (Request& r : requests) {
    CLMPI_REQUIRE(r.valid(), "wait_any over a null request");
    r.state()->flush_hinted();
  }
  {
    // Poll the lock-free done flags per resume: no completion callback to
    // register per request, no wakeup to deliver.
    ctx::BlockedScope blocked("mpi.wait_any");
    const auto any_done = [&] {
      for (const Request& r : requests) {
        if (r.done()) return true;
      }
      return false;
    };
    while (!any_done()) sched::yield();
  }
  // At least one request has completed. Pick the earliest *virtual*
  // completion among the requests that are done (lowest index on ties), not
  // the first one the poll happened to see: whether the waiter arrives
  // before or after later completions must not change the returned index.
  std::size_t winner = SIZE_MAX;
  vt::TimePoint best{};
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (!requests[i].done()) continue;
    const vt::TimePoint t = requests[i].completion_time();
    if (winner == SIZE_MAX || t < best) {
      winner = i;
      best = t;
    }
  }
  requests[winner].wait(clock);
  return winner;
}

bool test_all(std::span<Request> requests, vt::Clock& clock) {
  for (const Request& r : requests) {
    if (r.valid() && !r.done()) return false;
  }
  for (Request& r : requests) r.wait(clock);
  return true;
}

namespace detail {

/// Read per call: the value only matters on the progress driver's rescue
/// pass, and tests override it via the env.
std::chrono::milliseconds deadline_grace() {
  if (const char* env = std::getenv("CLMPI_DEADLINE_GRACE_MS");
      env != nullptr && *env != '\0') {
    const long ms = std::strtol(env, nullptr, 10);
    if (ms > 0) return std::chrono::milliseconds(ms);
  }
  return std::chrono::milliseconds(2000);
}

std::exception_ptr RequestState::make_timeout_error() const {
  return std::make_exception_ptr(TimeoutError(
      "operation deadline of " + std::to_string(deadline_.s) +
      " s (virtual) exceeded"));
}

bool RequestState::resolve(vt::TimePoint when, MsgStatus st, std::exception_ptr error,
                           Rescue rescue) {
  std::vector<std::function<void(vt::TimePoint, const MsgStatus&,
                                 const std::exception_ptr&)>>
      to_run;
  {
    std::lock_guard lock(mutex_);
    if (done_) {
      // A real resolution can race a rescue; the rescue won, and the
      // operation's outcome was already fixed. A rescue that lost the race
      // is a no-op.
      CLMPI_REQUIRE(rescue != Rescue::none || timed_out_, "request completed twice");
      return false;
    }
    if (rescue == Rescue::deadline && !deadline_armed_) return false;
    if (rescue != Rescue::none) {
      // The operation never resolved: fail it at its VIRTUAL deadline (at
      // virtual time zero for a cancel without one; sync_to is monotone, so
      // waiters' clocks never move backwards), so the timeline stays
      // schedule-independent.
      when = deadline_armed_ ? deadline_ : vt::TimePoint{};
      st = MsgStatus{};
      if (rescue == Rescue::deadline) error = make_timeout_error();
      timed_out_ = true;
    } else if (deadline_armed_ && when > deadline_) {
      // Deterministic clamp: the operation resolved past its deadline, so
      // the observable outcome is a timeout AT the deadline — the same
      // outcome the rescue path produces, whichever fires first.
      when = deadline_;
      st = MsgStatus{};
      error = make_timeout_error();
      timed_out_ = true;
    }
    done_ = true;
    completion_ = when;
    status_ = st;
    error_ = error;
    to_run.swap(callbacks_);
    // Release-publish AFTER the completion fields: a lock-free done() reader
    // may then read them without the mutex.
    done_flag_.store(true, std::memory_order_release);
  }
  sched::note_progress();
  for (auto& fn : to_run) fn(when, st, error);
  return true;
}

void RequestState::complete(vt::TimePoint when, const MsgStatus& st) {
  resolve(when, st, nullptr, Rescue::none);
}

void RequestState::fail(vt::TimePoint when, std::exception_ptr error) {
  resolve(when, MsgStatus{}, std::move(error), Rescue::none);
}

void RequestState::arm_deadline(vt::TimePoint deadline) {
  std::lock_guard lock(mutex_);
  CLMPI_REQUIRE(!done_, "arm_deadline on a completed request");
  deadline_armed_ = true;
  deadline_ = deadline;
  armed_at_ = std::chrono::steady_clock::now();
}

bool RequestState::rescue_if_stale(std::chrono::steady_clock::time_point now,
                                   std::chrono::milliseconds grace) {
  {
    std::lock_guard lock(mutex_);
    if (!deadline_armed_ || done_ || now - armed_at_ < grace) return false;
  }
  return resolve({}, MsgStatus{}, nullptr, Rescue::deadline);
}

bool RequestState::cancel_now(std::exception_ptr error) {
  return resolve({}, MsgStatus{}, std::move(error), Rescue::cancel);
}

std::exception_ptr RequestState::error() const {
  std::lock_guard lock(mutex_);
  return error_;
}

void RequestState::flush_hinted() {
  if (flush_co_ != nullptr) flush_co_->flush_all(FlushTrigger::wait);
}

vt::TimePoint RequestState::block_until_done() {
  if (!done()) {
    // The waiter may be blocked on exactly the traffic queued in its own
    // node's coalescer (directly, or because a peer needs it before it can
    // answer): put that on the wire before doing anything else.
    flush_hinted();
    if (obs::metrics_enabled()) progress_metrics().blocking_waits.add();
    // Poll-yield: stay in the scheduler's ready queue and re-poll the done
    // flag per resume — the worker thread is never parked, so peer ranks
    // (and the service fibers completing this request) keep running. A
    // deadline-armed request needs no timer here: the progress driver's
    // tick rescues it once the grace has passed since arming.
    ctx::BlockedScope blocked("mpi.request.wait");
    while (!done()) sched::yield();
  }
  // done() held at least once: the completion fields are frozen, so they
  // are safe to read without the mutex.
  if (error_) std::rethrow_exception(error_);
  return completion_;
}

MsgStatus RequestState::status() const {
  std::lock_guard lock(mutex_);
  CLMPI_REQUIRE(done_, "status of an incomplete request");
  return status_;
}

vt::TimePoint RequestState::completion_time() const {
  std::lock_guard lock(mutex_);
  CLMPI_REQUIRE(done_, "completion_time of an incomplete request");
  return completion_;
}

void RequestState::on_complete(std::function<void(vt::TimePoint, const MsgStatus&)> fn) {
  on_settle([fn = std::move(fn)](vt::TimePoint when, const MsgStatus& st,
                                 const std::exception_ptr&) { fn(when, st); });
}

void RequestState::on_settle(std::function<void(vt::TimePoint, const MsgStatus&,
                                                const std::exception_ptr&)> fn) {
  bool run_now = false;
  vt::TimePoint when;
  MsgStatus st;
  std::exception_ptr err;
  {
    std::lock_guard lock(mutex_);
    if (done_) {
      run_now = true;
      when = completion_;
      st = status_;
      err = error_;
    } else {
      callbacks_.push_back(std::move(fn));
      if (obs::metrics_enabled()) progress_metrics().continuations.add();
    }
  }
  if (run_now) fn(when, st, err);
}

}  // namespace detail
}  // namespace clmpi::mpi
