// Non-blocking operation handles, the analogue of MPI_Request.
//
// A Request is a shared handle to the completion state of one Isend/Irecv.
// Completion carries a *virtual* timestamp; waiting synchronizes the waiting
// thread's virtual clock forward to it. Completion callbacks are the hook
// clMPI uses to implement clCreateEventFromMPIRequest without polling.
#pragma once

#include <atomic>
#include <chrono>
#include <exception>
#include <cstddef>
#include <functional>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "vt/clock.hpp"
#include "vt/time.hpp"

namespace clmpi::mpi {

/// Matched-message metadata, the analogue of MPI_Status.
struct MsgStatus {
  int source{-1};
  int tag{-1};
  std::size_t bytes{0};
};

namespace detail {
class RequestState;
class SendCoalescer;
}  // namespace detail

class Request {
 public:
  /// A default-constructed Request is null; waiting on it is a no-op.
  Request() = default;

  explicit Request(std::shared_ptr<detail::RequestState> state) : state_(std::move(state)) {}

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }

  /// Non-blocking completion peek (no clock synchronization).
  [[nodiscard]] bool done() const;

  /// MPI_Test: if complete, synchronize `clock` to the completion time and
  /// return true; otherwise return false without blocking.
  bool test(vt::Clock& clock);

  /// MPI_Wait: block (in real time) until complete, then synchronize `clock`.
  void wait(vt::Clock& clock);

  /// Wait without a clock; returns the virtual completion time. Used by
  /// runtime threads that do not own a timeline of their own.
  vt::TimePoint wait();

  /// Valid only after completion.
  [[nodiscard]] MsgStatus status() const;
  [[nodiscard]] vt::TimePoint completion_time() const;

  /// The operation's failure, if any (nullptr while pending or on success).
  /// Lets completion callbacks observe faults without rethrowing.
  [[nodiscard]] std::exception_ptr error() const;

  /// Invoke `fn(completion_time, status)` when the request completes (or
  /// immediately if it already has). Callbacks run on the completing thread.
  void on_complete(std::function<void(vt::TimePoint, const MsgStatus&)> fn);

  /// Full-information continuation: `fn(when, status, error)` fires exactly
  /// once when the request settles — successfully (error == nullptr) or not.
  /// This is the progress engine's chaining primitive; every blocking wait
  /// is a thin shim over it. Callbacks run on the settling thread and must
  /// not block on other ranks' progress.
  void on_settle(std::function<void(vt::TimePoint, const MsgStatus&,
                                    const std::exception_ptr&)> fn);

  /// Internal: runtime-side access to the shared state.
  [[nodiscard]] const std::shared_ptr<detail::RequestState>& state() const noexcept {
    return state_;
  }

 private:
  std::shared_ptr<detail::RequestState> state_;
};

/// MPI_Waitall over an arbitrary set of requests.
void wait_all(std::initializer_list<Request*> requests, vt::Clock& clock);
void wait_all(std::span<Request> requests, vt::Clock& clock);

/// MPI_Waitany: block until at least one request completes; synchronize
/// `clock` to that completion and return its index.
std::size_t wait_any(std::span<Request> requests, vt::Clock& clock);

/// MPI_Testall: true (and clock synchronized to the latest completion) iff
/// every request is complete; false without blocking otherwise.
bool test_all(std::span<Request> requests, vt::Clock& clock);

namespace detail {

/// Real-time grace allowed to a deadline-armed operation before the progress
/// driver concludes it will never resolve. CLMPI_DEADLINE_GRACE_MS overrides
/// the 2000 ms default.
std::chrono::milliseconds deadline_grace();

class RequestState;

/// Allocate a fresh RequestState from the process-wide block pool. Every
/// nonblocking operation creates (and soon retires) one of these, so the
/// control-block-sized allocations are recycled through a free list instead
/// of round-tripping the general-purpose allocator on the hot path.
std::shared_ptr<RequestState> make_request_state();

/// Shared completion state; created pending, completed exactly once.
class RequestState {
 public:
  void complete(vt::TimePoint when, const MsgStatus& st);

  /// Complete carrying a failure: waiters rethrow `error` (used by
  /// non-blocking collective progression when the algorithm throws).
  void fail(vt::TimePoint when, std::exception_ptr error);

  /// Arm a per-operation deadline on the virtual timeline. Two effects:
  ///  * deterministic clamp — a completion (or failure) resolving at a
  ///    virtual time strictly after `deadline` becomes a TimeoutError AT
  ///    the deadline, independent of thread scheduling;
  ///  * liveness rescue — an operation that never resolves (e.g. a receive
  ///    no one will ever match) fails with the same TimeoutError at
  ///    `deadline` once a real-time grace period (CLMPI_DEADLINE_GRACE_MS,
  ///    default 2000) has passed since arming, instead of hanging until the
  ///    watchdog kills the process. The cluster's progress driver performs
  ///    the rescue (rescue_if_stale), whether or not a thread waits.
  /// Must be armed before the operation can complete (i.e. before posting).
  void arm_deadline(vt::TimePoint deadline);

  /// Liveness rescue: fail a still-pending deadline-armed operation with a
  /// TimeoutError AT its virtual deadline once `now - armed_at >= grace`.
  /// Returns false (no-op) if the operation is not armed, already resolved
  /// or not yet stale.
  bool rescue_if_stale(std::chrono::steady_clock::time_point now,
                       std::chrono::milliseconds grace);

  /// Job-cancellation rescue: fail a still-pending operation with `error`
  /// (a CancelledError) now, fixing its outcome — a real resolution racing
  /// the cancel is ignored, exactly like the deadline rescue. Returns false
  /// (no-op) when the operation already resolved. The failure is stamped at
  /// the virtual deadline when one is armed, else at virtual time zero
  /// (sync_to is monotone, so waiters' clocks never move backwards);
  /// cancelled jobs make no determinism claims about their timeline.
  bool cancel_now(std::exception_ptr error);

  /// Lock-free completion peek: acquire-load of the done flag. The settle
  /// path publishes completion_/status_/error_ before the release-store, so
  /// a true return licenses lock-free reads of those fields (they are never
  /// written again).
  [[nodiscard]] bool done() const noexcept {
    return done_flag_.load(std::memory_order_acquire);
  }
  /// Blocks until complete; rethrows the operation's exception on failure.
  /// Flushes the coalescer named by the flush hint, then poll-yields
  /// (sched::yield) until the done flag is up; counts
  /// progress.blocking_waits on entry when the request is still pending.
  vt::TimePoint block_until_done();
  /// The carried failure, if any (nullptr while pending or on success).
  [[nodiscard]] std::exception_ptr error() const;
  [[nodiscard]] MsgStatus status() const;
  [[nodiscard]] vt::TimePoint completion_time() const;
  void on_complete(std::function<void(vt::TimePoint, const MsgStatus&)> fn);
  void on_settle(std::function<void(vt::TimePoint, const MsgStatus&,
                                    const std::exception_ptr&)> fn);

  /// Name the coalescer a blocking wait on this request must flush first —
  /// the waiter may be waiting on exactly the traffic sitting in that queue.
  /// POD pointer, set strictly BEFORE the request is posted (it is read
  /// without synchronization on the wait path).
  void set_flush_hint(SendCoalescer* co) noexcept { flush_co_ = co; }
  /// Flush the hinted coalescer, if any (wait_any's pre-block pass).
  void flush_hinted();

 private:
  /// Who resolves the request: the operation itself, or a rescue that fixes
  /// its outcome (a real resolution racing the rescue is then ignored).
  enum class Rescue { none, deadline, cancel };

  /// Single completion path shared by complete/fail and both rescues.
  /// Returns false (no-op) when a rescue finds the request already resolved
  /// (or, for the deadline rescue, not armed) and when a real resolution
  /// finds the outcome already fixed by a rescue.
  bool resolve(vt::TimePoint when, MsgStatus st, std::exception_ptr error, Rescue rescue);

  [[nodiscard]] std::exception_ptr make_timeout_error() const;

  mutable std::mutex mutex_;
  bool done_{false};
  /// Lock-free mirror of done_, release-published after the completion
  /// fields are written.
  std::atomic<bool> done_flag_{false};
  SendCoalescer* flush_co_{nullptr};
  bool deadline_armed_{false};
  /// True when a deadline timeout or a cancel fixed the outcome; a late real
  /// completion racing it is then ignored.
  bool timed_out_{false};
  vt::TimePoint deadline_{};
  /// Real time at which the deadline was armed; the rescue's staleness clock.
  std::chrono::steady_clock::time_point armed_at_{};
  vt::TimePoint completion_{};
  MsgStatus status_{};
  std::exception_ptr error_;
  std::vector<std::function<void(vt::TimePoint, const MsgStatus&,
                                 const std::exception_ptr&)>>
      callbacks_;
};

}  // namespace detail
}  // namespace clmpi::mpi
