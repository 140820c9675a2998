#include "ocl/event.hpp"

#include "support/error.hpp"
#include "support/sched.hpp"

namespace clmpi::ocl {

Event::Event(std::string label) : label_(std::move(label)) {}

Event::State Event::state() const {
  std::lock_guard lock(mutex_);
  return state_;
}

bool Event::complete() const { return state() == State::complete; }

vt::TimePoint Event::completion_time() const {
  std::lock_guard lock(mutex_);
  CLMPI_REQUIRE(state_ == State::complete, "completion_time of an incomplete event");
  return profiling_.ended;
}

Event::Profiling Event::profiling() const {
  std::lock_guard lock(mutex_);
  return profiling_;
}

bool Event::failed() const {
  std::lock_guard lock(mutex_);
  return error_ != nullptr;
}

std::exception_ptr Event::error() const {
  std::lock_guard lock(mutex_);
  return error_;
}

vt::TimePoint Event::wait() {
  std::unique_lock lock(mutex_);
  sched::wait(lock, cv_, [&] { return state_ == State::complete; }, "ocl.event.wait");
  if (error_) std::rethrow_exception(error_);
  return profiling_.ended;
}

void Event::wait(vt::Clock& clock) {
  try {
    clock.sync_to(wait());
  } catch (...) {
    // Failed events carry the virtual time of the failure; the waiter's
    // timeline advances to it even though the wait rethrows.
    clock.sync_to(completion_time());
    throw;
  }
}

void Event::on_complete(std::function<void(vt::TimePoint)> fn) {
  bool run_now = false;
  vt::TimePoint when;
  {
    std::lock_guard lock(mutex_);
    if (state_ == State::complete) {
      run_now = true;
      when = profiling_.ended;
    } else {
      callbacks_.push_back(std::move(fn));
    }
  }
  if (run_now) fn(when);
}

void Event::mark_queued(vt::TimePoint when) {
  std::lock_guard lock(mutex_);
  profiling_.queued = when;
}

void Event::mark_submitted(vt::TimePoint when) {
  std::lock_guard lock(mutex_);
  state_ = State::submitted;
  profiling_.submitted = when;
}

void Event::mark_running(vt::TimePoint when) {
  std::lock_guard lock(mutex_);
  state_ = State::running;
  profiling_.started = when;
}

void Event::mark_complete(vt::TimePoint when) {
  std::vector<std::function<void(vt::TimePoint)>> to_run;
  {
    std::lock_guard lock(mutex_);
    CLMPI_REQUIRE(state_ != State::complete, "event completed twice");
    state_ = State::complete;
    profiling_.ended = when;
    to_run.swap(callbacks_);
  }
  cv_.notify_all();
  for (auto& fn : to_run) fn(when);
}

void Event::mark_failed(vt::TimePoint when, std::exception_ptr error) {
  {
    std::lock_guard lock(mutex_);
    error_ = std::move(error);
  }
  // mark_complete wakes waiters and fires callbacks; wait() rethrows.
  mark_complete(when);
}

vt::TimePoint Event::wait_all(std::span<const EventPtr> events) {
  vt::TimePoint latest{};
  for (const EventPtr& ev : events) {
    if (ev) latest = vt::max(latest, ev->wait());
  }
  return latest;
}

}  // namespace clmpi::ocl
