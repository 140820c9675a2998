// Execution context: per-task state that used to hide in thread_locals.
//
// With the cooperative scheduler (support/sched.hpp), a rank is a fiber that
// may migrate between worker threads, so "per-thread" state silently keyed on
// thread identity (the capi binding, the strategy-selection memo, the staging
// pool's node cache, the log label) would leak across ranks sharing a worker.
// ExecContext is the replacement: one instance per logical task — a fiber
// when the scheduler runs it, the thread itself otherwise — carrying
//
//   * the log label (support/log.cpp tags every line with it),
//   * the published blocked-site (what blocking primitive the task is parked
//     in right now, for the cluster watchdog's deadlock diagnostics),
//   * typed lazily-allocated slots for higher layers (ctx::slot<T>()), so
//     this lowest-layer header never learns their types.
//
// ctx::current() always returns a context: the scheduler installs the running
// fiber's around each resume, and a plain thread falls back to a thread_local
// instance — so call sites need no check, and plain threads (the progress
// driver, queue workers created outside a cluster) keep plain thread_local
// behaviour.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

namespace clmpi::tenant {
class JobControl;  // support/tenant.hpp
}

namespace clmpi::ctx {

namespace detail {
/// Process-wide slot id for T; assigned on first use, stable afterwards.
std::size_t next_slot_id() noexcept;
template <typename T>
std::size_t slot_id() noexcept {
  static const std::size_t id = next_slot_id();
  return id;
}
}  // namespace detail

class ExecContext {
 public:
  /// Label for log lines emitted by this task ("rank12", "clmpi-comm0", ...).
  std::string log_label{"-"};

  /// The blocking site this task is currently parked in (a string literal;
  /// nullptr while running). Written by ctx::BlockedScope, read by the
  /// watchdog via the scheduler's fiber snapshot.
  std::atomic<const char*> blocked{nullptr};
  /// Optional mirror slot owned by the cluster (one per rank, outliving the
  /// context), so the watchdog can dump per-RANK sites in both scheduler
  /// modes without touching a possibly-dead rank's context.
  std::atomic<const char*>* blocked_mirror{nullptr};

  /// The service job this task runs under; null for standalone runs. Set by
  /// the cluster launcher on rank tasks and propagated by spawn_service to
  /// the runtime services a rank starts. Allocation layers below the cluster
  /// (the staging pool) read it to charge quotas to the right tenant.
  tenant::JobControl* job{nullptr};

  /// This task's instance of T (default-constructed on first access). Only
  /// the owning task may touch its slots; no synchronization is performed.
  template <typename T>
  T& slot() {
    const std::size_t id = detail::slot_id<T>();
    if (id >= slots_.size()) slots_.resize(id + 1);
    if (!slots_[id]) slots_[id] = std::make_shared<T>();
    return *static_cast<T*>(slots_[id].get());
  }

  /// Drop every slot (scheduler retires a finished fiber's state early).
  void clear_slots() noexcept { slots_.clear(); }

 private:
  std::vector<std::shared_ptr<void>> slots_;
};

/// The calling task's context: the scheduler-installed fiber context when a
/// fiber is running, a per-thread fallback otherwise. Never null.
ExecContext& current() noexcept;

/// Install (or with nullptr, remove) a fiber's context on this thread.
/// Scheduler-internal; everyone else just calls current().
void set_current(ExecContext* c) noexcept;

/// RAII publication of a blocking site ("mpi.request.wait", ...). `site`
/// must be a string literal (or otherwise immortal). Publishes to both the
/// context's own slot and the cluster-owned mirror, if installed.
class BlockedScope {
 public:
  explicit BlockedScope(const char* site) noexcept : ctx_(&current()) {
    ctx_->blocked.store(site, std::memory_order_relaxed);
    if (ctx_->blocked_mirror != nullptr) {
      ctx_->blocked_mirror->store(site, std::memory_order_relaxed);
    }
  }
  ~BlockedScope() {
    ctx_->blocked.store(nullptr, std::memory_order_relaxed);
    if (ctx_->blocked_mirror != nullptr) {
      ctx_->blocked_mirror->store(nullptr, std::memory_order_relaxed);
    }
  }
  BlockedScope(const BlockedScope&) = delete;
  BlockedScope& operator=(const BlockedScope&) = delete;

 private:
  ExecContext* ctx_;
};

}  // namespace clmpi::ctx
