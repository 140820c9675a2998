// Progress engine (internal): configuration, counters, and the send-side
// small-message coalescer.
//
// Every cluster runs the engine. It has three wall-clock-only jobs — none of
// them may move a single virtual timestamp (the neutrality suites compare
// coalesced against direct posting and assert bit-identical
// hashes/makespans/fault counters):
//
//   * Continuations (request.hpp): completion callbacks chain async stages
//     without a thread parked in wait(); the blocking waits are thin shims.
//   * Backstop (cluster.cpp): the scheduler's idle task flushes coalescers
//     and drains mailbox completion queues at quiescence, and a shared
//     driver thread fires deadline rescues and job cancellation on a fixed
//     real-time tick, so no rank has to block to make a peer's operation
//     complete.
//   * Coalescing (this file): bursts of sub-eager sends to the same
//     (destination mailbox, context) are queued and posted as ONE batched
//     mailbox transaction. Every queued envelope keeps its own post_time and
//     is charged on the wire exactly as a direct post would have been, so
//     the virtual timeline is unchanged; only lock traffic is amortized.
//
// Coalescing flush rules (deterministic, documented in docs/PROGRESS.md):
//   count    — the batch reached coalesce_max_count messages;
//   bytes    — the batch reached coalesce_max_bytes of payload;
//   horizon  — a newly offered message's post_time is more than
//              coalesce_horizon of VIRTUAL time past the batch's oldest
//              message (the old batch flushes first, then the new message
//              starts a fresh batch);
//   wait     — a rank is about to block on a request from this source
//              node (RequestState::flush hint), so everything queued here
//              must be on the wire first;
//   direct   — a non-coalescable send to the same (mailbox, context) is
//              about to be posted directly; the queued batch flushes first
//              so the mailbox sees arrivals in program order (wildcard
//              receives match on global arrival stamps);
//   tick     — the backstop (scheduler idle task, teardown), which bounds
//              how long a batch can sit queued when nothing ever blocks.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <deque>
#include <mutex>
#include <vector>

#include "obs/metrics.hpp"
#include "simmpi/mailbox.hpp"
#include "vt/time.hpp"

namespace clmpi::mpi::detail {

/// Engine knobs. Tests mutate the singleton BETWEEN cluster runs only (rank
/// threads read it without synchronization).
struct ProgressConfig {
  /// Only messages at or below this payload size are coalescable; 0 posts
  /// every send directly (zero-byte messages included).
  std::size_t coalesce_max_msg{4096};
  /// Flush triggers: batch message count and total payload bytes.
  std::size_t coalesce_max_count{32};
  std::size_t coalesce_max_bytes{32 * 1024};
  /// Flush trigger: VIRTUAL time between a batch's oldest queued post_time
  /// and a newly offered message's post_time.
  vt::Duration coalesce_horizon{vt::microseconds(100.0)};
  /// Real-time cadence of the progress driver thread.
  std::chrono::milliseconds driver_tick{1};

  /// Whether a payload of `bytes` is small enough to coalesce.
  [[nodiscard]] bool coalescable_size(std::size_t bytes) const noexcept {
    return coalesce_max_msg > 0 && bytes <= coalesce_max_msg;
  }
};

/// Mutable process-wide config singleton.
ProgressConfig& progress_config();

/// progress.* counter handles, resolved once and leaked (same pattern as the
/// mailbox metrics: completion callbacks may run during static destruction).
struct ProgressMetrics {
  obs::Counter& continuations =
      obs::Registry::instance().counter("progress.continuations");
  obs::Counter& blocking_waits =
      obs::Registry::instance().counter("progress.blocking_waits");
  obs::Counter& rescued_waits =
      obs::Registry::instance().counter("progress.rescued_waits");
  obs::Counter& coalesce_enqueued =
      obs::Registry::instance().counter("progress.coalesce.enqueued");
  obs::Counter& coalesce_flushes =
      obs::Registry::instance().counter("progress.coalesce.flushes");
  obs::Counter& flush_count =
      obs::Registry::instance().counter("progress.coalesce.flush.count");
  obs::Counter& flush_bytes =
      obs::Registry::instance().counter("progress.coalesce.flush.bytes");
  obs::Counter& flush_horizon =
      obs::Registry::instance().counter("progress.coalesce.flush.horizon");
  obs::Counter& flush_wait =
      obs::Registry::instance().counter("progress.coalesce.flush.wait");
  obs::Counter& flush_direct =
      obs::Registry::instance().counter("progress.coalesce.flush.direct");
  obs::Counter& flush_tick =
      obs::Registry::instance().counter("progress.coalesce.flush.tick");
  obs::Counter& driver_ticks =
      obs::Registry::instance().counter("progress.driver.ticks");
  obs::Counter& persistent_inits =
      obs::Registry::instance().counter("progress.persistent.inits");
  obs::Counter& persistent_starts =
      obs::Registry::instance().counter("progress.persistent.starts");
};

ProgressMetrics& progress_metrics();

/// Why a batch left the coalescer (counted per flush under its own name).
enum class FlushTrigger { count, bytes, horizon, wait, direct, tick };

/// Send-side small-message coalescer, one per SOURCE node. Batches are keyed
/// by (destination mailbox, context); per-key FIFO is preserved because the
/// recursive mutex is held from dequeue through the batched post (completion
/// callbacks running under the flush may legally re-enter offer()).
class SendCoalescer {
 public:
  /// Queue `env` for a batched post to `box`. The caller has already decided
  /// the message is coalescable (eager, small, default opts).
  /// May flush synchronously when a threshold trips.
  void offer(Mailbox& box, Envelope env);

  /// Flush the batch destined for (box, context), if any. Called before a
  /// direct (non-coalescable) post to the same key so mailbox arrival order
  /// matches program order.
  void flush_key(const Mailbox& box, int context);

  /// Flush every queued batch (blocking-wait hook, driver tick, teardown).
  void flush_all(FlushTrigger trigger);

  /// Lock-free emptiness probe for the hot no-op paths.
  [[nodiscard]] bool has_pending() const noexcept {
    return pending_.load(std::memory_order_acquire) > 0;
  }

 private:
  struct Batch {
    Mailbox* box{nullptr};
    int context{0};
    std::vector<Envelope> envs;
    std::size_t payload_bytes{0};
    vt::TimePoint oldest{};
  };

  /// Post one batch (mutex_ held by the caller throughout).
  void post(Batch& b, FlushTrigger trigger);

  mutable std::recursive_mutex mutex_;
  /// Few live keys: linear scan. A deque, not a vector — completion
  /// callbacks running under a flush may re-enter offer() and append a new
  /// key, which must not invalidate the flushing frame's Batch reference.
  std::deque<Batch> batches_;
  /// Recycled envelope storage (guarded by mutex_): post() swaps a drained
  /// batch's vector back in here so steady-state flushes never reallocate.
  std::vector<Envelope> spare_;
  std::atomic<std::size_t> pending_{0};
};

}  // namespace clmpi::mpi::detail
