#include "simmpi/progress.hpp"

#include <utility>

namespace clmpi::mpi::detail {

namespace {

obs::Counter& trigger_counter(ProgressMetrics& m, FlushTrigger t) {
  switch (t) {
    case FlushTrigger::count: return m.flush_count;
    case FlushTrigger::bytes: return m.flush_bytes;
    case FlushTrigger::horizon: return m.flush_horizon;
    case FlushTrigger::wait: return m.flush_wait;
    case FlushTrigger::direct: return m.flush_direct;
    case FlushTrigger::tick: return m.flush_tick;
  }
  return m.coalesce_flushes;  // unreachable
}

}  // namespace

ProgressConfig& progress_config() {
  static ProgressConfig config;
  return config;
}

ProgressMetrics& progress_metrics() {
  static auto* m = new ProgressMetrics();
  return *m;
}

void SendCoalescer::post(Batch& b, FlushTrigger trigger) {
  if (b.envs.empty()) return;
  // Swap the queued envelopes out (a callback under the post may re-enter
  // offer() and append to b.envs) and hand the batch's old storage back in,
  // so a steady-state flow never reallocates either vector.
  std::vector<Envelope> envs = std::move(b.envs);
  b.envs = std::move(spare_);
  b.envs.clear();
  b.payload_bytes = 0;
  pending_.fetch_sub(envs.size(), std::memory_order_release);
  if (obs::metrics_enabled()) {
    ProgressMetrics& m = progress_metrics();
    m.coalesce_flushes.add();
    trigger_counter(m, trigger).add();
  }
  // mutex_ stays held through the post: two threads flushing the same key
  // must not interleave their batches (per-channel FIFO is the MPI matching
  // order). The mailbox tolerates the lock: nothing in a batched post calls
  // back into this coalescer except via offer(), and mutex_ is recursive.
  b.box->post_send_batch(envs);
  envs.clear();
  spare_ = std::move(envs);
}

void SendCoalescer::offer(Mailbox& box, Envelope env) {
  const ProgressConfig& cfg = progress_config();
  std::lock_guard lock(mutex_);
  Batch* batch = nullptr;
  for (Batch& b : batches_) {
    if (b.box == &box && b.context == env.context) {
      batch = &b;
      break;
    }
  }
  if (batch == nullptr) {
    batches_.emplace_back();
    batch = &batches_.back();
    batch->box = &box;
    batch->context = env.context;
  }
  if (!batch->envs.empty() && env.post_time - batch->oldest > cfg.coalesce_horizon) {
    // The queued batch is a full virtual horizon older than this message:
    // put it on the wire first, then start fresh.
    post(*batch, FlushTrigger::horizon);
  }
  if (batch->envs.empty()) {
    batch->oldest = env.post_time;
    batch->envs.reserve(cfg.coalesce_max_count);
  }
  batch->payload_bytes += env.bytes;
  batch->envs.push_back(std::move(env));
  pending_.fetch_add(1, std::memory_order_release);
  if (obs::metrics_enabled()) progress_metrics().coalesce_enqueued.add();
  if (batch->envs.size() >= cfg.coalesce_max_count) {
    post(*batch, FlushTrigger::count);
  } else if (batch->payload_bytes >= cfg.coalesce_max_bytes) {
    post(*batch, FlushTrigger::bytes);
  }
}

void SendCoalescer::flush_key(const Mailbox& box, int context) {
  if (!has_pending()) return;
  std::lock_guard lock(mutex_);
  for (Batch& b : batches_) {
    if (b.box == &box && b.context == context) {
      post(b, FlushTrigger::direct);
      return;
    }
  }
}

void SendCoalescer::flush_all(FlushTrigger trigger) {
  if (!has_pending()) return;
  std::lock_guard lock(mutex_);
  // Index loop: a completion callback under post() may re-enter offer() and
  // append a new key; deque references stay valid and the new batch is
  // picked up by the size re-check.
  for (std::size_t i = 0; i < batches_.size(); ++i) post(batches_[i], trigger);
}

}  // namespace clmpi::mpi::detail
