#include "ocl/queue.hpp"

#include <cstring>

#include "ocl/context.hpp"
#include "support/error.hpp"

namespace clmpi::ocl {

namespace {
/// Host CPU cost of one enqueue call (driver overhead).
constexpr vt::Duration kEnqueueOverhead = vt::microseconds(2.0);

/// Blocking host-side wait, recorded as a wait span on the host lane (the
/// time the calling thread spent stalled on the device, Figure 4's idle
/// segments). Failed waits rethrow without recording: the failure time is
/// deterministic, so the trace stays seed-stable either way.
void traced_wait(Device& dev, const EventPtr& ev, vt::Clock& clock, std::string what) {
  vt::Tracer* tracer = dev.tracer();
  if (tracer == nullptr) {
    ev->wait(clock);
    return;
  }
  const vt::TimePoint t0 = clock.now();
  ev->wait(clock);
  const vt::TimePoint t1 = clock.now();
  if (t1.s > t0.s) {
    tracer->record("host" + std::to_string(dev.node()), std::move(what), vt::SpanKind::wait,
                   t0, t1);
  }
}
}  // namespace

CommandQueue::CommandQueue(Context& ctx, Device& dev, std::string label, QueueOrder order)
    : ctx_(&ctx), device_(&dev), label_(std::move(label)), order_(order) {
  worker_ = sched::spawn_service(label_, [this] { worker_loop(); });
}

CommandQueue::~CommandQueue() {
  {
    std::lock_guard lock(mutex_);
    shutdown_ = true;
  }
  cv_.notify_all();
  sched::note_progress();
  worker_.join();
}

EventPtr CommandQueue::push(std::string op_label, WaitList waits, vt::Clock& clock,
                            std::function<vt::Resource::Span(vt::TimePoint)> body) {
  for (const EventPtr& w : waits) {
    CLMPI_REQUIRE(w != nullptr, "null event in wait list");
  }
  clock.advance(kEnqueueOverhead);

  auto event = std::make_shared<Event>(op_label);
  event->mark_queued(clock.now());

  Command cmd;
  cmd.label = std::move(op_label);
  cmd.waits.assign(waits.begin(), waits.end());
  cmd.event = event;
  cmd.enqueue_time = clock.now();
  cmd.body = std::move(body);
  {
    std::lock_guard lock(mutex_);
    CLMPI_REQUIRE(!shutdown_, "enqueue on a released command queue");
    if (order_ == QueueOrder::out_of_order) {
      // Out-of-order commands are gated by the last barrier instead of by
      // the previous command.
      if (barrier_gate_) cmd.waits.push_back(barrier_gate_);
      since_barrier_.push_back(event);
    }
    pending_.push_back(std::move(cmd));
  }
  cv_.notify_all();
  sched::note_progress();
  return event;
}

void CommandQueue::worker_loop() {
  for (;;) {
    Command cmd;
    {
      std::unique_lock lock(mutex_);
      sched::wait(lock, cv_, [&] { return shutdown_ || !pending_.empty(); },
                  "ocl.queue.idle");
      if (pending_.empty()) return;  // shutdown with a drained queue
      cmd = std::move(pending_.front());
      pending_.pop_front();
    }

    // In-order dispatch: a command is submitted once the previous one
    // ended. Out-of-order queues are gated by wait lists (and barriers)
    // only; their side effects still run in release order on this worker.
    vt::TimePoint ready = cmd.enqueue_time;
    if (order_ == QueueOrder::in_order) ready = vt::max(ready, prev_end_);
    cmd.event->mark_submitted(ready);
    try {
      for (const EventPtr& w : cmd.waits) ready = vt::max(ready, w->wait());
      const vt::Resource::Span span = cmd.body(ready);
      cmd.event->mark_running(span.start);
      prev_end_ = span.end;
      {
        // Count before completing the event: finish() observers must see the
        // command as executed once its event fires.
        std::lock_guard lock(mutex_);
        ++executed_;
      }
      cmd.event->mark_complete(span.end);
    } catch (...) {
      // A failed command (or failed dependency) poisons this command's
      // event; waiters rethrow. The queue itself keeps running.
      prev_end_ = ready;
      {
        std::lock_guard lock(mutex_);
        ++executed_;
      }
      cmd.event->mark_failed(ready, std::current_exception());
    }
  }
}

std::size_t CommandQueue::commands_executed() const {
  std::lock_guard lock(mutex_);
  return executed_;
}

EventPtr CommandQueue::enqueue_read_buffer(const BufferPtr& buf, bool blocking,
                                           std::size_t offset, std::size_t size, void* dst,
                                           WaitList waits, vt::Clock& clock,
                                           bool pinned_host) {
  CLMPI_REQUIRE(buf != nullptr, "read from a null buffer");
  CLMPI_REQUIRE(offset + size <= buf->size(), "read outside the buffer");
  CLMPI_REQUIRE(dst != nullptr, "read into a null host pointer");

  EventPtr ev = push(
      "read " + buf->label(), waits, clock, [=, dev = device_](vt::TimePoint ready) {
        const auto span = dev->charge_dma(ready, size, /*to_device=*/false, pinned_host);
        std::memcpy(dst, buf->storage().data() + offset, size);
        return span;
      });
  if (blocking) traced_wait(*device_, ev, clock, "wait read " + buf->label());
  return ev;
}

EventPtr CommandQueue::enqueue_write_buffer(const BufferPtr& buf, bool blocking,
                                            std::size_t offset, std::size_t size,
                                            const void* src, WaitList waits, vt::Clock& clock,
                                            bool pinned_host) {
  CLMPI_REQUIRE(buf != nullptr, "write to a null buffer");
  CLMPI_REQUIRE(offset + size <= buf->size(), "write outside the buffer");
  CLMPI_REQUIRE(src != nullptr, "write from a null host pointer");

  EventPtr ev = push(
      "write " + buf->label(), waits, clock, [=, dev = device_](vt::TimePoint ready) {
        const auto span = dev->charge_dma(ready, size, /*to_device=*/true, pinned_host);
        std::memcpy(buf->storage().data() + offset, src, size);
        return span;
      });
  if (blocking) traced_wait(*device_, ev, clock, "wait write " + buf->label());
  return ev;
}

EventPtr CommandQueue::enqueue_copy_buffer(const BufferPtr& src, const BufferPtr& dst,
                                           std::size_t src_offset, std::size_t dst_offset,
                                           std::size_t size, WaitList waits,
                                           vt::Clock& clock) {
  CLMPI_REQUIRE(src != nullptr && dst != nullptr, "copy with a null buffer");
  CLMPI_REQUIRE(src_offset + size <= src->size(), "copy outside the source buffer");
  CLMPI_REQUIRE(dst_offset + size <= dst->size(), "copy outside the destination buffer");

  return push("copy " + src->label() + "->" + dst->label(), waits, clock,
              [=, dev = device_](vt::TimePoint ready) {
                // Device-to-device copy moves at pinned-DMA rate on the copy
                // engine.
                const auto span = dev->charge_dma(ready, size, /*to_device=*/true,
                                                  /*pinned_host=*/true);
                std::memcpy(dst->storage().data() + dst_offset,
                            src->storage().data() + src_offset, size);
                return span;
              });
}

CommandQueue::Mapping CommandQueue::enqueue_map_buffer(const BufferPtr& buf, bool blocking,
                                                       std::size_t offset, std::size_t size,
                                                       WaitList waits, vt::Clock& clock) {
  CLMPI_REQUIRE(buf != nullptr, "map of a null buffer");
  std::byte* ptr = buf->map_region(offset, size);
  EventPtr ev = push("map " + buf->label(), waits, clock,
                     [dev = device_](vt::TimePoint ready) {
                       const auto cost = dev->profile().pcie.map_setup;
                       return dev->copy_engine().acquire(ready, cost);
                     });
  if (blocking) traced_wait(*device_, ev, clock, "wait map " + buf->label());
  return {ptr, ev};
}

EventPtr CommandQueue::enqueue_unmap(const BufferPtr& buf, std::byte* ptr, WaitList waits,
                                     vt::Clock& clock) {
  CLMPI_REQUIRE(buf != nullptr, "unmap of a null buffer");
  buf->unmap_region(ptr);
  return push("unmap " + buf->label(), waits, clock, [dev = device_](vt::TimePoint ready) {
    const auto cost = dev->profile().pcie.map_setup;
    return dev->copy_engine().acquire(ready, cost);
  });
}

EventPtr CommandQueue::enqueue_ndrange(const KernelPtr& kernel, const NDRange& range,
                                       WaitList waits, vt::Clock& clock) {
  CLMPI_REQUIRE(kernel != nullptr, "launch of a null kernel");
  CLMPI_REQUIRE(range.total() > 0, "launch with an empty NDRange");

  // Snapshot the argument bindings (clSetKernelArg semantics).
  auto args = std::make_shared<std::vector<KernelArg>>(kernel->args());
  return push(kernel->name(), waits, clock, [=, dev = device_](vt::TimePoint ready) {
    const vt::Duration cost = kernel->cost()(range, dev->profile());
    const auto span = dev->charge_kernel(ready, cost, kernel->name());
    // The virtual span is fixed; the body is pure compute, so it runs off
    // this worker's turn and overlaps the job's other fibers.
    sched::offload([&] {
      KernelArgs view(*args);
      kernel->body()(range, view);
    });
    return span;
  });
}

EventPtr CommandQueue::enqueue_marker(WaitList waits, vt::Clock& clock) {
  return push("marker", waits, clock,
              [](vt::TimePoint ready) { return vt::Resource::Span{ready, ready}; });
}

EventPtr CommandQueue::enqueue_barrier(WaitList waits, vt::Clock& clock) {
  std::vector<EventPtr> all(waits.begin(), waits.end());
  if (order_ == QueueOrder::out_of_order) {
    std::lock_guard lock(mutex_);
    all.insert(all.end(), since_barrier_.begin(), since_barrier_.end());
  }
  EventPtr ev = push("queue-barrier", all, clock,
                     [](vt::TimePoint ready) { return vt::Resource::Span{ready, ready}; });
  if (order_ == QueueOrder::out_of_order) {
    std::lock_guard lock(mutex_);
    barrier_gate_ = ev;
    since_barrier_.clear();
  }
  return ev;
}

void CommandQueue::finish(vt::Clock& clock) {
  // A barrier covers both orderings: on an in-order queue it drains by
  // queue position; on an out-of-order queue it waits everything enqueued.
  EventPtr barrier = enqueue_barrier({}, clock);
  traced_wait(*device_, barrier, clock, "clFinish " + label_);
}

EventPtr CommandQueue::enqueue_custom(std::string op_label, vt::SpanKind /*kind*/,
                                      std::function<vt::Resource::Span(vt::TimePoint)> body,
                                      WaitList waits, vt::Clock& clock) {
  return push(std::move(op_label), waits, clock, std::move(body));
}

}  // namespace clmpi::ocl
