#include "simmpi/mailbox.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <string>

#include "obs/metrics.hpp"
#include "support/context.hpp"
#include "support/error.hpp"
#include "support/sched.hpp"

namespace clmpi::mpi::detail {

namespace {

/// Producer-side metric handles, resolved once (metric addresses are stable
/// for the process lifetime). Leaked so completion callbacks running during
/// static destruction still find them.
struct MailboxMetrics {
  obs::Counter& shard_hit = obs::Registry::instance().counter("simmpi.mailbox.shard_hit");
  obs::Counter& wildcard_slowpath =
      obs::Registry::instance().counter("simmpi.mailbox.wildcard_slowpath");
  obs::Counter& eager_inline =
      obs::Registry::instance().counter("simmpi.mailbox.eager_inline");
  obs::Counter& unexpected = obs::Registry::instance().counter("simmpi.mailbox.unexpected");
};

MailboxMetrics& metrics() {
  static auto* m = new MailboxMetrics();
  return *m;
}

std::exception_ptr drop_error(const Envelope& env) {
  return std::make_exception_ptr(MessageDroppedError(
      "injected fault: message from rank " + std::to_string(env.src_rank) + " tag " +
      std::to_string(env.tag) + " (" + std::to_string(env.bytes) + " B) lost in transit"));
}

/// Error for an undelivered envelope: TimeoutError when the retry budget
/// was exhausted, MessageDroppedError for an unrecovered plain drop.
std::exception_ptr fail_error(const Envelope& env) {
  if (env.fault_timeout) {
    return std::make_exception_ptr(TimeoutError(
        "retransmission budget exhausted: message from rank " +
        std::to_string(env.src_rank) + " tag " + std::to_string(env.tag) + " (" +
        std::to_string(env.bytes) + " B) lost after " +
        std::to_string(env.fault_attempts) + " attempts"));
  }
  return drop_error(env);
}

/// Feed the link-health estimate behind the pipelined->pinned fallback.
/// CRITICAL: the observer's directed count is bumped only at the moment the
/// observer's OWN request completes with the failure — the sender when its
/// send request fails, the receiver when its receive fails. An endpoint's
/// view then reflects exactly the operations it has completed, so in a
/// lockstep workload both ends of a channel agree at every operation
/// boundary, and neither can observe the current operation's in-flight
/// losses at strategy-resolution time (resolve precedes the posts). Bumping
/// at decide()/post time instead would let an eager sender that runs ahead
/// publish losses the receiver sees mid-operation — the two ends would then
/// derive different fallbacks and deadlock on mismatched wire tags.
void note_link_failure(Network* net, const Envelope& env, int dst_node, bool sender_observed,
                       bool receiver_observed) {
  if (env.wire_decomp == wire_decomp_unset || env.wire_decomp == 0) return;
  FaultEngine* faults = net->faults();
  if (faults == nullptr) return;
  if (sender_observed) faults->note_block_failure(env.src_node, dst_node);
  if (receiver_observed) faults->note_block_failure(dst_node, env.src_node);
}

#ifndef NDEBUG
std::string describe_decomp(std::size_t decomp) {
  if (decomp == wire_decomp_unset) return "unset";
  if (decomp == 0) return "single message";
  return "pipelined blocks of " + std::to_string(decomp) + " B";
}
#endif

}  // namespace

// --- CompletionQueue --------------------------------------------------------

void CompletionQueue::push(std::vector<Completion>& batch) {
  std::lock_guard lock(mutex_);
  for (Completion& c : batch) queue_.push_back(std::move(c));
}

void CompletionQueue::fire(Completion& c) {
  if (c.error) {
    c.req->fail(c.when, std::move(c.error));
  } else {
    c.req->complete(c.when, c.st);
  }
}

void CompletionQueue::drain_as_consumer() {
  for (;;) {
    std::vector<Completion> items;
    {
      std::lock_guard lock(mutex_);
      if (queue_.empty()) return;
      items.assign(std::make_move_iterator(queue_.begin()),
                   std::make_move_iterator(queue_.end()));
      queue_.clear();
    }
    for (Completion& c : items) fire(c);
  }
}

void CompletionQueue::drain() {
  for (;;) {
    // Single consumer: whoever flips the flag fires callbacks; everyone else
    // leaves their batch for the current consumer.
    if (draining_.exchange(true, std::memory_order_acquire)) return;
    drain_as_consumer();
    draining_.store(false, std::memory_order_release);
    // A producer may have enqueued between our last emptiness check and the
    // flag release, then seen the flag still up and left. Re-check; if the
    // queue is non-empty, try to become the consumer again.
    {
      std::lock_guard lock(mutex_);
      if (queue_.empty()) return;
    }
  }
}

void CompletionQueue::settle_batch(std::vector<Completion>& batch) {
  if (!draining_.exchange(true, std::memory_order_acquire)) {
    // We are the consumer: leftovers first (cross-batch FIFO), then this
    // batch in place. A callback may re-enter settle_batch on this thread;
    // it then takes the push fallback and the post-loop recheck fires it.
    drain_as_consumer();
    for (Completion& c : batch) fire(c);
    draining_.store(false, std::memory_order_release);
    bool leftover = false;
    {
      std::lock_guard lock(mutex_);
      leftover = !queue_.empty();
    }
    if (leftover) drain();
    return;
  }
  push(batch);
  drain();
}

// --- Mailbox ----------------------------------------------------------------

bool Mailbox::matches(const Envelope& env, const PostedRecv& pr) {
  return env.context == pr.context &&
         (pr.src_rank == any_source || pr.src_rank == env.src_rank) &&
         (pr.tag == any_tag || pr.tag == env.tag);
}

bool Mailbox::key_matches(const ChannelKey& k, int src_rank, int tag,
                          int context) noexcept {
  return k.context == context && (src_rank == any_source || src_rank == k.src_rank) &&
         (tag == any_tag || tag == k.tag);
}

std::size_t Mailbox::ChannelHash::operator()(const ChannelKey& k) const noexcept {
  std::uint64_t h = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.src_rank)) << 32) ^
                    static_cast<std::uint32_t>(k.tag);
  h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.context)) << 13;
  h *= 0x9E3779B97F4A7C15ull;
  h ^= h >> 32;
  return static_cast<std::size_t>(h);
}

std::size_t Mailbox::shard_of(int src_rank, int tag, int context) noexcept {
  // Any (src, tag, context) triple always lands in the same shard, which is
  // what preserves the per-channel FIFO matching order.
  std::uint64_t h = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src_rank)) << 32) ^
                    static_cast<std::uint32_t>(tag);
  h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(context)) << 13;
  h *= 0x9E3779B97F4A7C15ull;
  h ^= h >> 32;
  return static_cast<std::size_t>(h) & (kShards - 1);
}

void Mailbox::settle(std::vector<Completion>& batch) {
  if (batch.empty()) return;
  completions_.settle_batch(batch);
}

vt::Resource::Span Mailbox::charge_attempts(const Envelope& env, vt::TimePoint ready,
                                            double bw_cap) {
  auto span = net_->transfer(env.src_node, node_, ready, env.bytes, bw_cap);
  if (env.fault_attempts > 1) {
    // Acked retransmission: attempt k goes out after an exponential backoff
    // in virtual time from the previous attempt's loss detection (the close
    // of its transfer window). Each retransmission occupies the wire again
    // and is visible in the trace as a "retry" span.
    const RetryPolicy& retry = net_->faults()->plan().retry;
    for (int k = 1; k < env.fault_attempts; ++k) {
      span = net_->transfer(env.src_node, node_, span.end + retry.backoff(k), env.bytes,
                            bw_cap, "retry");
    }
  }
  if (env.fault_dup) {
    // Spurious retransmission: the wire carries the payload again back-to-back.
    span = net_->transfer(env.src_node, node_, span.end, env.bytes, bw_cap);
  }
  return span;
}

void Mailbox::inject_eager(Envelope& env, std::vector<Completion>& out) {
  // Eager protocol: inject onto the wire immediately; the sender's buffer is
  // reusable after injection, so copy the payload out first. Small payloads
  // go to the envelope's inline store (no allocation).
  if (env.fault_delivered && env.bytes > 0) {
    // The inline cutoff is a per-profile knob (NicModel::eager_inline),
    // clamped by the envelope's fixed store capacity.
    const std::size_t inline_cap =
        std::min(net_->model().eager_inline, Envelope::kInlineEagerBytes);
    if (env.bytes <= inline_cap) {
      std::memcpy(env.inline_store.data(), env.payload.data(), env.bytes);
      env.inlined = true;
      if (obs::metrics_enabled()) metrics().eager_inline.add();
    } else {
      env.eager_copy.assign(env.payload.begin(), env.payload.end());
    }
  }
  env.payload = {};
  const auto span = charge_attempts(env, env.post_time, env.bw_cap);
  env.arrival = span.end;
  env.injected = true;
  if (!env.fault_delivered) {
    note_link_failure(net_, env, node_, /*sender_observed=*/true, /*receiver_observed=*/false);
    out.push_back({env.sreq, span.end, MsgStatus{}, fail_error(env)});
  } else {
    out.push_back({env.sreq, span.end, MsgStatus{env.src_rank, env.tag, env.bytes}, nullptr});
  }
}

void Mailbox::post_send(Envelope env) {
  if (FaultEngine* faults = net_->faults()) {
    const FaultDecision d =
        faults->decide(env.src_node, node_, env.context, env.tag, env.bytes);
    env.post_time += d.delay;
    env.fault_drop = d.drop;
    env.fault_dup = d.duplicate;
    env.fault_attempts = d.wire_attempts;
    env.fault_delivered = d.delivered;
    env.fault_timeout = d.retries_exhausted;
    // Block-level losses feed the link-health estimate behind the
    // pipelined->pinned fallback, but the bump is deferred to the moment
    // each endpoint's own request fails (see note_link_failure) — never
    // here, where an eager sender running ahead of its receiver would
    // publish the loss mid-operation and desynchronize the two ends'
    // fallback decisions.
  }

  std::vector<Completion> batch;
  PostedRecv pr;
  bool matched = false;
  {
    const ChannelKey key{env.src_rank, env.tag, env.context};
    Shard& sh = shards_[shard_of(env.src_rank, env.tag, env.context)];
    std::lock_guard shard_lock(sh.mutex);

    auto sit = sh.posted.find(key);
    Fifo<PostedRecv>* sq =
        (sit != sh.posted.end() && !sit->second.empty()) ? &sit->second : nullptr;
    // wild_count_ is re-read under the shard lock: a wildcard receive holds
    // every shard lock while it appends itself, so either it published the
    // count before we got here, or its queue scan will see our envelope.
    if (wild_count_.load(std::memory_order_acquire) > 0) {
      std::lock_guard wild_lock(wild_mutex_);  // lock order: shard, then wild
      auto wit = std::find_if(wild_posted_.begin(), wild_posted_.end(),
                              [&](const PostedRecv& p) { return matches(env, p); });
      const bool w_ok = wit != wild_posted_.end();
      if (w_ok && (sq == nullptr || wit->seq < sq->front().seq)) {
        pr = std::move(*wit);
        wild_posted_.erase(wit);
        wild_count_.fetch_sub(1, std::memory_order_release);
        matched = true;
      } else if (sq != nullptr) {
        pr = sq->pop_front();
        matched = true;
      }
    } else if (sq != nullptr) {
      pr = sq->pop_front();
      matched = true;
    }

    if (!matched) {
      // The eager wire charge must be recorded before the envelope becomes
      // visible, so a racing receive never double-charges the wire.
      if (env.eager) inject_eager(env, batch);
      env.seq = seq_.fetch_add(1, std::memory_order_relaxed);
      sh.unexpected[key].push_back(std::move(env));
    }
  }
  if (matched) {
    if (obs::metrics_enabled()) metrics().shard_hit.add();
    deliver(env, pr, batch);
  } else {
    if (obs::metrics_enabled()) metrics().unexpected.add();
    sched::note_progress();
  }
  settle(batch);
}

void Mailbox::post_send_batch(std::vector<Envelope>& envs) {
  if (envs.empty()) return;
  if (envs.size() == 1) {
    post_send(std::move(envs.front()));
    return;
  }
  if (FaultEngine* faults = net_->faults()) {
    // Decisions are drawn in offer order. This is bit-identical to deciding
    // at each individual post: fault streams are per-channel, a channel's
    // messages arrive here in order (the coalescer is FIFO per key), and
    // different channels draw from independent streams.
    for (Envelope& env : envs) {
      const FaultDecision d =
          faults->decide(env.src_node, node_, env.context, env.tag, env.bytes);
      env.post_time += d.delay;
      env.fault_drop = d.drop;
      env.fault_dup = d.duplicate;
      env.fault_attempts = d.wire_attempts;
      env.fault_delivered = d.delivered;
      env.fault_timeout = d.retries_exhausted;
    }
  }

  std::vector<Completion> batch;
  batch.reserve(envs.size() * 2);
  // Matched pairs are recorded as (index into envs, receive): the big
  // envelopes stay put in the batch vector instead of being moved again.
  std::vector<std::pair<std::size_t, PostedRecv>> matched;
  matched.reserve(envs.size());
  std::size_t unexpected = 0;
  {
    // One acquisition of every shard lock the batch touches (ascending — the
    // global lock order), then the envelopes are walked strictly in offer
    // order, so arrival stamps and wildcard matching are exactly as if each
    // envelope had been posted individually.
    std::array<std::unique_lock<std::mutex>, kShards> locks;
    std::array<bool, kShards> need{};
    for (const Envelope& env : envs) {
      need[shard_of(env.src_rank, env.tag, env.context)] = true;
    }
    for (std::size_t s = 0; s < kShards; ++s) {
      if (need[s]) locks[s] = std::unique_lock(shards_[s].mutex);
    }
    std::unique_lock<std::mutex> wild_lock;  // lock order: shards, then wild
    for (std::size_t i = 0; i < envs.size(); ++i) {
      Envelope& env = envs[i];
      const ChannelKey key{env.src_rank, env.tag, env.context};
      Shard& sh = shards_[shard_of(env.src_rank, env.tag, env.context)];
      auto sit = sh.posted.find(key);
      Fifo<PostedRecv>* sq =
          (sit != sh.posted.end() && !sit->second.empty()) ? &sit->second : nullptr;
      PostedRecv pr;
      bool env_matched = false;
      if (wild_count_.load(std::memory_order_acquire) > 0 || wild_lock.owns_lock()) {
        if (!wild_lock.owns_lock()) wild_lock = std::unique_lock(wild_mutex_);
        auto wit = std::find_if(wild_posted_.begin(), wild_posted_.end(),
                                [&](const PostedRecv& p) { return matches(env, p); });
        const bool w_ok = wit != wild_posted_.end();
        if (w_ok && (sq == nullptr || wit->seq < sq->front().seq)) {
          pr = std::move(*wit);
          wild_posted_.erase(wit);
          wild_count_.fetch_sub(1, std::memory_order_release);
          env_matched = true;
        } else if (sq != nullptr) {
          pr = sq->pop_front();
          env_matched = true;
        }
      } else if (sq != nullptr) {
        pr = sq->pop_front();
        env_matched = true;
      }

      if (env_matched) {
        matched.emplace_back(i, std::move(pr));
      } else {
        if (env.eager) inject_eager(env, batch);
        env.seq = seq_.fetch_add(1, std::memory_order_relaxed);
        sh.unexpected[key].push_back(std::move(env));
        ++unexpected;
      }
    }
  }
  if (obs::metrics_enabled() && !matched.empty()) metrics().shard_hit.add(matched.size());
  for (auto& [i, pr] : matched) {
    deliver(envs[i], pr, batch);
  }
  if (unexpected > 0) {
    if (obs::metrics_enabled()) metrics().unexpected.add(unexpected);
    // One progress bump for the whole batch: probes re-scan the queues on
    // every resume, so one bump is observationally equivalent to N.
    sched::note_progress();
  }
  settle(batch);
}

void Mailbox::post_recv(PostedRecv pr) {
  std::vector<Completion> batch;
  const bool wildcard = pr.src_rank == any_source || pr.tag == any_tag;

  if (!wildcard) {
    const ChannelKey key{pr.src_rank, pr.tag, pr.context};
    Shard& sh = shards_[shard_of(pr.src_rank, pr.tag, pr.context)];
    Envelope env;
    bool found = false;
    {
      std::lock_guard lock(sh.mutex);
      auto it = sh.unexpected.find(key);
      if (it != sh.unexpected.end() && !it->second.empty()) {
        env = it->second.pop_front();
        found = true;
      } else {
        pr.seq = seq_.fetch_add(1, std::memory_order_relaxed);
        sh.posted[key].push_back(std::move(pr));
      }
    }
    if (found) {
      if (obs::metrics_enabled()) metrics().shard_hit.add();
      deliver(env, pr, batch);
      settle(batch);
    }
    return;
  }

  // Wildcard: match in global arrival order across every shard — the
  // minimum arrival stamp over the heads of the matching channel FIFOs.
  // Lock order: all shards ascending, then the wildcard queue.
  if (obs::metrics_enabled()) metrics().wildcard_slowpath.add();
  Envelope env;
  bool found = false;
  {
    std::array<std::unique_lock<std::mutex>, kShards> locks;
    for (std::size_t s = 0; s < kShards; ++s) {
      locks[s] = std::unique_lock(shards_[s].mutex);
    }
    std::lock_guard wild_lock(wild_mutex_);

    Fifo<Envelope>* best = nullptr;
    for (Shard& sh : shards_) {
      for (auto& [key, q] : sh.unexpected) {
        if (q.empty() || !key_matches(key, pr.src_rank, pr.tag, pr.context)) continue;
        if (best == nullptr || q.front().seq < best->front().seq) best = &q;
      }
    }
    if (best != nullptr) {
      env = best->pop_front();
      found = true;
    } else {
      pr.seq = seq_.fetch_add(1, std::memory_order_relaxed);
      wild_posted_.push_back(std::move(pr));
      wild_count_.fetch_add(1, std::memory_order_release);
    }
  }
  if (found) {
    deliver(env, pr, batch);
    settle(batch);
  }
}

std::pair<MsgStatus, vt::TimePoint> Mailbox::probe(int src_rank, int tag, int context) {
  const bool wildcard = src_rank == any_source || tag == any_tag;

  for (;;) {
    const Envelope* hit = nullptr;
    MsgStatus st;
    vt::TimePoint available;
    if (!wildcard) {
      const ChannelKey key{src_rank, tag, context};
      Shard& sh = shards_[shard_of(src_rank, tag, context)];
      std::lock_guard lock(sh.mutex);
      auto it = sh.unexpected.find(key);
      if (it != sh.unexpected.end() && !it->second.empty()) {
        const Envelope& e = it->second.front();
        hit = &e;
        st = MsgStatus{e.src_rank, e.tag, e.bytes};
        available = (e.eager && e.injected) ? e.arrival : e.post_time;
      }
    } else {
      if (obs::metrics_enabled()) metrics().wildcard_slowpath.add();
      std::array<std::unique_lock<std::mutex>, kShards> locks;
      for (std::size_t s = 0; s < kShards; ++s) {
        locks[s] = std::unique_lock(shards_[s].mutex);
      }
      for (Shard& sh : shards_) {
        for (auto& [key, q] : sh.unexpected) {
          if (q.empty() || !key_matches(key, src_rank, tag, context)) continue;
          const Envelope& e = q.front();
          if (hit == nullptr || e.seq < hit->seq) {
            hit = &e;
            st = MsgStatus{e.src_rank, e.tag, e.bytes};
            available = (e.eager && e.injected) ? e.arrival : e.post_time;
          }
        }
      }
    }
    if (hit != nullptr) return {st, available};

    // Yield and rescan: the rescan observes whatever arrived while we were
    // suspended, so no arrival needs to wake us.
    ctx::BlockedScope blocked("mpi.probe");
    sched::yield();
  }
}

std::optional<MsgStatus> Mailbox::iprobe(int src_rank, int tag, int context) {
  const bool wildcard = src_rank == any_source || tag == any_tag;

  if (!wildcard) {
    const ChannelKey key{src_rank, tag, context};
    Shard& sh = shards_[shard_of(src_rank, tag, context)];
    std::lock_guard lock(sh.mutex);
    auto it = sh.unexpected.find(key);
    if (it == sh.unexpected.end() || it->second.empty()) return std::nullopt;
    const Envelope& e = it->second.front();
    return MsgStatus{e.src_rank, e.tag, e.bytes};
  }

  if (obs::metrics_enabled()) metrics().wildcard_slowpath.add();
  std::array<std::unique_lock<std::mutex>, kShards> locks;
  for (std::size_t s = 0; s < kShards; ++s) {
    locks[s] = std::unique_lock(shards_[s].mutex);
  }
  const Envelope* hit = nullptr;
  for (Shard& sh : shards_) {
    for (auto& [key, q] : sh.unexpected) {
      if (q.empty() || !key_matches(key, src_rank, tag, context)) continue;
      if (hit == nullptr || q.front().seq < hit->seq) hit = &q.front();
    }
  }
  if (hit == nullptr) return std::nullopt;
  return MsgStatus{hit->src_rank, hit->tag, hit->bytes};
}

void Mailbox::deliver(Envelope& env, PostedRecv& pr, std::vector<Completion>& out) {
#ifndef NDEBUG
  // Both endpoints of a transfer-layer message must agree on the wire
  // decomposition; a forced-strategy mismatch otherwise surfaces as an
  // obscure truncation (or short read) below. Fail BOTH endpoints with a
  // defined error instead of throwing on whichever thread happened to
  // deliver — the peer would otherwise hang in its wait.
  if (env.wire_decomp != wire_decomp_unset && pr.wire_decomp != wire_decomp_unset &&
      env.wire_decomp != pr.wire_decomp) {
    auto err = std::make_exception_ptr(PreconditionError(
        "wire decomposition mismatch between forced transfer strategies: sender uses " +
        describe_decomp(env.wire_decomp) + ", receiver expects " +
        describe_decomp(pr.wire_decomp) + " (tag " + std::to_string(env.tag) + ", " +
        std::to_string(env.bytes) + " B)"));
    const vt::TimePoint when = vt::max(env.post_time, pr.post_time);
    if (!env.injected) out.push_back({env.sreq, when, MsgStatus{}, err});
    out.push_back({pr.rreq, when, MsgStatus{}, err});
    return;
  }
#endif
  if (env.bytes > pr.buffer.size()) {
    // Truncation fails BOTH endpoints with a defined error, like the
    // decomposition check above: a throw here would land on whichever thread
    // delivers (the sender's, when the receive was posted first), and the
    // other endpoint would hang in its wait.
    auto err = std::make_exception_ptr(PreconditionError(
        "message truncation: received message larger than the posted buffer (tag " +
        std::to_string(env.tag) + ", " + std::to_string(env.bytes) + " B into " +
        std::to_string(pr.buffer.size()) + " B)"));
    const vt::TimePoint when = vt::max(env.post_time, pr.post_time);
    if (!env.injected) out.push_back({env.sreq, when, MsgStatus{}, err});
    out.push_back({pr.rreq, when, MsgStatus{}, err});
    return;
  }
  const MsgStatus st{env.src_rank, env.tag, env.bytes};

  if (env.eager) {
    if (!env.injected) {
      // The receive raced ahead of the send in real time, so the eager
      // injection was not recorded in post_send. Charge the wire exactly as
      // post_send would have — at the *send's* post time with the sender's
      // cap — so the virtual timeline does not depend on which side arrived
      // at the mailbox first.
      const auto span = charge_attempts(env, env.post_time, env.bw_cap);
      env.arrival = span.end;
      env.injected = true;
      if (!env.fault_delivered) {
        note_link_failure(net_, env, node_, /*sender_observed=*/true,
                          /*receiver_observed=*/false);
        out.push_back({env.sreq, span.end, MsgStatus{}, fail_error(env)});
      } else {
        out.push_back({env.sreq, span.end, st, nullptr});
      }
    }
    // The receive completes at max(arrival, recv post time).
    const vt::TimePoint when = vt::max(env.arrival, pr.post_time);
    if (!env.fault_delivered) {
      note_link_failure(net_, env, node_, /*sender_observed=*/false,
                        /*receiver_observed=*/true);
      out.push_back({pr.rreq, when, MsgStatus{}, fail_error(env)});
      return;
    }
    if (env.bytes > 0) {
      const std::byte* src = !env.payload.empty() ? env.payload.data()
                             : env.inlined       ? env.inline_store.data()
                                                 : env.eager_copy.data();
      std::memcpy(pr.buffer.data(), src, env.bytes);
    }
    out.push_back({pr.rreq, when, st, nullptr});
    return;
  }

  // Rendezvous: the transfer starts once both sides are ready; either
  // endpoint's bandwidth cap limits the effective rate.
  const vt::TimePoint ready = vt::max(env.post_time, pr.post_time);
  const auto span = charge_attempts(env, ready, std::min(env.bw_cap, pr.bw_cap));
  if (!env.fault_delivered) {
    // The loss surfaces when the final transfer window closes: a defined
    // error on BOTH endpoints at that virtual time, never a hang.
    note_link_failure(net_, env, node_, /*sender_observed=*/true, /*receiver_observed=*/true);
    out.push_back({env.sreq, span.end, MsgStatus{}, fail_error(env)});
    out.push_back({pr.rreq, span.end, MsgStatus{}, fail_error(env)});
    return;
  }
  if (env.bytes > 0) {
    const std::byte* src = !env.payload.empty() ? env.payload.data()
                           : env.inlined       ? env.inline_store.data()
                                               : env.eager_copy.data();
    std::memcpy(pr.buffer.data(), src, env.bytes);
  }
  out.push_back({env.sreq, span.end, st, nullptr});
  out.push_back({pr.rreq, span.end, st, nullptr});
}

}  // namespace clmpi::mpi::detail
