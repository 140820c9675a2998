// Progress-engine suite: continuations, the per-cluster driver, persistent
// requests and small-message coalescing (docs/PROGRESS.md).
//
//  * Neutrality: the engine is wall-clock-only. The same seeded workload
//    runs coalesced, coalesced again, and with every send posted directly
//    (coalesce_max_msg = 0) — trace hashes, makespans and fault counters
//    must be bit-identical across all three (the continuation-ordering
//    determinism contract).
//  * Coalescing flush boundaries: exactly-N, N-1 and N+1 message bursts
//    trip the count / wait triggers the documented way, and the byte
//    threshold fires independently of the count threshold.
//  * Persistent requests: a send_init/start replay loop is trace- and
//    byte-identical to re-issuing plain isend/irecv, at host level and at
//    MPI_CL_MEM level (where init pre-resolves the wire decomposition).
//  * C API: clmpiSendInit/clmpiRecvInit/clmpiStart/clmpiRequestFree happy
//    path for MPI_BYTE and MPI_CL_MEM, and the defined negative paths.
#include <gtest/gtest.h>

#include "test_util.hpp"

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "clmpi/capi.h"
#include "clmpi/runtime.hpp"
#include "obs/metrics.hpp"
#include "ocl/context.hpp"
#include "ocl/platform.hpp"
#include "simmpi/cluster.hpp"
#include "simmpi/progress.hpp"
#include "support/rng.hpp"
#include "support/sched.hpp"
#include "support/units.hpp"
#include "vt/tracer.hpp"

namespace clmpi {
namespace {

mpi::Cluster::Options opts(int nranks) {
  mpi::Cluster::Options o;
  o.nranks = nranks;
  o.profile = &sys::ricc();
  o.watchdog_seconds = testutil::watchdog_seconds(20.0);
  return o;
}

/// Save/restore the process-wide progress config around a test; tests only
/// mutate it between cluster runs (no rank thread is alive).
struct ProgressConfigGuard {
  mpi::detail::ProgressConfig saved = mpi::detail::progress_config();
  ~ProgressConfigGuard() { mpi::detail::progress_config() = saved; }
};

std::uint64_t counter(const char* name) {
  std::uint64_t v = 0;
  // A name that has not registered yet reads as zero.
  (void)obs::Registry::instance().value(name, v);
  return v;
}

void fill_bytes(std::span<std::byte> buf, std::uint64_t seed) {
  Rng rng(seed);
  for (std::byte& b : buf) b = static_cast<std::byte>(rng.below(256));
}

// --- coalescing flush boundaries --------------------------------------------

/// Sends `n` coalescable 64 B messages rank0 -> rank1, then waits them all;
/// returns the (count-flush, wait-flush, enqueued) counter deltas.
std::array<std::uint64_t, 3> run_burst(std::size_t n) {
  const std::uint64_t count0 = counter("progress.coalesce.flush.count");
  const std::uint64_t wait0 = counter("progress.coalesce.flush.wait");
  const std::uint64_t enq0 = counter("progress.coalesce.enqueued");
  mpi::Cluster::run(opts(2), [&](mpi::Rank& rank) {
    auto& world = rank.world();
    std::vector<std::byte> buf(64);
    if (rank.rank() == 0) {
      std::vector<std::vector<std::byte>> bufs(n, buf);
      std::vector<mpi::Request> reqs;
      for (std::size_t i = 0; i < n; ++i) {
        reqs.push_back(world.isend(bufs[i], 1, static_cast<int>(i), rank.clock()));
      }
      for (auto& r : reqs) r.wait(rank.clock());
    } else {
      std::vector<std::vector<std::byte>> bufs(n, buf);
      std::vector<mpi::Request> reqs;
      for (std::size_t i = 0; i < n; ++i) {
        reqs.push_back(world.irecv(bufs[i], 0, static_cast<int>(i), rank.clock()));
      }
      for (auto& r : reqs) r.wait(rank.clock());
    }
  });
  return {counter("progress.coalesce.flush.count") - count0,
          counter("progress.coalesce.flush.wait") - wait0,
          counter("progress.coalesce.enqueued") - enq0};
}

TEST(ProgressCoalesce, CountFlushBoundaries) {
  ProgressConfigGuard guard;
  auto& cfg = mpi::detail::progress_config();
  // Park the background triggers so only count/wait flushes can fire: the
  // driver tick is pushed out past the test and the virtual horizon is huge.
  cfg.driver_tick = std::chrono::milliseconds(60000);
  cfg.coalesce_horizon = vt::seconds(1e6);
  const std::size_t n = cfg.coalesce_max_count;

  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);

  // Exactly N: one count flush, nothing left for the wait hook.
  auto exact = run_burst(n);
  EXPECT_EQ(exact[0], 1u);
  EXPECT_EQ(exact[1], 0u);
  EXPECT_EQ(exact[2], n);

  // N-1: the count trigger never fires; the first wait flushes the batch.
  auto under = run_burst(n - 1);
  EXPECT_EQ(under[0], 0u);
  EXPECT_EQ(under[1], 1u);
  EXPECT_EQ(under[2], n - 1);

  // N+1: one count flush plus one wait flush for the straggler.
  auto over = run_burst(n + 1);
  EXPECT_EQ(over[0], 1u);
  EXPECT_EQ(over[1], 1u);
  EXPECT_EQ(over[2], n + 1);

  obs::set_metrics_enabled(was_enabled);
}

TEST(ProgressCoalesce, ByteThresholdFiresBeforeCount) {
  ProgressConfigGuard guard;
  auto& cfg = mpi::detail::progress_config();
  cfg.driver_tick = std::chrono::milliseconds(60000);
  cfg.coalesce_horizon = vt::seconds(1e6);
  cfg.coalesce_max_count = 1000;  // byte threshold must fire first
  const std::size_t msg = cfg.coalesce_max_msg;                  // 4 KiB
  const std::size_t n = cfg.coalesce_max_bytes / msg;            // 8 messages

  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  const std::uint64_t bytes0 = counter("progress.coalesce.flush.bytes");

  mpi::Cluster::run(opts(2), [&](mpi::Rank& rank) {
    auto& world = rank.world();
    std::vector<std::vector<std::byte>> bufs(n, std::vector<std::byte>(msg));
    std::vector<mpi::Request> reqs;
    for (std::size_t i = 0; i < n; ++i) {
      if (rank.rank() == 0) {
        reqs.push_back(world.isend(bufs[i], 1, static_cast<int>(i), rank.clock()));
      } else {
        reqs.push_back(world.irecv(bufs[i], 0, static_cast<int>(i), rank.clock()));
      }
    }
    for (auto& r : reqs) r.wait(rank.clock());
  });

  EXPECT_EQ(counter("progress.coalesce.flush.bytes") - bytes0, 1u);
  obs::set_metrics_enabled(was_enabled);
}

// --- virtual-time neutrality --------------------------------------------------

/// Seeded mixed workload over 4 ranks: a tagged fan-in into rank 0, a
/// single-source wildcard-tag stream (per-channel FIFO keeps its matching
/// deterministic), and a closing ring of blocking sendrecvs. Returns the
/// trace hash, makespan and fault counters.
struct MixedOutcome {
  std::uint64_t hash{0};
  double makespan{0.0};
  mpi::FaultCounters faults{};
};

/// `coalesced` false sets coalesce_max_msg = 0, so every send posts directly;
/// the progress.coalesce.enqueued delta proves which side actually ran.
MixedOutcome run_mixed(bool coalesced, std::uint64_t seed, const mpi::FaultPlan& plan) {
  ProgressConfigGuard guard;
  if (!coalesced) mpi::detail::progress_config().coalesce_max_msg = 0;
  const bool metrics_were_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  const std::uint64_t enq0 = counter("progress.coalesce.enqueued");
  // The fan-in part of this workload has three senders racing variable-size
  // eager messages into rank 0's RX resource with unequal ready times; the
  // per-job turn fixes their grant order (vt/resource.hpp backfill alone
  // would not), so the coalesced vs direct comparison below is exact.

  constexpr int kRanks = 4;
  constexpr int kPerSender = 24;
  vt::Tracer tracer;
  auto o = opts(kRanks);
  o.tracer = &tracer;
  o.faults = plan;

  const mpi::RunResult res = mpi::Cluster::run(o, [&](mpi::Rank& rank) {
    auto& world = rank.world();
    Rng rng(seed * 977 + static_cast<std::uint64_t>(rank.rank()));
    if (rank.rank() == 0) {
      // Tagged fan-in: every sender's stream is matched by (src, tag).
      std::vector<std::vector<std::byte>> bufs;
      std::vector<mpi::Request> reqs;
      for (int src = 1; src < kRanks; ++src) {
        Rng sizes(seed * 977 + static_cast<std::uint64_t>(src));
        for (int i = 0; i < kPerSender; ++i) {
          bufs.emplace_back(1 + sizes.below(512));
          reqs.push_back(
              world.irecv(bufs.back(), src, src * 100 + i, rank.clock()));
        }
      }
      for (auto& r : reqs) r.wait(rank.clock());
      // Single-source wildcard-tag stream from rank 1.
      std::vector<std::byte> wbuf(256);
      for (int i = 0; i < 8; ++i) {
        mpi::Request r = world.irecv(wbuf, 1, mpi::any_tag, rank.clock());
        r.wait(rank.clock());
      }
    } else {
      std::vector<std::vector<std::byte>> bufs;
      std::vector<mpi::Request> reqs;
      for (int i = 0; i < kPerSender; ++i) {
        bufs.emplace_back(1 + rng.below(512));
        fill_bytes(bufs.back(), seed + static_cast<std::uint64_t>(i));
        reqs.push_back(
            world.isend(bufs.back(), 0, rank.rank() * 100 + i, rank.clock()));
      }
      for (auto& r : reqs) r.wait(rank.clock());
      if (rank.rank() == 1) {
        std::vector<std::byte> wbuf(256);
        for (int i = 0; i < 8; ++i) world.send(wbuf, 0, 900 + i, rank.clock());
      }
    }
    world.barrier(rank.clock());
    // Ring exchange exercises the blocking (non-coalesced) path.
    std::vector<std::byte> out(128), in(128);
    const int next = (rank.rank() + 1) % kRanks;
    const int prev = (rank.rank() + kRanks - 1) % kRanks;
    world.sendrecv(out, next, 5, in, prev, 5, rank.clock());
  });

  const std::uint64_t enqueued = counter("progress.coalesce.enqueued") - enq0;
  obs::set_metrics_enabled(metrics_were_enabled);
  if (coalesced) {
    EXPECT_GT(enqueued, 0u) << "the coalesced side never coalesced";
  } else {
    EXPECT_EQ(enqueued, 0u) << "the direct side coalesced";
  }

  MixedOutcome outcome;
  outcome.hash = tracer.hash();
  outcome.makespan = res.makespan_s;
  outcome.faults = res.faults;
  return outcome;
}

void expect_same(const MixedOutcome& a, const MixedOutcome& b) {
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.faults.messages, b.faults.messages);
  EXPECT_EQ(a.faults.drops, b.faults.drops);
  EXPECT_EQ(a.faults.duplicates, b.faults.duplicates);
  EXPECT_EQ(a.faults.delays, b.faults.delays);
  EXPECT_EQ(a.faults.retries, b.faults.retries);
  EXPECT_EQ(a.faults.timeouts, b.faults.timeouts);
}

TEST(ProgressNeutrality, EngineOnOffBitIdentical) {
  for (std::uint64_t seed : {11u, 42u, 1234u}) {
    const MixedOutcome coalesced1 = run_mixed(true, seed, {});
    const MixedOutcome coalesced2 = run_mixed(true, seed, {});
    const MixedOutcome direct = run_mixed(false, seed, {});
    // Continuation/coalescing ordering is deterministic...
    expect_same(coalesced1, coalesced2);
    // ... and virtual-time neutral.
    expect_same(coalesced1, direct);
  }
}

TEST(ProgressNeutrality, ChaosScheduleUnperturbed) {
  // Deliverable fault classes only (no drops): the engine must reproduce the
  // per-channel fault streams bit-exactly even though batched posts decide
  // faults at flush time.
  mpi::FaultPlan plan;
  plan.duplicate_rate = 0.3;
  plan.reorder_rate = 0.4;
  plan.latency_spike_rate = 0.3;
  for (std::uint64_t seed : {7u, 99u}) {
    plan.seed = seed;
    const MixedOutcome coalesced = run_mixed(true, seed, plan);
    const MixedOutcome direct = run_mixed(false, seed, plan);
    EXPECT_GT(coalesced.faults.messages, 0u);
    expect_same(coalesced, direct);
  }
}

// --- persistent requests -------------------------------------------------------

/// One ping stream rank0 -> rank1, `persistent` choosing between plain
/// isend/irecv re-issue and send_init/recv_init + start replay.
struct ReplayOutcome {
  std::uint64_t hash{0};
  double makespan{0.0};
  std::vector<std::vector<std::byte>> received;
};

ReplayOutcome run_replay(bool persistent, std::size_t msg_bytes, int iters) {
  ReplayOutcome outcome;
  vt::Tracer tracer;
  auto o = opts(2);
  o.tracer = &tracer;
  const mpi::RunResult res = mpi::Cluster::run(o, [&](mpi::Rank& rank) {
    auto& world = rank.world();
    std::vector<std::byte> buf(msg_bytes);
    if (rank.rank() == 0) {
      mpi::PersistentRequest preq;
      if (persistent) preq = world.send_init(buf, 1, 3);
      for (int i = 0; i < iters; ++i) {
        fill_bytes(buf, 1000 + static_cast<std::uint64_t>(i));
        mpi::Request r = persistent ? preq.start(rank.clock())
                                    : world.isend(buf, 1, 3, rank.clock());
        r.wait(rank.clock());
      }
    } else {
      mpi::PersistentRequest preq;
      if (persistent) preq = world.recv_init(buf, 0, 3);
      for (int i = 0; i < iters; ++i) {
        mpi::Request r = persistent ? preq.start(rank.clock())
                                    : world.irecv(buf, 0, 3, rank.clock());
        r.wait(rank.clock());
        outcome.received.emplace_back(buf);
      }
    }
  });
  outcome.hash = tracer.hash();
  outcome.makespan = res.makespan_s;
  return outcome;
}

TEST(ProgressPersistent, HostReplayMatchesPlainReissue) {
  // Eager/coalescable size and a rendezvous size both replay identically.
  for (std::size_t msg : {std::size_t{256}, std::size_t{96_KiB}}) {
    const ReplayOutcome plain = run_replay(false, msg, 12);
    const ReplayOutcome replay = run_replay(true, msg, 12);
    EXPECT_EQ(plain.hash, replay.hash);
    EXPECT_EQ(plain.makespan, replay.makespan);
    ASSERT_EQ(plain.received.size(), replay.received.size());
    EXPECT_EQ(plain.received, replay.received);
  }
}

/// Minimal per-rank runtime context for the MPI_CL_MEM surface.
struct Node {
  explicit Node(mpi::Rank& rank)
      : platform(rank.profile(), rank.rank(), rank.tracer()),
        ctx(platform.device()),
        runtime(rank, platform.device()) {}
  ocl::Platform platform;
  ocl::Context ctx;
  rt::Runtime runtime;
};

ReplayOutcome run_cl_mem_replay(bool persistent, std::size_t msg_bytes, int iters) {
  ReplayOutcome outcome;
  vt::Tracer tracer;
  auto o = opts(2);
  o.tracer = &tracer;
  const mpi::RunResult res = mpi::Cluster::run(o, [&](mpi::Rank& rank) {
    Node node(rank);
    auto& world = rank.world();
    std::vector<std::byte> buf(msg_bytes);
    rt::PersistentRequest preq;
    if (rank.rank() == 0) {
      if (persistent) preq = node.runtime.send_init_cl_mem(buf, 1, 9, world);
      for (int i = 0; i < iters; ++i) {
        fill_bytes(buf, 5000 + static_cast<std::uint64_t>(i));
        mpi::Request r = persistent ? node.runtime.start(preq)
                                    : node.runtime.isend_cl_mem(buf, 1, 9, world);
        r.wait(rank.clock());
      }
    } else {
      if (persistent) preq = node.runtime.recv_init_cl_mem(buf, 0, 9, world);
      for (int i = 0; i < iters; ++i) {
        mpi::Request r = persistent ? node.runtime.start(preq)
                                    : node.runtime.irecv_cl_mem(buf, 0, 9, world);
        r.wait(rank.clock());
        outcome.received.emplace_back(buf);
      }
    }
  });
  outcome.hash = tracer.hash();
  outcome.makespan = res.makespan_s;
  return outcome;
}

TEST(ProgressPersistent, ClMemReplayMatchesPlainReissue) {
  // A size large enough to pipeline under the ricc profile: the persistent
  // init must pre-resolve the SAME wire decomposition the plain call derives
  // per message, block tags included.
  for (std::size_t msg : {std::size_t{3000}, std::size_t{768_KiB}}) {
    const ReplayOutcome plain = run_cl_mem_replay(false, msg, 4);
    const ReplayOutcome replay = run_cl_mem_replay(true, msg, 4);
    EXPECT_EQ(plain.hash, replay.hash);
    EXPECT_EQ(plain.makespan, replay.makespan);
    ASSERT_EQ(plain.received.size(), replay.received.size());
    EXPECT_EQ(plain.received, replay.received);
  }
}

// --- continuations -------------------------------------------------------------

TEST(ProgressContinuations, SettleWithoutBlockingWait) {
  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  const std::uint64_t cont0 = counter("progress.continuations");

  mpi::Cluster::run(opts(2), [&](mpi::Rank& rank) {
    auto& world = rank.world();
    std::vector<std::byte> buf(512);
    if (rank.rank() == 0) {
      world.barrier(rank.clock());
      world.send(buf, 1, 1, rank.clock());
    } else {
      // Recv and continuation are registered BEFORE the barrier releases the
      // sender, so the settle is guaranteed to be deferred.
      mpi::Request r = world.irecv(buf, 0, 1, rank.clock());
      std::atomic<bool> fired{false};
      vt::TimePoint done_at{};
      r.on_settle([&](vt::TimePoint when, const mpi::MsgStatus& st,
                      const std::exception_ptr& err) {
        EXPECT_EQ(st.bytes, buf.size());
        EXPECT_FALSE(err);
        done_at = when;
        fired.store(true, std::memory_order_release);
      });
      world.barrier(rank.clock());
      // Poll-only completion: the sender's settle (or the driver) fires the
      // continuation; this rank never parks in wait(). sched::yield() is
      // std::this_thread::yield() on a rank thread, and on a fiber it hands
      // the job's turn to the sender (a raw OS yield would keep it forever).
      while (!fired.load(std::memory_order_acquire)) sched::yield();
      rank.clock().sync_to(done_at);
    }
  });

  EXPECT_GE(counter("progress.continuations") - cont0, 1u);
  obs::set_metrics_enabled(was_enabled);
}

// --- C API ---------------------------------------------------------------------

/// Per-rank C-API session (same shape as the capi_ext suite).
struct Session {
  explicit Session(mpi::Rank& rank)
      : platform(rank.profile(), rank.rank(), rank.tracer()),
        cxx_ctx(platform.device()),
        runtime(rank, platform.device()),
        binding(rank, runtime) {}
  ocl::Platform platform;
  ocl::Context cxx_ctx;
  rt::Runtime runtime;
  capi::ThreadBinding binding;
};

TEST(ProgressCApi, PersistentRoundTripBothDatatypes) {
  constexpr int kStarts = 3;
  mpi::Cluster::run(opts(2), [&](mpi::Rank& rank) {
    Session s(rank);
    int self = -1;
    MPI_Comm_rank(MPI_COMM_WORLD, &self);

    for (MPI_Datatype dt : {MPI_BYTE, MPI_CL_MEM}) {
      // 300000 B exercises the pre-resolved wire decomposition for CL_MEM.
      const int count = dt == MPI_CL_MEM ? 300000 : 4096;
      std::vector<std::byte> buf(static_cast<std::size_t>(count));
      int rc = MPI_ERR_OTHER;
      clmpi_prequest preq =
          self == 0 ? clmpiSendInit(buf.data(), count, dt, 1, 6, MPI_COMM_WORLD, &rc)
                    : clmpiRecvInit(buf.data(), count, dt, 0, 6, MPI_COMM_WORLD, &rc);
      ASSERT_EQ(rc, MPI_SUCCESS);
      ASSERT_NE(preq, nullptr);
      for (int i = 0; i < kStarts; ++i) {
        if (self == 0) fill_bytes(buf, 77 + static_cast<std::uint64_t>(i));
        MPI_Request req;
        ASSERT_EQ(clmpiStart(preq, &req), MPI_SUCCESS);
        ASSERT_EQ(MPI_Wait(&req), MPI_SUCCESS);
        if (self == 1) {
          std::vector<std::byte> want(buf.size());
          fill_bytes(want, 77 + static_cast<std::uint64_t>(i));
          EXPECT_EQ(buf, want);
        }
      }
      EXPECT_EQ(clmpiRequestFree(preq), MPI_SUCCESS);
    }
  });
}

TEST(ProgressCApi, PersistentNegativePaths) {
  mpi::Cluster::run(opts(1), [&](mpi::Rank& rank) {
    Session s(rank);
    std::vector<std::byte> buf(64);
    int rc = MPI_SUCCESS;

    // Argument validation mirrors MPI_Isend/MPI_Irecv.
    EXPECT_EQ(clmpiSendInit(buf.data(), 64, MPI_BYTE, 5, 1, MPI_COMM_WORLD, &rc), nullptr);
    EXPECT_EQ(rc, MPI_ERR_RANK);
    EXPECT_EQ(clmpiSendInit(buf.data(), 64, MPI_BYTE, 0, -3, MPI_COMM_WORLD, &rc), nullptr);
    EXPECT_EQ(rc, MPI_ERR_TAG);
    EXPECT_EQ(clmpiSendInit(buf.data(), 64, MPI_BYTE, 0, 1, nullptr, &rc), nullptr);
    EXPECT_EQ(rc, MPI_ERR_COMM);
    EXPECT_EQ(clmpiSendInit(buf.data(), -1, MPI_BYTE, 0, 1, MPI_COMM_WORLD, &rc), nullptr);
    EXPECT_EQ(rc, MPI_ERR_COUNT);
    EXPECT_EQ(clmpiSendInit(nullptr, 64, MPI_BYTE, 0, 1, MPI_COMM_WORLD, &rc), nullptr);
    EXPECT_EQ(rc, MPI_ERR_BUFFER);
    EXPECT_EQ(clmpiRecvInit(buf.data(), 64, MPI_BYTE, 5, 1, MPI_COMM_WORLD, &rc), nullptr);
    EXPECT_EQ(rc, MPI_ERR_RANK);

    // Handle lifecycle: null / freed handles and a null request out-param.
    MPI_Request req;
    EXPECT_EQ(clmpiStart(nullptr, &req), MPI_ERR_REQUEST);
    clmpi_prequest preq =
        clmpiSendInit(buf.data(), 64, MPI_BYTE, 0, 1, MPI_COMM_WORLD, &rc);
    ASSERT_EQ(rc, MPI_SUCCESS);
    EXPECT_EQ(clmpiStart(preq, nullptr), MPI_ERR_REQUEST);
    EXPECT_EQ(clmpiRequestFree(preq), MPI_SUCCESS);
    EXPECT_EQ(clmpiStart(preq, &req), MPI_ERR_REQUEST);
    EXPECT_EQ(clmpiRequestFree(preq), MPI_ERR_REQUEST);
  });
}

}  // namespace
}  // namespace clmpi
