// Liveness suite: every failure reaches every rank as a typed error, decided
// at the job's stuck point (docs/SCHEDULER.md, docs/RELIABILITY.md), never
// by a real-time guess or the watchdog.
//
//   * A dead peer: a rank that throws cancels the job, so a peer blocked in
//     a receive or a window fence fails with CancelledError and
//     Cluster::run rethrows the first rank's own error.
//   * A deadlock: an unmatched receive with no deadline fails with a
//     DeadlockError that names where each rank was blocked.
//   * Deadlines expire in virtual order: at a stuck point only the earliest
//     deadline expires, so a timeout path that posts the send a later
//     deadline waits for still delivers it — at any worker count.
//   * Per-job detection: a job deadlocked on a shared pool fails while a
//     busy co-tenant keeps running and traces exactly as it does alone.
//   * No helper thread: a standalone run starts only its scheduler workers.
//
// The probes run with and without a caller-supplied JobControl, at 1 and 4
// fiber workers, under a watchdog of a few seconds: a regression aborts the
// run instead of passing slowly.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "simmpi/cluster.hpp"
#include "simmpi/window.hpp"
#include "support/error.hpp"
#include "support/sched.hpp"
#include "support/tenant.hpp"
#include "systems/profile.hpp"
#include "test_util.hpp"
#include "vt/tracer.hpp"

namespace clmpi {
namespace {

constexpr double kWatchdogS = 5.0;

mpi::Cluster::Options opts(int nranks) {
  mpi::Cluster::Options o;
  o.nranks = nranks;
  o.profile = &sys::ricc();
  o.watchdog_seconds = testutil::watchdog_seconds(kWatchdogS);
  return o;
}

/// What a two-rank probe ended with: the status Cluster::run rethrew (and
/// its message), and the status each rank's body itself failed with.
struct Probe {
  Status run{Status::success};
  std::string what;
  std::vector<Status> ranks;
};

template <typename Body>
Probe run_probe(const char* workers, bool caller_job, Body body) {
  testutil::EnvGuard wrk("CLMPI_FIBER_WORKERS", workers);
  tenant::JobControl control(7, tenant::JobQuotas{});
  mpi::Cluster::Options o = opts(2);
  if (caller_job) o.job = &control;
  Probe p;
  p.ranks.assign(2, Status::success);
  try {
    mpi::Cluster::run(o, [&](mpi::Rank& rank) {
      try {
        body(rank);
      } catch (const Error& e) {
        p.ranks[static_cast<std::size_t>(rank.rank())] = e.status();
        throw;
      }
    });
  } catch (const Error& e) {
    p.run = e.status();
    p.what = e.what();
  }
  return p;
}

class Liveness : public ::testing::TestWithParam<const char*> {};

/// Rank 1 tells rank 0 it is ready, then blocks on `block`; rank 0 waits for
/// the note and dies — so rank 1 is already blocked when its peer fails.
template <typename Block>
void die_under_blocked_peer(mpi::Rank& rank, Block block) {
  std::vector<std::byte> note(8);
  if (rank.rank() == 0) {
    rank.world().recv(note, 1, 1, rank.clock());
    throw Error("rank 0 failed", Status::invalid_value);
  }
  rank.world().send(note, 0, 1, rank.clock());
  block();
}

TEST_P(Liveness, DeadPeerBlockingRecvFailsTyped) {
  for (const bool caller_job : {false, true}) {
    const Probe p = run_probe(GetParam(), caller_job, [](mpi::Rank& rank) {
      std::vector<std::byte> buf(64);
      die_under_blocked_peer(rank, [&] { rank.world().recv(buf, 0, 3, rank.clock()); });
    });
    EXPECT_EQ(p.run, Status::invalid_value) << p.what;
    EXPECT_EQ(p.ranks[0], Status::invalid_value);
    EXPECT_EQ(p.ranks[1], Status::cancelled) << "caller_job=" << caller_job;
  }
}

TEST_P(Liveness, UnmatchedRecvWithoutDeadlineFailsAsDeadlock) {
  for (const bool caller_job : {false, true}) {
    const Probe p = run_probe(GetParam(), caller_job, [](mpi::Rank& rank) {
      if (rank.rank() == 0) return;  // never sends
      std::vector<std::byte> buf(64);
      rank.world().recv(buf, 0, 3, rank.clock());
    });
    EXPECT_EQ(p.run, Status::deadlock) << p.what;
    EXPECT_EQ(p.ranks[0], Status::success);
    EXPECT_EQ(p.ranks[1], Status::deadlock);
    EXPECT_NE(p.what.find("rank1: blocked at mpi.request.wait"), std::string::npos) << p.what;
  }
}

TEST_P(Liveness, DeadPeerBeforeFenceFailsTyped) {
  for (const bool caller_job : {false, true}) {
    const Probe p = run_probe(GetParam(), caller_job, [](mpi::Rank& rank) {
      std::vector<std::byte> region(64);
      mpi::Win win = mpi::create_window(rank.world(), region, rank.clock());
      die_under_blocked_peer(rank, [&] { win.fence(rank.clock()); });
    });
    EXPECT_EQ(p.run, Status::invalid_value) << p.what;
    EXPECT_EQ(p.ranks[1], Status::cancelled) << "caller_job=" << caller_job;
  }
}

TEST_P(Liveness, FenceWithoutPeerFailsAsDeadlock) {
  const Probe p = run_probe(GetParam(), false, [](mpi::Rank& rank) {
    std::vector<std::byte> region(64);
    mpi::Win win = mpi::create_window(rank.world(), region, rank.clock());
    if (rank.rank() == 1) win.fence(rank.clock());  // rank 0 never fences
  });
  EXPECT_EQ(p.run, Status::deadlock) << p.what;
  EXPECT_NE(p.what.find("rank1: blocked at mpi.win.fence"), std::string::npos) << p.what;
}

INSTANTIATE_TEST_SUITE_P(Workers, Liveness, ::testing::Values("1", "4"),
                         [](const ::testing::TestParamInfo<const char*>& tp) {
                           return std::string("w") + tp.param;
                         });

// A standalone run drives its own progress: the only threads it starts are
// its scheduler workers.
TEST(LivenessThreads, StandaloneRunStartsOnlyItsWorkers) {
  namespace fs = std::filesystem;
  if (!fs::exists("/proc/self/task")) GTEST_SKIP() << "no /proc/self/task on this host";
  const auto threads = [] {
    return std::distance(fs::directory_iterator("/proc/self/task"), fs::directory_iterator{});
  };
  // A sanitizer runtime may start a helper of its own at the first thread
  // creation; let that happen before counting.
  std::thread([] {}).join();
  const auto before = threads();
  testutil::EnvGuard wrk("CLMPI_FIBER_WORKERS", "1");
  std::ptrdiff_t during = 0;
  mpi::Cluster::run(opts(2), [&](mpi::Rank& rank) {
    if (rank.rank() == 0) during = threads();
  });
  EXPECT_EQ(during, before + 1) << "one worker and no helper thread";
}

// --- deadlines expire in virtual order -----------------------------------------

struct Chain {
  std::uint64_t trace_hash{0};
  double makespan_s{0.0};
  Status first{Status::success};
  bool second_delivered{false};
  double second_done_s{0.0};
};

/// Rank 0's receive (deadline 1 ms) is never matched; its timeout path sends
/// the message rank 1's receive (deadline 5 ms) waits for.
Chain run_chain(const char* workers) {
  testutil::EnvGuard wrk("CLMPI_FIBER_WORKERS", workers);
  vt::Tracer tracer;
  mpi::Cluster::Options o = opts(2);
  o.tracer = &tracer;
  Chain c;
  const mpi::RunResult r = mpi::Cluster::run(o, [&](mpi::Rank& rank) {
    auto& world = rank.world();
    std::vector<std::byte> buf(64);
    if (rank.rank() == 0) {
      mpi::Request never = world.irecv(buf, 1, 1, rank.clock().now(),
                                       mpi::P2POptions{.deadline = vt::milliseconds(1.0)});
      try {
        never.wait(rank.clock());
      } catch (const Error& e) {
        c.first = e.status();
      }
      world.send(buf, 1, 2, rank.clock());
    } else {
      mpi::Request chained = world.irecv(buf, 0, 2, rank.clock().now(),
                                         mpi::P2POptions{.deadline = vt::milliseconds(5.0)});
      chained.wait(rank.clock());
      c.second_delivered = true;
      c.second_done_s = rank.now_s();
    }
  });
  c.trace_hash = tracer.hash();
  c.makespan_s = r.makespan_s;
  return c;
}

TEST(LivenessDeadlines, TimeoutPathFeedsLaterDeadlineAtAnyWorkerCount) {
  const Chain one = run_chain("1");
  EXPECT_EQ(one.first, Status::timeout);
  EXPECT_TRUE(one.second_delivered);
  EXPECT_GT(one.second_done_s, 0.001);
  EXPECT_LT(one.second_done_s, 0.005);
  ASSERT_NE(one.trace_hash, 0u);
  for (const char* workers : {"2", "4"}) {
    const Chain other = run_chain(workers);
    EXPECT_EQ(other.trace_hash, one.trace_hash) << workers << " workers";
    EXPECT_DOUBLE_EQ(other.makespan_s, one.makespan_s) << workers << " workers";
    EXPECT_TRUE(other.second_delivered) << workers << " workers";
  }
}

// --- per-job detection on a shared pool ---------------------------------------

constexpr int kBusyRanks = 4;
constexpr int kBusyIters = 400;

/// A ring exchange with compute, then (rank 0, after all its traffic) a
/// wait that keeps the job live until `release` is set. The wait moves no
/// clock and posts nothing, so the trace is the same however long it lasts.
void busy_ring(mpi::Rank& rank, const std::atomic<bool>& release) {
  auto& world = rank.world();
  const int next = (rank.rank() + 1) % kBusyRanks;
  const int prev = (rank.rank() + kBusyRanks - 1) % kBusyRanks;
  std::vector<std::byte> out(256);
  std::vector<std::byte> in(256);
  for (int i = 0; i < kBusyIters; ++i) {
    rank.compute(vt::microseconds(5.0), "step");
    world.sendrecv(out, next, i, in, prev, i, rank.clock());
  }
  if (rank.rank() == 0) {
    while (!release.load(std::memory_order_acquire)) sched::yield();
  }
}

TEST(LivenessTenancy, DeadlockedJobFailsWhileCoTenantComputes) {
  std::atomic<bool> released{true};
  vt::Tracer solo_tracer;
  mpi::Cluster::Options solo = opts(kBusyRanks);
  solo.tracer = &solo_tracer;
  const mpi::RunResult solo_r =
      mpi::Cluster::run(solo, [&](mpi::Rank& rank) { busy_ring(rank, released); });

  sched::Scheduler pool(sched::Scheduler::Options{.workers = 2});
  pool.start();
  tenant::JobControl busy_job(1, tenant::JobQuotas{});
  tenant::JobControl stuck_job(2, tenant::JobQuotas{});
  std::atomic<bool> stuck_over{false};
  std::optional<Status> stuck_status;
  std::string stuck_what;

  vt::Tracer busy_tracer;
  mpi::Cluster::Options busy = opts(kBusyRanks);
  busy.tracer = &busy_tracer;
  busy.scheduler = &pool;
  busy.job = &busy_job;
  std::optional<mpi::RunResult> busy_r;
  std::exception_ptr busy_error;
  mpi::Cluster::launch(
      busy, [&](mpi::Rank& rank) { busy_ring(rank, stuck_over); },
      [&](mpi::RunResult r, std::exception_ptr e) {
        busy_r = std::move(r);
        busy_error = std::move(e);
      });

  mpi::Cluster::Options stuck = opts(2);
  stuck.scheduler = &pool;
  stuck.job = &stuck_job;
  try {
    mpi::Cluster::run(stuck, [](mpi::Rank& rank) {
      std::vector<std::byte> buf(64);
      rank.world().recv(buf, 1 - rank.rank(), 0, rank.clock());  // both receive first
    });
  } catch (const Error& e) {
    stuck_status = e.status();
    stuck_what = e.what();
  }
  stuck_over.store(true, std::memory_order_release);
  pool.join();

  ASSERT_TRUE(stuck_status.has_value()) << "the deadlocked job returned normally";
  EXPECT_EQ(*stuck_status, Status::deadlock) << stuck_what;
  EXPECT_FALSE(busy_job.cancel_requested());
  EXPECT_FALSE(busy_error);
  ASSERT_TRUE(busy_r.has_value());
  EXPECT_EQ(busy_tracer.hash(), solo_tracer.hash());
  EXPECT_DOUBLE_EQ(busy_r->makespan_s, solo_r.makespan_s);
}

}  // namespace
}  // namespace clmpi
