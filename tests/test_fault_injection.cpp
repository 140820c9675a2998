// Fault-injection subsystem: deterministic verdicts, drop/duplicate/delay
// semantics at the simmpi layer, and error propagation up through the
// transfer strategies, the clMPI runtime and the C API. Every injected
// fault must surface as a defined error status — never a hang, never
// silently corrupted data.
#include <gtest/gtest.h>

#include "test_util.hpp"

#include <cstdlib>
#include <vector>

#include "clmpi/capi.h"
#include "ocl/platform.hpp"
#include "simmpi/cluster.hpp"
#include "simmpi/fault.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/sched.hpp"
#include "support/units.hpp"
#include "vt/tracer.hpp"

namespace clmpi {
namespace {

mpi::Cluster::Options opts(int nranks, mpi::FaultPlan plan = {}) {
  mpi::Cluster::Options o;
  o.nranks = nranks;
  o.profile = &sys::ricc();
  o.watchdog_seconds = testutil::watchdog_seconds(20.0);
  o.faults = plan;
  return o;
}

Status status_of(const std::exception_ptr& err) {
  try {
    std::rethrow_exception(err);
  } catch (const Error& e) {
    return e.status();
  } catch (...) {
    return Status::invalid_operation;
  }
}

// --- the engine itself -------------------------------------------------------

TEST(FaultEngine, VerdictsAreDeterministicPerChannelSequence) {
  mpi::FaultPlan plan;
  plan.seed = 42;
  plan.drop_rate = 0.3;
  plan.duplicate_rate = 0.3;
  plan.reorder_rate = 0.3;
  plan.latency_spike_rate = 0.3;
  plan.stall_rate = 0.3;

  // Engine A: all of channel (0->1) first, then all of (1->0).
  mpi::FaultEngine a(plan);
  std::vector<mpi::FaultDecision> a01, a10;
  for (int i = 0; i < 32; ++i) a01.push_back(a.decide(0, 1, 0, 7));
  for (int i = 0; i < 32; ++i) a10.push_back(a.decide(1, 0, 0, 7));

  // Engine B: the same traffic interleaved — as two racing rank threads
  // would produce it. Per-channel verdict sequences must be identical.
  mpi::FaultEngine b(plan);
  std::vector<mpi::FaultDecision> b01, b10;
  for (int i = 0; i < 32; ++i) {
    b10.push_back(b.decide(1, 0, 0, 7));
    b01.push_back(b.decide(0, 1, 0, 7));
  }
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(a01[static_cast<std::size_t>(i)].drop, b01[static_cast<std::size_t>(i)].drop);
    EXPECT_EQ(a01[static_cast<std::size_t>(i)].duplicate,
              b01[static_cast<std::size_t>(i)].duplicate);
    EXPECT_EQ(a01[static_cast<std::size_t>(i)].delay.s,
              b01[static_cast<std::size_t>(i)].delay.s);
    EXPECT_EQ(a10[static_cast<std::size_t>(i)].drop, b10[static_cast<std::size_t>(i)].drop);
  }

  const mpi::FaultCounters ca = a.counters();
  EXPECT_EQ(ca.messages, 64u);
}

TEST(FaultEngine, SeedChangesVerdicts) {
  mpi::FaultPlan plan;
  plan.drop_rate = 0.5;
  plan.seed = 1;
  mpi::FaultEngine a(plan);
  plan.seed = 2;
  mpi::FaultEngine b(plan);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.decide(0, 1, 0, 0).drop != b.decide(0, 1, 0, 0).drop) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultEngine, DisabledPlanReportsDisabled) {
  mpi::FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  plan.seed = 99;  // a seed alone injects nothing
  EXPECT_FALSE(plan.enabled());
  plan.drop_rate = 0.1;
  EXPECT_TRUE(plan.enabled());
}

// --- drop semantics at the simmpi layer --------------------------------------

class DropSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DropSizes, FailsBothEndpointsWithMessageDropped) {
  const std::size_t n = GetParam();
  mpi::FaultPlan plan;
  plan.seed = 7;
  plan.drop_rate = 1.0;
  const mpi::RunResult res = mpi::Cluster::run(opts(2, plan), [n](mpi::Rank& rank) {
    std::vector<std::byte> buf(n);
    bool threw = false;
    try {
      if (rank.rank() == 0) {
        fill_pattern(buf, 5);
        rank.world().send(buf, 1, 3, rank.clock());
      } else {
        rank.world().recv(buf, 0, 3, rank.clock());
      }
    } catch (const Error& e) {
      threw = true;
      EXPECT_EQ(e.status(), Status::message_dropped);
    }
    EXPECT_TRUE(threw) << "rank " << rank.rank() << " completed a dropped message";
  });
  EXPECT_EQ(res.faults.messages, 1u);
  EXPECT_EQ(res.faults.drops, 1u);
}

// One eager (below the 64 KiB threshold) and one rendezvous message.
INSTANTIATE_TEST_SUITE_P(EagerAndRendezvous, DropSizes,
                         ::testing::Values(1024u, 1u << 20));

TEST(FaultInjection, DropErrorCarriedByRequestWithoutRethrow) {
  mpi::FaultPlan plan;
  plan.seed = 11;
  plan.drop_rate = 1.0;
  mpi::Cluster::run(opts(2, plan), [](mpi::Rank& rank) {
    std::vector<std::byte> buf(2048);
    mpi::Request req = rank.rank() == 0
                           ? rank.world().isend(buf, 1, 0, rank.clock())
                           : rank.world().irecv(buf, 0, 0, rank.clock());
    // Completion callbacks observe the failure without unwinding anything.
    // Yield while polling: on the fiber launcher a spin that never yields
    // starves the peer rank and the idle task that flushes coalesced sends.
    while (!req.done()) sched::yield();
    ASSERT_NE(req.error(), nullptr);
    EXPECT_EQ(status_of(req.error()), Status::message_dropped);
  });
}

// --- timing faults -----------------------------------------------------------

double pingpong_makespan(const mpi::FaultPlan& plan, std::size_t bytes, int rounds) {
  const mpi::RunResult res =
      mpi::Cluster::run(opts(2, plan), [bytes, rounds](mpi::Rank& rank) {
        std::vector<std::byte> buf(bytes);
        for (int i = 0; i < rounds; ++i) {
          if (rank.rank() == 0) {
            rank.world().send(buf, 1, i, rank.clock());
            rank.world().recv(buf, 1, 1000 + i, rank.clock());
          } else {
            rank.world().recv(buf, 0, i, rank.clock());
            rank.world().send(buf, 0, 1000 + i, rank.clock());
          }
        }
      });
  return res.makespan_s;
}

TEST(FaultInjection, DuplicateChargesTheWireTwice) {
  mpi::FaultPlan healthy;
  mpi::FaultPlan dup;
  dup.seed = 3;
  dup.duplicate_rate = 1.0;
  EXPECT_GT(pingpong_makespan(dup, 1_MiB, 4), pingpong_makespan(healthy, 1_MiB, 4));
}

TEST(FaultInjection, NicDegradationSlowsTransfers) {
  mpi::FaultPlan healthy;
  mpi::FaultPlan degraded;
  degraded.seed = 3;
  degraded.nic_degradation = 0.5;
  EXPECT_GT(pingpong_makespan(degraded, 1_MiB, 4), pingpong_makespan(healthy, 1_MiB, 4));
}

TEST(FaultInjection, StallDelaysEveryPost) {
  mpi::FaultPlan healthy;
  mpi::FaultPlan stall;
  stall.seed = 3;
  stall.stall_rate = 1.0;
  stall.stall = vt::milliseconds(2.0);
  const double base = pingpong_makespan(healthy, 64_KiB, 4);
  // 8 messages, each stalled by 2 ms, all on the critical path.
  EXPECT_GE(pingpong_makespan(stall, 64_KiB, 4), base + 8 * 2e-3);
}

TEST(FaultInjection, ReorderAndSpikeDelayButDeliver) {
  mpi::FaultPlan plan;
  plan.seed = 5;
  plan.reorder_rate = 1.0;
  plan.latency_spike_rate = 1.0;
  const mpi::RunResult res = mpi::Cluster::run(opts(2, plan), [](mpi::Rank& rank) {
    std::vector<std::byte> buf(32_KiB);
    if (rank.rank() == 0) {
      fill_pattern(buf, 21);
      rank.world().send(buf, 1, 0, rank.clock());
    } else {
      rank.world().recv(buf, 0, 0, rank.clock());
      EXPECT_TRUE(check_pattern(buf, 21));  // delayed, never corrupted
    }
  });
  EXPECT_EQ(res.faults.delays, 1u);
  EXPECT_EQ(res.faults.drops, 0u);
}

TEST(FaultInjection, SameSeedSameTraceHashDifferentSeedLikelyNot) {
  mpi::FaultPlan plan;
  plan.seed = 1234;
  plan.drop_rate = 0.2;
  plan.duplicate_rate = 0.2;
  plan.reorder_rate = 0.3;
  auto run_hash = [&](std::uint64_t seed) {
    vt::Tracer tracer;
    mpi::FaultPlan p = plan;
    p.seed = seed;
    mpi::Cluster::Options o = opts(2, p);
    o.tracer = &tracer;
    mpi::Cluster::run(o, [](mpi::Rank& rank) {
      std::vector<std::byte> buf(128_KiB);
      for (int i = 0; i < 6; ++i) {
        try {
          if (rank.rank() == 0) {
            rank.world().send(buf, 1, i, rank.clock());
          } else {
            rank.world().recv(buf, 0, i, rank.clock());
          }
        } catch (const Error& e) {
          EXPECT_EQ(e.status(), Status::message_dropped);
        }
      }
    });
    return tracer.hash();
  };
  EXPECT_EQ(run_hash(900), run_hash(900));
  EXPECT_NE(run_hash(900), run_hash(901));
}

TEST(FaultInjection, DisabledPlanMatchesNoPlanTrace) {
  auto run_hash = [&](const mpi::FaultPlan& plan) {
    vt::Tracer tracer;
    mpi::Cluster::Options o = opts(2, plan);
    o.tracer = &tracer;
    const mpi::RunResult res = mpi::Cluster::run(o, [](mpi::Rank& rank) {
      std::vector<std::byte> buf(256_KiB);
      if (rank.rank() == 0) {
        rank.world().send(buf, 1, 0, rank.clock());
      } else {
        rank.world().recv(buf, 0, 0, rank.clock());
      }
    });
    EXPECT_EQ(res.faults.messages, 0u);
    return tracer.hash();
  };
  mpi::FaultPlan seeded_but_disabled;
  seeded_but_disabled.seed = 77;
  EXPECT_EQ(run_hash(mpi::FaultPlan{}), run_hash(seeded_but_disabled));
}

// --- propagation through the clMPI runtime and the C API ---------------------

struct Session {
  explicit Session(mpi::Rank& rank)
      : platform(rank.profile(), rank.rank(), rank.tracer()),
        cxx_ctx(platform.device()),
        runtime(rank, platform.device()),
        binding(rank, runtime) {
    ctx = clmpiCreateContext(cxx_ctx);
    cl_int err = CL_SUCCESS;
    cmd = clCreateCommandQueue(ctx, &err);
    EXPECT_EQ(err, CL_SUCCESS);
  }
  ~Session() {
    clReleaseCommandQueue(cmd);
    clReleaseContext(ctx);
  }

  ocl::Platform platform;
  ocl::Context cxx_ctx;
  rt::Runtime runtime;
  capi::ThreadBinding binding;
  cl_context ctx{nullptr};
  cl_command_queue cmd{nullptr};
};

TEST(FaultInjection, BlockingEnqueueReturnsMessageDropped) {
  mpi::FaultPlan plan;
  plan.seed = 17;
  plan.drop_rate = 1.0;
  constexpr std::size_t size = 256_KiB;
  mpi::Cluster::run(opts(2, plan), [&](mpi::Rank& rank) {
    Session s(rank);
    cl_int err = CL_SUCCESS;
    cl_mem buf = clCreateBuffer(s.ctx, size, &err);
    const int self = rank.rank();
    const cl_int rc =
        self == 0 ? clEnqueueSendBuffer(s.cmd, buf, CL_TRUE, 0, size, 1, 0, MPI_COMM_WORLD,
                                        0, nullptr, nullptr)
                  : clEnqueueRecvBuffer(s.cmd, buf, CL_TRUE, 0, size, 0, 0, MPI_COMM_WORLD,
                                        0, nullptr, nullptr);
    EXPECT_EQ(rc, CLMPI_MESSAGE_DROPPED);
    clReleaseMemObject(buf);
  });
}

TEST(FaultInjection, EventWaitReturnsMessageDropped) {
  mpi::FaultPlan plan;
  plan.seed = 18;
  plan.drop_rate = 1.0;
  constexpr std::size_t size = 256_KiB;
  mpi::Cluster::run(opts(2, plan), [&](mpi::Rank& rank) {
    Session s(rank);
    cl_int err = CL_SUCCESS;
    cl_mem buf = clCreateBuffer(s.ctx, size, &err);
    cl_event evt = nullptr;
    const int self = rank.rank();
    const cl_int rc =
        self == 0 ? clEnqueueSendBuffer(s.cmd, buf, CL_FALSE, 0, size, 1, 0, MPI_COMM_WORLD,
                                        0, nullptr, &evt)
                  : clEnqueueRecvBuffer(s.cmd, buf, CL_FALSE, 0, size, 0, 0, MPI_COMM_WORLD,
                                        0, nullptr, &evt);
    EXPECT_EQ(rc, CL_SUCCESS);  // posting succeeds; the failure is async
    ASSERT_NE(evt, nullptr);
    EXPECT_EQ(clWaitForEvents(1, &evt), CLMPI_MESSAGE_DROPPED);
    clReleaseEvent(evt);
    clReleaseMemObject(buf);
  });
}

TEST(FaultInjection, MpiWrappersReportDroppedMessages) {
  mpi::FaultPlan plan;
  plan.seed = 19;
  plan.drop_rate = 1.0;
  mpi::Cluster::run(opts(2, plan), [&](mpi::Rank& rank) {
    Session s(rank);
    std::vector<double> v(64, 1.0);
    const int self = rank.rank();
    const int rc = self == 0 ? MPI_Send(v.data(), 64, MPI_DOUBLE, 1, 0, MPI_COMM_WORLD)
                             : MPI_Recv(v.data(), 64, MPI_DOUBLE, 0, 0, MPI_COMM_WORLD);
    EXPECT_EQ(rc, MPI_ERR_OTHER);
  });
}

TEST(FaultInjection, PipelinedClMemAggregateFailsOnDrop) {
  // 16 MiB through the MPI_CL_MEM path pipelines into many sub-requests on
  // RICC; a dropped block must fail the aggregate request, and only after
  // every sibling block settles.
  mpi::FaultPlan plan;
  plan.seed = 23;
  plan.drop_rate = 0.6;
  constexpr std::size_t size = 16_MiB;
  const mpi::RunResult res = mpi::Cluster::run(opts(2, plan), [&](mpi::Rank& rank) {
    Session s(rank);
    cl_int err = CL_SUCCESS;
    cl_mem buf = clCreateBuffer(s.ctx, size, &err);
    auto storage = clmpiGetBuffer(buf)->storage();
    const int self = rank.rank();
    MPI_Request req;
    int rc;
    if (self == 0) {
      rc = MPI_Isend(storage.data(), static_cast<int>(size), MPI_CL_MEM, 1, 0,
                     MPI_COMM_WORLD, &req);
    } else {
      rc = MPI_Irecv(storage.data(), static_cast<int>(size), MPI_CL_MEM, 0, 0,
                     MPI_COMM_WORLD, &req);
    }
    EXPECT_EQ(rc, MPI_SUCCESS);
    EXPECT_EQ(MPI_Wait(&req), MPI_ERR_OTHER);
    clReleaseMemObject(buf);
  });
  EXPECT_GT(res.faults.drops, 0u);  // the seed really did drop blocks
}

TEST(FaultInjection, EventFromRequestPropagatesFailure) {
  mpi::FaultPlan plan;
  plan.seed = 29;
  plan.drop_rate = 1.0;
  mpi::Cluster::run(opts(2, plan), [&](mpi::Rank& rank) {
    Session s(rank);
    std::vector<std::byte> host(4096);
    MPI_Request req;
    const int self = rank.rank();
    const int rc = self == 0
                       ? MPI_Isend(host.data(), 4096, MPI_BYTE, 1, 0, MPI_COMM_WORLD, &req)
                       : MPI_Irecv(host.data(), 4096, MPI_BYTE, 0, 0, MPI_COMM_WORLD, &req);
    ASSERT_EQ(rc, MPI_SUCCESS);
    cl_int err = CL_SUCCESS;
    cl_event evt = clCreateEventFromMPIRequest(s.ctx, &req, &err);
    ASSERT_EQ(err, CL_SUCCESS);
    ASSERT_NE(evt, nullptr);
    EXPECT_EQ(clWaitForEvents(1, &evt), CLMPI_MESSAGE_DROPPED);
    clReleaseEvent(evt);
  });
}

// --- watchdog override helper ------------------------------------------------

TEST(TestUtil, WatchdogEnvOverride) {
  ASSERT_EQ(unsetenv("CLMPI_TEST_WATCHDOG"), 0);
  EXPECT_DOUBLE_EQ(testutil::watchdog_seconds(12.0), 12.0);
  ASSERT_EQ(setenv("CLMPI_TEST_WATCHDOG", "3.5", 1), 0);
  EXPECT_DOUBLE_EQ(testutil::watchdog_seconds(12.0), 3.5);
  ASSERT_EQ(setenv("CLMPI_TEST_WATCHDOG", "garbage", 1), 0);
  EXPECT_DOUBLE_EQ(testutil::watchdog_seconds(12.0), 12.0);
  ASSERT_EQ(setenv("CLMPI_TEST_WATCHDOG", "-4", 1), 0);
  EXPECT_DOUBLE_EQ(testutil::watchdog_seconds(12.0), 12.0);
  ASSERT_EQ(unsetenv("CLMPI_TEST_WATCHDOG"), 0);
}

}  // namespace
}  // namespace clmpi
