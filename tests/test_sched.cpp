// Cooperative-scheduler suite (docs/SCHEDULER.md).
//
//   * Worker-count neutrality: the SAME workload run at CLMPI_FIBER_WORKERS
//     1, 2 and 4 must produce bit-identical virtual time — equal trace
//     hashes, makespans and fault counters. Covered for a mixed pure-MPI
//     workload (p2p + probe + collectives + non-blocking collectives + RMA
//     epochs), for a chaos-style device-transfer workload through the clMPI
//     runtime (queue workers + dispatcher running as service fibers), with
//     and without injected faults, and for a contended fan-in with unequal
//     ready times and offloaded kernel bodies.
//   * Oversubscription: many more ranks than workers (512 ranks on <= 4
//     workers) completes and stays bit-identical across worker counts.
//   * The per-job turn: never two fibers of one job running at once; and
//     sched::offload returns only after its body ran, rethrowing its error.
//   * Context migration: rank-scoped state (the capi ThreadBinding, the
//     strategy memo, the staging-pool node cache) must follow a rank's fiber
//     across worker threads and never leak to another rank time-sharing the
//     same worker. With ONE worker, every rank shares one OS thread: any
//     thread_local remnant trips immediately.
//   * Error aggregation: Cluster::run rethrows the first rank error and
//     counts (not swallows) the secondary ones.
#include <gtest/gtest.h>

#include "test_util.hpp"

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "clmpi/capi.h"
#include "clmpi/runtime.hpp"
#include "obs/metrics.hpp"
#include "ocl/context.hpp"
#include "ocl/kernel.hpp"
#include "ocl/platform.hpp"
#include "ocl/queue.hpp"
#include "simmpi/cluster.hpp"
#include "simmpi/fault.hpp"
#include "simmpi/window.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/sched.hpp"
#include "transfer/strategy.hpp"
#include "vt/tracer.hpp"

namespace clmpi {
namespace {

std::span<const std::byte> bytes_of(const auto& v) { return std::as_bytes(std::span(v)); }
std::span<std::byte> mut_bytes_of(auto& v) { return std::as_writable_bytes(std::span(v)); }

/// CLMPI_FIBER_WORKERS is read per Cluster::run, so flipping it between runs
/// inside one test is well-defined.
using testutil::EnvGuard;

mpi::Cluster::Options opts(int nranks, vt::Tracer* tracer) {
  mpi::Cluster::Options o;
  o.nranks = nranks;
  o.profile = &sys::ricc();
  o.tracer = tracer;
  o.watchdog_seconds = testutil::watchdog_seconds(60.0);
  return o;
}

struct Outcome {
  std::uint64_t trace_hash{0};
  double makespan_s{0.0};
  mpi::FaultCounters faults;
};

void expect_equal(const Outcome& a, const Outcome& b, const char* what) {
  EXPECT_EQ(a.trace_hash, b.trace_hash) << what;
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s) << what;
  EXPECT_EQ(a.faults.messages, b.faults.messages) << what;
  EXPECT_EQ(a.faults.drops, b.faults.drops) << what;
  EXPECT_EQ(a.faults.duplicates, b.faults.duplicates) << what;
  EXPECT_EQ(a.faults.delays, b.faults.delays) << what;
}

/// Run `run(workers)` at 1, 2 and 4 fiber workers and hold the larger pools
/// to the one-worker outcome.
template <typename Run>
void expect_worker_count_neutral(Run run) {
  const Outcome one = run("1");
  ASSERT_NE(one.trace_hash, 0u);
  expect_equal(run("2"), one, "2 workers vs 1 worker");
  expect_equal(run("4"), one, "4 workers vs 1 worker");
}

// --- mixed pure-MPI workload -------------------------------------------------

/// Which synchronizing collective the mixed loop interleaves between the
/// p2p phase and the RMA epoch: a blocking reduction, or a non-blocking
/// barrier driven by its background progression service. Each variant is a
/// separate Cluster::run.
enum class Collective { allreduce, ibarrier };

/// Touches every blocking site the scheduler converted: request waits (send/
/// recv), mailbox probe, collective rendezvous or non-blocking collective
/// progression (aux service), window create/fence/free.
void mixed_mpi_workload(mpi::Rank& rank, int nranks, int iters, Collective coll) {
  auto& world = rank.world();
  const int next = (rank.rank() + 1) % nranks;
  const int prev = (rank.rank() + nranks - 1) % nranks;
  std::vector<double> out(32, rank.rank() + 1.0);
  std::vector<double> in(32);
  for (int iter = 0; iter < iters; ++iter) {
    mpi::Request s = world.isend(bytes_of(out), next, 7, rank.clock());
    (void)world.probe(prev, 7, rank.clock());
    world.recv(mut_bytes_of(in), prev, 7, rank.clock());
    s.wait(rank.clock());
    EXPECT_DOUBLE_EQ(in[0], prev + 1.0);

    if (coll == Collective::allreduce) {
      std::vector<double> sum(32);
      world.allreduce(bytes_of(in), mut_bytes_of(sum), mpi::Datatype::float64,
                      mpi::ReduceOp::sum, rank.clock());
    } else {
      mpi::Request b = world.ibarrier(rank.clock());
      b.wait(rank.clock());
    }

    std::vector<std::byte> region(64);
    mpi::Win win = mpi::create_window(world, region, rank.clock());
    win.fence(rank.clock());
    std::vector<std::byte> payload(16, std::byte{static_cast<unsigned char>(rank.rank())});
    win.put(payload, next, 0, rank.clock().now());
    win.fence(rank.clock());
    EXPECT_EQ(region[0], std::byte{static_cast<unsigned char>(prev)});
    win.free(rank.clock());
  }
}

Outcome run_mixed(const char* workers, int nranks, int iters, Collective coll) {
  EnvGuard wrk("CLMPI_FIBER_WORKERS", workers);
  vt::Tracer tracer;
  const mpi::RunResult res =
      mpi::Cluster::run(opts(nranks, &tracer),
                        [&](mpi::Rank& r) { mixed_mpi_workload(r, nranks, iters, coll); });
  return {tracer.hash(), res.makespan_s, res.faults};
}

TEST(SchedWorkerCount, MixedMpiWorkloadBitIdentical) {
  for (int nranks : {2, 4, 8}) {
    for (Collective coll : {Collective::allreduce, Collective::ibarrier}) {
      SCOPED_TRACE("nranks=" + std::to_string(nranks) + " coll=" +
                   (coll == Collective::allreduce ? "allreduce" : "ibarrier"));
      expect_worker_count_neutral([&](const char* w) { return run_mixed(w, nranks, 3, coll); });
    }
  }
}

// --- device-transfer workload (chaos subset) --------------------------------

struct Node {
  explicit Node(mpi::Rank& rank)
      : platform(rank.profile(), rank.rank(), rank.tracer()),
        ctx(platform.device()),
        runtime(rank, platform.device()) {}

  ocl::Platform platform;
  ocl::Context ctx;
  rt::Runtime runtime;
};

/// Lockstep blocking device-buffer ping-pong between two ranks, exercising
/// the command-queue worker and the clMPI dispatcher as service fibers.
Outcome run_device(const char* workers, const mpi::FaultPlan& plan,
                   const xfer::Strategy& strategy) {
  EnvGuard wrk("CLMPI_FIBER_WORKERS", workers);
  vt::Tracer tracer;
  auto o = opts(2, &tracer);
  o.faults = plan;
  std::atomic<int> delivered{0};
  std::atomic<int> dropped{0};
  const mpi::RunResult res = mpi::Cluster::run(o, [&](mpi::Rank& rank) {
    Node node(rank);
    auto queue = node.ctx.create_queue();
    constexpr std::size_t kSize = 48 * 1024;
    ocl::BufferPtr buf = node.ctx.create_buffer(kSize);
    for (int i = 0; i < 6; ++i) {
      const bool sender = (rank.rank() == i % 2);
      try {
        if (sender) {
          std::memset(buf->storage().data(), 0x40 + i, kSize);
          node.runtime.enqueue_send_buffer(*queue, buf, true, 0, kSize, 1 - rank.rank(), i,
                                           rank.world(), {}, strategy);
        } else {
          node.runtime.enqueue_recv_buffer(*queue, buf, true, 0, kSize, 1 - rank.rank(), i,
                                           rank.world(), {}, strategy);
          EXPECT_EQ(std::to_integer<int>(buf->storage()[kSize - 1]), 0x40 + i);
          ++delivered;
        }
      } catch (const Error& e) {
        EXPECT_EQ(e.status(), Status::message_dropped) << e.what();
        if (!sender) ++dropped;
      }
    }
  });
  // Each rank receives 3 of the 6 alternating transfers; every one either
  // lands or drops.
  EXPECT_EQ(delivered + dropped, 6);
  return {tracer.hash(), res.makespan_s, res.faults};
}

TEST(SchedWorkerCount, DeviceTransfersBitIdentical) {
  mpi::FaultPlan none;
  mpi::FaultPlan drops;
  drops.seed = 0x5EEDu;
  drops.drop_rate = 0.3;
  mpi::FaultPlan spikes;
  spikes.seed = 0x5EEDu;
  spikes.latency_spike_rate = 0.6;
  int i = 0;
  for (const mpi::FaultPlan* plan : {&none, &drops, &spikes}) {
    for (const xfer::Strategy& strategy :
         {xfer::Strategy::pinned(), xfer::Strategy::pipelined(16 * 1024)}) {
      SCOPED_TRACE("scenario " + std::to_string(i++));
      expect_worker_count_neutral([&](const char* w) { return run_device(w, *plan, strategy); });
    }
  }
}

// --- oversubscription --------------------------------------------------------

Outcome run_ring(const char* workers, int nranks) {
  EnvGuard wrk("CLMPI_FIBER_WORKERS", workers);
  vt::Tracer tracer;
  const mpi::RunResult res =
      mpi::Cluster::run(opts(nranks, &tracer), [&](mpi::Rank& rank) {
        auto& world = rank.world();
        const int next = (rank.rank() + 1) % nranks;
        const int prev = (rank.rank() + nranks - 1) % nranks;
        std::vector<std::uint64_t> out(8, static_cast<std::uint64_t>(rank.rank()));
        std::vector<std::uint64_t> in(8);
        for (int iter = 0; iter < 2; ++iter) {
          mpi::Request s = world.isend(bytes_of(out), next, iter, rank.clock());
          world.recv(mut_bytes_of(in), prev, iter, rank.clock());
          s.wait(rank.clock());
          EXPECT_EQ(in[0], static_cast<std::uint64_t>(prev));
        }
        std::vector<std::uint64_t> sum(8);
        world.allreduce(bytes_of(out), mut_bytes_of(sum), mpi::Datatype::uint64,
                        mpi::ReduceOp::sum, rank.clock());
        const std::uint64_t n = static_cast<std::uint64_t>(nranks);
        EXPECT_EQ(sum[0], n * (n - 1) / 2);
      });
  return {tracer.hash(), res.makespan_s, res.faults};
}

TEST(SchedOversubscription, ManyRanksFewWorkersBitIdentical) {
  constexpr int kRanks = 512;
  // Worker-count neutrality and run-to-run identity on a ring + 512-rank
  // reduce tree: the multiplexing degree must not leak into virtual time.
  // The runs double as a determinism oracle — the coalescer backstop runs
  // in the scheduler's idle task precisely so this workload is reproducible
  // (a wall-clock tick flush would reorder the wire backfill).
  expect_worker_count_neutral([](const char* w) { return run_ring(w, kRanks); });
}

// --- worker-count neutrality under contention ---------------------------------

/// Contended fan-in (the ProgressNeutrality workload's shape): three senders
/// race variable-size eager messages into rank 0's RX resource with UNEQUAL
/// ready times, where vt::Resource backfill alone does not make the grant
/// order irrelevant. Every rank first launches a device kernel, so offloaded
/// kernel bodies run on spare workers while the fan-in proceeds.
Outcome run_fanin(const char* workers, std::uint64_t seed) {
  EnvGuard wrk("CLMPI_FIBER_WORKERS", workers);
  constexpr int kRanks = 4;
  constexpr int kPerSender = 24;
  constexpr std::size_t kItems = 4096;
  vt::Tracer tracer;
  const mpi::RunResult res = mpi::Cluster::run(opts(kRanks, &tracer), [&](mpi::Rank& rank) {
    Node node(rank);
    auto queue = node.ctx.create_queue();
    ocl::BufferPtr buf = node.ctx.create_buffer(kItems * sizeof(float));
    ocl::Program prog;
    prog.define(
        "fill",
        [](const ocl::NDRange& r, const ocl::KernelArgs& args) {
          auto out = args.span_of<float>(0);
          const auto v = static_cast<float>(args.scalar(1));
          for (std::size_t i = 0; i < r.total(); ++i) out[i] = v;
        },
        ocl::flops_per_item(64.0));
    auto kernel = prog.create_kernel("fill");
    kernel->set_arg(0, buf);
    kernel->set_arg(1, rank.rank() + 1.0);
    ocl::EventPtr filled =
        queue->enqueue_ndrange(kernel, ocl::NDRange::linear(kItems), {}, rank.clock());

    auto& world = rank.world();
    std::vector<std::vector<std::byte>> bufs;
    std::vector<mpi::Request> reqs;
    for (int src = 1; src < kRanks; ++src) {
      if (rank.rank() != 0 && rank.rank() != src) continue;
      Rng sizes(seed * 977 + static_cast<std::uint64_t>(src));
      for (int i = 0; i < kPerSender; ++i) {
        bufs.emplace_back(1 + sizes.below(512));
        reqs.push_back(rank.rank() == 0
                           ? world.irecv(bufs.back(), src, src * 100 + i, rank.clock())
                           : world.isend(bufs.back(), 0, src * 100 + i, rank.clock()));
      }
    }
    for (auto& r : reqs) r.wait(rank.clock());

    filled->wait(rank.clock());
    EXPECT_FLOAT_EQ(buf->as<float>()[kItems - 1], static_cast<float>(rank.rank()) + 1.0f);
    world.barrier(rank.clock());
    std::vector<std::byte> out(128), in(128);
    world.sendrecv(out, (rank.rank() + 1) % kRanks, 5, in, (rank.rank() + kRanks - 1) % kRanks,
                   5, rank.clock());
  });
  return {tracer.hash(), res.makespan_s, res.faults};
}

TEST(SchedWorkerCount, ContendedFanInBitIdentical) {
  for (std::uint64_t seed : {11u, 42u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    expect_worker_count_neutral([&](const char* w) { return run_fanin(w, seed); });
  }
}

// --- the per-job turn and offload --------------------------------------------

TEST(SchedTurn, OneFiberPerJobAtATime) {
  // Eight fibers of one job on four workers: never two of them inside a
  // turn at once, however long a turn runs.
  sched::Scheduler scheduler(sched::Scheduler::Options{.workers = 4});
  std::atomic<int> inside{0};
  std::atomic<int> max_inside{0};
  for (int f = 0; f < 8; ++f) {
    scheduler.spawn(
        [&] {
          for (int turn = 0; turn < 20; ++turn) {
            const int now = inside.fetch_add(1) + 1;
            int seen = max_inside.load();
            while (now > seen && !max_inside.compare_exchange_weak(seen, now)) {
            }
            std::this_thread::sleep_for(std::chrono::microseconds(20));
            inside.fetch_sub(1);
            sched::yield();
          }
        },
        "turn" + std::to_string(f), /*job=*/7);
  }
  scheduler.start();
  scheduler.join();
  EXPECT_EQ(max_inside.load(), 1);
}

TEST(SchedTurn, BatchedJobStartsInFifoRounds) {
  // A job queued as one batch on an already running pool takes its turns
  // in batch order: every fiber's first turn comes before any second one.
  sched::Scheduler scheduler(sched::Scheduler::Options{.workers = 2});
  scheduler.start();
  constexpr int kFibers = 8;
  constexpr int kTurns = 3;
  std::mutex mutex;
  std::vector<int> order;
  std::atomic<int> done{0};
  std::vector<sched::Scheduler::Task> tasks;
  for (int f = 0; f < kFibers; ++f) {
    tasks.push_back({[&, f] {
                       for (int turn = 0; turn < kTurns; ++turn) {
                         {
                           std::lock_guard lock(mutex);
                           order.push_back(f);
                         }
                         sched::yield();
                       }
                       ++done;
                     },
                     "batch" + std::to_string(f)});
  }
  scheduler.spawn(std::move(tasks), /*job=*/3);
  while (done.load() < kFibers) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  scheduler.join();
  std::vector<int> expected;
  for (int turn = 0; turn < kTurns; ++turn) {
    for (int f = 0; f < kFibers; ++f) expected.push_back(f);
  }
  EXPECT_EQ(order, expected);
}

TEST(SchedOffload, ReturnsAfterBodyFinishedAndRethrows) {
  sched::Scheduler scheduler(sched::Scheduler::Options{.workers = 4});
  constexpr int kFibers = 6;
  std::atomic<int> finished_before_return{0};
  std::atomic<int> rethrown{0};
  for (int f = 0; f < kFibers; ++f) {
    scheduler.spawn(
        [&] {
          for (int i = 0; i < 4; ++i) {
            std::atomic<bool> body_done{false};
            sched::offload([&] {
              std::this_thread::sleep_for(std::chrono::microseconds(200));
              body_done.store(true);
            });
            if (body_done.load()) ++finished_before_return;
          }
          try {
            sched::offload([] { throw Error("kernel failed", Status::invalid_operation); });
          } catch (const Error& e) {
            if (e.status() == Status::invalid_operation) ++rethrown;
          }
        },
        "offloader" + std::to_string(f));
  }
  scheduler.start();
  scheduler.join();
  EXPECT_EQ(finished_before_return.load(), kFibers * 4);
  EXPECT_EQ(rethrown.load(), kFibers);
}

TEST(SchedOffload, RunsInlineOnPlainThread) {
  ASSERT_FALSE(sched::on_fiber());
  std::thread::id ran_on;
  sched::offload([&] { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_THROW(sched::offload([] { throw Error("boom", Status::invalid_operation); }), Error);
}

// --- rank-context migration --------------------------------------------------

TEST(SchedMigration, RankScopedStateSurvivesWorkerSharing) {
  // ONE worker: all four ranks (and their runtimes' service fibers) time-
  // share a single OS thread. Any leftover thread_local rank state — the
  // capi binding, the strategy memo, the staging-pool cache — would be
  // shared by all four and trip immediately: ThreadBinding construction
  // requires an empty slot, and MPI_Comm_rank must return the OWN rank
  // after every scheduling point.
  EnvGuard wrk("CLMPI_FIBER_WORKERS", "1");
  constexpr int kRanks = 4;
  mpi::Cluster::run(opts(kRanks, nullptr), [&](mpi::Rank& rank) {
    Node node(rank);
    capi::ThreadBinding binding(rank, node.runtime);
    auto& world = rank.world();
    for (int iter = 0; iter < 4; ++iter) {
      // Rendezvous: a guaranteed yield/migration point for every rank.
      world.barrier(rank.clock());
      int self = -1;
      ASSERT_EQ(MPI_Comm_rank(MPI_COMM_WORLD, &self), 0);
      EXPECT_EQ(self, rank.rank());
      // The strategy memo is rank-scoped: repeated selection stays
      // self-consistent under migration.
      const xfer::Strategy a = xfer::select(rank.profile(), 1024u << iter,
                                            xfer::SelectionMode::heuristic);
      const xfer::Strategy b = xfer::select(rank.profile(), 1024u << iter,
                                            xfer::SelectionMode::heuristic);
      EXPECT_EQ(a.kind, b.kind);
    }
  });
}

// --- error aggregation -------------------------------------------------------

std::uint64_t suppressed_counter() {
  std::uint64_t v = 0;
  (void)obs::Registry::instance().value("cluster.suppressed_errors", v);
  return v;
}

TEST(SchedErrors, SecondaryRankErrorsAreCountedNotSwallowed) {
  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  const std::uint64_t before = suppressed_counter();
  constexpr int kRanks = 3;
  EXPECT_THROW(
      mpi::Cluster::run(opts(kRanks, nullptr),
                        [&](mpi::Rank& rank) {
                          // Everyone reaches the barrier, then everyone
                          // throws: exactly one error wins the rethrow and
                          // kRanks - 1 are suppressed (and counted).
                          rank.world().barrier(rank.clock());
                          throw Error("boom from rank " + std::to_string(rank.rank()),
                                      Status::invalid_operation);
                        }),
      Error);
  EXPECT_EQ(suppressed_counter() - before, static_cast<std::uint64_t>(kRanks - 1));
  obs::set_metrics_enabled(was_enabled);
}

}  // namespace
}  // namespace clmpi
