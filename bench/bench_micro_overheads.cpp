// Microbenchmarks (google-benchmark) of the runtime primitives themselves:
// real wall-clock cost of enqueueing commands, completing events, matching
// messages and acquiring virtual resources. These bound the *simulator's*
// overhead (not the modelled virtual times) and guard against regressions
// that would make the figure benches slow.
#include <benchmark/benchmark.h>

#include <optional>
#include <vector>

#include "apps/himeno/himeno.hpp"
#include "ocl/context.hpp"
#include "ocl/platform.hpp"
#include "ocl/queue.hpp"
#include "simmpi/cluster.hpp"
#include "support/rng.hpp"
#include "vt/resource.hpp"

namespace {

using namespace clmpi;

void BM_ResourceAcquire(benchmark::State& state) {
  vt::Resource r("bench");
  vt::TimePoint ready{};
  for (auto _ : state) {
    benchmark::DoNotOptimize(r.acquire(ready, vt::microseconds(1.0)));
    ready += vt::microseconds(1.0);  // append-only: the fast path
  }
}
BENCHMARK(BM_ResourceAcquire)->Iterations(100000);

void BM_ResourceBackfill(benchmark::State& state) {
  // Fragmented allocation pattern: every other slot free, acquisitions land
  // in the gaps (the slow path of the interval allocator).
  for (auto _ : state) {
    state.PauseTiming();
    vt::Resource r("bench");
    for (int i = 0; i < 128; ++i) {
      (void)r.acquire(vt::TimePoint{i * 2e-6}, vt::microseconds(1.0));
    }
    state.ResumeTiming();
    for (int i = 0; i < 128; ++i) {
      benchmark::DoNotOptimize(r.acquire(vt::TimePoint{}, vt::microseconds(1.0)));
    }
  }
}
BENCHMARK(BM_ResourceBackfill)->Iterations(200);

void BM_EventCompleteAndWait(benchmark::State& state) {
  for (auto _ : state) {
    ocl::UserEvent ev("bench");
    ev.set_complete(vt::TimePoint{1.0});
    benchmark::DoNotOptimize(ev.wait());
  }
}
BENCHMARK(BM_EventCompleteAndWait)->Iterations(100000);

void BM_QueueEnqueueMarker(benchmark::State& state) {
  ocl::Platform platform(sys::cichlid(), 0, nullptr);
  ocl::Context ctx(platform.device());
  auto queue = ctx.create_queue();
  vt::Clock clock;
  for (auto _ : state) {
    benchmark::DoNotOptimize(queue->enqueue_marker({}, clock));
  }
  queue->finish(clock);
}
BENCHMARK(BM_QueueEnqueueMarker)->Iterations(50000);

void BM_EagerMessageRoundTrip(benchmark::State& state) {
  // Real cost of one matched eager message through the mailbox engine
  // (2-rank cluster amortized over many messages).
  const auto messages = static_cast<int>(state.range(0));
  for (auto _ : state) {
    mpi::Cluster::Options opt;
    opt.nranks = 2;
    opt.profile = &sys::ricc();
    mpi::Cluster::run(opt, [messages](mpi::Rank& rank) {
      std::vector<std::byte> buf(256);
      for (int i = 0; i < messages; ++i) {
        if (rank.rank() == 0) {
          rank.world().send(buf, 1, 0, rank.clock());
        } else {
          rank.world().recv(buf, 0, 0, rank.clock());
        }
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * messages);
}
BENCHMARK(BM_EagerMessageRoundTrip)->Arg(1000)->Iterations(20)->Unit(benchmark::kMillisecond);

void BM_KernelLaunch(benchmark::State& state) {
  ocl::Platform platform(sys::cichlid(), 0, nullptr);
  ocl::Context ctx(platform.device());
  auto queue = ctx.create_queue();
  ocl::Program prog;
  prog.define("nop", [](const ocl::NDRange&, const ocl::KernelArgs&) {},
              ocl::fixed_cost(vt::microseconds(1.0)));
  auto kernel = prog.create_kernel("nop");
  vt::Clock clock;
  for (auto _ : state) {
    benchmark::DoNotOptimize(queue->enqueue_ndrange(kernel, ocl::NDRange::linear(1), {}, clock));
    if (queue->commands_executed() % 1024 == 0) queue->finish(clock);
  }
  queue->finish(clock);
}
BENCHMARK(BM_KernelLaunch)->Iterations(50000);

// The OpenCL kernel-body layer: one Himeno M half-domain (16 planes of
// 256 x 768) per iteration through the Jacobi sweep every variant's kernel
// runs. Items are updated cells, so the rate reads in cells/s.
void BM_HimenoJacobiSweep(benchmark::State& state) {
  constexpr std::size_t kPlanes = 16, J = 256, K = 768;
  Rng rng(42);
  std::vector<float> src((kPlanes + 2) * J * K);
  for (float& v : src) v = static_cast<float>(rng.uniform(0.0, 1.0));
  std::vector<float> dst(src.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        apps::himeno::detail::jacobi_sweep(src, dst, 1, kPlanes, J, K));
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kPlanes * (J - 2) * (K - 2)));
}
BENCHMARK(BM_HimenoJacobiSweep)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
