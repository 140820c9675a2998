// Property-based tests: randomized (seeded, reproducible) workloads checking
// the invariants the simulation must uphold regardless of configuration —
// byte-exact delivery, event ordering, in-order queue semantics, and
// virtual-time causality.
#include <gtest/gtest.h>

#include "test_util.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "clmpi/runtime.hpp"
#include "obs/metrics.hpp"
#include "ocl/context.hpp"
#include "ocl/platform.hpp"
#include "ocl/queue.hpp"
#include "simmpi/cluster.hpp"
#include "simmpi/progress.hpp"
#include "simmpi/window.hpp"
#include "support/rng.hpp"
#include "support/units.hpp"
#include "transfer/strategy.hpp"
#include "vt/tracer.hpp"

namespace clmpi {
namespace {

mpi::Cluster::Options opts(int nranks, const sys::SystemProfile& prof) {
  mpi::Cluster::Options o;
  o.nranks = nranks;
  o.profile = &prof;
  o.watchdog_seconds = testutil::watchdog_seconds(60.0);
  return o;
}

// --- message storm: all-to-all random traffic stays byte-exact ---------------

class MessageStorm : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MessageStorm, RandomTrafficDeliversExactly) {
  const std::uint64_t seed = GetParam();
  constexpr int kRanks = 4;
  constexpr int kRounds = 8;

  mpi::Cluster::run(opts(kRanks, sys::cichlid()), [seed](mpi::Rank& rank) {
    // Every (sender, receiver, round) triple derives the same size and
    // pattern seed on both sides — no metadata exchange needed.
    auto size_of = [seed](int src, int dst, int round) {
      const std::uint64_t s =
          derive_seed(seed, static_cast<std::uint64_t>(src * 1000 + dst * 10 + round));
      return 1 + static_cast<std::size_t>(s % (200 * 1024));  // 1 B .. 200 KiB
    };
    auto pattern_of = [seed](int src, int dst, int round) {
      return derive_seed(seed ^ 0xabcdef, static_cast<std::uint64_t>(src * 1000 + dst * 10 + round));
    };

    std::vector<mpi::Request> pending;
    std::vector<std::vector<std::byte>> live_sends;
    std::vector<std::vector<std::byte>> live_recvs;
    struct Check {
      std::size_t index;
      std::uint64_t pattern;
    };
    std::vector<Check> checks;

    for (int round = 0; round < kRounds; ++round) {
      for (int peer = 0; peer < rank.size(); ++peer) {
        if (peer == rank.rank()) continue;
        // Outbound.
        live_sends.emplace_back(size_of(rank.rank(), peer, round));
        fill_pattern(live_sends.back(), pattern_of(rank.rank(), peer, round));
        pending.push_back(
            rank.world().isend(live_sends.back(), peer, round, rank.clock()));
        // Inbound.
        live_recvs.emplace_back(size_of(peer, rank.rank(), round));
        checks.push_back({live_recvs.size() - 1, pattern_of(peer, rank.rank(), round)});
        pending.push_back(
            rank.world().irecv(live_recvs.back(), peer, round, rank.clock()));
      }
    }
    mpi::wait_all(std::span(pending), rank.clock());
    for (const Check& c : checks) {
      EXPECT_TRUE(check_pattern(live_recvs[c.index], c.pattern));
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, MessageStorm, ::testing::Values(1u, 17u, 42u, 1234u));

// --- wildcard receives vs the progress engine --------------------------------

/// One wildcard-receiver run: ranks 1..N-1 race coalescable bursts and
/// persistent replays at rank 0, which drains everything through serialized
/// (any_source, any_tag) receives. Returns rank 0's observed delivery
/// sequence as packed (source, tag, payload-word) records. `coalesced`
/// false sets coalesce_max_msg = 0, so every send posts directly; the
/// progress.coalesce.enqueued delta proves which side actually ran.
std::vector<std::uint64_t> run_wildcard_storm(bool coalesced, std::uint64_t seed) {
  struct ProgressConfigGuard {
    mpi::detail::ProgressConfig saved = mpi::detail::progress_config();
    ~ProgressConfigGuard() { mpi::detail::progress_config() = saved; }
  } guard;
  if (!coalesced) mpi::detail::progress_config().coalesce_max_msg = 0;
  const bool metrics_were_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  const auto enqueued = [] {
    std::uint64_t v = 0;
    (void)obs::Registry::instance().value("progress.coalesce.enqueued", v);
    return v;
  };
  const std::uint64_t enq0 = enqueued();

  constexpr int kRanks = 4;
  constexpr int kBurst = 12;   // coalescable messages per sender
  constexpr int kReplays = 6;  // persistent replays per sender
  std::vector<std::uint64_t> seen;
  mpi::Cluster::run(opts(kRanks, sys::cichlid()), [&, seed](mpi::Rank& rank) {
    auto& world = rank.world();
    if (rank.rank() == 0) {
      const int total = (kRanks - 1) * (kBurst + kReplays);
      for (int i = 0; i < total; ++i) {
        std::uint64_t word = 0;
        const mpi::MsgStatus st = world.recv(
            std::as_writable_bytes(std::span(&word, 1)), mpi::any_source, mpi::any_tag,
            rank.clock());
        EXPECT_EQ(st.bytes, sizeof(word));
        seen.push_back((static_cast<std::uint64_t>(st.source) << 56) |
                       (static_cast<std::uint64_t>(st.tag) << 40) | (word & 0xFFFFFFFFFFull));
      }
    } else {
      // A burst of small coalescable isends (each below coalesce_max_msg)...
      std::vector<std::uint64_t> words(kBurst + kReplays);
      std::vector<mpi::Request> reqs;
      for (int i = 0; i < kBurst; ++i) {
        const auto idx = static_cast<std::size_t>(i);
        words[idx] = derive_seed(seed, static_cast<std::uint64_t>(rank.rank() * 100 + i));
        reqs.push_back(world.isend(std::as_bytes(std::span(&words[idx], 1)), 0,
                                   rank.rank() * 10 + i % 3, rank.clock()));
      }
      // ...interleaved with a persistent send replayed with fresh payloads.
      const auto base = static_cast<std::size_t>(kBurst);
      mpi::PersistentRequest preq = world.send_init(
          std::as_bytes(std::span(&words[base], 1)), 0, 900 + rank.rank());
      for (int r = 0; r < kReplays; ++r) {
        // The replay reuses ONE registered buffer; refill then start.
        words[base] = derive_seed(seed ^ 0x5a5a, static_cast<std::uint64_t>(rank.rank() * 100 + r));
        mpi::Request rr = preq.start(rank.clock());
        rr.wait(rank.clock());
      }
      mpi::wait_all(std::span(reqs), rank.clock());
    }
  });
  const std::uint64_t enq = enqueued() - enq0;
  obs::set_metrics_enabled(metrics_were_enabled);
  if (coalesced) {
    EXPECT_GT(enq, 0u) << "the coalesced side never coalesced";
  } else {
    EXPECT_EQ(enq, 0u) << "the direct side coalesced";
  }
  return seen;
}

class WildcardVsCoalescing : public ::testing::TestWithParam<std::uint64_t> {};

/// Rank 0's observed sequence restricted to one sender (source lives in the
/// top byte of each packed record).
std::vector<std::uint64_t> per_source(const std::vector<std::uint64_t>& seen, int source) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t rec : seen) {
    if (static_cast<int>(rec >> 56) == source) out.push_back(rec);
  }
  return out;
}

TEST_P(WildcardVsCoalescing, ArrivalOrderUnchangedByProgressEngine) {
  // The progress engine (send coalescing + persistent replay fast path) is
  // wall-clock-only. The cross-SENDER interleaving a wildcard receiver sees
  // is decided by which racing rank thread arrives first — that is wall
  // scheduling, identical whether sends are coalesced or posted directly.
  // What coalescing must not change is anything per source: a wildcard
  // receiver's per-source subsequence is the sender's program order
  // (non-overtaking + the coalescer's flush-before-direct-post rule), and
  // the delivered multiset of (source, tag, payload) records is exact.
  // Compare the coalesced run against direct posting (coalesce_max_msg = 0)
  // and a repeat.
  const std::uint64_t seed = GetParam();
  const std::vector<std::uint64_t> coalesced = run_wildcard_storm(true, seed);
  const std::vector<std::uint64_t> direct = run_wildcard_storm(false, seed);
  const std::vector<std::uint64_t> coalesced2 = run_wildcard_storm(true, seed);
  ASSERT_EQ(coalesced.size(), direct.size());
  ASSERT_EQ(coalesced.size(), coalesced2.size());
  for (int source = 1; source <= 3; ++source) {
    SCOPED_TRACE(testing::Message() << "source " << source);
    const std::vector<std::uint64_t> order = per_source(coalesced, source);
    EXPECT_EQ(order, per_source(direct, source));
    EXPECT_EQ(order, per_source(coalesced2, source));
  }
  auto sorted = [](std::vector<std::uint64_t> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  const std::vector<std::uint64_t> delivered = sorted(coalesced);
  EXPECT_EQ(delivered, sorted(direct));
  EXPECT_EQ(delivered, sorted(coalesced2));
}

INSTANTIATE_TEST_SUITE_P(Seeds, WildcardVsCoalescing, ::testing::Values(3u, 29u, 777u));

// --- random transfer regions through every strategy ---------------------------

class RandomRegions : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomRegions, SubRegionTransfersStayExact) {
  const std::uint64_t seed = GetParam();
  mpi::Cluster::run(opts(2, sys::ricc()), [seed](mpi::Rank& rank) {
    ocl::Platform platform(rank.profile(), rank.rank(), rank.tracer());
    ocl::Context ctx(platform.device());
    constexpr std::size_t buf_size = 4_MiB;
    ocl::BufferPtr buf = ctx.create_buffer(buf_size);

    Rng rng(seed);
    for (int i = 0; i < 12; ++i) {
      const std::size_t size = 1 + rng.below(1_MiB);
      const std::size_t offset = rng.below(buf_size - size);
      const xfer::Strategy strategy = [&] {
        switch (rng.below(3)) {
          case 0: return xfer::Strategy::pinned();
          case 1: return xfer::Strategy::mapped();
          default: return xfer::Strategy::pipelined(1 + rng.below(256_KiB));
        }
      }();
      xfer::DeviceEndpoint ep{&rank.world(), &platform.device(), buf.get(), offset, size,
                              1 - rank.rank(), i};
      if (rank.rank() == 0) {
        fill_pattern(buf->storage().subspan(offset, size), seed + static_cast<std::uint64_t>(i));
        (void)xfer::send_device(ep, strategy, rank.clock().now());
      } else {
        const vt::TimePoint done = xfer::recv_device(ep, strategy, rank.clock().now());
        rank.clock().sync_to(done);
        EXPECT_TRUE(check_pattern(buf->storage().subspan(offset, size),
                                  seed + static_cast<std::uint64_t>(i)));
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomRegions, ::testing::Values(3u, 99u, 777u));

// --- random command DAGs keep event-ordering invariants ------------------------

class RandomDag : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomDag, EventTimestampsRespectDependencies) {
  const std::uint64_t seed = GetParam();
  ocl::Platform platform(sys::cichlid(), 0, nullptr);
  ocl::Context ctx(platform.device());
  auto q0 = ctx.create_queue("q0");
  auto q1 = ctx.create_queue("q1");
  vt::Clock clock;

  ocl::Program prog;
  prog.define("work", [](const ocl::NDRange&, const ocl::KernelArgs&) {},
              ocl::flops_per_item(100.0));

  Rng rng(seed);
  std::vector<ocl::EventPtr> events;
  std::vector<std::vector<std::size_t>> deps;
  for (int i = 0; i < 40; ++i) {
    // Pick up to 3 random earlier events as the wait list.
    std::vector<ocl::EventPtr> waits;
    std::vector<std::size_t> dep_idx;
    if (!events.empty()) {
      for (std::uint64_t d = rng.below(4); d > 0; --d) {
        const std::size_t pick = rng.below(events.size());
        waits.push_back(events[pick]);
        dep_idx.push_back(pick);
      }
    }
    auto& queue = rng.below(2) == 0 ? q0 : q1;
    auto kernel = prog.create_kernel("work");
    events.push_back(queue->enqueue_ndrange(
        kernel, ocl::NDRange::linear(1 + rng.below(4096)), waits, clock));
    deps.push_back(std::move(dep_idx));
  }
  q0->finish(clock);
  q1->finish(clock);

  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto p = events[i]->profiling();
    EXPECT_LE(p.queued.s, p.submitted.s);
    EXPECT_LE(p.submitted.s, p.started.s);
    EXPECT_LE(p.started.s, p.ended.s);
    for (std::size_t d : deps[i]) {
      // A command never starts before its wait-list dependencies end.
      EXPECT_GE(p.started.s, events[d]->profiling().ended.s);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDag, ::testing::Values(5u, 21u, 404u, 9001u));

// --- virtual-time causality for random p2p traffic -----------------------------

TEST(Causality, CompletionNeverPrecedesTheModelMinimum) {
  const auto& prof = sys::ricc();
  mpi::Cluster::run(opts(2, prof), [&prof](mpi::Rank& rank) {
    Rng rng(7);
    for (int i = 0; i < 20; ++i) {
      const std::size_t size = 1 + rng.below(2_MiB);
      std::vector<std::byte> buf(size);
      if (rank.rank() == 0) {
        const vt::TimePoint before = rank.clock().now();
        rank.world().send(buf, 1, i, rank.clock());
        // A blocking send takes at least the wire latency.
        EXPECT_GE(rank.now_s(), before.s + prof.nic.wire.latency.s);
      } else {
        const vt::TimePoint posted = rank.clock().now();
        const mpi::MsgStatus st = rank.world().recv(buf, 0, i, rank.clock());
        EXPECT_EQ(st.bytes, size);
        EXPECT_GE(rank.now_s(), posted.s);
        // Arrival is bounded below by the pure wire cost of this message.
        EXPECT_GE(rank.now_s() - posted.s, 0.0);
      }
    }
  });
}

// --- random one-sided window-access schedules --------------------------------
//
// The RMA linearizability oracle: a seeded generator emits random fence-
// delimited schedules of Put/Get accesses (random targets, offsets, sizes —
// including zero — and self-accesses), and every rank replays the SAME
// schedule against a shadow model that encodes the window contract: gets
// observe the epoch's pre-put state, puts land in (origin, program-order)
// order. After every fence the real regions and every fetched payload must
// match the model exactly, and running the identical schedule twice must
// produce the identical trace hash.

struct SchedOp {
  bool is_put{false};
  int target{0};
  std::size_t offset{0};
  std::size_t size{0};
  std::uint64_t pattern{0};
};

std::vector<SchedOp> sched_ops(std::uint64_t seed, int epoch, int origin, int nranks,
                               std::size_t region) {
  Rng rng(derive_seed(seed, static_cast<std::uint64_t>(epoch) * 131u +
                                static_cast<std::uint64_t>(origin)));
  std::vector<SchedOp> ops(rng.below(4));  // 0..3 accesses per (epoch, origin)
  for (SchedOp& op : ops) {
    op.is_put = (rng.next_u64() & 1u) != 0;
    op.target = static_cast<int>(rng.below(static_cast<std::uint64_t>(nranks)));
    op.size = rng.below(region + 1);  // zero-size accesses are legal
    op.offset = rng.below(region - op.size + 1);
    op.pattern = rng.next_u64();
  }
  return ops;
}

std::uint64_t run_rma_schedule(std::uint64_t seed) {
  constexpr int kRanks = 3;
  constexpr int kEpochs = 5;
  constexpr std::size_t kRegion = 2_KiB;

  vt::Tracer tracer;
  auto o = opts(kRanks, sys::cxlpod());
  o.tracer = &tracer;

  mpi::Cluster::run(o, [seed](mpi::Rank& rank) {
    std::vector<std::byte> region(kRegion, std::byte{0});
    mpi::Win win = mpi::create_window(rank.world(), region, rank.clock());
    // The shadow model: every rank simulates ALL regions, since the whole
    // schedule is derivable from the seed alone.
    std::vector<std::vector<std::byte>> model(
        kRanks, std::vector<std::byte>(kRegion, std::byte{0}));

    win.fence(rank.clock());
    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      struct GetCheck {
        std::vector<std::byte> dest;
        std::vector<std::byte> expected;
      };
      std::vector<std::unique_ptr<GetCheck>> checks;

      // Post this rank's accesses; fold EVERY rank's accesses into the model.
      for (int origin = 0; origin < kRanks; ++origin) {
        for (const SchedOp& op : sched_ops(seed, epoch, origin, kRanks, kRegion)) {
          if (origin == rank.rank()) {
            if (op.is_put) {
              std::vector<std::byte> payload(op.size);
              fill_pattern(payload, op.pattern);
              win.put(payload, op.target, op.offset, rank.clock());
            } else {
              auto check = std::make_unique<GetCheck>();
              check->dest.resize(op.size);
              // Gets observe the epoch's PRE-put state: snapshot the model
              // before any of this epoch's puts is folded in below.
              check->expected.assign(
                  model[static_cast<std::size_t>(op.target)].begin() +
                      static_cast<std::ptrdiff_t>(op.offset),
                  model[static_cast<std::size_t>(op.target)].begin() +
                      static_cast<std::ptrdiff_t>(op.offset + op.size));
              win.get(std::span<std::byte>(check->dest), op.target, op.offset,
                      rank.clock());
              checks.push_back(std::move(check));
            }
          }
        }
      }
      // Fold puts into the model in the window's linearization order:
      // (origin, program order) — but only AFTER all get snapshots above.
      for (int origin = 0; origin < kRanks; ++origin) {
        for (const SchedOp& op : sched_ops(seed, epoch, origin, kRanks, kRegion)) {
          if (!op.is_put) continue;
          std::vector<std::byte> payload(op.size);
          fill_pattern(payload, op.pattern);
          std::copy(payload.begin(), payload.end(),
                    model[static_cast<std::size_t>(op.target)].begin() +
                        static_cast<std::ptrdiff_t>(op.offset));
        }
      }

      win.fence(rank.clock());

      // Linearizability: the real region is exactly the model's, and every
      // get fetched exactly the pre-put snapshot.
      EXPECT_EQ(0, std::memcmp(region.data(),
                               model[static_cast<std::size_t>(rank.rank())].data(),
                               kRegion))
          << "rank " << rank.rank() << " epoch " << epoch << " seed " << seed;
      for (const auto& check : checks) {
        EXPECT_EQ(check->dest, check->expected)
            << "rank " << rank.rank() << " epoch " << epoch << " seed " << seed;
      }
    }
    win.free(rank.clock());
  });
  return tracer.hash();
}

class RmaSchedules : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RmaSchedules, RandomWindowSchedulesLinearizeAndReproduce) {
  const std::uint64_t seed = GetParam();
  const std::uint64_t first = run_rma_schedule(seed);
  const std::uint64_t second = run_rma_schedule(seed);
  // Run-to-run determinism: the identical schedule yields the identical
  // trace, fence rendezvous and all.
  EXPECT_EQ(first, second) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RmaSchedules, ::testing::Values(3u, 91u, 512u, 7777u));

TEST(Causality, MakespanBoundedByResourceWork) {
  // Total makespan can never be smaller than the busiest device's compute.
  const auto result = mpi::Cluster::run(opts(3, sys::cichlid()), [](mpi::Rank& rank) {
    ocl::Platform platform(rank.profile(), rank.rank(), rank.tracer());
    ocl::Context ctx(platform.device());
    auto queue = ctx.create_queue();
    ocl::Program prog;
    prog.define("busy", [](const ocl::NDRange&, const ocl::KernelArgs&) {},
                ocl::fixed_cost(vt::milliseconds(2.0)));
    auto kernel = prog.create_kernel("busy");
    for (int i = 0; i < 5; ++i) {
      queue->enqueue_ndrange(kernel, ocl::NDRange::linear(1), {}, rank.clock());
    }
    queue->finish(rank.clock());
    EXPECT_GE(platform.device().compute_engine().busy_time().s, 0.00999);
  });
  EXPECT_GE(result.makespan_s, 0.00999);
}

}  // namespace
}  // namespace clmpi
