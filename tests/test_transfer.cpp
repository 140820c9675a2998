// Tests for the transfer strategies: byte-exact delivery for every strategy,
// policy selection, and the Figure-8 performance orderings.
#include <gtest/gtest.h>

#include "test_util.hpp"

#include <ostream>
#include <vector>

#include "ocl/context.hpp"
#include "ocl/platform.hpp"
#include "simmpi/cluster.hpp"
#include "support/rng.hpp"
#include "support/units.hpp"
#include "transfer/strategy.hpp"

namespace clmpi::xfer {
namespace {

mpi::Cluster::Options opts(int nranks, const sys::SystemProfile& prof) {
  mpi::Cluster::Options o;
  o.nranks = nranks;
  o.profile = &prof;
  o.watchdog_seconds = testutil::watchdog_seconds(30.0);
  return o;
}

/// Run one device-to-device transfer of `size` bytes with `strategy` on a
/// 2-node cluster; returns the receiver-side completion time (seconds).
double run_p2p(const sys::SystemProfile& prof, std::size_t size, Strategy strategy) {
  double completion = 0.0;
  mpi::Cluster::run(opts(2, prof), [&](mpi::Rank& rank) {
    ocl::Platform platform(prof, rank.rank(), rank.tracer());
    ocl::Context ctx(platform.device());
    ocl::BufferPtr buf = ctx.create_buffer(size);

    DeviceEndpoint ep{&rank.world(), &platform.device(), buf.get(), 0, size,
                      1 - rank.rank(), 3};
    if (rank.rank() == 0) {
      fill_pattern(buf->storage(), size);
      (void)send_device(ep, strategy, rank.clock().now());
    } else {
      const vt::TimePoint done = recv_device(ep, strategy, rank.clock().now());
      EXPECT_TRUE(check_pattern(buf->storage(), size));
      completion = done.s;
    }
  });
  return completion;
}

struct StrategyCase {
  const char* name;
  Strategy strategy;
};

// gtest names each case "<name>  # GetParam() = <printed param>". Without a
// printer it dumps the struct's raw bytes, i.e. the address of `name` (which
// moves with ASLR) and uninitialised padding, so the names would differ from
// one test discovery to the next.
void PrintTo(const StrategyCase& c, std::ostream* os) { *os << c.name; }

class AllStrategies : public ::testing::TestWithParam<StrategyCase> {};

TEST_P(AllStrategies, DeliversExactBytesDeviceToDevice) {
  const double t = run_p2p(sys::ricc(), 6_MiB, GetParam().strategy);
  EXPECT_GT(t, 0.0);
}

TEST_P(AllStrategies, HandlesUnalignedSizes) {
  const double t = run_p2p(sys::ricc(), 3 * 1024 * 1024 + 13, GetParam().strategy);
  EXPECT_GT(t, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, AllStrategies,
    ::testing::Values(StrategyCase{"pinned", Strategy::pinned()},
                      StrategyCase{"mapped", Strategy::mapped()},
                      StrategyCase{"pipelined1M", Strategy::pipelined(1_MiB)},
                      StrategyCase{"pipelined4M", Strategy::pipelined(4_MiB)}),
    [](const auto& suite_info) { return suite_info.param.name; });

TEST(HostDevice, HostSendsToDeviceWithMatchingDecomposition) {
  // Host memory on rank 0, device buffer on rank 1; both sides pipelined
  // with the same block size.
  const auto& prof = sys::ricc();
  constexpr std::size_t size = 10_MiB;
  const Strategy strategy = Strategy::pipelined(2_MiB);
  mpi::Cluster::run(opts(2, prof), [&](mpi::Rank& rank) {
    if (rank.rank() == 0) {
      std::vector<std::byte> host(size);
      fill_pattern(host, 42);
      (void)send_host(rank.world(), host, 1, 9, strategy, rank.clock().now());
    } else {
      ocl::Platform platform(prof, rank.rank(), rank.tracer());
      ocl::Context ctx(platform.device());
      ocl::BufferPtr buf = ctx.create_buffer(size);
      DeviceEndpoint ep{&rank.world(), &platform.device(), buf.get(), 0, size, 0, 9};
      (void)recv_device(ep, strategy, rank.clock().now());
      EXPECT_TRUE(check_pattern(buf->storage(), 42));
    }
  });
}

TEST(HostDevice, DeviceSendsToHost) {
  const auto& prof = sys::cichlid();
  constexpr std::size_t size = 512_KiB;
  const Strategy strategy = Strategy::mapped();
  mpi::Cluster::run(opts(2, prof), [&](mpi::Rank& rank) {
    if (rank.rank() == 1) {
      ocl::Platform platform(prof, rank.rank(), rank.tracer());
      ocl::Context ctx(platform.device());
      ocl::BufferPtr buf = ctx.create_buffer(size);
      fill_pattern(buf->storage(), 7);
      DeviceEndpoint ep{&rank.world(), &platform.device(), buf.get(), 0, size, 0, 2};
      (void)send_device(ep, strategy, rank.clock().now());
    } else {
      std::vector<std::byte> host(size);
      (void)recv_host(rank.world(), host, 1, 2, strategy, rank.clock().now());
      EXPECT_TRUE(check_pattern(host, 7));
    }
  });
}

TEST(HostDevice, SubRegionTransfer) {
  const auto& prof = sys::cichlid();
  mpi::Cluster::run(opts(2, prof), [&](mpi::Rank& rank) {
    ocl::Platform platform(prof, rank.rank(), rank.tracer());
    ocl::Context ctx(platform.device());
    ocl::BufferPtr buf = ctx.create_buffer(1_MiB);
    DeviceEndpoint ep{&rank.world(), &platform.device(), buf.get(), 256_KiB, 128_KiB,
                      1 - rank.rank(), 4};
    if (rank.rank() == 0) {
      fill_pattern(buf->storage().subspan(256_KiB, 128_KiB), 8);
      (void)send_device(ep, Strategy::pinned(), rank.clock().now());
    } else {
      (void)recv_device(ep, Strategy::pinned(), rank.clock().now());
      EXPECT_TRUE(check_pattern(buf->storage().subspan(256_KiB, 128_KiB), 8));
    }
  });
}

// --- Figure 8 orderings ---------------------------------------------------------

TEST(Fig8Shape, RiccLargeMessages_PipelinedBeatsPinnedBeatsMapped) {
  constexpr std::size_t size = 32_MiB;
  const double pinned = run_p2p(sys::ricc(), size, Strategy::pinned());
  const double mapped = run_p2p(sys::ricc(), size, Strategy::mapped());
  const double piped = run_p2p(sys::ricc(), size, Strategy::pipelined(4_MiB));
  EXPECT_LT(piped, pinned);
  EXPECT_LT(pinned, mapped);
}

TEST(Fig8Shape, RiccOptimalBlockGrowsWithMessageSize) {
  // Small message: small blocks win; large message: large blocks win.
  const double small_with_small_block = run_p2p(sys::ricc(), 2_MiB, Strategy::pipelined(512_KiB));
  const double small_with_large_block = run_p2p(sys::ricc(), 2_MiB, Strategy::pipelined(2_MiB));
  EXPECT_LT(small_with_small_block, small_with_large_block);

  const double large_small_block = run_p2p(sys::ricc(), 64_MiB, Strategy::pipelined(256_KiB));
  const double large_large_block = run_p2p(sys::ricc(), 64_MiB, Strategy::pipelined(8_MiB));
  EXPECT_LT(large_large_block, large_small_block);
}

TEST(Fig8Shape, CichlidStrategiesAreClose) {
  // GbE-bound: the three implementations land within ~20% of each other.
  constexpr std::size_t size = 8_MiB;
  const double pinned = run_p2p(sys::cichlid(), size, Strategy::pinned());
  const double mapped = run_p2p(sys::cichlid(), size, Strategy::mapped());
  const double piped = run_p2p(sys::cichlid(), size, Strategy::pipelined(1_MiB));
  const double lo = std::min({pinned, mapped, piped});
  const double hi = std::max({pinned, mapped, piped});
  EXPECT_LT(hi / lo, 1.25);
}

TEST(Fig8Shape, CichlidMappedWinsAtHaloSize) {
  // The 14% Himeno effect: at the ~750 KB halo size the mapped transfer is
  // faster than the pinned one on Cichlid (§V-C).
  constexpr std::size_t size = 768_KiB;
  const double pinned = run_p2p(sys::cichlid(), size, Strategy::pinned());
  const double mapped = run_p2p(sys::cichlid(), size, Strategy::mapped());
  EXPECT_LT(mapped, pinned);
}

// --- policy ----------------------------------------------------------------------

TEST(Policy, SmallPreferencePerSystem) {
  EXPECT_EQ(select(sys::cichlid(), 64_KiB).kind, StrategyKind::mapped);
  EXPECT_EQ(select(sys::ricc(), 64_KiB).kind, StrategyKind::pinned);
}

TEST(Policy, LargeMessagesPipelined) {
  const Strategy s = select(sys::ricc(), 42 * 1000 * 1000);
  EXPECT_EQ(s.kind, StrategyKind::pipelined);
  EXPECT_GT(s.block, 0u);
}

TEST(Policy, PipelineBlockGrowsAndIsClamped) {
  const auto& prof = sys::ricc();
  EXPECT_LE(default_pipeline_block(prof, 1_MiB), 1_MiB);
  EXPECT_GE(default_pipeline_block(prof, 1_GiB), 8_MiB);
  EXPECT_LE(default_pipeline_block(prof, 1_GiB), 16_MiB);
  EXPECT_LE(default_pipeline_block(prof, 8_MiB), default_pipeline_block(prof, 128_MiB));
}

TEST(Policy, SelectionIsDeterministic) {
  // Both endpoints must derive the same wire decomposition.
  for (std::size_t size : {100_KiB, 1_MiB, 42_MiB, 200_MiB}) {
    const Strategy a = select(sys::ricc(), size);
    const Strategy b = select(sys::ricc(), size);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.block, b.block);
  }
}

TEST(Policy, BlockCountCoversWholeMessage) {
  EXPECT_EQ(pipeline_block_count(10, 4), 3u);
  EXPECT_EQ(pipeline_block_count(8, 4), 2u);
  EXPECT_EQ(pipeline_block_count(1, 4), 1u);
  EXPECT_THROW(pipeline_block_count(8, 0), PreconditionError);
}

TEST(Policy, ThresholdBoundaryIsExact) {
  // select() pipelines at exactly pipeline_threshold; one byte below falls
  // back to the profile's small-message preference. The boundary matters:
  // both endpoints must agree on the wire decomposition.
  const auto& ricc = sys::ricc();
  EXPECT_EQ(select(ricc, ricc.pipeline_threshold).kind, StrategyKind::pipelined);
  EXPECT_EQ(select(ricc, ricc.pipeline_threshold - 1).kind, StrategyKind::pinned);
  const auto& cich = sys::cichlid();
  EXPECT_EQ(select(cich, cich.pipeline_threshold).kind, StrategyKind::pipelined);
  EXPECT_EQ(select(cich, cich.pipeline_threshold - 1).kind, StrategyKind::mapped);
}

TEST(Policy, DefaultBlockClampAndRounding) {
  const auto& prof = sys::ricc();
  EXPECT_EQ(default_pipeline_block(prof, 1), 256_KiB);      // lower clamp
  EXPECT_EQ(default_pipeline_block(prof, 1_GiB), 16_MiB);   // upper clamp
  EXPECT_EQ(default_pipeline_block(prof, 24_MiB), 2_MiB);   // size/8 -> pow2 round-down
}

TEST(Policy, BlockCountAtChunkEdges) {
  // size == block (single chunk), one byte either side, and size < block.
  EXPECT_EQ(pipeline_block_count(1_MiB, 1_MiB), 1u);
  EXPECT_EQ(pipeline_block_count(1_MiB + 1, 1_MiB), 2u);
  EXPECT_EQ(pipeline_block_count(1_MiB - 1, 1_MiB), 1u);
  EXPECT_EQ(pipeline_block_count(17, 1_MiB), 1u);
}

TEST(PipelineEdges, DeliversAtChunkBoundaries) {
  // Byte-exact delivery when the message lands exactly on, one byte past,
  // and one byte short of a pipeline chunk edge, plus the degenerate
  // single-chunk (size < block) case.
  constexpr std::size_t block = 1_MiB;
  for (std::size_t size : {block, block + 1, block - 1, 3 * block, 3 * block + 1,
                           3 * block - 1, std::size_t{1}, 64_KiB}) {
    EXPECT_GT(run_p2p(sys::ricc(), size, Strategy::pipelined(block)), 0.0)
        << "size " << size;
  }
}

TEST(PipelineEdges, SingleByteEveryStrategy) {
  for (const Strategy s : {Strategy::pinned(), Strategy::mapped(),
                           Strategy::pipelined(256_KiB)}) {
    EXPECT_GT(run_p2p(sys::ricc(), 1, s), 0.0);
  }
}

TEST(ZeroSize, CompletesAsNoOpEveryStrategy) {
  // A zero-width halo edge (empty boundary on a non-periodic domain end)
  // degenerates to a size-0 message. It must still match and complete under
  // every strategy — as a no-op that leaves the destination bytes untouched.
  for (const Strategy s : {Strategy::pinned(), Strategy::mapped(),
                           Strategy::pipelined(256_KiB), Strategy::gpudirect()}) {
    const auto& prof = sys::ricc();
    mpi::Cluster::run(opts(2, prof), [&](mpi::Rank& rank) {
      ocl::Platform platform(prof, rank.rank(), rank.tracer());
      ocl::Context ctx(platform.device());
      ocl::BufferPtr buf = ctx.create_buffer(1024);
      fill_pattern(buf->storage(), 1024);

      DeviceEndpoint ep{&rank.world(), &platform.device(), buf.get(), 64, 0,
                        1 - rank.rank(), 3};
      if (rank.rank() == 0) {
        const vt::TimePoint done = send_device(ep, s, rank.clock().now());
        EXPECT_GE(done.s, 0.0);
      } else {
        const vt::TimePoint done = recv_device(ep, s, rank.clock().now());
        EXPECT_GE(done.s, 0.0);
        EXPECT_TRUE(check_pattern(buf->storage(), 1024));
      }
    });
  }
}

TEST(ZeroSize, ExchangeWithEmptyDirectionDelivers) {
  // Full-duplex exchange where one direction is empty: the non-empty
  // direction must still deliver byte-exactly and the empty one must not
  // steal or corrupt its match.
  const auto& prof = sys::ricc();
  constexpr std::size_t size = 192 * 1024 + 5;
  mpi::Cluster::run(opts(2, prof), [&](mpi::Rank& rank) {
    ocl::Platform platform(prof, rank.rank(), rank.tracer());
    ocl::Context ctx(platform.device());
    ocl::BufferPtr full = ctx.create_buffer(size);
    ocl::BufferPtr empty = ctx.create_buffer(64);
    fill_pattern(empty->storage(), 64);

    // Rank 0 sends `size` bytes and receives 0; rank 1 mirrors.
    DeviceEndpoint full_ep{&rank.world(), &platform.device(), full.get(), 0, size,
                           1 - rank.rank(), 7};
    DeviceEndpoint empty_ep{&rank.world(), &platform.device(), empty.get(), 0, 0,
                            1 - rank.rank(), 8};
    const Strategy s = Strategy::pipelined(64_KiB);
    if (rank.rank() == 0) {
      fill_pattern(full->storage(), size);
      const vt::TimePoint done =
          exchange_device(full_ep, empty_ep, s, rank.clock().now());
      EXPECT_GE(done.s, 0.0);
    } else {
      const vt::TimePoint done =
          exchange_device(empty_ep, full_ep, s, rank.clock().now());
      EXPECT_GE(done.s, 0.0);
      EXPECT_TRUE(check_pattern(full->storage(), size));
    }
    EXPECT_TRUE(check_pattern(empty->storage(), 64));
  });
}

TEST(ZeroSize, BothDirectionsEmptyStillMatch) {
  // Degenerate exchange: both directions size 0 (a 1-wide periodic
  // decomposition where both halo edges are empty). Must complete, not hang.
  const auto& prof = sys::cichlid();
  mpi::Cluster::run(opts(2, prof), [&](mpi::Rank& rank) {
    ocl::Platform platform(prof, rank.rank(), rank.tracer());
    ocl::Context ctx(platform.device());
    ocl::BufferPtr buf = ctx.create_buffer(32);
    fill_pattern(buf->storage(), 32);
    DeviceEndpoint snd{&rank.world(), &platform.device(), buf.get(), 0, 0,
                       1 - rank.rank(), 11};
    DeviceEndpoint rcv{&rank.world(), &platform.device(), buf.get(), 16, 0,
                       1 - rank.rank(), 11};
    const vt::TimePoint done =
        exchange_device(snd, rcv, Strategy::pinned(), rank.clock().now());
    EXPECT_GE(done.s, 0.0);
    EXPECT_TRUE(check_pattern(buf->storage(), 32));
  });
}

TEST(Endpoint, InvalidRegionsRejected) {
  const auto& prof = sys::cichlid();
  mpi::Cluster::run(opts(2, prof), [&](mpi::Rank& rank) {
    ocl::Platform platform(prof, rank.rank(), rank.tracer());
    ocl::Context ctx(platform.device());
    ocl::BufferPtr buf = ctx.create_buffer(1024);
    DeviceEndpoint bad{&rank.world(), &platform.device(), buf.get(), 512, 1024,
                       1 - rank.rank(), 0};
    EXPECT_THROW((void)send_device(bad, Strategy::pinned(), rank.clock().now()),
                 PreconditionError);
    DeviceEndpoint bad_tag{&rank.world(), &platform.device(), buf.get(), 0, 64,
                           1 - rank.rank(), mpi::max_user_tag + 1};
    EXPECT_THROW((void)send_device(bad_tag, Strategy::pinned(), rank.clock().now()),
                 PreconditionError);
  });
}

}  // namespace
}  // namespace clmpi::xfer
