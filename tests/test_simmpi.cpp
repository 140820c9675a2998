// Tests for the simulated MPI: matching semantics, data integrity,
// collectives, communicator management, and virtual-time invariants.
#include <gtest/gtest.h>

#include "test_util.hpp"

#include <atomic>
#include <cstring>
#include <numeric>
#include <vector>

#include "obs/metrics.hpp"
#include "simmpi/cluster.hpp"
#include "simmpi/datatype.hpp"
#include "simmpi/mailbox.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/units.hpp"
#include "systems/profile.hpp"

namespace clmpi::mpi {
namespace {

Cluster::Options opts(int nranks, const sys::SystemProfile& prof = sys::cichlid()) {
  Cluster::Options o;
  o.nranks = nranks;
  o.profile = &prof;
  o.watchdog_seconds = testutil::watchdog_seconds(30.0);
  return o;
}

std::span<const std::byte> bytes_of(const auto& v) { return std::as_bytes(std::span(v)); }
std::span<std::byte> mut_bytes_of(auto& v) { return std::as_writable_bytes(std::span(v)); }

// --- point-to-point correctness ---------------------------------------------

class P2PSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(P2PSizes, DeliversExactBytes) {
  const std::size_t n = GetParam();
  Cluster::run(opts(2), [n](Rank& rank) {
    std::vector<std::byte> buf(n);
    if (rank.rank() == 0) {
      fill_pattern(buf, n);
      rank.world().send(buf, 1, 7, rank.clock());
    } else {
      const MsgStatus st = rank.world().recv(buf, 0, 7, rank.clock());
      EXPECT_TRUE(check_pattern(buf, n));
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 7);
      EXPECT_EQ(st.bytes, n);
    }
  });
}

// Sizes straddle the eager threshold (64 KiB) in both directions.
INSTANTIATE_TEST_SUITE_P(EagerAndRendezvous, P2PSizes,
                         ::testing::Values(1u, 64u, 1024u, 64u * 1024u, 64u * 1024u + 1u,
                                           1u << 20, 8u << 20));

TEST(P2P, RecvLargerBufferReportsActualSize) {
  Cluster::run(opts(2), [](Rank& rank) {
    if (rank.rank() == 0) {
      std::vector<std::byte> buf(100);
      fill_pattern(buf, 1);
      rank.world().send(buf, 1, 0, rank.clock());
    } else {
      std::vector<std::byte> buf(1000);
      const MsgStatus st = rank.world().recv(buf, 0, 0, rank.clock());
      EXPECT_EQ(st.bytes, 100u);
      EXPECT_TRUE(check_pattern(std::span(buf).first(100), 1));
    }
  });
}

TEST(P2P, TruncationThrows) {
  EXPECT_THROW(
      Cluster::run(opts(2),
                   [](Rank& rank) {
                     std::vector<std::byte> big(1000), small(10);
                     if (rank.rank() == 0) {
                       rank.world().send(big, 1, 0, rank.clock());
                     } else {
                       rank.world().recv(small, 0, 0, rank.clock());
                     }
                   }),
      PreconditionError);
}

TEST(P2P, TruncationThrowsWhenReceivePostedFirst) {
  // A handshake orders the receive before the send, so the SENDER's thread
  // delivers. Both endpoints must still fail typed; neither may hang.
  std::atomic<int> typed_failures{0};
  EXPECT_THROW(
      Cluster::run(opts(2),
                   [&typed_failures](Rank& rank) {
                     std::vector<std::byte> big(1000), small(10), token(1);
                     try {
                       if (rank.rank() == 0) {
                         rank.world().recv(token, 1, 1, rank.clock());
                         rank.world().send(big, 1, 0, rank.clock());
                       } else {
                         Request r = rank.world().irecv(small, 0, 0, rank.clock());
                         rank.world().send(token, 0, 1, rank.clock());
                         r.wait(rank.clock());
                       }
                     } catch (const PreconditionError&) {
                       ++typed_failures;
                       throw;
                     }
                   }),
      PreconditionError);
  EXPECT_EQ(typed_failures.load(), 2);
}

TEST(P2P, AnySourceAndAnyTagMatch) {
  Cluster::run(opts(3), [](Rank& rank) {
    std::vector<int> v{rank.rank()};
    if (rank.rank() != 0) {
      rank.world().send(bytes_of(v), 0, 40 + rank.rank(), rank.clock());
    } else {
      int seen = 0;
      for (int i = 0; i < 2; ++i) {
        int got = -1;
        auto span = std::span(&got, 1);
        const MsgStatus st =
            rank.world().recv(mut_bytes_of(span), any_source, any_tag, rank.clock());
        EXPECT_EQ(st.tag, 40 + got);
        EXPECT_EQ(st.source, got);
        seen += got;
      }
      EXPECT_EQ(seen, 3);  // ranks 1 and 2
    }
  });
}

TEST(P2P, NonOvertakingSameTag) {
  // Two same-tag messages from the same sender must arrive in post order.
  Cluster::run(opts(2), [](Rank& rank) {
    if (rank.rank() == 0) {
      const int a = 111, b = 222;
      auto sa = std::span(&a, 1);
      auto sb = std::span(&b, 1);
      rank.world().send(bytes_of(sa), 1, 5, rank.clock());
      rank.world().send(bytes_of(sb), 1, 5, rank.clock());
    } else {
      int first = 0, second = 0;
      auto s1 = std::span(&first, 1);
      auto s2 = std::span(&second, 1);
      rank.world().recv(mut_bytes_of(s1), 0, 5, rank.clock());
      rank.world().recv(mut_bytes_of(s2), 0, 5, rank.clock());
      EXPECT_EQ(first, 111);
      EXPECT_EQ(second, 222);
    }
  });
}

TEST(P2P, SendrecvExchanges) {
  Cluster::run(opts(2), [](Rank& rank) {
    const int peer = 1 - rank.rank();
    std::vector<double> out(100, static_cast<double>(rank.rank()));
    std::vector<double> in(100, -1.0);
    rank.world().sendrecv(bytes_of(out), peer, 3, mut_bytes_of(in), peer, 3, rank.clock());
    EXPECT_DOUBLE_EQ(in[0], static_cast<double>(peer));
    EXPECT_DOUBLE_EQ(in[99], static_cast<double>(peer));
  });
}

TEST(P2P, SelfSendLoopback) {
  Cluster::run(opts(1), [](Rank& rank) {
    std::vector<std::byte> out(256), in(256);
    fill_pattern(out, 9);
    Request r = rank.world().irecv(in, 0, 0, rank.clock());
    rank.world().send(out, 0, 0, rank.clock());
    r.wait(rank.clock());
    EXPECT_TRUE(check_pattern(in, 9));
  });
}

TEST(P2P, SelfSendEveryProtocolTier) {
  // A neighbor-is-self halo edge (nranks==1 ring, or a periodic 1-wide
  // decomposition) sends through the same mailbox as any peer. Cover every
  // wire tier: eager-inline (<= Envelope store), eager-heap (inline cap <
  // size <= eager threshold) and rendezvous (> eager threshold). The send
  // posts first each time, so the eager tiers must copy the payload out
  // before the sender's buffer is reused.
  for (int nranks : {1, 2}) {
    Cluster::run(opts(nranks), [](Rank& rank) {
      const int self = rank.rank();
      int tag = 40;
      for (std::size_t n : {std::size_t{64}, std::size_t{4096}, 80 * std::size_t{1024}}) {
        std::vector<std::byte> out(n), in(n);
        fill_pattern(out, n + 1);
        Request rr = rank.world().irecv(in, self, tag, rank.clock());
        Request sr = rank.world().isend(out, self, tag, rank.clock());
        if (n <= 64 * 1024) {
          // Eager: the send completes on its own; scribbling over the source
          // buffer afterwards must not corrupt the delivery.
          sr.wait(rank.clock());
          std::fill(out.begin(), out.end(), std::byte{0xAA});
        }
        rr.wait(rank.clock());
        sr.wait(rank.clock());
        const MsgStatus st = rr.status();
        EXPECT_TRUE(check_pattern(in, n + 1)) << "self tier " << n;
        EXPECT_EQ(st.source, self);
        EXPECT_EQ(st.bytes, n);
        ++tag;
      }
    });
  }
}

TEST(P2P, SelfSendCoalescedBurst) {
  // Small coalescable self-sends queue in the rank's own SendCoalescer; the
  // wait on the receive must flush that queue rather than deadlock waiting
  // for a message the rank itself is still holding. At 2 ranks the burst
  // interleaves self and peer traffic through the same coalescer.
  for (int nranks : {1, 2}) {
    Cluster::run(opts(nranks), [nranks](Rank& rank) {
      constexpr int kMsgs = 24;
      const int self = rank.rank();
      const int peer = nranks == 1 ? 0 : 1 - self;
      std::vector<std::vector<std::byte>> out(2 * kMsgs, std::vector<std::byte>(48));
      std::vector<std::vector<std::byte>> in(2 * kMsgs, std::vector<std::byte>(48));
      std::vector<Request> reqs;
      for (int i = 0; i < kMsgs; ++i) {
        fill_pattern(out[static_cast<std::size_t>(2 * i)], static_cast<std::size_t>(100 + i));
        fill_pattern(out[static_cast<std::size_t>(2 * i + 1)],
                     static_cast<std::size_t>(500 + i));
        reqs.push_back(rank.world().irecv(in[static_cast<std::size_t>(2 * i)], self, 2 * i,
                                          rank.clock()));
        reqs.push_back(rank.world().irecv(in[static_cast<std::size_t>(2 * i + 1)], peer,
                                          2 * i + 1, rank.clock()));
        reqs.push_back(rank.world().isend(out[static_cast<std::size_t>(2 * i)], self, 2 * i,
                                          rank.clock()));
        reqs.push_back(rank.world().isend(out[static_cast<std::size_t>(2 * i + 1)], peer,
                                          2 * i + 1, rank.clock()));
      }
      for (auto& r : reqs) r.wait(rank.clock());
      for (int i = 0; i < kMsgs; ++i) {
        EXPECT_TRUE(check_pattern(in[static_cast<std::size_t>(2 * i)],
                                  static_cast<std::size_t>(100 + i)));
        EXPECT_TRUE(check_pattern(in[static_cast<std::size_t>(2 * i + 1)],
                                  static_cast<std::size_t>(500 + i)));
      }
    });
  }
}

TEST(P2P, SelfSendPersistentReplay) {
  // Persistent send/recv pair bound to self, replayed across epochs with a
  // fresh payload each time — the clmpi_halo self-edge pattern at the MPI
  // layer. Eager and rendezvous sizes both replay byte-exactly.
  for (int nranks : {1, 2}) {
    for (std::size_t n : {std::size_t{256}, 80 * std::size_t{1024}}) {
      Cluster::run(opts(nranks), [n](Rank& rank) {
        const int self = rank.rank();
        std::vector<std::byte> out(n), in(n);
        PersistentRequest spreq = rank.world().send_init(out, self, 77);
        PersistentRequest rpreq = rank.world().recv_init(in, self, 77);
        for (int epoch = 0; epoch < 4; ++epoch) {
          fill_pattern(out, n + static_cast<std::size_t>(epoch));
          Request rr = rpreq.start(rank.clock());
          Request sr = spreq.start(rank.clock());
          sr.wait(rank.clock());
          rr.wait(rank.clock());
          EXPECT_TRUE(check_pattern(in, n + static_cast<std::size_t>(epoch)))
              << "epoch " << epoch << " size " << n;
        }
      });
    }
  }
}

TEST(P2P, EagerInlineOverCapacityClampsAndReportsGauge) {
  // A profile asking for a bigger inline-eager cutoff than the envelope's
  // fixed store silently degraded to heap-copied eager sends; the clamp is
  // now surfaced as the "simmpi.mailbox.eager_inline_effective" gauge (and a
  // one-time warning at cluster start). Delivery in the clamped band — above
  // the store capacity but below the requested cutoff — must stay byte-exact.
  sys::SystemProfile prof = sys::cichlid();
  prof.nic.eager_inline = 4 * detail::Envelope::kInlineEagerBytes;
  Cluster::run(opts(2, prof), [](Rank& rank) {
    const std::size_t n = 2 * detail::Envelope::kInlineEagerBytes;  // clamped band
    std::vector<std::byte> buf(n);
    if (rank.rank() == 0) {
      fill_pattern(buf, 11);
      rank.world().send(buf, 1, 3, rank.clock());
    } else {
      rank.world().recv(buf, 0, 3, rank.clock());
      EXPECT_TRUE(check_pattern(buf, 11));
    }
  });
  std::uint64_t v = 0;
  ASSERT_TRUE(obs::Registry::instance().value("simmpi.mailbox.eager_inline_effective", v));
  EXPECT_EQ(v, detail::Envelope::kInlineEagerBytes);
}

TEST(P2P, IprobeSeesUnexpectedMessage) {
  Cluster::run(opts(2), [](Rank& rank) {
    if (rank.rank() == 0) {
      std::vector<std::byte> buf(32);
      rank.world().send(buf, 1, 17, rank.clock());
      rank.world().barrier(rank.clock());
    } else {
      rank.world().barrier(rank.clock());  // sender has definitely posted
      const auto st = rank.world().iprobe(0, 17);
      ASSERT_TRUE(st.has_value());
      EXPECT_EQ(st->bytes, 32u);
      EXPECT_FALSE(rank.world().iprobe(0, 18).has_value());
      std::vector<std::byte> buf(32);
      rank.world().recv(buf, 0, 17, rank.clock());
    }
  });
}

TEST(P2P, TestReturnsFalseThenTrue) {
  Cluster::run(opts(2), [](Rank& rank) {
    if (rank.rank() == 0) {
      std::vector<std::byte> buf(1u << 20);  // rendezvous: needs the recv
      Request r = rank.world().isend(buf, 1, 0, rank.clock());
      rank.world().barrier(rank.clock());  // receiver posts after barrier
      while (!r.test(rank.clock())) {
      }
      EXPECT_TRUE(r.done());
    } else {
      Request probe;  // default request: waits complete immediately
      EXPECT_TRUE(probe.test(rank.clock()));
      rank.world().barrier(rank.clock());
      std::vector<std::byte> buf(1u << 20);
      rank.world().recv(buf, 0, 0, rank.clock());
    }
  });
}

TEST(P2P, RequestCallbackFires) {
  std::atomic<int> fired{0};
  Cluster::run(opts(2), [&fired](Rank& rank) {
    std::vector<std::byte> buf(64);
    if (rank.rank() == 0) {
      Request r = rank.world().isend(buf, 1, 0, rank.clock());
      r.on_complete([&fired](vt::TimePoint, const MsgStatus&) { ++fired; });
      r.wait(rank.clock());
    } else {
      rank.world().recv(buf, 0, 0, rank.clock());
    }
  });
  EXPECT_EQ(fired.load(), 1);
}

TEST(P2P, WaitAnyReturnsACompletedIndex) {
  Cluster::run(opts(2), [](Rank& rank) {
    if (rank.rank() == 0) {
      // Two rendezvous sends; the peer receives the second one first.
      std::vector<std::byte> a(1u << 20), b(1u << 20);
      std::vector<Request> reqs;
      reqs.push_back(rank.world().isend(a, 1, 1, rank.clock()));
      reqs.push_back(rank.world().isend(b, 1, 2, rank.clock()));
      const std::size_t first = wait_any(std::span(reqs), rank.clock());
      EXPECT_EQ(first, 1u);  // tag 2 was received first
      wait_all(std::span(reqs), rank.clock());
    } else {
      std::vector<std::byte> buf(1u << 20);
      rank.world().recv(buf, 0, 2, rank.clock());
      rank.world().recv(buf, 0, 1, rank.clock());
    }
  });
}

TEST(P2P, TestAllReportsOnlyWhenEverythingDone) {
  Cluster::run(opts(2), [](Rank& rank) {
    std::vector<std::byte> buf(1u << 20);
    if (rank.rank() == 0) {
      std::vector<Request> reqs;
      reqs.push_back(rank.world().isend(buf, 1, 0, rank.clock()));
      EXPECT_FALSE(test_all(std::span(reqs), rank.clock()));  // receiver not there yet
      rank.world().barrier(rank.clock());
      reqs[0].wait(rank.clock());
      EXPECT_TRUE(test_all(std::span(reqs), rank.clock()));
    } else {
      rank.world().barrier(rank.clock());
      rank.world().recv(buf, 0, 0, rank.clock());
    }
  });
}

TEST(P2P, BlockingProbeSeesMessageWithoutConsuming) {
  Cluster::run(opts(2), [](Rank& rank) {
    if (rank.rank() == 0) {
      std::vector<std::byte> buf(512);
      fill_pattern(buf, 6);
      rank.world().send(buf, 1, 21, rank.clock());
    } else {
      const MsgStatus st = rank.world().probe(0, 21, rank.clock());
      EXPECT_EQ(st.bytes, 512u);
      EXPECT_EQ(st.source, 0);
      // Probe after probe still sees it (not consumed)...
      EXPECT_TRUE(rank.world().iprobe(0, 21).has_value());
      // ...and the actual receive gets the data.
      std::vector<std::byte> buf(512);
      rank.world().recv(buf, 0, 21, rank.clock());
      EXPECT_TRUE(check_pattern(buf, 6));
    }
  });
}

TEST(P2P, ProbeWithWildcardsMatchesAnything) {
  Cluster::run(opts(3), [](Rank& rank) {
    if (rank.rank() == 2) {
      std::vector<std::byte> buf(64);
      rank.world().send(buf, 0, 33, rank.clock());
    } else if (rank.rank() == 0) {
      const MsgStatus st = rank.world().probe(any_source, any_tag, rank.clock());
      EXPECT_EQ(st.source, 2);
      EXPECT_EQ(st.tag, 33);
      std::vector<std::byte> buf(64);
      rank.world().recv(buf, st.source, st.tag, rank.clock());
    }
  });
}

// --- virtual-time invariants ---------------------------------------------------

TEST(Timing, RendezvousWaitsForTheReceiver) {
  // Sender posts at ~0; receiver computes 50 ms first. The send cannot
  // complete before the receiver shows up.
  const auto result = Cluster::run(opts(2), [](Rank& rank) {
    std::vector<std::byte> buf(1u << 20);
    if (rank.rank() == 0) {
      rank.world().send(buf, 1, 0, rank.clock());
      EXPECT_GT(rank.now_s(), 0.050);
    } else {
      rank.compute(vt::milliseconds(50.0));
      rank.world().recv(buf, 0, 0, rank.clock());
    }
  });
  EXPECT_GT(result.makespan_s, 0.050);
}

TEST(Timing, EagerSendCompletesWithoutReceiver) {
  Cluster::run(opts(2), [](Rank& rank) {
    std::vector<std::byte> buf(1024);  // below the eager threshold
    if (rank.rank() == 0) {
      rank.world().send(buf, 1, 0, rank.clock());
      EXPECT_LT(rank.now_s(), 0.010);  // did not wait for the receiver
      rank.world().barrier(rank.clock());
    } else {
      rank.compute(vt::milliseconds(50.0));
      rank.world().recv(buf, 0, 0, rank.clock());
      rank.world().barrier(rank.clock());
    }
  });
}

TEST(Timing, WireCostMatchesTheModel) {
  const auto& prof = sys::cichlid();
  constexpr std::size_t n = 4u << 20;
  Cluster::run(opts(2, prof), [&prof](Rank& rank) {
    std::vector<std::byte> buf(n);
    if (rank.rank() == 0) {
      rank.world().send(buf, 1, 0, rank.clock());
    } else {
      rank.world().recv(buf, 0, 0, rank.clock());
      const double expected = prof.nic.wire.of(n).s;
      EXPECT_NEAR(rank.now_s(), expected, 1e-4);
    }
  });
}

TEST(Timing, FullDuplexOverlaps) {
  // Simultaneous opposite transfers of N bytes should take ~1x the wire
  // time, not 2x (TX and RX are separate engines).
  constexpr std::size_t n = 8u << 20;
  const auto& prof = sys::cichlid();
  const auto result = Cluster::run(opts(2, prof), [](Rank& rank) {
    const int peer = 1 - rank.rank();
    std::vector<std::byte> out(n), in(n);
    rank.world().sendrecv(out, peer, 1, in, peer, 1, rank.clock());
  });
  const double one_way = prof.nic.wire.of(n).s;
  EXPECT_LT(result.makespan_s, 1.3 * one_way);
  EXPECT_GT(result.makespan_s, 0.99 * one_way);
}

TEST(Timing, SharedNicSerializesSameDirection) {
  // Rank 0 sends to ranks 1 and 2 concurrently: both leave through rank 0's
  // TX engine, so the total is ~2x the single-transfer time.
  constexpr std::size_t n = 8u << 20;
  const auto& prof = sys::cichlid();
  const auto result = Cluster::run(opts(3, prof), [](Rank& rank) {
    if (rank.rank() == 0) {
      std::vector<std::byte> a(n), b(n);
      Request ra = rank.world().isend(a, 1, 0, rank.clock());
      Request rb = rank.world().isend(b, 2, 0, rank.clock());
      ra.wait(rank.clock());
      rb.wait(rank.clock());
    } else {
      std::vector<std::byte> buf(n);
      rank.world().recv(buf, 0, 0, rank.clock());
    }
  });
  const double one_way = prof.nic.wire.of(n).s;
  EXPECT_GT(result.makespan_s, 1.9 * one_way);
}

// --- collectives -----------------------------------------------------------------

class CollectiveRanks : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveRanks, BcastDeliversFromEveryRoot) {
  const int n = GetParam();
  Cluster::run(opts(n), [n](Rank& rank) {
    for (int root = 0; root < n; ++root) {
      std::vector<int> data(64, rank.rank() == root ? 1000 + root : -1);
      rank.world().bcast(mut_bytes_of(data), root, rank.clock());
      EXPECT_EQ(data[0], 1000 + root);
      EXPECT_EQ(data[63], 1000 + root);
    }
  });
}

TEST_P(CollectiveRanks, AllreduceSums) {
  const int n = GetParam();
  Cluster::run(opts(n), [n](Rank& rank) {
    std::vector<double> mine(8, static_cast<double>(rank.rank() + 1));
    std::vector<double> total(8, 0.0);
    rank.world().allreduce(bytes_of(mine), mut_bytes_of(total), Datatype::float64,
                           ReduceOp::sum, rank.clock());
    const double expected = n * (n + 1) / 2.0;
    for (double v : total) EXPECT_DOUBLE_EQ(v, expected);
  });
}

TEST_P(CollectiveRanks, GatherCollectsInRankOrder) {
  const int n = GetParam();
  Cluster::run(opts(n), [n](Rank& rank) {
    std::vector<int> mine{rank.rank() * 10};
    std::vector<int> all(static_cast<std::size_t>(n), -1);
    rank.world().gather(bytes_of(mine), mut_bytes_of(all), 0, rank.clock());
    if (rank.rank() == 0) {
      for (int r = 0; r < n; ++r) EXPECT_EQ(all[static_cast<std::size_t>(r)], r * 10);
    }
  });
}

TEST_P(CollectiveRanks, AllgatherEverywhere) {
  const int n = GetParam();
  Cluster::run(opts(n), [n](Rank& rank) {
    std::vector<int> mine{rank.rank()};
    std::vector<int> all(static_cast<std::size_t>(n), -1);
    rank.world().allgather(bytes_of(mine), mut_bytes_of(all), rank.clock());
    for (int r = 0; r < n; ++r) EXPECT_EQ(all[static_cast<std::size_t>(r)], r);
  });
}

TEST_P(CollectiveRanks, ScatterDistributesSlices) {
  const int n = GetParam();
  Cluster::run(opts(n), [n](Rank& rank) {
    std::vector<int> all(static_cast<std::size_t>(n));
    std::iota(all.begin(), all.end(), 100);
    std::vector<int> mine(1, -1);
    rank.world().scatter(bytes_of(all), mut_bytes_of(mine), 0, rank.clock());
    EXPECT_EQ(mine[0], 100 + rank.rank());
  });
}

TEST_P(CollectiveRanks, AlltoallTransposes) {
  const int n = GetParam();
  Cluster::run(opts(n), [n](Rank& rank) {
    std::vector<int> out(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) out[static_cast<std::size_t>(r)] = rank.rank() * 100 + r;
    std::vector<int> in(static_cast<std::size_t>(n), -1);
    rank.world().alltoall(bytes_of(out), mut_bytes_of(in), rank.clock());
    for (int r = 0; r < n; ++r) EXPECT_EQ(in[static_cast<std::size_t>(r)], r * 100 + rank.rank());
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectiveRanks, ::testing::Values(1, 2, 3, 4, 5, 8));

TEST(Collectives, ReduceMaxAtNonZeroRoot) {
  Cluster::run(opts(5), [](Rank& rank) {
    std::vector<std::int32_t> mine{static_cast<std::int32_t>((rank.rank() * 7) % 5)};
    std::vector<std::int32_t> out{-1};
    rank.world().reduce(bytes_of(mine), mut_bytes_of(out), Datatype::int32, ReduceOp::max, 3,
                        rank.clock());
    if (rank.rank() == 3) {
      EXPECT_EQ(out[0], 4);
    }
  });
}

TEST(Collectives, BarrierSynchronizesClocks) {
  Cluster::run(opts(4), [](Rank& rank) {
    if (rank.rank() == 2) rank.compute(vt::milliseconds(30.0));
    rank.world().barrier(rank.clock());
    // Nobody leaves the barrier before the slowest rank entered it.
    EXPECT_GT(rank.now_s(), 0.030);
  });
}

// --- communicator management ----------------------------------------------------

TEST(Comm, DupIsolatesTagSpace) {
  Cluster::run(opts(2), [](Rank& rank) {
    Comm dup = rank.world().dup(rank.clock());
    EXPECT_NE(dup.context(), rank.world().context());
    // A message sent on dup is invisible to world's matching.
    std::vector<int> v{5};
    if (rank.rank() == 0) {
      dup.send(bytes_of(v), 1, 9, rank.clock());
    } else {
      EXPECT_FALSE(rank.world().iprobe(0, 9).has_value() &&
                   !dup.iprobe(0, 9).has_value());
      std::vector<int> in(1);
      dup.recv(mut_bytes_of(in), 0, 9, rank.clock());
      EXPECT_EQ(in[0], 5);
    }
  });
}

TEST(Comm, SplitEvenOdd) {
  Cluster::run(opts(5), [](Rank& rank) {
    const int color = rank.rank() % 2;
    Comm half = rank.world().split(color, rank.rank(), rank.clock());
    const int expected_size = color == 0 ? 3 : 2;
    EXPECT_EQ(half.size(), expected_size);
    EXPECT_EQ(half.rank(), rank.rank() / 2);
    // Ring exchange inside the split comm.
    const int peer = (half.rank() + 1) % half.size();
    const int from = (half.rank() + half.size() - 1) % half.size();
    std::vector<int> out{rank.rank()};
    std::vector<int> in{-1};
    (void)rank.world();  // world stays usable
    half.sendrecv(bytes_of(out), peer, 0, mut_bytes_of(in), from, 0, rank.clock());
    // The global rank we hear from has the same parity.
    EXPECT_EQ(in[0] % 2, color);
  });
}

TEST(Comm, SplitReversedKeysReverseRanks) {
  Cluster::run(opts(4), [](Rank& rank) {
    Comm rev = rank.world().split(0, -rank.rank(), rank.clock());
    EXPECT_EQ(rev.rank(), 3 - rank.rank());
  });
}

// --- error handling ---------------------------------------------------------------

TEST(Cluster, RankExceptionPropagates) {
  EXPECT_THROW(Cluster::run(opts(2),
                            [](Rank& rank) {
                              if (rank.rank() == 1) throw PreconditionError("boom");
                              // rank 0 exits normally
                            }),
               PreconditionError);
}

TEST(Cluster, InvalidPeerThrows) {
  try {
    Cluster::run(opts(2), [](Rank& rank) {
      std::vector<std::byte> buf(8);
      rank.world().send(buf, 5, 0, rank.clock());
    });
    FAIL() << "invalid peer was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::invalid_rank);
  }
}

TEST(Cluster, ResultReportsPerRankEndTimes) {
  const auto result = Cluster::run(opts(3), [](Rank& rank) {
    rank.compute(vt::milliseconds(10.0 * (rank.rank() + 1)));
  });
  ASSERT_EQ(result.rank_end_s.size(), 3u);
  EXPECT_NEAR(result.rank_end_s[0], 0.010, 1e-6);
  EXPECT_NEAR(result.rank_end_s[2], 0.030, 1e-6);
  EXPECT_NEAR(result.makespan_s, 0.030, 1e-6);
}

}  // namespace
}  // namespace clmpi::mpi
