#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <span>
#include <sstream>

#include "apps/himeno/himeno.hpp"
#include "apps/nanopowder/nanopowder.hpp"
#include "simmpi/cluster.hpp"
#include "simmpi/request.hpp"
#include "support/rng.hpp"
#include "transfer/strategy.hpp"
#include "vt/tracer.hpp"

namespace perfbench {

namespace mpi = clmpi::mpi;
namespace sys = clmpi::sys;
namespace vt = clmpi::vt;
namespace xfer = clmpi::xfer;

ScopedWorkers::ScopedWorkers(int workers) {
  if (const char* v = std::getenv("CLMPI_FIBER_WORKERS")) old_ = v;
  ::setenv("CLMPI_FIBER_WORKERS", std::to_string(workers).c_str(), 1);
}

ScopedWorkers::~ScopedWorkers() {
  if (old_.empty()) {
    ::unsetenv("CLMPI_FIBER_WORKERS");
  } else {
    ::setenv("CLMPI_FIBER_WORKERS", old_.c_str(), 1);
  }
}

namespace {

void atomic_max(std::atomic<std::int64_t>& a, std::int64_t v) {
  std::int64_t seen = a.load(std::memory_order_relaxed);
  while (seen < v && !a.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

std::string fmt17(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

/// One op: a Cluster::run whose rank bodies the benchmark supplies, timed
/// from the call to the last body entry (launch) and from the last body
/// exit to the return (teardown). With spans on, the host lane records
/// "cluster.run" and every rank lane a "rank.body" child of it.
template <typename Body>
OpOutcome run_cluster_timed(const sys::SystemProfile& profile, int nranks,
                            const OpContext& ctx, Body&& body) {
  std::optional<vt::Tracer> tracer;
  if (ctx.trace) tracer.emplace();
  mpi::Cluster::Options options;
  options.nranks = nranks;
  options.profile = &profile;
  options.tracer = tracer ? &*tracer : nullptr;

  std::atomic<std::int64_t> last_entry{0};
  std::atomic<std::int64_t> last_exit{0};
  Lane* host = ctx.spans != nullptr ? &ctx.spans->host() : nullptr;
  OpOutcome out;
  std::int64_t called = 0;
  std::int64_t returned = 0;
  {
    Scope run_span(host, "cluster.run");
    if (host != nullptr) {
      for (int r = 0; r < nranks; ++r) ctx.spans->rank(r).set_root_parent(host->top());
    }
    called = now_ns();
    const mpi::RunResult res = mpi::Cluster::run(options, [&](mpi::Rank& rank) {
      atomic_max(last_entry, now_ns());
      Lane* lane = ctx.spans != nullptr ? &ctx.spans->rank(rank.rank()) : nullptr;
      {
        Scope body_span(lane, "rank.body");
        body(rank, lane);
      }
      atomic_max(last_exit, now_ns());
    });
    returned = now_ns();
    out.makespan_s = res.makespan_s;
  }
  out.launch_s = static_cast<double>(last_entry.load() - called) * 1e-9;
  out.teardown_s = static_cast<double>(returned - last_exit.load()) * 1e-9;
  if (tracer) {
    out.trace_hash = tracer->hash();
    out.vt_spans = tracer->spans().size();
  }
  return out;
}

/// Wire messages one device transfer of `bytes` with `s` puts on the wire.
double wire_messages(const xfer::Strategy& s, std::size_t bytes) {
  return s.kind == xfer::StrategyKind::pipelined
             ? static_cast<double>(xfer::pipeline_block_count(bytes, s.block))
             : 1.0;
}

// --- himeno ------------------------------------------------------------------

namespace himeno = clmpi::apps::himeno;

class Himeno final : public Workload {
 public:
  std::string_view name() const override { return "himeno"; }
  const sys::SystemProfile& profile() const override { return sys::cichlid(); }
  int nranks() const override { return kRanks; }
  std::vector<std::string> kinds() const override { return {"clmpi", "hand"}; }

  Declared declared(int kind) const override {
    const himeno::Config cfg = config(kind);
    const std::size_t plane = cfg.halo_plane_bytes();
    const xfer::Strategy s = kind == 0
                                 ? xfer::select(profile(), plane)
                                 : xfer::Strategy::pipelined(std::min<std::size_t>(128 * 1024, plane));
    // Per iteration every rank sends one plane to each existing partner:
    // stage 1 pairs (0,1),(2,3),..., stage 2 pairs (1,2),(3,4),...
    double planes = 0.0;
    for (int r = 0; r < kRanks; ++r) {
      const bool even = r % 2 == 0;
      const int p1 = even ? r + 1 : r - 1;
      const int p2 = even ? r - 1 : r + 1;
      planes += (p1 >= 0 && p1 < kRanks ? 1.0 : 0.0) + (p2 >= 0 && p2 < kRanks ? 1.0 : 0.0);
    }
    planes *= cfg.iterations;
    // The closing gosa allreduce: a binomial reduce plus a binomial bcast
    // of one double.
    const double coll_msgs = 2.0 * (kRanks - 1);
    return {planes * wire_messages(s, plane) + coll_msgs,
            planes * static_cast<double>(plane) + coll_msgs * sizeof(double), true};
  }

  void prepare_reference() override {
    ScopedWorkers one(1);
    reference_gosa_ = himeno::run_cluster(profile(), 1, config(0)).gosa;
  }

  OpOutcome run_op(int kind, const OpContext& ctx) override {
    const himeno::Config cfg = config(kind);
    std::vector<double> gosa(kRanks, 0.0);
    OpOutcome out = run_cluster_timed(profile(), kRanks, ctx, [&](mpi::Rank& rank, Lane* lane) {
      Scope s(lane, "apps.himeno.run_rank");
      gosa[static_cast<std::size_t>(rank.rank())] = himeno::run_rank(rank, cfg).gosa;
    });
    for (int r = 0; r < kRanks && out.ok; ++r) {
      const double g = gosa[static_cast<std::size_t>(r)];
      if (!same_bits(g, reference_gosa_)) {
        out.ok = false;
        out.mismatch = "himeno/" + kinds()[static_cast<std::size_t>(kind)] + " rank " +
                       std::to_string(r) + ": gosa " + fmt17(g) +
                       " != 1-rank 1-worker reference " + fmt17(reference_gosa_);
      }
    }
    return out;
  }

  std::string describe() const override {
    const himeno::Config cfg = config(0);
    std::ostringstream os;
    os << "Himeno M (" << cfg.interior << "x" << cfg.jmax << "x" << cfg.kmax << ", "
       << cfg.iterations << " iterations) on " << profile().name << " x" << kRanks
       << "; clMPI strategy " << xfer::to_string(xfer::select(profile(), cfg.halo_plane_bytes()).kind)
       << ", hand-optimized pipelined 128 KiB; 1-rank 1-worker reference gosa "
       << fmt17(reference_gosa_);
    return os.str();
  }

 private:
  static constexpr int kRanks = 4;
  /// Himeno M at the iteration count of the Fig. 9 bench.
  static himeno::Config config(int kind) {
    himeno::Config cfg = himeno::Config::size_m();
    cfg.iterations = 6;
    cfg.variant = kind == 0 ? himeno::Variant::clmpi : himeno::Variant::hand_optimized;
    return cfg;
  }
  double reference_gosa_{0.0};
};

// --- nanopowder --------------------------------------------------------------

namespace nano = clmpi::apps::nanopowder;

class Nanopowder final : public Workload {
 public:
  std::string_view name() const override { return "nanopowder"; }
  const sys::SystemProfile& profile() const override { return sys::ricc(); }
  int nranks() const override { return kRanks; }
  std::vector<std::string> kinds() const override { return {"baseline", "clmpi"}; }

  Declared declared(int kind) const override {
    const nano::Config cfg = config(kind);
    const auto slice = static_cast<double>(static_cast<std::size_t>(cfg.cells / kRanks) *
                                           cfg.nbins * sizeof(float));
    const std::size_t coeff = cfg.coefficient_bytes();
    const double coeff_msgs = kind == 1 ? wire_messages(xfer::select(profile(), coeff), coeff) : 1.0;
    // Per step and worker: its slice out, the coefficients out, its result back.
    const double workers = kRanks - 1;
    return {cfg.steps * workers * (2.0 + coeff_msgs),
            cfg.steps * workers * (2.0 * slice + static_cast<double>(coeff)), true};
  }

  void prepare_reference() override {
    ScopedWorkers one(1);
    reference_ = nano::run_cluster(profile(), 1, config(0));
  }

  std::string caveat() const override {
    if (std::isfinite(reference_.distribution_checksum) && std::isfinite(reference_.total_mass)) {
      return {};
    }
    return "the nanopowder reference is not finite at 2290 bins (collision coefficients built "
           "from 2^(i/8) overflow float, and inf * 0 gives NaN); ops are checked bit for bit "
           "against it, which catches a variant that differs in its NaN payload but not this "
           "defect of the app";
  }

  OpOutcome run_op(int kind, const OpContext& ctx) override {
    std::optional<vt::Tracer> tracer;
    if (ctx.trace) tracer.emplace();
    nano::RunSummary got;
    {
      // The app owns its Cluster::run, so the span covers the coefficient
      // build as well and launch/teardown are not observable.
      Scope s(ctx.spans != nullptr ? &ctx.spans->host() : nullptr, "apps.nanopowder.run_cluster");
      got = nano::run_cluster(profile(), kRanks, config(kind), tracer ? &*tracer : nullptr);
    }
    OpOutcome out;
    out.makespan_s = got.makespan_s;
    if (tracer) {
      out.trace_hash = tracer->hash();
      out.vt_spans = tracer->spans().size();
    }
    const std::string who = "nanopowder/" + kinds()[static_cast<std::size_t>(kind)];
    if (!same_bits(got.distribution_checksum, reference_.distribution_checksum)) {
      out.ok = false;
      out.mismatch = who + ": distribution_checksum " + fmt17(got.distribution_checksum) +
                     " != 1-rank reference " + fmt17(reference_.distribution_checksum);
    } else if (!same_bits(got.total_mass, reference_.total_mass)) {
      out.ok = false;
      out.mismatch = who + ": total_mass " + fmt17(got.total_mass) + " != 1-rank reference " +
                     fmt17(reference_.total_mass);
    }
    return out;
  }

  std::string describe() const override {
    const nano::Config cfg = config(1);
    std::ostringstream os;
    os << "nanopowder (" << cfg.nbins << " bins, " << cfg.cells << " cells, " << cfg.steps
       << " step, " << cfg.coag_substeps << " substeps, "
       << static_cast<double>(cfg.coefficient_bytes()) / 1e6 << " MB coefficients per peer) on "
       << profile().name << " x" << kRanks << "; clMPI strategy "
       << xfer::to_string(xfer::select(profile(), cfg.coefficient_bytes()).kind)
       << "; 1-rank 1-worker reference distribution_checksum "
       << fmt17(reference_.distribution_checksum) << ", total_mass " << fmt17(reference_.total_mass);
    return os.str();
  }

 private:
  static constexpr int kRanks = 4;
  /// 4 cells (one per rank) keep the fixed cost — coefficient build plus
  /// the 42 MB distribution to each of the 3 peers — about half of an op.
  static nano::Config config(int kind) {
    nano::Config cfg;
    cfg.nbins = 2290;
    cfg.cells = 4;
    cfg.steps = 1;
    cfg.use_clmpi = kind == 1;
    return cfg;
  }
  nano::RunSummary reference_;
};

// --- msg_rate ----------------------------------------------------------------

/// Uniform integers in [lo, hi] from the simulator's seeded generator.
struct Draw {
  clmpi::Rng rng;
  std::size_t uniform(std::size_t lo, std::size_t hi) { return lo + rng.below(hi - lo + 1); }
};

/// The byte at offset `i` of the payload identified by `key`.
inline std::byte pattern(std::uint64_t key, std::size_t i) {
  return static_cast<std::byte>((key >> ((i & 7U) * 8U)) + i);
}

std::uint64_t payload_key(std::uint64_t seed, int phase, int src, int dst, int tag) {
  constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15;
  std::uint64_t k = seed * kGolden;
  for (const int v : {phase, src, dst, tag}) {
    k ^= static_cast<std::uint64_t>(static_cast<std::int64_t>(v)) + kGolden + (k << 6) + (k >> 2);
  }
  return k;
}

void fill(std::span<std::byte> buf, std::uint64_t key) {
  for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = pattern(key, i);
}

/// Offset of the first wrong byte, or -1 when the payload is intact.
long first_bad(std::span<const std::byte> buf, std::uint64_t key) {
  for (std::size_t i = 0; i < buf.size(); ++i) {
    if (buf[i] != pattern(key, i)) return static_cast<long>(i);
  }
  return -1;
}

class MsgRate final : public Workload {
 public:
  static constexpr int kRanks = 16;
  static constexpr int kPhases = 64;
  static constexpr int kRing = 8;        ///< inline-eager ring messages per rank
  static constexpr int kFanin = 4;       ///< coalesced fan-in messages per sender
  static constexpr int kPingPong = 4;    ///< blocking round trips per pair
  static constexpr int kRendezvous = 2;  ///< 256 KiB exchanging pairs
  static constexpr std::size_t kRendezvousBytes = 256 * 1024;
  static constexpr std::size_t kPersistentBytes = 1024;
  static constexpr std::size_t kReduceLen = 4;  ///< int64 elements per allreduce
  static constexpr std::size_t kChunk = 64;     ///< alltoall bytes per peer

  struct Phase {
    std::array<std::size_t, kRing> ring{};
    int fanin_root{0};
    std::array<std::size_t, kFanin> fanin{};
    std::size_t pingpong{0};
    int rdv_bit{1};                       ///< pairs are (r, r | rdv_bit)
    std::array<int, kRendezvous> rdv_lo{};  ///< lower rank of each pair
  };

  explicit MsgRate(std::uint64_t seed) : seed_(seed) {
    Draw rng{clmpi::Rng(seed)};
    for (Phase& p : phases_) {
      for (auto& s : p.ring) s = rng.uniform(16, 256);
      p.fanin_root = static_cast<int>(rng.uniform(0, kRanks - 1));
      for (auto& s : p.fanin) s = rng.uniform(512, 4096);
      p.pingpong = rng.uniform(64, 1024);
      p.rdv_bit = 1 << rng.uniform(0, 3);
      // Pairs of distinct lower ranks (bit rdv_bit clear).
      std::vector<int> lows;
      for (int r = 0; r < kRanks; ++r) {
        if ((r & p.rdv_bit) == 0) lows.push_back(r);
      }
      for (int i = 0; i < kRendezvous; ++i) {
        const std::size_t j = rng.uniform(0, lows.size() - 1);
        p.rdv_lo[static_cast<std::size_t>(i)] = lows[j];
        lows.erase(lows.begin() + static_cast<std::ptrdiff_t>(j));
      }
    }
  }

  std::string_view name() const override { return "msg_rate"; }
  const sys::SystemProfile& profile() const override { return sys::ricc(); }
  int nranks() const override { return kRanks; }
  std::vector<std::string> kinds() const override { return {"mix"}; }

  Declared declared(int) const override {
    // The persistent ring replays once per phase.
    double msgs = static_cast<double>(kRanks) * kPhases;
    double bytes = msgs * static_cast<double>(kPersistentBytes);
    for (const Phase& p : phases_) {
      for (const auto s : p.ring) {
        msgs += kRanks;
        bytes += kRanks * static_cast<double>(s);
      }
      for (const auto s : p.fanin) {
        msgs += kRanks - 1;
        bytes += (kRanks - 1) * static_cast<double>(s);
      }
      msgs += kRanks * kPingPong;  // each of kRanks/2 pairs: 2 messages per round trip
      bytes += kRanks * kPingPong * static_cast<double>(p.pingpong);
      msgs += 2 * kRendezvous;
      bytes += 2.0 * kRendezvous * kRendezvousBytes;
      // allreduce = binomial reduce + binomial bcast; alltoall = all pairs.
      msgs += 2 * (kRanks - 1) + kRanks * (kRanks - 1);
      bytes += 2.0 * (kRanks - 1) * kReduceLen * sizeof(std::int64_t) +
               static_cast<double>(kRanks * (kRanks - 1)) * kChunk;
    }
    return {msgs, bytes, false};
  }

  void prepare_reference() override {
    // Every expected payload and collective result follows from the seed
    // (pattern(), reduce_input()), so there is nothing to precompute.
  }

  OpOutcome run_op(int, const OpContext& ctx) override {
    std::vector<std::string> bad(kRanks);
    OpOutcome out = run_cluster_timed(profile(), kRanks, ctx, [&](mpi::Rank& rank, Lane* lane) {
      rank_body(rank, lane, bad[static_cast<std::size_t>(rank.rank())]);
    });
    for (const std::string& b : bad) {
      if (!b.empty()) {
        out.ok = false;
        out.mismatch = "msg_rate " + b;
        break;
      }
    }
    return out;
  }

  std::string describe() const override {
    std::ostringstream os;
    os << "msg_rate on " << profile().name << " x" << kRanks << ", " << kPhases
       << " phases; per phase: " << kRing << " ring msgs <=256 B per rank, " << kFanin
       << " fan-in msgs 512 B-4 KiB per sender, " << kPingPong
       << " blocking round trips per pair, " << kRendezvous
       << " 256 KiB exchanges, 1 persistent ring replay, 1 allreduce, 1 alltoall";
    return os.str();
  }

 private:
  int64_t reduce_input(int phase, int r, std::size_t j) const {
    return static_cast<std::int64_t>(payload_key(seed_, phase, r, -1, static_cast<int>(j)) >> 20);
  }

  void rank_body(mpi::Rank& rank, Lane* lane, std::string& bad) const {
    const int me = rank.rank();
    mpi::Comm& w = rank.world();
    vt::Clock& clock = rank.clock();
    const int right = (me + 1) % kRanks;
    const int left = (me + kRanks - 1) % kRanks;
    auto note = [&](int phase, const char* what, int src, long at) {
      if (bad.empty() && at >= 0) {
        bad = "rank " + std::to_string(me) + " phase " + std::to_string(phase) + " " + what +
              " from " + std::to_string(src) + ": byte " + std::to_string(at) + " wrong";
      }
    };

    std::vector<std::byte> pers_send(kPersistentBytes), pers_recv(kPersistentBytes);
    mpi::PersistentRequest pers_s, pers_r;
    {
      Scope s(lane, "simmpi.post");
      pers_s = w.send_init(pers_send, right, 5000);
      pers_r = w.recv_init(pers_recv, left, 5000);
    }

    std::vector<std::vector<std::byte>> sbuf, rbuf;
    std::vector<mpi::Request> reqs;
    std::vector<std::byte> big_s(kRendezvousBytes), big_r(kRendezvousBytes);
    std::vector<std::byte> small(1024);
    std::vector<std::byte> a2a_s(kChunk * kRanks), a2a_r(kChunk * kRanks);

    auto wait_all = [&] {
      Scope s(lane, "simmpi.wait");
      mpi::wait_all(std::span(reqs), clock);
    };

    for (int ph = 0; ph < kPhases; ++ph) {
      const Phase& p = phases_[static_cast<std::size_t>(ph)];

      // 1. Inline-eager ring: kRing messages right, kRing from the left.
      sbuf.assign(kRing, {});
      rbuf.assign(kRing, {});
      reqs.clear();
      for (int i = 0; i < kRing; ++i) {
        const auto k = static_cast<std::size_t>(i);
        rbuf[k].resize(p.ring[k]);
        sbuf[k].resize(p.ring[k]);
        fill(sbuf[k], payload_key(seed_, ph, me, right, 1000 + i));
      }
      {
        Scope s(lane, "simmpi.post");
        for (int i = 0; i < kRing; ++i) {
          const auto k = static_cast<std::size_t>(i);
          reqs.push_back(w.irecv(rbuf[k], left, 1000 + i, clock));
          reqs.push_back(w.isend(sbuf[k], right, 1000 + i, clock));
        }
      }
      wait_all();
      for (int i = 0; i < kRing; ++i) {
        note(ph, "ring", left,
             first_bad(rbuf[static_cast<std::size_t>(i)], payload_key(seed_, ph, left, me, 1000 + i)));
      }

      // 2. Coalesced fan-in burst into the phase's root.
      reqs.clear();
      if (me == p.fanin_root) {
        rbuf.assign(static_cast<std::size_t>((kRanks - 1) * kFanin), {});
        std::size_t n = 0;
        for (int src = 0; src < kRanks; ++src) {
          if (src == me) continue;
          for (int i = 0; i < kFanin; ++i) rbuf[n++].resize(p.fanin[static_cast<std::size_t>(i)]);
        }
        {
          Scope s(lane, "simmpi.post");
          n = 0;
          for (int src = 0; src < kRanks; ++src) {
            if (src == me) continue;
            for (int i = 0; i < kFanin; ++i) reqs.push_back(w.irecv(rbuf[n++], src, 2000 + i, clock));
          }
        }
        wait_all();
        n = 0;
        for (int src = 0; src < kRanks; ++src) {
          if (src == me) continue;
          for (int i = 0; i < kFanin; ++i) {
            note(ph, "fan-in", src, first_bad(rbuf[n++], payload_key(seed_, ph, src, me, 2000 + i)));
          }
        }
      } else {
        sbuf.assign(kFanin, {});
        for (int i = 0; i < kFanin; ++i) {
          const auto k = static_cast<std::size_t>(i);
          sbuf[k].resize(p.fanin[k]);
          fill(sbuf[k], payload_key(seed_, ph, me, p.fanin_root, 2000 + i));
        }
        {
          Scope s(lane, "simmpi.post");
          for (int i = 0; i < kFanin; ++i) {
            reqs.push_back(w.isend(sbuf[static_cast<std::size_t>(i)], p.fanin_root, 2000 + i, clock));
          }
        }
        wait_all();
      }

      // 3. Blocking ping-pong with the pair partner.
      const int partner = me ^ 1;
      const std::span<std::byte> pp(small.data(), p.pingpong);
      for (int round = 0; round < kPingPong; ++round) {
        const int tag = 3000 + round;
        const bool first = me % 2 == 0;
        for (int leg = 0; leg < 2; ++leg) {
          const bool sending = (leg == 0) == first;
          Scope s(lane, "simmpi.wait");
          if (sending) {
            fill(pp, payload_key(seed_, ph, me, partner, tag * 2 + leg));
            w.send(pp, partner, tag * 2 + leg, clock);
          } else {
            w.recv(pp, partner, tag * 2 + leg, clock);
            note(ph, "ping-pong", partner,
                 first_bad(pp, payload_key(seed_, ph, partner, me, tag * 2 + leg)));
          }
        }
      }

      // 4. A few 256 KiB rendezvous exchanges.
      for (const int lo : p.rdv_lo) {
        const int hi = lo | p.rdv_bit;
        if (me != lo && me != hi) continue;
        const int peer = me == lo ? hi : lo;
        fill(big_s, payload_key(seed_, ph, me, peer, 4000));
        reqs.clear();
        {
          Scope s(lane, "simmpi.post");
          reqs.push_back(w.irecv(big_r, peer, 4000, clock));
          reqs.push_back(w.isend(big_s, peer, 4000, clock));
        }
        wait_all();
        note(ph, "rendezvous", peer, first_bad(big_r, payload_key(seed_, ph, peer, me, 4000)));
      }

      // 5. Persistent-request replay around the ring.
      fill(pers_send, payload_key(seed_, ph, me, right, 5000));
      reqs.clear();
      {
        Scope s(lane, "simmpi.post");
        reqs.push_back(pers_r.start(clock));
        reqs.push_back(pers_s.start(clock));
      }
      wait_all();
      note(ph, "persistent", left, first_bad(pers_recv, payload_key(seed_, ph, left, me, 5000)));

      // 6. One allreduce and one alltoall.
      std::array<std::int64_t, kReduceLen> in{}, sum{}, expect{};
      for (std::size_t j = 0; j < kReduceLen; ++j) {
        in[j] = reduce_input(ph, me, j);
        for (int r = 0; r < kRanks; ++r) expect[j] += reduce_input(ph, r, j);
      }
      {
        Scope s(lane, "simmpi.coll");
        w.allreduce(std::as_bytes(std::span(in)), std::as_writable_bytes(std::span(sum)),
                    mpi::Datatype::int64, mpi::ReduceOp::sum, clock);
      }
      if (sum != expect) note(ph, "allreduce", -1, 0);
      for (int d = 0; d < kRanks; ++d) {
        fill(std::span(a2a_s).subspan(static_cast<std::size_t>(d) * kChunk, kChunk),
             payload_key(seed_, ph, me, d, 6000));
      }
      {
        Scope s(lane, "simmpi.coll");
        w.alltoall(a2a_s, a2a_r, clock);
      }
      for (int src = 0; src < kRanks; ++src) {
        note(ph, "alltoall", src,
             first_bad(std::span(a2a_r).subspan(static_cast<std::size_t>(src) * kChunk, kChunk),
                       payload_key(seed_, ph, src, me, 6000)));
      }
    }
  }

  std::uint64_t seed_;
  std::array<Phase, kPhases> phases_{};
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed) {
  if (name == "himeno") return std::make_unique<Himeno>();
  if (name == "nanopowder") return std::make_unique<Nanopowder>();
  if (name == "msg_rate") return std::make_unique<MsgRate>(seed);
  return nullptr;
}

}  // namespace perfbench
