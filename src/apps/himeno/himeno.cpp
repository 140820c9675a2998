#include "apps/himeno/himeno.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "clmpi/runtime.hpp"
#include "ocl/context.hpp"
#include "ocl/platform.hpp"
#include "ocl/queue.hpp"
#include "support/error.hpp"
#include "support/units.hpp"
#include "transfer/strategy.hpp"

namespace clmpi::apps::himeno {

namespace {

// Standard Himeno coefficients (the benchmark initializes its coefficient
// arrays to these constants, so they live here as scalars; the stencil FLOP
// structure is unchanged).
constexpr float kA0 = 1.0f, kA1 = 1.0f, kA2 = 1.0f, kA3 = 1.0f / 6.0f;
constexpr float kB0 = 0.0f, kB1 = 0.0f, kB2 = 0.0f;
constexpr float kC0 = 1.0f, kC1 = 1.0f, kC2 = 1.0f;
constexpr float kBnd = 1.0f, kWrk1 = 0.0f;
constexpr float kOmega = 0.8f;

/// Four `k` lanes of one row, loaded and stored through memcpy (rows are not
/// 16-byte aligned).
constexpr std::size_t kLanes = 4;
using Lanes = float __attribute__((vector_size(kLanes * sizeof(float))));

Lanes load_lanes(const float* p) {
  Lanes v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// The Himeno update of the cell at `c` (V = float) or of the kLanes
/// consecutive cells starting there (V = Lanes): the same float operations in
/// the same order, element-wise. `di`/`dj` are the plane and row strides and
/// `load(p)` reads V from p. Returns ss; the caller adds ss^2 to the residual
/// and stores src + omega * ss.
template <typename V, typename Load>
V stencil(const float* c, std::size_t di, std::size_t dj, Load load) {
  const float *ip = c + di, *im = c - di, *jp = c + dj, *jm = c - dj;
  const V s0 = kA0 * load(ip) + kA1 * load(jp) + kA2 * load(c + 1) +
               kB0 * (load(ip + dj) - load(ip - dj) - load(im + dj) + load(im - dj)) +
               kB1 * (load(jp + 1) - load(jm + 1) - load(jp - 1) + load(jm - 1)) +
               kB2 * (load(ip + 1) - load(im + 1) - load(ip - 1) + load(im - 1)) +
               kC0 * load(im) + kC1 * load(jm) + kC2 * load(c - 1) + kWrk1;
  return (s0 * kA3 - load(c)) * kBnd;
}

/// The Jacobi kernel: dst[i] = src[i] + omega * ss over planes
/// [i_begin, i_end], storing sum(ss^2) into gosa[slot].
/// Args: 0 src, 1 dst, 2 gosa, 3 i_begin, 4 i_end, 5 J, 6 K, 7 slot.
void jacobi_body(const ocl::NDRange&, const ocl::KernelArgs& args) {
  auto gosa = args.span_of<double>(2);
  gosa[static_cast<std::size_t>(args.integer(7))] = detail::jacobi_sweep(
      args.span_of<float>(0), args.span_of<float>(1), static_cast<std::size_t>(args.integer(3)),
      static_cast<std::size_t>(args.integer(4)), static_cast<std::size_t>(args.integer(5)),
      static_cast<std::size_t>(args.integer(6)));
}

/// Per-rank state shared by the three implementations.
struct Grid {
  Grid(mpi::Rank& rank, const Config& cfg)
      : config(cfg),
        nl(cfg.interior / static_cast<std::size_t>(rank.size())),
        half(nl / 2),
        J(cfg.jmax),
        K(cfg.kmax),
        plane_floats(cfg.jmax * cfg.kmax),
        platform(rank.profile(), rank.rank(), rank.tracer()),
        ctx(platform.device()),
        runtime(rank, platform.device()) {
    CLMPI_REQUIRE(cfg.interior % (2 * static_cast<std::size_t>(rank.size())) == 0,
                  "interior planes must be divisible by 2 * nranks");
    CLMPI_REQUIRE(cfg.jmax >= 3 && cfg.kmax >= 3, "grid too small");

    const std::size_t floats = (nl + 2) * plane_floats;
    cur = ctx.create_buffer(floats * sizeof(float), ocl::MemFlags::read_write, "p");
    nxt = ctx.create_buffer(floats * sizeof(float), ocl::MemFlags::read_write, "wrk2");
    gosa_buf = ctx.create_buffer(2 * sizeof(double), ocl::MemFlags::read_write, "gosa");

    // p[i] = (i/imax-1)^2 along the decomposed axis (the standard Himeno
    // initialization), in *global* plane coordinates so decomposition does
    // not change the data.
    const std::size_t global_planes = cfg.interior + 2;
    const auto base = static_cast<std::size_t>(rank.rank()) * nl;
    auto init = [&](ocl::BufferPtr& buf) {
      auto data = buf->as<float>();
      for (std::size_t l = 0; l <= nl + 1; ++l) {
        const std::size_t g = base + l;
        const auto rel = static_cast<float>(g) / static_cast<float>(global_planes - 1);
        const float value = rel * rel;
        for (std::size_t jk = 0; jk < plane_floats; ++jk) data[l * plane_floats + jk] = value;
      }
    };
    init(cur);
    init(nxt);
    gosa_buf->as<double>()[0] = 0.0;
    gosa_buf->as<double>()[1] = 0.0;

    program.define("jacobi", jacobi_body, ocl::flops_per_item(Config::flops_per_cell));
  }

  /// Build a bound kernel instance updating planes [i_begin, i_end] into
  /// `dst` with residual slot `slot`.
  ocl::KernelPtr make_kernel(const ocl::BufferPtr& src, const ocl::BufferPtr& dst,
                             std::size_t i_begin, std::size_t i_end, std::size_t slot) {
    ocl::KernelPtr k = program.create_kernel("jacobi");
    k->set_arg(0, src);
    k->set_arg(1, dst);
    k->set_arg(2, gosa_buf);
    k->set_arg(3, static_cast<std::int64_t>(i_begin));
    k->set_arg(4, static_cast<std::int64_t>(i_end));
    k->set_arg(5, static_cast<std::int64_t>(J));
    k->set_arg(6, static_cast<std::int64_t>(K));
    k->set_arg(7, static_cast<std::int64_t>(slot));
    return k;
  }

  [[nodiscard]] ocl::NDRange range_for(std::size_t i_begin, std::size_t i_end) const {
    return ocl::NDRange::grid3(i_end - i_begin + 1, J - 2, K - 2);
  }

  [[nodiscard]] std::size_t plane_bytes() const { return plane_floats * sizeof(float); }
  [[nodiscard]] std::size_t plane_offset(std::size_t plane) const {
    return plane * plane_bytes();
  }

  Config config;
  std::size_t nl;            ///< local interior planes
  std::size_t half;          ///< nl / 2 (the A/B split)
  std::size_t J, K;
  std::size_t plane_floats;  ///< floats per (j,k) plane

  ocl::Platform platform;
  ocl::Context ctx;
  rt::Runtime runtime;
  ocl::Program program;

  ocl::BufferPtr cur, nxt;   ///< double-buffered pressure arrays
  ocl::BufferPtr gosa_buf;   ///< one residual slot per half
};

/// The halo-exchange tags. Stage tags must differ so the two per-iteration
/// exchanges of a pair of ranks never cross-match.
constexpr int kTagStage1 = 101;
constexpr int kTagStage2 = 102;

// --- serial (Figure 1) ------------------------------------------------------

// Forward declaration: the fixed transfer choice shared by the serial and
// hand-optimized variants (the paper: "almost the same as the hand-optimized
// implementation but all the computations and communications are
// serialized").
xfer::Strategy hand_strategy(std::size_t bytes);

void iterate_serial(mpi::Rank& rank, Grid& g) {
  auto queue = g.ctx.create_queue("cmd0");
  const int r = rank.rank();
  const int P = rank.size();
  const bool even = (r % 2) == 0;
  const int partner1 = even ? r + 1 : r - 1;
  const int partner2 = even ? r - 1 : r + 1;

  auto exchange = [&](const ocl::BufferPtr& buf, int partner, std::size_t send_plane,
                      std::size_t recv_plane, int tag) {
    xfer::DeviceEndpoint send_ep{&rank.world(), &g.platform.device(), buf.get(),
                                 g.plane_offset(send_plane), g.plane_bytes(), partner, tag};
    xfer::DeviceEndpoint recv_ep{&rank.world(), &g.platform.device(), buf.get(),
                                 g.plane_offset(recv_plane), g.plane_bytes(), partner, tag};
    rank.clock().sync_to(xfer::exchange_device(send_ep, recv_ep,
                                               hand_strategy(g.plane_bytes()),
                                               rank.clock().now()));
  };

  for (int it = 0; it < g.config.iterations; ++it) {
    // Same stages and transfers as the hand-optimized code, but the host
    // serializes everything: kernel, then exchange, then kernel, then
    // exchange — nothing overlaps.
    auto k1 = even ? g.make_kernel(g.cur, g.nxt, 1, g.half, 0)
                   : g.make_kernel(g.cur, g.nxt, g.half + 1, g.nl, 1);
    const auto range1 = even ? g.range_for(1, g.half) : g.range_for(g.half + 1, g.nl);
    queue->enqueue_ndrange(k1, range1, {}, rank.clock());
    queue->finish(rank.clock());
    if (partner1 >= 0 && partner1 < P) {
      exchange(g.cur, partner1, even ? g.nl : 1, even ? g.nl + 1 : 0, kTagStage1);
    }

    auto k2 = even ? g.make_kernel(g.cur, g.nxt, g.half + 1, g.nl, 1)
                   : g.make_kernel(g.cur, g.nxt, 1, g.half, 0);
    const auto range2 = even ? g.range_for(g.half + 1, g.nl) : g.range_for(1, g.half);
    queue->enqueue_ndrange(k2, range2, {}, rank.clock());
    queue->finish(rank.clock());
    if (partner2 >= 0 && partner2 < P) {
      exchange(g.nxt, partner2, even ? 1 : g.nl, even ? 0 : g.nl + 1, kTagStage2);
    }

    std::swap(g.cur, g.nxt);
  }
  queue->finish(rank.clock());
}

// --- hand-optimized (Figure 2, after [13]) ------------------------------------

/// Fixed transfer choice of the hand-optimized code: pipelined staging
/// through pinned buffers — tuned for the authors' InfiniBand cluster and
/// carried unchanged to the GbE one (that is precisely the performance
/// portability gap clMPI closes).
xfer::Strategy hand_strategy(std::size_t bytes) {
  // Fixed 128 KiB pipeline block, tuned once on the InfiniBand machine and
  // carried unchanged to the GbE one — where the higher per-message cost
  // makes the many small wire messages expensive. clMPI's per-system
  // selection avoids exactly this (§V-C).
  return xfer::Strategy::pipelined(std::min<std::size_t>(128_KiB, bytes));
}

void iterate_hand(mpi::Rank& rank, Grid& g) {
  auto q_compute = g.ctx.create_queue("cmd0");
  const int r = rank.rank();
  const int P = rank.size();
  const bool even = (r % 2) == 0;
  const int partner1 = even ? r + 1 : r - 1;  // stage-1 exchange peer
  const int partner2 = even ? r - 1 : r + 1;  // stage-2 exchange peer

  for (int it = 0; it < g.config.iterations; ++it) {
    // Stage 1: compute the first half while exchanging the other half's
    // halo (previous-iteration values, held in `cur`).
    auto k1 = even ? g.make_kernel(g.cur, g.nxt, 1, g.half, 0)
                   : g.make_kernel(g.cur, g.nxt, g.half + 1, g.nl, 1);
    const auto range1 = even ? g.range_for(1, g.half) : g.range_for(g.half + 1, g.nl);
    ocl::EventPtr e1 = q_compute->enqueue_ndrange(k1, range1, {}, rank.clock());

    if (partner1 >= 0 && partner1 < P) {
      // The host thread drives the exchange and is blocked inside it (§III).
      const std::size_t send_plane = even ? g.nl : 1;
      const std::size_t recv_plane = even ? g.nl + 1 : 0;
      xfer::DeviceEndpoint send_ep{&rank.world(), &g.platform.device(), g.cur.get(),
                                   g.plane_offset(send_plane), g.plane_bytes(), partner1,
                                   kTagStage1};
      xfer::DeviceEndpoint recv_ep{&rank.world(), &g.platform.device(), g.cur.get(),
                                   g.plane_offset(recv_plane), g.plane_bytes(), partner1,
                                   kTagStage1};
      const auto strategy = hand_strategy(g.plane_bytes());
      rank.clock().sync_to(
          xfer::exchange_device(send_ep, recv_ep, strategy, rank.clock().now()));
    }
    e1->wait(rank.clock());

    // Stage 2: compute the second half while exchanging the fresh boundary
    // of the first half.
    auto k2 = even ? g.make_kernel(g.cur, g.nxt, g.half + 1, g.nl, 1)
                   : g.make_kernel(g.cur, g.nxt, 1, g.half, 0);
    const auto range2 = even ? g.range_for(g.half + 1, g.nl) : g.range_for(1, g.half);
    ocl::EventPtr e2 = q_compute->enqueue_ndrange(k2, range2, {}, rank.clock());

    if (partner2 >= 0 && partner2 < P) {
      const std::size_t send_plane = even ? 1 : g.nl;
      const std::size_t recv_plane = even ? 0 : g.nl + 1;
      xfer::DeviceEndpoint send_ep{&rank.world(), &g.platform.device(), g.nxt.get(),
                                   g.plane_offset(send_plane), g.plane_bytes(), partner2,
                                   kTagStage2};
      xfer::DeviceEndpoint recv_ep{&rank.world(), &g.platform.device(), g.nxt.get(),
                                   g.plane_offset(recv_plane), g.plane_bytes(), partner2,
                                   kTagStage2};
      const auto strategy = hand_strategy(g.plane_bytes());
      rank.clock().sync_to(
          xfer::exchange_device(send_ep, recv_ep, strategy, rank.clock().now()));
    }
    e2->wait(rank.clock());

    std::swap(g.cur, g.nxt);
  }
  q_compute->finish(rank.clock());
}

// --- clMPI (Figure 6) -----------------------------------------------------------

void iterate_clmpi(mpi::Rank& rank, Grid& g) {
  auto q_compute = g.ctx.create_queue("cmd0");
  auto q_send = g.ctx.create_queue("cmd1");
  auto q_recv = g.ctx.create_queue("cmd2");
  const int r = rank.rank();
  const int P = rank.size();
  const bool even = (r % 2) == 0;
  const int partner1 = even ? r + 1 : r - 1;
  const int partner2 = even ? r - 1 : r + 1;
  const bool has1 = partner1 >= 0 && partner1 < P;
  const bool has2 = partner2 >= 0 && partner2 < P;

  // Events rolled across iterations (see the dependency analysis in the
  // header comment): e_k1/e_k2 are the half-kernels, e_s*/e_r* the
  // stage-1/2 send and receive commands.
  ocl::EventPtr e_k1_prev, e_k2_prev;      // kernels of iteration t-1
  ocl::EventPtr e_s1_prev, e_s2_prev;      // sends of t-1
  ocl::EventPtr e_s2_prev2;                // stage-2 send of t-2
  ocl::EventPtr e_r2_prev;                 // stage-2 recv of t-1
  ocl::EventPtr e_k1_prev2, e_k2_prev2;    // kernels of t-2

  auto wl = [](std::initializer_list<ocl::EventPtr> events,
               std::vector<ocl::EventPtr>& storage) -> ocl::WaitList {
    storage.clear();
    for (const auto& e : events)
      if (e) storage.push_back(e);
    return storage;
  };
  std::vector<ocl::EventPtr> tmp;

  for (int it = 0; it < g.config.iterations; ++it) {
    // Stage-1 halo exchange of previous-iteration values in `cur`.
    ocl::EventPtr e_s1, e_r1;
    if (has1) {
      const std::size_t send_plane = even ? g.nl : 1;
      const std::size_t recv_plane = even ? g.nl + 1 : 0;
      // Data in cur.send_plane was produced by the *second-half* kernel of
      // t-1 (which wrote into what is now cur).
      e_s1 = g.runtime.enqueue_send_buffer(*q_send, g.cur, false,
                                           g.plane_offset(send_plane), g.plane_bytes(),
                                           partner1, kTagStage1, rank.world(),
                                           wl({e_k2_prev}, tmp), g.config.forced_strategy);
      // The ghost target was last read by the second-half kernel of t-2.
      e_r1 = g.runtime.enqueue_recv_buffer(*q_recv, g.cur, false,
                                           g.plane_offset(recv_plane), g.plane_bytes(),
                                           partner1, kTagStage1, rank.world(),
                                           wl({e_k2_prev2}, tmp), g.config.forced_strategy);
    }

    // First-half kernel: needs its ghost plane (updated by the stage-2
    // receive of t-1) and must not overwrite data the stage-2 send of t-2
    // was still reading.
    auto k1 = even ? g.make_kernel(g.cur, g.nxt, 1, g.half, 0)
                   : g.make_kernel(g.cur, g.nxt, g.half + 1, g.nl, 1);
    const auto range1 = even ? g.range_for(1, g.half) : g.range_for(g.half + 1, g.nl);
    ocl::EventPtr e_k1 = q_compute->enqueue_ndrange(
        k1, range1, wl({e_r2_prev, e_s2_prev2}, tmp), rank.clock());

    // Stage-2 exchange: the fresh boundary plane of the first half.
    ocl::EventPtr e_s2, e_r2;
    if (has2) {
      const std::size_t send_plane = even ? 1 : g.nl;
      const std::size_t recv_plane = even ? 0 : g.nl + 1;
      e_s2 = g.runtime.enqueue_send_buffer(*q_send, g.nxt, false,
                                           g.plane_offset(send_plane), g.plane_bytes(),
                                           partner2, kTagStage2, rank.world(),
                                           wl({e_k1}, tmp), g.config.forced_strategy);
      e_r2 = g.runtime.enqueue_recv_buffer(*q_recv, g.nxt, false,
                                           g.plane_offset(recv_plane), g.plane_bytes(),
                                           partner2, kTagStage2, rank.world(),
                                           wl({e_k1_prev}, tmp), g.config.forced_strategy);
    }

    // Second-half kernel: needs the stage-1 ghost and must not overwrite
    // the plane the stage-1 send of t-1 was reading.
    auto k2 = even ? g.make_kernel(g.cur, g.nxt, g.half + 1, g.nl, 1)
                   : g.make_kernel(g.cur, g.nxt, 1, g.half, 0);
    const auto range2 = even ? g.range_for(g.half + 1, g.nl) : g.range_for(1, g.half);
    ocl::EventPtr e_k2 =
        q_compute->enqueue_ndrange(k2, range2, wl({e_r1, e_s1_prev}, tmp), rank.clock());

    // Roll the event state; the host thread never waited on anything.
    e_k1_prev2 = std::exchange(e_k1_prev, e_k1);
    e_k2_prev2 = std::exchange(e_k2_prev, e_k2);
    e_s1_prev = e_s1;
    e_s2_prev2 = std::exchange(e_s2_prev, e_s2);
    e_r2_prev = e_r2;

    std::swap(g.cur, g.nxt);
  }

  // The host thread synchronizes once, at the very end (Figure 6's single
  // clFinish per iteration, hoisted out of the loop entirely).
  q_compute->finish(rank.clock());
  g.runtime.finish(rank.clock());
}

}  // namespace

double detail::jacobi_sweep(std::span<const float> src, std::span<float> dst,
                            std::size_t i_begin, std::size_t i_end, std::size_t J,
                            std::size_t K) {
  CLMPI_REQUIRE(1 <= i_begin && i_begin <= i_end, "sweep planes must satisfy 1 <= begin <= end");
  CLMPI_REQUIRE(J >= 3 && K >= 3, "grid too small");
  // (i_end + 2) * J * K <= both sizes, written so that nothing can wrap.
  const std::size_t cap = std::min(src.size(), dst.size());
  CLMPI_REQUIRE(K <= cap && J <= cap / K && i_end < cap / (J * K) - 1,
                "sweep exceeds its buffers");
  // In place, a lane would read neighbours the scalar order already updated.
  const std::less<const float*> before;
  CLMPI_REQUIRE(!before(dst.data(), src.data() + src.size()) ||
                    !before(src.data(), dst.data() + dst.size()),
                "sweep source and destination overlap");

  double acc = 0.0;
  for (std::size_t i = i_begin; i <= i_end; ++i) {
    for (std::size_t j = 1; j + 1 < J; ++j) {
      const std::size_t row = (i * J + j) * K;
      const float* in = src.data() + row;
      float* out = dst.data() + row;
      std::size_t k = 1;
      for (; k + kLanes < K; k += kLanes) {
        const Lanes ss =
            stencil<Lanes>(in + k, J * K, K, [](const float* p) { return load_lanes(p); });
        // Ascending k, one lane at a time: the scalar loop's summation order.
        acc += static_cast<double>(ss[0]) * static_cast<double>(ss[0]);
        acc += static_cast<double>(ss[1]) * static_cast<double>(ss[1]);
        acc += static_cast<double>(ss[2]) * static_cast<double>(ss[2]);
        acc += static_cast<double>(ss[3]) * static_cast<double>(ss[3]);
        const Lanes next = load_lanes(in + k) + kOmega * ss;
        std::memcpy(out + k, &next, sizeof next);
      }
      for (; k + 1 < K; ++k) {
        const float ss = stencil<float>(in + k, J * K, K, [](const float* p) { return *p; });
        acc += static_cast<double>(ss) * static_cast<double>(ss);
        out[k] = in[k] + kOmega * ss;
      }
    }
  }
  return acc;
}

const char* to_string(Variant v) noexcept {
  switch (v) {
    case Variant::serial: return "serial";
    case Variant::hand_optimized: return "hand-optimized";
    case Variant::clmpi: return "clMPI";
  }
  return "?";
}

RankResult run_rank(mpi::Rank& rank, const Config& config) {
  Grid grid(rank, config);

  switch (config.variant) {
    case Variant::serial: iterate_serial(rank, grid); break;
    case Variant::hand_optimized: iterate_hand(rank, grid); break;
    case Variant::clmpi: iterate_clmpi(rank, grid); break;
  }

  // Residual of the final iteration: both half-slots, globally summed.
  auto queue = grid.ctx.create_queue("gosa");
  std::array<double, 2> slots{};
  queue->enqueue_read_buffer(grid.gosa_buf, true, 0, sizeof(slots), slots.data(), {},
                             rank.clock());
  const double local = slots[0] + slots[1];
  double global = 0.0;
  rank.world().allreduce(std::as_bytes(std::span(&local, 1)),
                         std::as_writable_bytes(std::span(&global, 1)),
                         mpi::Datatype::float64, mpi::ReduceOp::sum, rank.clock());

  RankResult result;
  result.gosa = global;
  result.elapsed_s = rank.now_s();
  result.compute_s = grid.platform.device().compute_engine().busy_time().s;
  return result;
}

RunSummary run_cluster(const sys::SystemProfile& profile, int nranks, const Config& config,
                       vt::Tracer* tracer) {
  mpi::Cluster::Options options;
  options.nranks = nranks;
  options.profile = &profile;
  options.tracer = tracer;

  RunSummary summary;
  std::vector<RankResult> results(static_cast<std::size_t>(nranks));
  const auto run = mpi::Cluster::run(options, [&](mpi::Rank& rank) {
    results[static_cast<std::size_t>(rank.rank())] = run_rank(rank, config);
  });

  summary.gosa = results[0].gosa;
  summary.makespan_s = run.makespan_s;
  summary.gflops = config.total_flops() / run.makespan_s / 1e9;
  for (const auto& r : results) summary.compute_s = std::max(summary.compute_s, r.compute_s);
  return summary;
}

}  // namespace clmpi::apps::himeno
