// The Himeno benchmark (Jacobi pressure solver), the paper's §V-C workload.
//
// A 19-point Jacobi stencil over a 3-D pressure grid, 1-D domain
// decomposition along the first axis, halo planes exchanged with both
// neighbours every iteration. Following [13] (the paper's hand-optimized
// reference), each rank's domain is halved into an upper part A and a lower
// part B so halo exchange of one half overlaps with computation of the
// other; even and odd ranks process the halves in opposite orders so
// exchange partners are always working on complementary halves (Figure 3).
//
// Three implementations with *identical numerics* (bit-equal per-rank
// stencil evaluation order, pure Jacobi: all reads from the previous
// iteration's array). The kernel body evaluates four cells of a row at once
// in SIMD lanes and keeps identical numerics too: each lane performs the
// scalar cell's float operations in the same order, nothing is contracted
// into FMAs, and the residual is summed in ascending cell order.
//
//  * serial         — kernel, D2H halo read, MPI exchange, H2D halo write,
//                     all blocking (Figure 1 style). The lower bound.
//  * hand_optimized — two command queues; the host thread drives the halo
//                     exchange of one half (pinned, pipelined staging, as in
//                     [13]) while the kernel for the other half runs
//                     (Figure 2). The host thread blocks inside each
//                     exchange — the limitation of §III.
//  * clmpi          — the communication is enqueued as clEnqueueSendBuffer /
//                     clEnqueueRecvBuffer commands chained by events
//                     (Figure 6); the host enqueues a whole iteration and
//                     only synchronizes at the end. The runtime picks the
//                     transfer strategy per system (mapped on Cichlid —
//                     the source of the paper's 14% result).
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>

#include "simmpi/cluster.hpp"
#include "systems/profile.hpp"
#include "transfer/strategy.hpp"

namespace clmpi::apps::himeno {

enum class Variant { serial, hand_optimized, clmpi };

const char* to_string(Variant v) noexcept;

struct Config {
  /// Interior planes along the decomposed axis; must be divisible by
  /// 2 * nranks (A/B halving). The global grid is (interior+2) x jmax x kmax.
  std::size_t interior{128};
  std::size_t jmax{256};
  std::size_t kmax{768};
  int iterations{12};
  Variant variant{Variant::clmpi};
  /// clMPI variant only: override the runtime's automatic transfer strategy
  /// selection (used by the selector ablation bench).
  std::optional<xfer::Strategy> forced_strategy;

  /// Standard Himeno grid classes, rounded to power-of-two-friendly shapes
  /// so every node count up to 32 decomposes evenly. The M-class plane is
  /// 256 x 768 x 4 B = 768 KiB — the paper's "halo data of about 750
  /// KBytes" (§V-C).
  static Config size_s() {
    Config c;
    c.interior = 64;
    c.jmax = 64;
    c.kmax = 128;
    return c;
  }
  static Config size_m() {
    Config c;
    c.interior = 128;
    c.jmax = 256;
    c.kmax = 768;
    return c;
  }

  /// Floating point operations per updated cell (the Himeno standard count).
  static constexpr double flops_per_cell = 34.0;

  [[nodiscard]] std::size_t halo_plane_bytes() const { return jmax * kmax * sizeof(float); }
  [[nodiscard]] double total_flops() const {
    // Updated cells per iteration: interior * (jmax-2) * (kmax-2).
    return static_cast<double>(interior) * static_cast<double>(jmax - 2) *
           static_cast<double>(kmax - 2) * flops_per_cell * iterations;
  }
};

/// Per-rank outcome of one run.
struct RankResult {
  double gosa{0.0};        ///< globally reduced residual of the last iteration
  double elapsed_s{0.0};   ///< this rank's virtual end time
  double compute_s{0.0};   ///< device compute-engine busy time on this rank
};

/// Execute the configured variant on the calling rank (collective: every
/// rank of the communicator must call it with the same config).
RankResult run_rank(mpi::Rank& rank, const Config& config);

/// Convenience driver: runs a whole cluster and returns aggregate numbers.
struct RunSummary {
  double gosa{0.0};
  double makespan_s{0.0};
  double gflops{0.0};
  double compute_s{0.0};  ///< max per-rank device busy time
};
RunSummary run_cluster(const sys::SystemProfile& profile, int nranks, const Config& config,
                       vt::Tracer* tracer = nullptr);

namespace detail {

/// The Jacobi kernel body: for every interior cell (i, j, k) of planes
/// [i_begin, i_end] of a row-major (planes x J x K) grid, dst = src + omega *
/// ss, where ss is the 19-point residual read from `src`. Returns the sum of
/// ss^2 in double, accumulated in (i, j, k) order. Cells outside the interior
/// (j or k on the grid edge, other planes) are left untouched. Throws
/// PreconditionError unless 1 <= i_begin <= i_end, J, K >= 3, both spans
/// hold (i_end + 2) * J * K floats and the spans do not overlap.
double jacobi_sweep(std::span<const float> src, std::span<float> dst, std::size_t i_begin,
                    std::size_t i_end, std::size_t J, std::size_t K);

}  // namespace detail

}  // namespace clmpi::apps::himeno
