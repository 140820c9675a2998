#include "apps/nanopowder/nanopowder.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <vector>

#include "clmpi/runtime.hpp"
#include "ocl/context.hpp"
#include "ocl/platform.hpp"
#include "ocl/queue.hpp"
#include "support/error.hpp"

namespace clmpi::apps::nanopowder {

namespace {

constexpr int kTagSlice = 11;
constexpr int kTagCoeff = 12;
constexpr int kTagResult = 13;

constexpr float kDt = 1.0e-3f;

/// Exponent of bin k on the compressed volume-doubling grid v_k = 2^(k/8).
/// Capped at 126, the largest exponent for which v_k and 1/v_k are both
/// normal floats: at the paper's 2290 bins, 2^(k/8) overflows float past
/// bin 1023, and inf * 0 poisons the whole distribution. Grids of up to
/// 1024 bins never reach the cap.
int grid_exponent(std::size_t k) { return std::min(static_cast<int>(k) / 8, 126); }

/// Brownian-style collision kernel entry (free-molecular regime shape) for
/// the volume-doubling sectional grid, scaled by temperature.
float collision_coefficient(std::size_t i, std::size_t j, float temperature) {
  const float vi = std::ldexp(1.0f, grid_exponent(i));
  const float vj = std::ldexp(1.0f, grid_exponent(j));
  const float di = std::cbrt(vi);
  const float dj = std::cbrt(vj);
  const float dsum = di + dj;
  return 1.0e-4f * std::sqrt(temperature / 300.0f) *
         std::sqrt(1.0f / vi + 1.0f / vj) * dsum * dsum;
}

/// Device coagulation kernel: one explicit-Euler Smoluchowski step for each
/// local cell with the mass-conserving sectional split on the
/// volume-doubling grid (collision i+j deposits into bins j and j+1 with the
/// number fraction x = v_i / v_j).
/// Args: 0 coeff, 1 n_in, 2 n_out, 3 nbins, 4 cells_local.
void coagulation_body(const ocl::NDRange&, const ocl::KernelArgs& args) {
  auto coeff = args.span_of<float>(0);
  auto n_in = args.span_of<float>(1);
  auto n_out = args.span_of<float>(2);
  const auto nbins = static_cast<std::size_t>(args.integer(3));
  const auto cells = static_cast<std::size_t>(args.integer(4));

  for (std::size_t c = 0; c < cells; ++c) {
    const float* n = n_in.data() + c * nbins;
    float* out = n_out.data() + c * nbins;
    std::memcpy(out, n, nbins * sizeof(float));

    for (std::size_t i = 0; i < nbins; ++i) {
      if (n[i] <= 0.0f) continue;
      for (std::size_t j = i; j < nbins; ++j) {
        // The two species matrices are summed into one effective kernel.
        const float k01 =
            coeff[i * nbins + j] + coeff[nbins * nbins + i * nbins + j];
        float rate = k01 * n[i] * n[j] * kDt;
        if (i == j) rate *= 0.5f;
        if (rate <= 0.0f) continue;

        out[i] -= rate;
        out[j] -= rate;
        if (i == j) {
          // Exact doubling: all product lands one bin up.
          out[std::min(j + 1, nbins - 1)] += rate;
        } else {
          // v_i + v_j between v_j and v_{j+1}: split number-fraction
          // x = v_i / v_j so mass is conserved.
          const float x = std::ldexp(1.0f, grid_exponent(i) - grid_exponent(j));
          out[j] += rate * (1.0f - x);
          out[std::min(j + 1, nbins - 1)] += rate * x;
        }
      }
    }
    for (std::size_t k = 0; k < nbins; ++k) out[k] = std::max(out[k], 0.0f);
  }
}

/// Global simulation state living on rank 0's host.
struct HostState {
  explicit HostState(const Config& cfg)
      : nbins(cfg.nbins),
        cells(static_cast<std::size_t>(cfg.cells)),
        temperature(3000.0f),
        n(cells * cfg.nbins, 0.0f),
        coeff(2 * cfg.nbins * cfg.nbins, 0.0f),
        base_coeff(cfg.nbins * cfg.nbins, 0.0f) {
    // Seed distribution: a log-normal-ish bump, slightly different per cell.
    for (std::size_t c = 0; c < cells; ++c) {
      for (std::size_t k = 0; k < nbins; ++k) {
        const float center = 8.0f + static_cast<float>(c % 5);
        const float d = (static_cast<float>(k) - center) / 3.0f;
        n[c * nbins + k] = std::exp(-d * d);
      }
    }
    // Temperature-independent part of the collision kernel, computed once.
    for (std::size_t i = 0; i < nbins; ++i) {
      for (std::size_t j = 0; j < nbins; ++j) {
        base_coeff[i * nbins + j] = collision_coefficient(i, j, 300.0f);
      }
    }
  }

  /// Nucleation + condensation + coefficient refresh (the serial ~10%).
  void host_phase() {
    temperature *= 0.97f;
    for (std::size_t c = 0; c < cells; ++c) {
      float* nc = n.data() + c * nbins;
      // Nucleation feeds the smallest section.
      nc[0] += 0.05f * temperature / 3000.0f;
      // Condensation: upwind growth along the size grid.
      constexpr float g = 0.02f;
      for (std::size_t k = nbins - 1; k > 0; --k) nc[k] += g * (nc[k - 1] - nc[k]);
      nc[0] *= 1.0f - g;
    }
    const float thermal = std::sqrt(temperature / 300.0f);
    for (std::size_t s = 0; s < 2; ++s) {
      float* m = coeff.data() + s * nbins * nbins;
      const float species_scale = (s == 0 ? 1.0f : 0.6f) * thermal;
      for (std::size_t e = 0; e < nbins * nbins; ++e) m[e] = species_scale * base_coeff[e];
    }
  }

  std::size_t nbins, cells;
  float temperature;
  std::vector<float> n;
  std::vector<float> coeff;
  std::vector<float> base_coeff;
};

std::span<const std::byte> bytes_of(std::span<const float> v) { return std::as_bytes(v); }
std::span<std::byte> mut_bytes_of(std::span<float> v) { return std::as_writable_bytes(v); }

struct NodeCtx {
  NodeCtx(mpi::Rank& rank, const Config& cfg)
      : platform(rank.profile(), rank.rank(), rank.tracer()),
        ctx(platform.device()),
        runtime(rank, platform.device()),
        queue(ctx.create_queue("cmd0")),
        cells_local(static_cast<std::size_t>(cfg.cells / rank.size())),
        slice_floats(cells_local * cfg.nbins) {
    coeff_dev = ctx.create_buffer(cfg.coefficient_bytes(), ocl::MemFlags::read_only, "K");
    n_dev = ctx.create_buffer(slice_floats * sizeof(float), ocl::MemFlags::read_write, "n");
    out_dev =
        ctx.create_buffer(slice_floats * sizeof(float), ocl::MemFlags::read_write, "out");

    program.define("coagulation", coagulation_body,
                   [](const ocl::NDRange& range, const sys::SystemProfile& prof) {
                     return vt::seconds(static_cast<double>(range.total()) /
                                        prof.gpu.pair_interactions_per_s);
                   });
    kernel = program.create_kernel("coagulation");
    kernel->set_arg(0, coeff_dev);
    kernel->set_arg(1, n_dev);
    kernel->set_arg(2, out_dev);
    kernel->set_arg(3, static_cast<std::int64_t>(cfg.nbins));
    kernel->set_arg(4, static_cast<std::int64_t>(cells_local));
  }

  [[nodiscard]] ocl::NDRange launch_range(const Config& cfg) const {
    // Cost scales with cells * pair interactions.
    return ocl::NDRange::grid2(cells_local, cfg.nbins * (cfg.nbins + 1) / 2);
  }

  /// Enqueue the coagulation sub-step chain (ping-pong between n_dev and
  /// out_dev); `first_waits` gates the first launch. Returns the buffer
  /// holding the final sub-step's result.
  const ocl::BufferPtr& launch_substeps(const Config& cfg, ocl::WaitList first_waits,
                                        vt::Clock& clock) {
    const ocl::BufferPtr* src = &n_dev;
    const ocl::BufferPtr* dst = &out_dev;
    for (int s = 0; s < cfg.coag_substeps; ++s) {
      kernel->set_arg(1, *src);
      kernel->set_arg(2, *dst);
      queue->enqueue_ndrange(kernel, launch_range(cfg), s == 0 ? first_waits : ocl::WaitList{},
                             clock);
      std::swap(src, dst);
    }
    return *src;  // the last-written buffer
  }

  ocl::Platform platform;
  ocl::Context ctx;
  rt::Runtime runtime;
  ocl::Program program;
  std::unique_ptr<ocl::CommandQueue> queue;
  std::size_t cells_local;
  std::size_t slice_floats;
  ocl::BufferPtr coeff_dev, n_dev, out_dev;
  ocl::KernelPtr kernel;
};

void run_root(mpi::Rank& rank, const Config& cfg, HostState& state, RunSummary& summary) {
  NodeCtx node(rank, cfg);
  const int P = rank.size();
  const double host_cost_flops = cfg.host_flops_per_bin_cell *
                                 static_cast<double>(cfg.nbins) *
                                 static_cast<double>(cfg.cells);

  std::vector<float> result(node.slice_floats);
  for (int step = 0; step < cfg.steps; ++step) {
    // 1. Serial phenomena on the host thread.
    state.host_phase();
    rank.compute(vt::seconds(host_cost_flops / rank.profile().cpu.host_flops),
                 "nucleation+condensation");

    // 2. Distribute the coefficients and each node's distribution slice.
    std::vector<mpi::Request> sends;
    for (int r = 1; r < P; ++r) {
      auto slice = std::span(state.n).subspan(static_cast<std::size_t>(r) *
                                                  node.slice_floats,
                                              node.slice_floats);
      sends.push_back(rank.world().isend(bytes_of(slice), r, kTagSlice, rank.clock()));
      if (cfg.use_clmpi) {
        sends.push_back(
            node.runtime.isend_cl_mem(bytes_of(state.coeff), r, kTagCoeff, rank.world()));
      } else {
        sends.push_back(
            rank.world().isend(bytes_of(state.coeff), r, kTagCoeff, rank.clock()));
      }
    }

    // 3. Rank 0's own share: plain host-to-device writes + kernel.
    node.queue->enqueue_write_buffer(node.coeff_dev, false, 0, cfg.coefficient_bytes(),
                                     state.coeff.data(), {}, rank.clock());
    node.queue->enqueue_write_buffer(node.n_dev, false, 0,
                                     node.slice_floats * sizeof(float), state.n.data(), {},
                                     rank.clock());
    const ocl::BufferPtr& last = node.launch_substeps(cfg, {}, rank.clock());
    node.queue->enqueue_read_buffer(last, true, 0, node.slice_floats * sizeof(float),
                                    result.data(), {}, rank.clock());
    std::memcpy(state.n.data(), result.data(), node.slice_floats * sizeof(float));

    // 4. Collect the other nodes' coagulated slices.
    std::vector<mpi::Request> recvs;
    for (int r = 1; r < P; ++r) {
      auto slice = std::span(state.n).subspan(static_cast<std::size_t>(r) *
                                                  node.slice_floats,
                                              node.slice_floats);
      recvs.push_back(rank.world().irecv(mut_bytes_of(slice), r, kTagResult, rank.clock()));
    }
    mpi::wait_all(std::span(sends), rank.clock());
    mpi::wait_all(std::span(recvs), rank.clock());
  }

  double checksum = 0.0, mass = 0.0;
  for (std::size_t c = 0; c < state.cells; ++c) {
    for (std::size_t k = 0; k < state.nbins; ++k) {
      const double v = state.n[c * state.nbins + k];
      checksum += v * static_cast<double>(k % 97 + 1);
      mass += v * std::ldexp(1.0, grid_exponent(k));
    }
  }
  summary.distribution_checksum = checksum;
  summary.total_mass = mass;
}

void run_worker(mpi::Rank& rank, const Config& cfg) {
  NodeCtx node(rank, cfg);
  std::vector<float> slice(node.slice_floats);
  std::vector<float> result(node.slice_floats);
  const ocl::BufferPtr* last_buffer = &node.n_dev;
  std::vector<float> coeff_host;  // baseline staging only
  if (!cfg.use_clmpi) coeff_host.resize(2 * cfg.nbins * cfg.nbins);

  for (int step = 0; step < cfg.steps; ++step) {
    if (cfg.use_clmpi) {
      // clMPI path: the coefficients land straight in device memory; the
      // wire transfer and the PCIe staging overlap inside the runtime, and
      // the host thread is free immediately.
      ocl::EventPtr coeff_ready = node.runtime.enqueue_recv_buffer(
          *node.queue, node.coeff_dev, false, 0, cfg.coefficient_bytes(), 0, kTagCoeff,
          rank.world(), {});
      rank.world().recv(mut_bytes_of(std::span(slice)), 0, kTagSlice, rank.clock());
      node.queue->enqueue_write_buffer(node.n_dev, false, 0,
                                       node.slice_floats * sizeof(float), slice.data(), {},
                                       rank.clock());
      // The kernels read the coefficients: chain the first sub-step to the
      // communication command's event (the host thread still never blocks).
      const std::array<ocl::EventPtr, 1> kernel_waits{coeff_ready};
      last_buffer = &node.launch_substeps(cfg, kernel_waits, rank.clock());
    } else {
      // Baseline: receive into host memory, then stage to the device.
      rank.world().recv(mut_bytes_of(std::span(slice)), 0, kTagSlice, rank.clock());
      rank.world().recv(mut_bytes_of(std::span(coeff_host)), 0, kTagCoeff, rank.clock());
      node.queue->enqueue_write_buffer(node.coeff_dev, false, 0, cfg.coefficient_bytes(),
                                       coeff_host.data(), {}, rank.clock());
      node.queue->enqueue_write_buffer(node.n_dev, false, 0,
                                       node.slice_floats * sizeof(float), slice.data(), {},
                                       rank.clock());
      last_buffer = &node.launch_substeps(cfg, {}, rank.clock());
    }

    node.queue->enqueue_read_buffer(*last_buffer, true, 0,
                                    node.slice_floats * sizeof(float), result.data(), {},
                                    rank.clock());
    rank.world().send(bytes_of(result), 0, kTagResult, rank.clock());
  }
}

}  // namespace

RunSummary run_cluster(const sys::SystemProfile& profile, int nranks, const Config& config,
                       vt::Tracer* tracer) {
  CLMPI_REQUIRE(nranks > 0 && config.cells % nranks == 0,
                "the node count must divide the number of cells (paper: divisors of 40)");

  mpi::Cluster::Options options;
  options.nranks = nranks;
  options.profile = &profile;
  options.tracer = tracer;
  options.watchdog_seconds = 300.0;

  RunSummary summary;
  HostState state(config);
  const auto run = mpi::Cluster::run(options, [&](mpi::Rank& rank) {
    if (rank.rank() == 0) {
      run_root(rank, config, state, summary);
    } else {
      run_worker(rank, config);
    }
  });
  summary.makespan_s = run.makespan_s;
  summary.seconds_per_step = run.makespan_s / config.steps;
  return summary;
}

}  // namespace clmpi::apps::nanopowder
