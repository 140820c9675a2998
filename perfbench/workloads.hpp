// The benchmark's three workloads. One op is one whole Cluster::run, launch
// and teardown included; every op's output is checked against a reference.
//
//   himeno      Himeno M on Cichlid x4, clMPI and hand-optimized alternating
//   nanopowder  nanopowder at 2290 bins on RICC x4, baseline and clMPI alternating
//   msg_rate    16 ranks on RICC, a seeded mix of plain MPI traffic
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "spans.hpp"
#include "systems/profile.hpp"

namespace perfbench {

/// The simulated traffic one op of a kind carries.
struct Declared {
  double msgs{0.0};   ///< MPI messages matched
  double bytes{0.0};  ///< payload bytes delivered
  /// True when the figures are derived from the app's configuration, false
  /// when they follow from the benchmark's own message plan.
  bool computed{false};
};

/// Per-op context: null pointers mean an untraced op.
struct OpContext {
  SpanLog* spans{nullptr};
  bool trace{false};  ///< attach a vt::Tracer to the run
};

struct OpOutcome {
  bool ok{true};
  std::string mismatch;  ///< the first mismatch, empty when ok
  double makespan_s{0.0};
  std::uint64_t trace_hash{0};  ///< 0 unless traced
  std::size_t vt_spans{0};      ///< vt::Tracer spans, 0 unless traced
  /// Cluster::run call to the last rank-body entry, and last rank-body exit
  /// to return; negative when the app owns its Cluster::run.
  double launch_s{-1.0};
  double teardown_s{-1.0};
};

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual const clmpi::sys::SystemProfile& profile() const = 0;
  [[nodiscard]] virtual int nranks() const = 0;
  /// Op kinds, run alternately op by op (one kind: every op alike).
  [[nodiscard]] virtual std::vector<std::string> kinds() const = 0;
  [[nodiscard]] virtual Declared declared(int kind) const = 0;
  /// Compute the reference results ops are checked against (set-up work,
  /// run on one fiber worker).
  virtual void prepare_reference() = 0;
  virtual OpOutcome run_op(int kind, const OpContext& ctx) = 0;
  /// One-line description of the configuration for the run stamp.
  [[nodiscard]] virtual std::string describe() const = 0;
  /// A known defect of the workload's reference results worth printing
  /// with every report; empty when there is none.
  [[nodiscard]] virtual std::string caveat() const { return {}; }
};

/// `name` is himeno, nanopowder or msg_rate; null for an unknown name.
std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed);

/// Scoped override of CLMPI_FIBER_WORKERS (restored on destruction). Only
/// used between cluster runs, never while ranks execute.
class ScopedWorkers {
 public:
  explicit ScopedWorkers(int workers);
  ~ScopedWorkers();
  ScopedWorkers(const ScopedWorkers&) = delete;
  ScopedWorkers& operator=(const ScopedWorkers&) = delete;

 private:
  std::string old_;
};

}  // namespace perfbench
