// The benchmark harness: set-up, the timed closed loop, the traced pass and
// the report.
//
// Timed pass (--trace 0): set up at least kSetupReps times (reference
// results plus one untimed warm-up op each), then run ops one at a time for
// --seconds and report the end-to-end metrics. Traced pass (--trace 1): half
// the time untraced, half with obs counters on, a vt::Tracer attached and
// benchmark spans recorded, then a few ops at the pool size and an OpenCL
// round-trip probe; reports the per-layer metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Set-up repeats at least kSetupReps times and, while it is short, until
/// kSetupSeconds have passed (at most kMaxSetupReps times); setup_s is the
/// median, so a set-up of one short op is not a single noisy sample.
inline constexpr int kSetupReps = 3;
inline constexpr int kMaxSetupReps = 15;
inline constexpr double kSetupSeconds = 3.0;

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  std::string spans_out;   ///< CSV of the traced pass's spans; empty: not written
  std::string git{"unknown"};
};

/// Fiber workers every timed and traced op runs on. One worker runs all
/// ranks' fibers on one OS thread, so an op's wall time follows the work it
/// does rather than how the host schedules competing workers, and its
/// virtual-time schedule is the same on every op.
inline constexpr int kOpWorkers = 1;

/// Fiber workers of the traced pass's pool probe (sched.speedup_1w and the
/// determinism report): nproc / 2, at least 2.
int pool_size();

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

struct Report {
  bool correct{false};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<Metric> metrics;
};

/// Runs the benchmark and prints the report except for the result line.
/// Precondition: options.workload names a workload.
Report measure(const Options& options);

/// Runs the benchmark, prints the report with the result JSON as its last
/// line, and returns the process exit code.
int run(const Options& options);

}  // namespace perfbench
