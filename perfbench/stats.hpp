// Order statistics and naming rules of the benchmark's report.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace perfbench {

/// Median of `samples` (mean of the two middle values for an even count).
/// Precondition: non-empty.
double median(std::vector<double> samples);

/// The tail of a latency sample: the highest percentile that still has at
/// least `kTailBeyond` samples above it. With n sorted samples that is the
/// (n - kTailBeyond)-th smallest, i.e. percentile 100 * (n - 10) / n. A
/// sample too small for any such percentile reports its maximum with
/// `beyond` < kTailBeyond, so a short run can never pass off its maximum as
/// a percentile.
struct Tail {
  double value{0.0};
  double percentile{100.0};
  std::size_t beyond{0};  ///< samples strictly above `value`'s rank
  std::size_t count{0};   ///< samples the tail was taken from
};
inline constexpr std::size_t kTailBeyond = 10;
Tail tail(std::vector<double> samples);

/// Failed or wrong ops over attempted ops; 0 when nothing was attempted.
double error_rate(std::uint64_t attempted, std::uint64_t failed);

/// A metric name starts with a letter or digit and is at most 64 letters,
/// digits, '_', '.' and '-'.
bool valid_metric_name(std::string_view name);

}  // namespace perfbench
