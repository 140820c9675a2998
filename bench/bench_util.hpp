// Wall-clock timing helper for the throughput benches.
#pragma once

#include <algorithm>
#include <chrono>
#include <vector>

namespace clmpi::benchutil {

/// Wall-clock timing for throughput benches: `warmup` untimed iterations
/// (populating allocator caches, staging pools and thread-locals), then
/// `reps` timed runs on std::chrono::steady_clock — monotonic, unlike
/// wall-time clocks which can step under NTP — reporting the MEDIAN, which
/// is robust against the occasional descheduling outlier that contaminates
/// both the mean and (on a loaded machine) the min.
struct WallTiming {
  double median_s{0.0};
  double min_s{0.0};
  double max_s{0.0};
  int reps{0};
};

template <typename Fn>
WallTiming time_wall(int warmup, int reps, Fn&& fn) {
  for (int i = 0; i < warmup; ++i) fn();
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    samples.push_back(std::chrono::duration<double>(t1 - t0).count());
  }
  std::sort(samples.begin(), samples.end());
  WallTiming t;
  t.reps = reps;
  t.min_s = samples.front();
  t.max_s = samples.back();
  const std::size_t mid = samples.size() / 2;
  t.median_s = samples.size() % 2 == 1
                   ? samples[mid]
                   : 0.5 * (samples[mid - 1] + samples[mid]);
  return t;
}

}  // namespace clmpi::benchutil
