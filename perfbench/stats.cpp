#include "stats.hpp"

#include <algorithm>
#include <cctype>

namespace perfbench {

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid] : 0.5 * (samples[mid - 1] + samples[mid]);
}

Tail tail(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  Tail t;
  t.count = samples.size();
  if (samples.empty()) return t;
  if (samples.size() <= kTailBeyond) {
    t.value = samples.back();
    return t;
  }
  const std::size_t rank = samples.size() - kTailBeyond;  // 1-based rank of the tail
  t.value = samples[rank - 1];
  t.beyond = kTailBeyond;
  t.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(samples.size());
  return t;
}

double error_rate(std::uint64_t attempted, std::uint64_t failed) {
  return attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted);
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  if (std::isalnum(static_cast<unsigned char>(name.front())) == 0) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' || c == '.' || c == '-';
  });
}

}  // namespace perfbench
