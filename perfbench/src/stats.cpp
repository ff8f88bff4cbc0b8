#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

std::size_t rank_index(std::size_t n, double q) {
  if (n == 0) return 0;
  const double rank = std::ceil(q * static_cast<double>(n));
  const auto idx = rank < 1.0 ? std::size_t{0}
                              : static_cast<std::size_t>(rank) - 1;
  return std::min(idx, n - 1);
}

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  return n - 1 - rank_index(n, q);
}

std::optional<double> percentile(const std::vector<double>& sorted, double q,
                                 std::size_t min_beyond) {
  if (sorted.empty() || samples_beyond(sorted.size(), q) < min_beyond) {
    return std::nullopt;
  }
  return sorted[rank_index(sorted.size(), q)];
}

double per_op(double count, std::uint64_t ops) {
  return ops == 0 ? 0.0 : count / static_cast<double>(ops);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

void SliceQuantiles::add(double sample) {
  ++count_;
  current_.push_back(sample);
  if (current_.size() < kSliceOps) return;
  std::sort(current_.begin(), current_.end());
  p50s_.push_back(*percentile(current_, 0.50));
  p99s_.push_back(*percentile(current_, 0.99, kMinBeyond));
  current_.clear();
}

void SliceQuantiles::merge(const SliceQuantiles& other) {
  count_ += other.count_;
  p50s_.insert(p50s_.end(), other.p50s_.begin(), other.p50s_.end());
  p99s_.insert(p99s_.end(), other.p99s_.begin(), other.p99s_.end());
  leftovers_.insert(leftovers_.end(), other.current_.begin(),
                    other.current_.end());
  leftovers_.insert(leftovers_.end(), other.leftovers_.begin(),
                    other.leftovers_.end());
}

std::optional<double> SliceQuantiles::p50() const {
  if (!p50s_.empty()) return median(p50s_);
  std::vector<double> pooled = leftovers_;
  pooled.insert(pooled.end(), current_.begin(), current_.end());
  std::sort(pooled.begin(), pooled.end());
  return percentile(pooled, 0.50);
}

std::optional<double> SliceQuantiles::p99() const {
  if (!p99s_.empty()) return median(p99s_);
  std::vector<double> pooled = leftovers_;
  pooled.insert(pooled.end(), current_.begin(), current_.end());
  std::sort(pooled.begin(), pooled.end());
  return percentile(pooled, 0.99, kMinBeyond);
}

double median_ratio(const std::vector<double>& amount,
                    const std::vector<double>& count) {
  std::vector<double> ratios;
  for (std::size_t k = 0; k < std::min(amount.size(), count.size()); ++k) {
    if (count[k] > 0) ratios.push_back(amount[k] / count[k]);
  }
  return median(std::move(ratios));
}

LatencySummary summarize(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  LatencySummary s;
  s.p50 = percentile(samples, 0.50);
  s.p99 = percentile(samples, 0.99, kMinBeyond);
  return s;
}

}  // namespace perfbench
