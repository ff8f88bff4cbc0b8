// Sample statistics the benchmark reports: percentiles that refuse to
// speak for a tail the sample cannot support, and per-operation
// normalisation of counters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// A high percentile is reported only when at least this many samples lie
/// strictly beyond it; otherwise the sample is too small to say anything
/// about that tail.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank index of quantile `q` (0 < q <= 1) in a sorted sample of
/// `n` values: the smallest index whose rank covers q of the sample.
[[nodiscard]] std::size_t rank_index(std::size_t n, double q);

/// Samples strictly beyond the nearest-rank quantile `q` of `n` values.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// Quantile `q` of `sorted` (ascending), or nothing when fewer than
/// `min_beyond` samples lie beyond it (always nothing for an empty
/// sample).  The median uses min_beyond = 0.
[[nodiscard]] std::optional<double> percentile(
    const std::vector<double>& sorted, double q, std::size_t min_beyond = 0);

/// `count` per operation; 0 when no operation completed.
[[nodiscard]] double per_op(double count, std::uint64_t ops);

/// num / den; 0 when den is 0.
[[nodiscard]] double ratio(double num, double den);

/// Mean of a sample; 0 when empty.
[[nodiscard]] double mean(const std::vector<double>& values);

/// Median of unsorted values (sorts a copy); 0 when empty.
[[nodiscard]] double median(std::vector<double> values);

/// Latency quantiles are taken over consecutive slices of this many
/// completions and the median across slices is reported: a burst of host
/// noise then moves one slice, not the result.  A slice this size supports
/// a p99 (ten samples beyond it).
inline constexpr std::size_t kSliceOps = 1000;

/// Streams one latency class slice by slice: every kSliceOps samples it
/// keeps the slice's p50 and p99 and drops the samples, so a run records
/// no memory per operation (the process's peak RSS stays the system's, not
/// the benchmark's).
class SliceQuantiles {
 public:
  void add(double sample);
  /// Folds in another stream's slices and leftover samples.
  void merge(const SliceQuantiles& other);

  /// Median across closed slices of their p50; with no closed slice, the
  /// p50 of the leftover samples; nothing when empty.
  [[nodiscard]] std::optional<double> p50() const;
  /// Likewise for the p99, which a slice always supports; the leftover
  /// samples support one only under the ten-beyond rule.
  [[nodiscard]] std::optional<double> p99() const;
  [[nodiscard]] std::size_t count() const { return count_; }

 private:
  std::vector<double> current_;    // the open slice
  std::vector<double> leftovers_;  // merged open slices of other streams
  std::vector<double> p50s_;
  std::vector<double> p99s_;
  std::size_t count_ = 0;
};

/// Median across slices of amount[k] / count[k], skipping slices with a
/// zero count; 0 when none remains.
[[nodiscard]] double median_ratio(const std::vector<double>& amount,
                                  const std::vector<double>& count);

/// Median and a p99 that is present only when the sample supports it.
struct LatencySummary {
  std::optional<double> p50;
  std::optional<double> p99;
};

/// Sorts `samples` in place and summarises them.
[[nodiscard]] LatencySummary summarize(std::vector<double>& samples);

}  // namespace perfbench
