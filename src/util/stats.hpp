#pragma once

// Streaming statistics used throughout the measurement methodology of
// Section 4 of the paper: average task time, standard deviation, and the
// coefficient of variance that drives the choice of decomposition level.

#include <cstddef>
#include <cmath>
#include <limits>
#include <span>

namespace psmsys::util {

/// Welford's online algorithm: numerically stable single-pass mean/variance.
class RunningStats {
 public:
  void add(double x) noexcept {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
    sum_ += x;
  }

  void merge(const RunningStats& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const noexcept { return std::sqrt(variance()); }
  /// Coefficient of variance = stddev / mean (Section 4, factor 3).
  [[nodiscard]] double coefficient_of_variance() const noexcept {
    return mean_ != 0.0 ? stddev() / mean_ : 0.0;
  }
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Immutable summary of a sample, in the shape of the paper's Tables 5-7 rows.
struct Summary {
  std::size_t count = 0;
  double sum = 0.0;
  double mean = 0.0;
  double stddev = 0.0;
  double cv = 0.0;
  double min = 0.0;
  double max = 0.0;
};

[[nodiscard]] Summary summarize(std::span<const double> xs) noexcept;
[[nodiscard]] Summary summarize(const RunningStats& rs) noexcept;

/// Percentile of a sample (copies + sorts; fine for measurement-sized data).
[[nodiscard]] double percentile(std::span<const double> xs, double p);

}  // namespace psmsys::util
