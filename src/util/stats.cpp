#include "util/stats.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace psmsys::util {

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

Summary summarize(std::span<const double> xs) noexcept {
  RunningStats rs;
  for (double x : xs) rs.add(x);
  return summarize(rs);
}

Summary summarize(const RunningStats& rs) noexcept {
  Summary s;
  s.count = rs.count();
  s.sum = rs.sum();
  s.mean = rs.mean();
  s.stddev = rs.stddev();
  s.cv = rs.coefficient_of_variance();
  s.min = rs.min();
  s.max = rs.max();
  return s;
}

double percentile(std::span<const double> xs, double p) {
  if (xs.empty()) throw std::invalid_argument("percentile of empty sample");
  if (p < 0.0 || p > 100.0) throw std::invalid_argument("percentile out of [0,100]");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace psmsys::util
