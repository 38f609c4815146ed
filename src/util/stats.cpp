#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace flip {

void RunningStats::add(double x) noexcept {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const noexcept {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

std::string ProportionCI::to_string() const {
  std::ostringstream os;
  os.precision(4);
  os << std::fixed << estimate << " [" << low << ", " << high << "]";
  return os.str();
}

ProportionCI wilson_interval(std::size_t successes, std::size_t trials,
                             double z) {
  if (trials == 0) throw std::invalid_argument("wilson_interval: trials == 0");
  const double n = static_cast<double>(trials);
  const double phat = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (phat + z2 / (2.0 * n)) / denom;
  const double half =
      z * std::sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n)) / denom;
  return ProportionCI{phat, std::max(0.0, center - half),
                      std::min(1.0, center + half)};
}

double percentile(std::span<const double> samples, double p) {
  if (samples.empty()) throw std::invalid_argument("percentile: empty sample");
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  const double clamped = std::clamp(p, 0.0, 100.0);
  const double rank = clamped / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double median(std::span<const double> samples) {
  return percentile(samples, 50.0);
}

PowerLawFit fit_power_law(std::span<const double> xs,
                          std::span<const double> ys) {
  const std::size_t n = std::min(xs.size(), ys.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  std::size_t used = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (xs[i] <= 0.0 || ys[i] <= 0.0) continue;
    const double lx = std::log(xs[i]);
    const double ly = std::log(ys[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
    syy += ly * ly;
    ++used;
  }
  PowerLawFit fit;
  fit.points = used;
  if (used < 2) return fit;
  const double un = static_cast<double>(used);
  const double sxx_c = un * sxx - sx * sx;
  const double syy_c = un * syy - sy * sy;
  const double sxy_c = un * sxy - sx * sy;
  if (sxx_c == 0.0) return fit;
  fit.exponent = sxy_c / sxx_c;
  fit.prefactor = std::exp((sy - fit.exponent * sx) / un);
  fit.r_squared =
      syy_c == 0.0 ? 1.0 : (sxy_c * sxy_c) / (sxx_c * syy_c);
  return fit;
}

double log_log_slope(std::span<const double> xs, std::span<const double> ys) {
  return fit_power_law(xs, ys).exponent;
}

}  // namespace flip
