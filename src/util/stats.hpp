#pragma once
// Statistics utilities for Monte-Carlo experiment evaluation: running
// moments, success-probability confidence intervals, order statistics and
// power-law fits. Everything is plain value types.

#include <cstddef>
#include <span>
#include <string>

namespace flip {

/// Welford one-pass accumulator for mean and variance.
class RunningStats {
 public:
  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// A binomial proportion estimate with a Wilson score interval.
struct ProportionCI {
  double estimate = 0.0;  ///< successes / trials
  double low = 0.0;       ///< lower bound of the interval
  double high = 0.0;      ///< upper bound of the interval

  [[nodiscard]] std::string to_string() const;
};

/// Wilson score interval for `successes` out of `trials` at confidence level
/// z (default z=1.96 ~ 95%). Well-behaved at 0 and `trials` successes,
/// unlike the normal approximation. Precondition: trials > 0.
ProportionCI wilson_interval(std::size_t successes, std::size_t trials,
                             double z = 1.96);

/// Interpolated percentile of a sample, p in [0,100]. Copies + sorts.
/// Precondition: !samples.empty().
double percentile(std::span<const double> samples, double p);

/// Median convenience wrapper.
double median(std::span<const double> samples);

/// Least-squares fit of log(y) against log(x).
struct PowerLawFit {
  double exponent = 0.0;   ///< slope in log-log space
  double prefactor = 0.0;  ///< exp(intercept): y ~ prefactor * x^exponent
  double r_squared = 0.0;  ///< coefficient of determination in log space
  std::size_t points = 0;  ///< points actually used
};

/// Fits y ~ c * x^k by least squares in log-log space. Points with
/// non-positive x or y are skipped. With fewer than two usable points the
/// fit is all zeros.
PowerLawFit fit_power_law(std::span<const double> xs,
                          std::span<const double> ys);

/// The empirical power-law exponent (fit_power_law().exponent). Used by
/// benches to check scaling claims (e.g. rounds ~ 1/eps^2 should give
/// exponent ~ -2 against eps).
double log_log_slope(std::span<const double> xs, std::span<const double> ys);

}  // namespace flip
