#pragma once

// Summary statistics shared by the closed-loop run and the traced replay:
// nearest-rank percentiles, the samples-beyond rule that decides which
// percentile a run may report, and ratios that always travel with their
// base.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile, p in (0, 100]: the smallest sample with at
/// least p% of the samples at or below it.  0 for an empty set.
double nearest_rank(std::vector<double> samples, double p);

/// How many of n samples lie strictly beyond the nearest-rank p-th
/// percentile's rank — the count a run prints beside the percentile.
std::size_t samples_beyond(std::size_t n, double p);

/// True when a run of n samples may report the p-th percentile: at least
/// `min_beyond` samples (ten, by the benchmark's rule) lie beyond it.
bool percentile_supported(std::size_t n, double p,
                          std::size_t min_beyond = 10);

double median(std::vector<double> samples);
double mean(const std::vector<double>& samples);

/// A fraction that keeps its numerator and base, so every printed ratio
/// says what it is a share of.
struct Ratio {
  std::uint64_t num = 0;
  std::uint64_t den = 0;

  void add(bool counted) {
    ++den;
    if (counted) ++num;
  }
  Ratio& operator+=(const Ratio& o) {
    num += o.num;
    den += o.den;
    return *this;
  }
  /// num / den, or 0 for an empty base.
  double value() const;
  /// "0.2500 (4/16)".
  std::string str() const;
};

}  // namespace perfbench
