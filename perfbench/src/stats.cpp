#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench {

namespace {

/// 1-based nearest rank of the p-th percentile among n samples.
std::size_t rank_of(std::size_t n, double p) {
  double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  if (r < 1.0) return 1;
  return std::min(n, static_cast<std::size_t>(r));
}

}  // namespace

double nearest_rank(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::size_t k = rank_of(samples.size(), p) - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(k),
                   samples.end());
  return samples[k];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - rank_of(n, p);
}

bool percentile_supported(std::size_t n, double p, std::size_t min_beyond) {
  return samples_beyond(n, p) >= min_beyond;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double Ratio::value() const {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

std::string Ratio::str() const {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%.4f (%llu/%llu)", value(),
                static_cast<unsigned long long>(num),
                static_cast<unsigned long long>(den));
  return buf;
}

}  // namespace perfbench
