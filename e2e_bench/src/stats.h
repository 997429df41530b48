// Order statistics for the end-to-end benchmark.
//
// Percentiles use the nearest-rank definition: the q-quantile of n samples
// is the ceil(q*n)-th smallest. A tail percentile is only worth reporting
// when at least ten samples lie beyond it, so the benchmark also reports
// how many samples back each figure.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace e2e {

/// 1-based rank of the nearest-rank q-quantile of n samples (q in (0, 1]).
inline std::size_t quantile_rank(std::size_t n, double q) {
  if (n == 0) return 0;
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Samples strictly beyond the q-quantile of n samples.
inline std::size_t samples_beyond(std::size_t n, double q) {
  return n - quantile_rank(n, q);
}

/// True when at least `min_beyond` samples lie beyond the q-quantile.
inline bool tail_supported(std::size_t n, double q,
                           std::size_t min_beyond = 10) {
  return n > 0 && samples_beyond(n, q) >= min_beyond;
}

/// Nearest-rank q-quantile; reorders `v`. 0 for an empty sample.
template <typename T>
double quantile(std::vector<T>& v, double q) {
  if (v.empty()) return 0.0;
  auto k = static_cast<std::ptrdiff_t>(quantile_rank(v.size(), q) - 1);
  std::nth_element(v.begin(), v.begin() + k, v.end());
  return static_cast<double>(v[static_cast<std::size_t>(k)]);
}

/// Median of a copy (the lower middle for even counts, by nearest rank).
template <typename T>
double median(std::vector<T> v) {
  return quantile(v, 0.5);
}

/// Chunks a sample of n is split into for chunked_quantile(): as many as
/// keep ten samples beyond the q-quantile inside each chunk, at most
/// `max_chunks` (a 20-second run gives one-second chunks), at least one.
inline std::size_t quantile_chunks(std::size_t n, double q,
                                   std::size_t max_chunks = 20) {
  return std::clamp<std::size_t>(samples_beyond(n, q) / 10, 1, max_chunks);
}

/// Median over consecutive equal chunks of `ordered` (send order) of each
/// chunk's q-quantile. One slow moment of the host moves one chunk, not
/// the reported figure, so runs agree more closely than a single
/// whole-sample quantile lets them.
template <typename T>
double chunked_quantile(const std::vector<T>& ordered, double q,
                        std::size_t max_chunks = 20) {
  const std::size_t n = ordered.size();
  if (n == 0) return 0.0;
  const std::size_t k = quantile_chunks(n, q, max_chunks);
  std::vector<double> per_chunk;
  for (std::size_t c = 0; c < k; ++c) {
    std::vector<T> chunk(ordered.begin() + static_cast<std::ptrdiff_t>(c * n / k),
                         ordered.begin() + static_cast<std::ptrdiff_t>((c + 1) * n / k));
    per_chunk.push_back(quantile(chunk, q));
  }
  return median(per_chunk);
}

/// Ratio that reads 0 when the base is empty (ratios are printed with
/// their base, so a 0 with a 0 base is unambiguous).
inline double ratio(double num, double base) {
  return base > 0 ? num / base : 0.0;
}

}  // namespace e2e
