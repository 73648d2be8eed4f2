/// \file reduce.hpp
/// \brief Fixed-order parallel sums: the same bits at any thread count.
///
/// `#pragma omp parallel for reduction(+)` combines per-thread partials
/// in an unspecified order, so two runs over the same state could differ
/// in the last ulp of a norm or entropy (the paper's Sec. 4.2.2 "final
/// reduction"), between thread counts and even within one process.
/// ordered_sum() fixes the order instead:
///   1. the range is cut into kReduceChunk-term chunks, a size that does
///      not depend on the thread count;
///   2. each chunk is summed serially from its first term up, and its
///      partial is stored by chunk index;
///   3. the partials are added in chunk-index order.
/// Threads only decide who computes a chunk, never which terms are added
/// together, so the result depends on the data alone (DESIGN.md §12).
///
/// The header carries OpenMP pragmas: callers link OpenMP::OpenMP_CXX.
/// Without it the chunks run serially and give the same bits.
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/types.hpp"

namespace quasar {

/// Terms per chunk. Part of the result's definition: changing it changes
/// the last bits of every reduction (but never their thread dependence).
inline constexpr std::int64_t kReduceChunk = 4096;

/// Sum of term(i) for i in [0, count), in a fixed order (see above). T is
/// the accumulator: Real, or Amplitude for a complex sum (whose real and
/// imaginary parts are then each summed in that same order).
template <typename T = Real, typename Term>
T ordered_sum(Index count, const Term& term) {
  const auto n = static_cast<std::int64_t>(count);
  const std::int64_t chunks = (n + kReduceChunk - 1) / kReduceChunk;
  std::vector<T> partials(static_cast<std::size_t>(chunks));
#pragma omp parallel for schedule(static) if (chunks > 1)
  for (std::int64_t c = 0; c < chunks; ++c) {
    const std::int64_t begin = c * kReduceChunk;
    const std::int64_t end = std::min(n, begin + kReduceChunk);
    T sum{};
    for (std::int64_t i = begin; i < end; ++i) sum += term(i);
    partials[static_cast<std::size_t>(c)] = sum;
  }
  return std::accumulate(partials.begin(), partials.end(), T{});
}

/// |a|^2 in double precision, also for fp32 amplitudes.
template <typename Scalar>
Real squared_modulus(const std::complex<Scalar>& a) {
  return static_cast<Real>(a.real()) * a.real() +
         static_cast<Real>(a.imag()) * a.imag();
}

/// Sum of |data[i]|^2 over [0, count).
template <typename Scalar>
Real ordered_norm_squared(const std::complex<Scalar>* data, Index count) {
  return ordered_sum(
      count, [data](std::int64_t i) { return squared_modulus(data[i]); });
}

/// Shannon entropy -sum p log p of p = |data[i]|^2 over [0, count); zero
/// (and NaN) probabilities contribute nothing.
template <typename Scalar>
Real ordered_entropy(const std::complex<Scalar>* data, Index count) {
  return ordered_sum(count, [data](std::int64_t i) {
    const Real p = squared_modulus(data[i]);
    return p > 0.0 ? -p * std::log(p) : 0.0;
  });
}

}  // namespace quasar
