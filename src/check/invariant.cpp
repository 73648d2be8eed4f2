#include "check/invariant.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <sstream>

#include "core/parse.hpp"
#include "core/reduce.hpp"

namespace quasar::check {

namespace detail {

std::atomic<int> g_enabled{-1};

bool init_from_env() {
  const char* value = std::getenv("QUASAR_VALIDATE");
  // Strict: "1" on, "0"/unset/empty off, anything else is an error — a
  // typo must not silently disable the guards it was meant to enable.
  const bool on = value != nullptr && value[0] != '\0' &&
                  parse_flag(value, "QUASAR_VALIDATE");
  // Another thread may race the same init; both compute the same answer.
  g_enabled.store(on ? 1 : 0, std::memory_order_release);
  return on;
}

namespace {

[[noreturn]] void violation(const char* site, const std::string& what) {
  throw ValidationError(std::string("invariant violated [") + site + "]: " +
                        what);
}

}  // namespace
}  // namespace detail

void set_enabled(bool enabled) {
  detail::g_enabled.store(enabled ? 1 : 0, std::memory_order_release);
}

void reset_enabled() {
  detail::g_enabled.store(-1, std::memory_order_release);
}

Real norm_tolerance(int num_qubits, std::size_t ops, Real eps) {
  const int n = num_qubits < 50 ? num_qubits : 50;
  const Real sweep_walk =
      16.0 * std::sqrt(static_cast<Real>(ops) + 1.0);
  const Real reduction_walk =
      8.0 * std::sqrt(static_cast<Real>(index_pow2(n)));
  return eps * (32.0 + sweep_walk + reduction_walk);
}

Real state_tolerance(int num_qubits, std::size_t ops, Real eps) {
  // Amplitude moduli are bounded by 1, so an absolute bound of
  // eps * O(sqrt(ops)) covers both concentrated states (|amp| ~ 1) and
  // spread states (|amp| ~ 2^(-n/2)). A genuine cross-engine bug moves an
  // amplitude by O(2^(-n/2)) or more — orders of magnitude above this
  // bound at any qubit count the harness runs.
  (void)num_qubits;
  return eps * 256.0 * (std::sqrt(static_cast<Real>(ops) + 1.0) + 4.0);
}

Real phase_tolerance(std::size_t ops, Real eps) {
  return eps * (16.0 + 4.0 * std::sqrt(static_cast<Real>(ops) + 1.0));
}

namespace {

template <typename Scalar>
void require_finite_impl(const std::complex<Scalar>* data, Index count,
                         const char* site) {
  // Exceptions cannot leave an OpenMP region, so the parallel pass only
  // locates the first offender; the throw happens outside.
  std::int64_t first_bad = static_cast<std::int64_t>(count);
#pragma omp parallel for schedule(static) reduction(min : first_bad)
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(count); ++i) {
    if (!std::isfinite(data[i].real()) || !std::isfinite(data[i].imag())) {
      if (i < first_bad) first_bad = i;
    }
  }
  if (first_bad < static_cast<std::int64_t>(count)) {
    std::ostringstream os;
    os << "non-finite amplitude (" << data[first_bad].real() << ", "
       << data[first_bad].imag() << ") at index " << first_bad;
    detail::violation(site, os.str());
  }
}

}  // namespace

Real norm_squared(const std::complex<double>* data, Index count) {
  return ordered_norm_squared(data, count);
}

Real norm_squared(const std::complex<float>* data, Index count) {
  return ordered_norm_squared(data, count);
}

void require_finite(const std::complex<double>* data, Index count,
                    const char* site) {
  require_finite_impl(data, count, site);
}

void require_finite(const std::complex<float>* data, Index count,
                    const char* site) {
  require_finite_impl(data, count, site);
}

void require_norm_preserved(Real after, Real before, Real tol,
                            const char* site) {
  // Scale-invariant: rounding drifts norm^2 in proportion to its size,
  // and benches legitimately sweep unnormalized states (norm^2 >> 1).
  const Real bound = tol * std::max(static_cast<Real>(1.0), before);
  if (!std::isfinite(after) || std::abs(after - before) > bound) {
    std::ostringstream os;
    os.precision(17);
    os << "norm^2 drifted from " << before << " to " << after
       << " (|delta| = " << std::abs(after - before) << ", tolerance "
       << bound << ")";
    detail::violation(site, os.str());
  }
}

void require_bijection(const std::vector<int>& map, int domain,
                       const char* site) {
  if (static_cast<int>(map.size()) != domain) {
    detail::violation(site, "mapping size " + std::to_string(map.size()) +
                                " != domain " + std::to_string(domain));
  }
  std::vector<bool> used(domain, false);
  for (std::size_t q = 0; q < map.size(); ++q) {
    const int loc = map[q];
    if (loc < 0 || loc >= domain || used[loc]) {
      detail::violation(site, "mapping is not a bijection: entry " +
                                  std::to_string(q) + " -> " +
                                  std::to_string(loc));
    }
    used[loc] = true;
  }
}

void require_unit_phases(const std::vector<std::complex<double>>& phases,
                         Real tol, const char* site) {
  for (std::size_t r = 0; r < phases.size(); ++r) {
    const Real modulus = std::abs(phases[r]);
    if (!std::isfinite(modulus) || std::abs(modulus - 1.0) > tol) {
      std::ostringstream os;
      os.precision(17);
      os << "deferred phase for rank " << r << " has modulus " << modulus
         << " (tolerance " << tol << " around 1)";
      detail::violation(site, os.str());
    }
  }
}

}  // namespace quasar::check
