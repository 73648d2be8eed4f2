#include "simulator/statevector.hpp"

#include <cmath>

#include "core/reduce.hpp"

namespace quasar {

StateVector::StateVector(int num_qubits) : num_qubits_(num_qubits) {
  QUASAR_CHECK(num_qubits >= 1 && num_qubits <= 40,
               "StateVector supports 1..40 qubits (memory bound)");
  const Index n = size();
  data_.resize(n);
  // Parallel first touch: with OpenMP static scheduling each thread's
  // pages land in its NUMA domain, matching the later sweep partitioning.
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(n); ++i) {
    data_[i] = Amplitude{0.0, 0.0};
  }
  data_[0] = Amplitude{1.0, 0.0};
}

void StateVector::set_basis_state(Index index) {
  QUASAR_CHECK(index < size(), "basis state index out of range");
  const Index n = size();
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(n); ++i) {
    data_[i] = Amplitude{0.0, 0.0};
  }
  data_[index] = Amplitude{1.0, 0.0};
}

void StateVector::set_uniform_superposition() {
  const Index n = size();
  const double value = std::pow(2.0, -0.5 * num_qubits_);
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(n); ++i) {
    data_[i] = Amplitude{value, 0.0};
  }
}

Real StateVector::norm_squared() const {
  return ordered_norm_squared(data(), size());
}

Real StateVector::max_abs_diff(const StateVector& other) const {
  QUASAR_CHECK(other.num_qubits_ == num_qubits_,
               "max_abs_diff: qubit count mismatch");
  const Index n = size();
  Real worst = 0.0;
#pragma omp parallel for schedule(static) reduction(max : worst)
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(n); ++i) {
    worst = std::max(worst, std::abs(data_[i] - other.data_[i]));
  }
  return worst;
}

}  // namespace quasar
