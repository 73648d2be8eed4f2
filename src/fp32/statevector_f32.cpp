#include "fp32/statevector_f32.hpp"

#include <cmath>

#include "core/reduce.hpp"
#include "simulator/statevector.hpp"

namespace quasar {

StateVectorF::StateVectorF(int num_qubits) : num_qubits_(num_qubits) {
  QUASAR_CHECK(num_qubits >= 1 && num_qubits <= 41,
               "StateVectorF supports 1..41 qubits (memory bound)");
  const Index n = size();
  data_.resize(n);
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(n); ++i) {
    data_[i] = AmplitudeF{0.0f, 0.0f};
  }
  data_[0] = AmplitudeF{1.0f, 0.0f};
}

void StateVectorF::set_basis_state(Index index) {
  QUASAR_CHECK(index < size(), "basis state index out of range");
  const Index n = size();
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(n); ++i) {
    data_[i] = AmplitudeF{0.0f, 0.0f};
  }
  data_[index] = AmplitudeF{1.0f, 0.0f};
}

void StateVectorF::set_uniform_superposition() {
  const Index n = size();
  const float value = static_cast<float>(std::pow(2.0, -0.5 * num_qubits_));
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(n); ++i) {
    data_[i] = AmplitudeF{value, 0.0f};
  }
}

Real StateVectorF::norm_squared() const {
  return ordered_norm_squared(data(), size());
}

Real StateVectorF::entropy() const {
  return ordered_entropy(data(), size());
}

Real StateVectorF::max_abs_diff(const StateVector& other) const {
  QUASAR_CHECK(other.num_qubits() == num_qubits_,
               "max_abs_diff: qubit count mismatch");
  const Index n = size();
  Real worst = 0.0;
#pragma omp parallel for schedule(static) reduction(max : worst)
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(n); ++i) {
    const Amplitude mine{static_cast<Real>(data_[i].real()),
                         static_cast<Real>(data_[i].imag())};
    worst = std::max(worst, std::abs(mine - other[i]));
  }
  return worst;
}

}  // namespace quasar
