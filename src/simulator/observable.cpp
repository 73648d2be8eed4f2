#include "simulator/observable.hpp"

#include <algorithm>

#include "core/bits.hpp"
#include "core/error.hpp"
#include "core/reduce.hpp"

namespace quasar {

PauliString::PauliString(const std::string& text) {
  for (std::size_t i = 0; i < text.size(); ++i) {
    switch (text[i]) {
      case 'I': break;
      case 'X': add(static_cast<Qubit>(i), Pauli::kX); break;
      case 'Y': add(static_cast<Qubit>(i), Pauli::kY); break;
      case 'Z': add(static_cast<Qubit>(i), Pauli::kZ); break;
      default:
        throw Error(std::string("PauliString: invalid character '") +
                    text[i] + "'");
    }
  }
}

void PauliString::add(Qubit qubit, Pauli op) {
  QUASAR_CHECK(qubit >= 0, "PauliString: negative qubit");
  if (op == Pauli::kI) return;
  const auto it = std::lower_bound(
      factors_.begin(), factors_.end(), qubit,
      [](const auto& f, Qubit q) { return f.first < q; });
  QUASAR_CHECK(it == factors_.end() || it->first != qubit,
               "PauliString: qubit already has a factor");
  factors_.insert(it, {qubit, op});
}

Qubit PauliString::max_qubit() const {
  return factors_.empty() ? -1 : factors_.back().first;
}

Real expectation(const StateVector& state, const PauliString& pauli) {
  QUASAR_CHECK(pauli.max_qubit() < state.num_qubits(),
               "expectation: operator wider than the state");
  // Flip mask from X/Y factors; phase computed per input basis state.
  Index flip = 0;
  Index y_mask = 0, z_mask = 0;
  for (const auto& [qubit, op] : pauli.factors()) {
    switch (op) {
      case Pauli::kX: flip |= index_pow2(qubit); break;
      case Pauli::kY:
        flip |= index_pow2(qubit);
        y_mask |= index_pow2(qubit);
        break;
      case Pauli::kZ: z_mask |= index_pow2(qubit); break;
      case Pauli::kI: break;
    }
  }
  const int y_count = std::popcount(y_mask);
  const Amplitude* data = state.data();
  const Index n = state.size();

  const Amplitude sum = ordered_sum<Amplitude>(n, [&](std::int64_t j) {
    const Index out = static_cast<Index>(j);
    const Index in = out ^ flip;
    // Phase: Z factors give (-1)^bit(in); each Y gives i on |0> input
    // and -i on |1> input, i.e. i^{#Y} * (-1)^{#(Y bits set in in)}.
    int minus = std::popcount(in & z_mask) + std::popcount(in & y_mask);
    Amplitude v = std::conj(data[out]) * data[in];
    if (minus & 1) v = -v;
    // Multiply by i^{y_count}.
    switch (y_count & 3) {
      case 1: return Amplitude{-v.imag(), v.real()};
      case 2: return -v;
      case 3: return Amplitude{v.imag(), -v.real()};
      default: return v;
    }
  });
  QUASAR_ASSERT(std::abs(sum.imag()) < 1e-9);
  return sum.real();
}

Real fidelity(const StateVector& a, const StateVector& b) {
  QUASAR_CHECK(a.num_qubits() == b.num_qubits(),
               "fidelity: qubit count mismatch");
  const Amplitude overlap = ordered_sum<Amplitude>(
      a.size(), [&](std::int64_t i) { return std::conj(a[i]) * b[i]; });
  return std::norm(overlap);
}

}  // namespace quasar
