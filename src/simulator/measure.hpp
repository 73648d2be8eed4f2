/// \file measure.hpp
/// \brief Measurement, sampling, and output-distribution statistics.
///
/// The paper's 36-qubit Edison run computes the entropy of the output
/// distribution (Sec. 4.2.2, "8.1 seconds were used to calculate the
/// entropy, which requires a final reduction"); supremacy verification
/// relies on the Porter–Thomas shape of that distribution.
#pragma once

#include <vector>

#include "core/rng.hpp"
#include "simulator/statevector.hpp"

namespace quasar {

/// Probability that qubit at bit-location q measures 1.
Real probability_of_one(const StateVector& state, int bit_location);

/// Shannon entropy -sum p_i ln p_i of the full output distribution
/// (natural log, like the paper). Fixed-order parallel sum over all
/// amplitudes (core/reduce.hpp): the same bits at any thread count.
Real entropy(const StateVector& state);

/// Entropy a Porter–Thomas (exponential) distribution over 2^n outcomes
/// predicts: ln(2^n) - 1 + gamma (gamma = Euler–Mascheroni). Random
/// supremacy circuits converge to this value, which is how the paper's
/// entropy output can be sanity-checked without a reference state.
Real porter_thomas_entropy(int num_qubits);

/// Samples `count` basis-state indices from |amplitude|^2 via inverse
/// transform over a single uniform pass (deterministic given rng).
std::vector<Index> sample_outcomes(const StateVector& state, int count,
                                   Rng& rng);

/// Projective measurement of one qubit: returns the outcome (0/1) drawn
/// from rng and collapses + renormalizes the state in place.
int measure_qubit(StateVector& state, int bit_location, Rng& rng);

/// Cross-entropy-benchmarking style statistic: the mean of 2^n * p(s)
/// over the sampled indices s. Ideal sampling from a Porter–Thomas
/// distribution gives 2.0; a uniform (fully depolarized) sampler gives
/// 1.0. Used by the validation example.
Real porter_thomas_test(const StateVector& state,
                        const std::vector<Index>& samples);

}  // namespace quasar
