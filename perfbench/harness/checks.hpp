// Correctness checks of the benchmark and the independent dense
// simulator they compare against. Nothing here calls the program's
// kernels: the reference reads the circuit text itself and applies
// textbook gate matrices, so a fault in the program cannot cancel out.
#pragma once

#include <complex>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sched/schedule.hpp"

namespace perfbench {

using Amp = std::complex<double>;

/// Simulates `circuit_text` (circuit/io.hpp format, gates H, T, X_1_2,
/// Y_1_2, CZ) from |0...0> with plain loops. Qubit q is bit q of the
/// basis index, as in the program. Throws std::runtime_error on any
/// other gate or on malformed text.
std::vector<Amp> dense_simulate(const std::string& circuit_text);

/// Porter-Thomas entropy n ln 2 - 1 + gamma (nats).
double porter_thomas_entropy(int num_qubits);

/// Accepted entropy band around the Porter-Thomas value, in nats. The
/// 24- and 20-qubit grids sit within ~0.01 of it; the thin 2 x 13 grid is
/// not fully scrambled at depth 25 and sits up to ~0.3 below it. A
/// uniform superposition sits 0.42 above it, a basis state n ln 2 below.
inline constexpr double kEntropyBelow = 0.5;
inline constexpr double kEntropyAbove = 0.05;
/// Linear cross-entropy mean(2^n p(x)) - 1 of the samples must lie within
/// kXebSigmas standard errors of its exact expectation under the state
/// (2^n sum p^2 - 1), and that expectation must be at least kXebLow: 1
/// for Porter-Thomas output, more for a less scrambled circuit, 0 for
/// uniform draws.
inline constexpr double kXebLow = 0.75;
inline constexpr double kXebSigmas = 6.0;
/// Max |amplitude difference| against the dense reference.
inline constexpr double kAmpTolFp64 = 1e-10;
inline constexpr double kAmpTolFp32 = 1e-4;

/// |norm^2 - 1| allowed after `gates` gates: 64 units of rounding of
/// the engine's precision per gate.
double norm_tolerance(std::size_t gates, bool fp32);

/// Each check returns an empty string on success, otherwise the reason.
std::string check_norm(double norm_squared, std::size_t gates, bool fp32);
std::string check_entropy(double entropy, int num_qubits);
/// Linear cross-entropy of `samples` under `probability` (of the
/// program's own state).
double linear_xeb(const std::vector<std::uint64_t>& samples, int num_qubits,
                  const std::function<double(std::uint64_t)>& probability);
/// Sums of p^2 and p^3 over a state's probabilities, accumulated slice
/// by slice: what the cross-entropy of exact samples is expected to be.
struct XebMoments {
  double sum_p2 = 0.0;
  double sum_p3 = 0.0;
  void add(const std::complex<double>* amps, std::size_t count);
  void add(const std::complex<float>* amps, std::size_t count);
  double expected(int num_qubits) const;
  /// Standard error of the mean over `samples` exact draws.
  double sigma(int num_qubits, std::size_t samples) const;
};
std::string check_xeb(double xeb, const XebMoments& moments, int num_qubits,
                      std::size_t samples);
std::string check_amplitudes(const std::vector<Amp>& got,
                             const std::vector<Amp>& want, double tolerance);

/// Bytes each rank sends in one run of `schedule` from the identity
/// mapping: per stage transition that brings q global qubits local,
/// one q-qubit swap of (1 - 2^-q) * 2^l * amplitude_bytes.
std::uint64_t expected_bytes_per_rank(const quasar::Schedule& schedule,
                                      std::uint64_t amplitude_bytes);
std::string check_bytes_per_rank(std::uint64_t measured,
                                 std::uint64_t expected);

}  // namespace perfbench
