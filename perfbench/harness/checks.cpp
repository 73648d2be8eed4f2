#include "checks.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace perfbench {
namespace {

using Matrix2 = std::array<Amp, 4>;  // row-major [[m0, m1], [m2, m3]]

const Matrix2* gate_matrix(const std::string& name) {
  static const double r = 1.0 / std::sqrt(2.0);
  static const Matrix2 h = {Amp{r, 0}, Amp{r, 0}, Amp{r, 0}, Amp{-r, 0}};
  static const Matrix2 t = {Amp{1, 0}, Amp{0, 0}, Amp{0, 0}, Amp{r, r}};
  // X^(1/2) = (1/2)[[1+i, 1-i], [1-i, 1+i]], Y^(1/2) = (1+i)/2 [[1, -1], [1, 1]].
  static const Matrix2 sx = {Amp{0.5, 0.5}, Amp{0.5, -0.5}, Amp{0.5, -0.5},
                             Amp{0.5, 0.5}};
  static const Matrix2 sy = {Amp{0.5, 0.5}, Amp{-0.5, -0.5}, Amp{0.5, 0.5},
                             Amp{0.5, 0.5}};
  if (name == "H") return &h;
  if (name == "T") return &t;
  if (name == "X_1_2") return &sx;
  if (name == "Y_1_2") return &sy;
  return nullptr;
}

int parse_qubit(const std::string& token, int num_qubits) {
  std::size_t used = 0;
  const int q = std::stoi(token, &used);
  if (used != token.size() || q < 0 || q >= num_qubits) {
    throw std::runtime_error("dense_simulate: bad qubit '" + token + "'");
  }
  return q;
}

}  // namespace

std::vector<Amp> dense_simulate(const std::string& circuit_text) {
  std::istringstream in(circuit_text);
  std::string line;
  int n = -1;
  std::vector<Amp> state;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::vector<std::string> tokens;
    for (std::string token; fields >> token;) {
      if (token[0] == '@') break;  // cycle annotation
      tokens.push_back(token);
    }
    if (tokens.empty()) continue;
    if (n < 0) {
      if (tokens.size() != 2 || tokens[0] != "qubits") {
        throw std::runtime_error("dense_simulate: missing 'qubits N' header");
      }
      n = std::stoi(tokens[1]);
      if (n < 1 || n > 24) {
        throw std::runtime_error("dense_simulate: width out of range");
      }
      state.assign(std::size_t{1} << n, Amp{0, 0});
      state[0] = 1.0;
      continue;
    }
    const std::size_t size = state.size();
    if (tokens[0] == "CZ" && tokens.size() == 3) {
      const std::size_t both = (std::size_t{1} << parse_qubit(tokens[1], n)) |
                               (std::size_t{1} << parse_qubit(tokens[2], n));
      for (std::size_t i = 0; i < size; ++i) {
        if ((i & both) == both) state[i] = -state[i];
      }
      continue;
    }
    const Matrix2* m = gate_matrix(tokens[0]);
    if (m == nullptr || tokens.size() != 2) {
      throw std::runtime_error("dense_simulate: unsupported gate line '" +
                               line + "'");
    }
    const std::size_t bit = std::size_t{1} << parse_qubit(tokens[1], n);
    for (std::size_t i = 0; i < size; ++i) {
      if ((i & bit) != 0) continue;
      const Amp a0 = state[i];
      const Amp a1 = state[i | bit];
      state[i] = (*m)[0] * a0 + (*m)[1] * a1;
      state[i | bit] = (*m)[2] * a0 + (*m)[3] * a1;
    }
  }
  if (n < 0) throw std::runtime_error("dense_simulate: empty circuit text");
  return state;
}

double porter_thomas_entropy(int num_qubits) {
  constexpr double kEulerGamma = 0.57721566490153286;
  return num_qubits * std::log(2.0) - 1.0 + kEulerGamma;
}

double norm_tolerance(std::size_t gates, bool fp32) {
  const double eps = fp32 ? std::numeric_limits<float>::epsilon()
                          : std::numeric_limits<double>::epsilon();
  return 64.0 * eps * static_cast<double>(gates);
}

std::string check_norm(double norm_squared, std::size_t gates, bool fp32) {
  const double tolerance = norm_tolerance(gates, fp32);
  if (std::isfinite(norm_squared) &&
      std::abs(norm_squared - 1.0) <= tolerance) {
    return {};
  }
  std::ostringstream why;
  why << "norm^2 " << norm_squared << " is off 1 by more than " << tolerance;
  return why.str();
}

std::string check_entropy(double entropy, int num_qubits) {
  const double pt = porter_thomas_entropy(num_qubits);
  if (entropy >= pt - kEntropyBelow && entropy <= pt + kEntropyAbove) {
    return {};
  }
  std::ostringstream why;
  why << "entropy " << entropy << " is outside [" << pt - kEntropyBelow
      << ", " << pt + kEntropyAbove << "] around the Porter-Thomas value "
      << pt;
  return why.str();
}

double linear_xeb(const std::vector<std::uint64_t>& samples, int num_qubits,
                  const std::function<double(std::uint64_t)>& probability) {
  if (samples.empty()) return 0.0;
  const double dim = std::ldexp(1.0, num_qubits);
  double sum = 0.0;
  for (const std::uint64_t x : samples) sum += dim * probability(x);
  return sum / static_cast<double>(samples.size()) - 1.0;
}

void XebMoments::add(const std::complex<double>* amps, std::size_t count) {
  double p2 = 0.0, p3 = 0.0;
#pragma omp parallel for reduction(+ : p2, p3) schedule(static)
  for (std::size_t i = 0; i < count; ++i) {
    const double p = std::norm(amps[i]);
    p2 += p * p;
    p3 += p * p * p;
  }
  sum_p2 += p2;
  sum_p3 += p3;
}

void XebMoments::add(const std::complex<float>* amps, std::size_t count) {
  std::vector<std::complex<double>> wide(amps, amps + count);
  add(wide.data(), count);
}

double XebMoments::expected(int num_qubits) const {
  return std::ldexp(sum_p2, num_qubits) - 1.0;
}

double XebMoments::sigma(int num_qubits, std::size_t samples) const {
  // Var[2^n p(x)] for x ~ p is 4^n sum p^3 - (2^n sum p^2)^2.
  const double mean = std::ldexp(sum_p2, num_qubits);
  const double var = std::ldexp(sum_p3, 2 * num_qubits) - mean * mean;
  return std::sqrt(std::max(var, 0.0) / static_cast<double>(samples));
}

std::string check_xeb(double xeb, const XebMoments& moments, int num_qubits,
                      std::size_t samples) {
  const double expected = moments.expected(num_qubits);
  const double sigma = moments.sigma(num_qubits, samples);
  if (expected >= kXebLow && std::abs(xeb - expected) <= kXebSigmas * sigma) {
    return {};
  }
  std::ostringstream why;
  why << "linear cross-entropy " << xeb << " of the samples is not within "
      << kXebSigmas << " sigma (" << sigma << ") of its expectation "
      << expected << " under the state, or that is below " << kXebLow;
  return why.str();
}

std::string check_amplitudes(const std::vector<Amp>& got,
                             const std::vector<Amp>& want, double tolerance) {
  if (got.size() != want.size()) {
    return "state has " + std::to_string(got.size()) + " amplitudes, the " +
           "reference " + std::to_string(want.size());
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double diff = std::abs(got[i] - want[i]);
    if (!(diff <= worst)) worst = diff;  // NaN-safe: NaN becomes worst
  }
  if (worst <= tolerance) return {};
  std::ostringstream why;
  why << "max |amplitude - reference| " << worst << " exceeds " << tolerance;
  return why.str();
}

std::uint64_t expected_bytes_per_rank(const quasar::Schedule& schedule,
                                      std::uint64_t amplitude_bytes) {
  const int n = schedule.num_qubits;
  const int l = schedule.num_local;
  std::vector<int> from(n);
  for (int q = 0; q < n; ++q) from[q] = q;
  std::uint64_t bytes = 0;
  for (const quasar::Stage& stage : schedule.stages) {
    int incoming = 0;
    for (int q = 0; q < n; ++q) {
      if (from[q] >= l && stage.qubit_to_location[q] < l) ++incoming;
    }
    if (incoming > 0) {
      bytes += ((std::uint64_t{1} << l) - (std::uint64_t{1} << (l - incoming))) *
               amplitude_bytes;
    }
    from = stage.qubit_to_location;
  }
  return bytes;
}

std::string check_bytes_per_rank(std::uint64_t measured,
                                 std::uint64_t expected) {
  if (measured == expected) return {};
  return "bytes sent per rank " + std::to_string(measured) +
         " differ from the schedule's swap volume " + std::to_string(expected);
}

}  // namespace perfbench
