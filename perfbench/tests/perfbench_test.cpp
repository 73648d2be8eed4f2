// Unit tests of the benchmark's own correctness machinery: the dense
// reference against hand-worked states, and every check against a
// deliberately corrupted result.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <sstream>

#include "checks.hpp"
#include "circuit/io.hpp"
#include "circuit/supremacy.hpp"

namespace perfbench {
namespace {

constexpr double kTol = 1e-15;
const double kR = 1.0 / std::sqrt(2.0);

void expect_state(const std::vector<Amp>& got, const std::vector<Amp>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].real(), want[i].real(), kTol) << "index " << i;
    EXPECT_NEAR(got[i].imag(), want[i].imag(), kTol) << "index " << i;
  }
}

TEST(DenseReference, Hadamard) {
  expect_state(dense_simulate("qubits 1\nH 0 @0\n"), {Amp{kR, 0}, Amp{kR, 0}});
}

TEST(DenseReference, TAfterHadamard) {
  // T|+> = (|0> + e^{i pi/4}|1>)/sqrt2, e^{i pi/4}/sqrt2 = (1 + i)/2.
  expect_state(dense_simulate("qubits 1\nH 0\nT 0\n"),
               {Amp{kR, 0}, Amp{0.5, 0.5}});
}

TEST(DenseReference, SqrtXAndSqrtY) {
  // X^(1/2)|0> = ((1+i)/2, (1-i)/2); Y^(1/2)|0> = ((1+i)/2, (1+i)/2).
  expect_state(dense_simulate("qubits 1\nX_1_2 0\n"),
               {Amp{0.5, 0.5}, Amp{0.5, -0.5}});
  expect_state(dense_simulate("qubits 1\nY_1_2 0\n"),
               {Amp{0.5, 0.5}, Amp{0.5, 0.5}});
  // Two square roots make the Pauli: X|0> = |1>, Y|0> = i|1>.
  expect_state(dense_simulate("qubits 1\nX_1_2 0\nX_1_2 0\n"),
               {Amp{0, 0}, Amp{1, 0}});
  expect_state(dense_simulate("qubits 1\nY_1_2 0\nY_1_2 0\n"),
               {Amp{0, 0}, Amp{0, 1}});
}

TEST(DenseReference, ControlledZAndQubitOrder) {
  expect_state(dense_simulate("qubits 2\nH 0\nH 1\nCZ 0 1 @1\n"),
               {Amp{0.5, 0}, Amp{0.5, 0}, Amp{0.5, 0}, Amp{-0.5, 0}});
  // Qubit 1 is bit 1 of the basis index.
  expect_state(dense_simulate("qubits 2\nX_1_2 1\nX_1_2 1\n"),
               {Amp{0, 0}, Amp{0, 0}, Amp{1, 0}, Amp{0, 0}});
}

TEST(DenseReference, RejectsUnknownGates) {
  EXPECT_THROW(dense_simulate("qubits 1\nRz(0.5) 0\n"), std::runtime_error);
  EXPECT_THROW(dense_simulate("H 0\n"), std::runtime_error);
  EXPECT_THROW(dense_simulate("qubits 2\nH 2\n"), std::runtime_error);
}

std::string supremacy(int rows, int cols, std::uint64_t seed) {
  quasar::SupremacyOptions options;
  options.rows = rows;
  options.cols = cols;
  options.seed = seed;
  return quasar::circuit_to_string(quasar::make_supremacy_circuit(options));
}

std::vector<std::uint64_t> draw(const std::vector<Amp>& state, int count,
                                std::mt19937_64& rng) {
  std::vector<double> weights;
  for (const Amp& a : state) weights.push_back(std::norm(a));
  std::discrete_distribution<std::uint64_t> pick(weights.begin(),
                                                 weights.end());
  std::vector<std::uint64_t> samples;
  for (int i = 0; i < count; ++i) samples.push_back(pick(rng));
  return samples;
}

class Corrupted : public ::testing::Test {
 protected:
  const std::string text = supremacy(3, 4, 7);
  const std::vector<Amp> state = dense_simulate(text);
  const int n = 12;
};

TEST_F(Corrupted, AmplitudeCheckCatchesSwappedQubits) {
  EXPECT_EQ(check_amplitudes(state, state, kAmpTolFp64), "");
  std::vector<Amp> swapped(state.size());
  for (std::size_t i = 0; i < state.size(); ++i) {
    const std::size_t b3 = (i >> 3) & 1, b8 = (i >> 8) & 1;
    const std::size_t j = (i & ~((std::size_t{1} << 3) | (std::size_t{1} << 8))) |
                          (b3 << 8) | (b8 << 3);
    swapped[j] = state[i];
  }
  EXPECT_NE(check_amplitudes(swapped, state, kAmpTolFp64), "");
  EXPECT_NE(check_amplitudes(swapped, state, kAmpTolFp32), "");
}

TEST_F(Corrupted, AmplitudeCheckCatchesADroppedGate) {
  // Drop the last single-qubit gate of the circuit.
  std::istringstream in(text);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::size_t drop = lines.size();
  while (drop-- > 1 && lines[drop].rfind("CZ", 0) == 0) {
  }
  ASSERT_GT(drop, 0u);
  std::string shorter;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i != drop) shorter += lines[i] + "\n";
  }
  EXPECT_NE(check_amplitudes(dense_simulate(shorter), state, kAmpTolFp64), "");
}

TEST_F(Corrupted, CrossEntropyCheckCatchesUniformSamples) {
  std::mt19937_64 rng(11);
  const auto p = [&](std::uint64_t x) { return std::norm(state[x]); };
  XebMoments moments;
  moments.add(state.data(), state.size());
  EXPECT_NEAR(moments.expected(n), 1.0, 0.2);
  const double good = linear_xeb(draw(state, 1000, rng), n, p);
  EXPECT_EQ(check_xeb(good, moments, n, 1000), "") << good;
  std::uniform_int_distribution<std::uint64_t> uniform(0, state.size() - 1);
  std::vector<std::uint64_t> flat;
  for (int i = 0; i < 1000; ++i) flat.push_back(uniform(rng));
  EXPECT_NE(check_xeb(linear_xeb(flat, n, p), moments, n, 1000), "");
  // A flat state has expectation 0, below the band, whatever is drawn.
  const std::vector<Amp> uniform_state(state.size(),
                                       Amp{std::sqrt(1.0 / state.size()), 0});
  XebMoments flat_moments;
  flat_moments.add(uniform_state.data(), uniform_state.size());
  EXPECT_NE(check_xeb(0.0, flat_moments, n, 1000), "");
}

TEST_F(Corrupted, NormCheckCatchesScaledState) {
  double norm = 0.0;
  for (const Amp& a : state) norm += std::norm(a);
  EXPECT_EQ(check_norm(norm, 200, false), "");
  EXPECT_NE(check_norm(norm * (1 + 1e-9), 200, false), "");
  EXPECT_EQ(check_norm(norm * (1 + 1e-5), 200, true), "");
  EXPECT_NE(check_norm(norm * (1 + 1e-2), 200, true), "");
  EXPECT_NE(check_norm(NAN, 200, true), "");
}

TEST_F(Corrupted, EntropyCheckCatchesNonPorterThomasStates) {
  double entropy = 0.0;
  for (const Amp& a : state) {
    const double p = std::norm(a);
    if (p > 0) entropy -= p * std::log(p);
  }
  EXPECT_EQ(check_entropy(entropy, n), "") << entropy;
  // Uniform superposition: n ln 2, about 0.42 above Porter-Thomas.
  EXPECT_NE(check_entropy(n * std::log(2.0), n), "");
  EXPECT_NE(check_entropy(0.0, n), "");  // a basis state
}

TEST(SwapVolume, HandWorkedSchedule) {
  // 4 qubits, 2 local, 16-byte amplitudes: a q-qubit swap sends
  // (2^2 - 2^(2-q)) * 16 bytes per rank.
  quasar::Schedule s;
  s.num_qubits = 4;
  s.num_local = 2;
  s.stages.resize(3);
  s.stages[0].qubit_to_location = {0, 1, 2, 3};  // identity: no swap
  s.stages[1].qubit_to_location = {2, 1, 0, 3};  // qubit 2 comes in: 32 B
  s.stages[2].qubit_to_location = {0, 1, 2, 3};  // qubit 0 comes back: 32 B
  EXPECT_EQ(expected_bytes_per_rank(s, 16), 64u);
  // Qubit 3 comes in; qubit 0 moves between global slots, which is free.
  s.stages[2].qubit_to_location = {3, 2, 0, 1};
  EXPECT_EQ(expected_bytes_per_rank(s, 16), 64u);
  // Qubits 2 and 3 come in together (q = 2): 48 B, then nothing moves.
  s.stages[1].qubit_to_location = {2, 3, 0, 1};
  s.stages[2].qubit_to_location = {2, 3, 0, 1};
  EXPECT_EQ(expected_bytes_per_rank(s, 16), 48u);
  EXPECT_EQ(check_bytes_per_rank(48, 48), "");
  EXPECT_NE(check_bytes_per_rank(48 + 16, 48), "");
}

}  // namespace
}  // namespace perfbench
