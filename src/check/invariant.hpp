/// \file invariant.hpp
/// \brief Opt-in run-time invariant guards (env QUASAR_VALIDATE).
///
/// The paper's argument rests on five code paths — naive baseline,
/// optimized single-node kernels, blocked runs, the distributed swap
/// scheme of Sec. 3.4, and the fp32 variant of Sec. 4 — computing the
/// same quantum state. These guards verify, after every run / stage /
/// cluster primitive, the physical invariants every one of those paths
/// must preserve:
///   - norm preservation within a model-derived tolerance (unitarity),
///   - finiteness of every amplitude (NaN/Inf detector),
///   - bijectivity of qubit -> bit-location mappings,
///   - unit modulus of deferred per-rank phases (Sec. 3.5 absorption).
///
/// Cost model mirrors the obs layer (DESIGN.md §8): the instrumentation
/// is always compiled in, and when validation is disabled every site
/// costs one atomic load and one branch (enabled()). Enabling
/// QUASAR_VALIDATE=1 adds norm/finiteness sweeps — O(state) work per
/// guarded region, measured on stage_sweep_microbench in EXPERIMENTS.md.
/// Violations throw ValidationError (a quasar::Error) naming the site,
/// the measured value, and the tolerance.
#pragma once

#include <atomic>
#include <complex>
#include <vector>

#include "core/error.hpp"
#include "core/types.hpp"

namespace quasar::check {

/// Thrown when a run-time invariant is violated. Derives from
/// quasar::Error so existing handlers keep working; the distinct type
/// lets tests and the fuzz harness tell validation failures from
/// precondition errors.
class ValidationError : public Error {
 public:
  explicit ValidationError(const std::string& what) : Error(what) {}
};

namespace detail {
/// -1 = not yet resolved from the environment, else 0/1.
extern std::atomic<int> g_enabled;
/// Reads QUASAR_VALIDATE once and caches the result.
bool init_from_env();
}  // namespace detail

/// True when validation is active: QUASAR_VALIDATE is set to a non-empty
/// value other than "0", or set_enabled(true) was called. This is the
/// whole hot-path cost of a disabled guard site.
inline bool enabled() {
  const int state = detail::g_enabled.load(std::memory_order_acquire);
  if (state >= 0) return state != 0;
  return detail::init_from_env();
}

/// Overrides the environment (tests flip validation on and off without
/// re-execing). Passing through to the env again requires reset_enabled().
void set_enabled(bool enabled);
/// Forgets any override and re-reads QUASAR_VALIDATE on the next query.
void reset_enabled();

/// Machine epsilons for the two amplitude precisions.
inline constexpr Real kEps64 = 2.220446049250313e-16;
inline constexpr Real kEps32 = 1.1920928955078125e-07;

/// Tolerance for |norm_after - norm_before| after `ops` gate sweeps over
/// an n-qubit state. Each sweep perturbs amplitudes relatively by O(eps)
/// and errors accumulate like a random walk over ops; the norm reduction
/// itself adds a sqrt(2^n)-term rounding walk. The constants are generous
/// (a real unitarity bug produces norm drift many orders of magnitude
/// larger than rounding).
Real norm_tolerance(int num_qubits, std::size_t ops, Real eps = kEps64);

/// Per-amplitude tolerance for differential comparison of two engines
/// that executed the same `ops`-gate circuit on n qubits. Absolute bound
/// of eps * O(sqrt(ops)): valid whether the state is concentrated
/// (|amp| ~ 1) or spread (|amp| ~ 2^(-n/2)), and far below the
/// O(2^(-n/2)) displacement a genuine bug produces.
Real state_tolerance(int num_qubits, std::size_t ops, Real eps = kEps64);

/// Tolerance for the modulus drift of deferred per-rank phases after
/// `ops` unit-modulus multiplications (random-walk accumulation).
Real phase_tolerance(std::size_t ops, Real eps = kEps64);

/// Squared norm of a raw amplitude buffer (fixed-order ordered_sum, so
/// the same bits at any thread count). The guards need this for buffers
/// that are not wrapped in a StateVector.
Real norm_squared(const std::complex<double>* data, Index count);
Real norm_squared(const std::complex<float>* data, Index count);

/// Throws ValidationError if any amplitude in [data, data+count) is NaN
/// or infinite. `site` names the guarded region in the message.
void require_finite(const std::complex<double>* data, Index count,
                    const char* site);
void require_finite(const std::complex<float>* data, Index count,
                    const char* site);

/// Throws ValidationError unless |after - before| <= tol * max(1, before).
/// The relative scaling makes the check norm-agnostic: unitarity drifts a
/// norm^2 of N by O(N * eps), and benchmarks deliberately run on
/// unnormalized states.
void require_norm_preserved(Real after, Real before, Real tol,
                            const char* site);

/// Throws ValidationError unless `map` is a bijection of [0, domain):
/// size == domain, every value in range, no duplicates.
void require_bijection(const std::vector<int>& map, int domain,
                       const char* site);

/// Throws ValidationError unless every deferred phase has unit modulus
/// within tol (Sec. 3.5 only ever defers pure phases).
void require_unit_phases(const std::vector<std::complex<double>>& phases,
                         Real tol, const char* site);

}  // namespace quasar::check
