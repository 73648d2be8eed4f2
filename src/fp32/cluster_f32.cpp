#include "fp32/cluster_f32.hpp"

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>

#include "core/aligned.hpp"
#include "core/error.hpp"
#include "core/reduce.hpp"
#include "fp32/kernels_f32.hpp"
#include "kernels/permute.hpp"
#include "obs/histogram.hpp"
#include "obs/names.hpp"
#include "obs/trace.hpp"
#include "runtime/proc_transport.hpp"

namespace quasar {

Real CommunicatorF::norm_squared() {
  Real total = 0.0;
  for (int r = 0; r < num_ranks(); ++r) {
    total += ordered_norm_squared(slice(r), local_size());
  }
  return total;
}

namespace {

/// In-process fp32 backend: the slices and primitives that used to live
/// inline in DistributedSimulatorF, unchanged arithmetic.
class VirtualCommunicatorF final : public CommunicatorF {
 public:
  VirtualCommunicatorF(int num_qubits, int num_local, int num_threads,
                       std::size_t bounce_buffer_bytes)
      : n_(num_qubits), l_(num_local), num_threads_(num_threads),
        bounce_buffer_bytes_(bounce_buffer_bytes),
        num_ranks_(checked_int(index_pow2(n_ - l_), "fp32 rank count")),
        local_size_(index_pow2(l_)) {
    buffers_.resize(static_cast<std::size_t>(num_ranks_));
    for (auto& buffer : buffers_) {
      buffer.assign(static_cast<std::size_t>(local_size_),
                    AmplitudeF{0.0f, 0.0f});
    }
  }

  int num_qubits() const override { return n_; }
  int num_local() const override { return l_; }
  int num_ranks() const override { return num_ranks_; }
  bool multiprocess() const override { return false; }

  void init_basis(Index index) override {
    for (auto& buffer : buffers_) {
      std::fill(buffer.begin(), buffer.end(), AmplitudeF{0.0f, 0.0f});
    }
    buffers_[static_cast<std::size_t>(index >> l_)]
            [index & (local_size_ - 1)] = 1.0f;
  }

  void init_uniform() override {
    const float value = static_cast<float>(std::pow(2.0, -0.5 * n_));
    for (auto& buffer : buffers_) {
      std::fill(buffer.begin(), buffer.end(), AmplitudeF{value, 0.0f});
    }
  }

  void alltoall_swap(const std::vector<int>& global_locations,
                     const std::vector<int>& local_positions) override;
  void local_permute(const std::vector<int>& perm,
                     const std::vector<Amplitude>* rank_phase) override;

  void permute_ranks(const std::vector<Index>& source_of) override {
    QUASAR_OBS_SPAN("renumber", "permute_ranks");
    QUASAR_CHECK(static_cast<int>(source_of.size()) == num_ranks_,
                 "permute_ranks: must cover every rank");
    std::vector<AlignedVector<AmplitudeF>> next(buffers_.size());
    for (int r = 0; r < num_ranks_; ++r) {
      next[static_cast<std::size_t>(r)] =
          std::move(buffers_[static_cast<std::size_t>(source_of[r])]);
    }
    buffers_ = std::move(next);
    ++stats_.rank_renumberings;
    obs::count(obs::names::kCommRankRenumberings);
  }

  void apply_gate_all(const GateMatrix& matrix,
                      const std::vector<int>& local_locations) override {
    const PreparedGateF prepared = prepare_gate_f32(matrix, local_locations);
    for (auto& buffer : buffers_) {
      apply_gate_f32(buffer.data(), l_, prepared, num_threads_);
    }
  }

  void apply_gate_rank(int rank, const GateMatrix& matrix,
                       const std::vector<int>& local_locations) override {
    const PreparedGateF prepared = prepare_gate_f32(matrix, local_locations);
    apply_gate_f32(buffers_[static_cast<std::size_t>(rank)].data(), l_,
                   prepared, num_threads_);
  }

  const AmplitudeF* slice(int rank) override {
    return buffers_[static_cast<std::size_t>(rank)].data();
  }

  void write_slice(int rank, const AmplitudeF* data) override {
    std::memcpy(buffers_[static_cast<std::size_t>(rank)].data(), data,
                static_cast<std::size_t>(local_size_) * sizeof(AmplitudeF));
  }

  CommStats stats() override { return stats_; }

 private:
  int n_;
  int l_;
  int num_threads_;
  std::size_t bounce_buffer_bytes_;
  int num_ranks_;
  Index local_size_;
  std::vector<AlignedVector<AmplitudeF>> buffers_;
  CommStats stats_;
};

void VirtualCommunicatorF::alltoall_swap(
    const std::vector<int>& global_locations,
    const std::vector<int>& local_positions) {
  // In-place chunked exchange, mirroring VirtualCluster::alltoall_swap:
  // the bit-transposition involution pairs every amplitude with a unique
  // partner, so the state is never shadow-copied.
  obs::ScopedSpan obs_span("exchange", "alltoall");
  const int q = static_cast<int>(global_locations.size());
  const int l = l_;
  const Index block = index_pow2(l - q);
  const int ranks = num_ranks_;

  std::vector<int> sorted_locals = local_positions;
  std::sort(sorted_locals.begin(), sorted_locals.end());
  const int run_bits = sorted_locals.front();
  const Index run = index_pow2(run_bits);
  const Index num_runs = index_pow2(l - q - run_bits);
  const IndexExpander expander(sorted_locals);

  const int threads = omp_get_max_threads();
  Index chunk = run;
  const Index budget_amps = std::max<std::size_t>(
      std::size_t{1},
      bounce_buffer_bytes_ /
          (static_cast<std::size_t>(threads) * sizeof(AmplitudeF)));
  if (chunk > budget_amps) chunk = Index{1} << ilog2(budget_amps);
  const Index chunks_per_run = run / chunk;

  struct Orbit {
    AmplitudeF* a;
    AmplitudeF* b;
  };
  std::vector<Orbit> orbits;
  for (int r = 0; r < ranks; ++r) {
    Index theirs = 0;
    for (int i = 0; i < q; ++i) {
      theirs |= static_cast<Index>(get_bit(static_cast<Index>(r),
                                           global_locations[i] - l))
                << i;
    }
    for (Index mine = 0; mine < theirs; ++mine) {
      Index partner = static_cast<Index>(r);
      for (int i = 0; i < q; ++i) {
        partner = set_bit(partner, global_locations[i] - l,
                          get_bit(mine, i));
      }
      Index off_mine = 0, off_theirs = 0;
      for (int i = 0; i < q; ++i) {
        off_mine |= static_cast<Index>(get_bit(mine, i))
                    << local_positions[i];
        off_theirs |= static_cast<Index>(get_bit(theirs, i))
                      << local_positions[i];
      }
      orbits.push_back(
          Orbit{buffers_[static_cast<std::size_t>(r)].data() + off_mine,
                buffers_[static_cast<std::size_t>(partner)].data() +
                    off_theirs});
    }
  }

  const std::int64_t num_orbits = static_cast<std::int64_t>(orbits.size());
  const std::int64_t tasks =
      static_cast<std::int64_t>(num_runs * chunks_per_run);
  // Hoisted so the per-chunk latency probe costs nothing (not even the
  // session load) in the untraced inner loop.
  const bool record_latency = obs::enabled();
#pragma omp parallel num_threads(threads)
  {
    AlignedVector<AmplitudeF> bounce(chunk);
#pragma omp for collapse(2) schedule(static)
    for (std::int64_t o = 0; o < num_orbits; ++o) {
      for (std::int64_t t = 0; t < tasks; ++t) {
        const Index run_idx = static_cast<Index>(t) / chunks_per_run;
        const Index coff = (static_cast<Index>(t) % chunks_per_run) * chunk;
        const Index base = expander.expand(run_idx << run_bits) + coff;
        AmplitudeF* pa = orbits[o].a + base;
        AmplitudeF* pb = orbits[o].b + base;
        const std::size_t bytes = chunk * sizeof(AmplitudeF);
        if (record_latency) {
          obs::ScopedLatency chunk_latency(obs::names::kCommExchangeChunkNs);
          std::memcpy(bounce.data(), pa, bytes);
          std::memcpy(pa, pb, bytes);
          std::memcpy(pb, bounce.data(), bytes);
        } else {
          std::memcpy(bounce.data(), pa, bytes);
          std::memcpy(pa, pb, bytes);
          std::memcpy(pb, bounce.data(), bytes);
        }
      }
    }
  }

  ++stats_.alltoalls;
  // Half the bytes of the double-precision swap: the Sec. 5 win.
  const std::uint64_t sent = (local_size_ - block) * sizeof(AmplitudeF);
  stats_.bytes_sent_per_rank += sent;
  const std::uint64_t bounce_bytes =
      static_cast<std::uint64_t>(threads) * chunk * sizeof(AmplitudeF);
  if (bounce_bytes > stats_.peak_bounce_bytes) {
    stats_.peak_bounce_bytes = bounce_bytes;
  }
  obs_span.set_arg("bytes_per_rank", static_cast<std::int64_t>(sent));
  obs::count(obs::names::kCommAlltoalls);
  obs::count(obs::names::kCommBytesSentPerRank, sent);
  obs::count_peak(obs::names::kCommPeakBounceBytes, bounce_bytes);
}

void VirtualCommunicatorF::local_permute(
    const std::vector<int>& perm, const std::vector<Amplitude>* rank_phase) {
  const PermutePlan plan = plan_bit_permutation(l_, perm);
  bool any_phase = false;
  if (rank_phase != nullptr) {
    QUASAR_CHECK(static_cast<int>(rank_phase->size()) == num_ranks_,
                 "local_permute: one phase per rank");
    for (const Amplitude& p : *rank_phase) {
      any_phase |= p != Amplitude{1.0, 0.0};
    }
  }
  if (plan.identity && !any_phase) return;

  const std::uint64_t sweep_bytes =
      static_cast<std::uint64_t>(num_ranks_) * local_size_ *
      sizeof(AmplitudeF);
  QUASAR_OBS_SPAN("permute", "local_permute", "bytes",
                  static_cast<std::int64_t>(sweep_bytes));
  const int threads =
      num_threads_ > 0 ? num_threads_ : omp_get_max_threads();
  const std::size_t scratch_bytes = std::max<std::size_t>(
      sizeof(AmplitudeF),
      bounce_buffer_bytes_ / static_cast<std::size_t>(threads));
  for (int r = 0; r < num_ranks_; ++r) {
    const AmplitudeF phase =
        rank_phase != nullptr
            ? AmplitudeF{static_cast<float>((*rank_phase)[r].real()),
                         static_cast<float>((*rank_phase)[r].imag())}
            : AmplitudeF{1.0f, 0.0f};
    detail::run_bit_permutation(buffers_[static_cast<std::size_t>(r)].data(),
                                plan, phase, num_threads_, scratch_bytes);
  }

  ++stats_.local_permutation_sweeps;
  stats_.local_permutation_bytes += sweep_bytes;
  obs::count(obs::names::kCommLocalPermutationSweeps);
  obs::count(obs::names::kCommLocalPermutationBytes, sweep_bytes);
  if (!plan.identity) {
    const std::uint64_t brick_bytes =
        index_pow2(plan.brick_bits) * sizeof(AmplitudeF);
    const std::uint64_t bounce_bytes =
        static_cast<std::uint64_t>(threads) *
        std::min<std::uint64_t>(scratch_bytes, brick_bytes);
    if (bounce_bytes > stats_.peak_bounce_bytes) {
      stats_.peak_bounce_bytes = bounce_bytes;
    }
    obs::count_peak(obs::names::kCommPeakBounceBytes, bounce_bytes);
  }
}

/// Engine traits for the fp32 proc backend (see proc_transport.hpp).
/// Amplitudes live in plain aligned worker memory; the wire carries the
/// gate matrices and deferred phases in double, cast to float at the
/// worker exactly where the virtual backend casts them.
struct ProcTraitsF32 {
  using Amp = AmplitudeF;
  using Slice = AlignedVector<AmplitudeF>;
  static Slice make_slice(Index count, const StorageOptions& storage) {
    (void)storage;  // fp32 proc slices are always in worker memory
    Slice slice;
    slice.assign(static_cast<std::size_t>(count), AmplitudeF{0.0f, 0.0f});
    return slice;
  }
  static Amp* data(Slice& slice) { return slice.data(); }
  static void apply(Amp* state, int num_local, const GateMatrix& matrix,
                    const std::vector<int>& locations,
                    const ApplyOptions& options) {
    apply_gate_f32(state, num_local, prepare_gate_f32(matrix, locations),
                   options.num_threads);
  }
};

/// fp32 multi-process backend: the shared proc machinery with fp32 traits.
class ProcCommunicatorF final : public CommunicatorF {
 public:
  ProcCommunicatorF(int num_qubits, int num_local,
                    std::size_t bounce_buffer_bytes)
      : impl_(num_qubits, num_local,
              [bounce_buffer_bytes]() {
                StorageOptions storage;
                storage.bounce_buffer_bytes = bounce_buffer_bytes;
                return storage;
              }(),
              ApplyOptions{}) {}

  int num_qubits() const override { return impl_.num_qubits(); }
  int num_local() const override { return impl_.num_local(); }
  int num_ranks() const override { return impl_.num_ranks(); }
  bool multiprocess() const override { return true; }

  void init_basis(Index index) override { impl_.init_basis(index); }
  void init_uniform() override { impl_.init_uniform(); }

  void alltoall_swap(const std::vector<int>& global_locations,
                     const std::vector<int>& local_positions) override {
    impl_.alltoall_swap(global_locations, local_positions);
  }

  void local_permute(const std::vector<int>& perm,
                     const std::vector<Amplitude>* rank_phase) override {
    std::vector<std::complex<double>> phases;
    bool any_phase = false;
    if (rank_phase != nullptr) {
      QUASAR_CHECK(static_cast<int>(rank_phase->size()) == num_ranks(),
                   "local_permute: one phase per rank");
      phases.assign(rank_phase->begin(), rank_phase->end());
      for (const Amplitude& p : *rank_phase) {
        any_phase |= p != Amplitude{1.0, 0.0};
      }
    }
    impl_.local_permute(perm, phases, any_phase);
  }

  void permute_ranks(const std::vector<Index>& source_of) override {
    impl_.permute_ranks(source_of);
  }

  void apply_gate_all(const GateMatrix& matrix,
                      const std::vector<int>& local_locations) override {
    impl_.apply_gate_all(matrix, local_locations);
  }
  void apply_gate_rank(int rank, const GateMatrix& matrix,
                       const std::vector<int>& local_locations) override {
    impl_.apply_gate_rank(rank, matrix, local_locations);
  }

  const AmplitudeF* slice(int rank) override { return impl_.slice(rank); }
  void write_slice(int rank, const AmplitudeF* data) override {
    impl_.write_slice(rank, data);
  }

  CommStats stats() override { return impl_.stats(); }

  bool kill_rank_for_fault(std::size_t stage) override {
    impl_.kill_rank_for_fault(stage);
    return true;
  }

 private:
  proc::ProcClusterT<ProcTraitsF32> impl_;
};

}  // namespace

std::unique_ptr<CommunicatorF> make_communicator_f32(
    int num_qubits, int num_local, int num_threads,
    std::size_t bounce_buffer_bytes, TransportKind transport) {
  switch (transport) {
    case TransportKind::kVirtual:
      return std::make_unique<VirtualCommunicatorF>(
          num_qubits, num_local, num_threads, bounce_buffer_bytes);
    case TransportKind::kProc:
      return std::make_unique<ProcCommunicatorF>(num_qubits, num_local,
                                                 bounce_buffer_bytes);
  }
  throw Error("make_communicator_f32: unknown transport");
}

}  // namespace quasar
