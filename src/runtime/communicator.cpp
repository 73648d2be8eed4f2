#include "runtime/communicator.hpp"

#include <cstdlib>
#include <cstring>
#include <string>

#include "core/error.hpp"
#include "core/reduce.hpp"
#include "kernels/prepared_gate.hpp"
#include "runtime/proc_transport.hpp"

namespace quasar {

TransportKind transport_from_env(TransportKind fallback) {
  const char* value = std::getenv("QUASAR_TRANSPORT");
  if (value == nullptr || *value == '\0') return fallback;
  const std::string token(value);
  if (token == "virtual") return TransportKind::kVirtual;
  if (token == "proc") return TransportKind::kProc;
  throw Error("QUASAR_TRANSPORT: expected \"virtual\" or \"proc\", got \"" +
              token + "\"");
}

Real Communicator::norm_squared() {
  // Same fixed-order reduction as VirtualCluster::norm_squared, run at
  // the root over slice() on every backend => bit-identical across
  // transports and thread counts.
  Real total = 0.0;
  for (int r = 0; r < num_ranks(); ++r) {
    total += ordered_norm_squared(slice(r), local_size());
  }
  return total;
}

VirtualCommunicator::VirtualCommunicator(int num_qubits, int num_local,
                                         StorageOptions storage)
    : cluster_(num_qubits, num_local, std::move(storage)) {}

void VirtualCommunicator::apply_gate_all(const GateMatrix& matrix,
                                         const std::vector<int>& local_locations,
                                         const ApplyOptions& options) {
  const PreparedGate prepared = prepare_gate(matrix, local_locations);
  for (int r = 0; r < cluster_.num_ranks(); ++r) {
    apply_gate(cluster_.rank_data(r), cluster_.num_local(), prepared, options);
  }
}

void VirtualCommunicator::apply_gate_rank(int rank, const GateMatrix& matrix,
                                          const std::vector<int>& local_locations,
                                          const ApplyOptions& options) {
  const PreparedGate prepared = prepare_gate(matrix, local_locations);
  apply_gate(cluster_.rank_data(rank), cluster_.num_local(), prepared, options);
}

void VirtualCommunicator::write_slice(int rank, const Amplitude* data) {
  std::memcpy(cluster_.rank_data(rank), data,
              static_cast<std::size_t>(cluster_.local_size()) *
                  sizeof(Amplitude));
}

std::unique_ptr<Communicator> make_communicator(int num_qubits, int num_local,
                                                StorageOptions storage,
                                                const ApplyOptions& apply,
                                                TransportKind transport) {
  if (transport == TransportKind::kVirtual) {
    return std::make_unique<VirtualCommunicator>(num_qubits, num_local,
                                                 std::move(storage));
  }
  QUASAR_CHECK(storage.medium != StorageMedium::kOocore,
               "QUASAR_TRANSPORT=proc does not support oocore storage "
               "(the segment-streaming executor is in-process only)");
  return std::make_unique<ProcCommunicator>(num_qubits, num_local,
                                            std::move(storage), apply);
}

}  // namespace quasar
