// The four workloads that drive the library in the benchmark's own
// process: single_node (run_fused), distributed_virtual and
// distributed_proc (DistributedSimulator on 16 in-process ranks / 4
// forked rank processes) and out_of_core (segmented rank slices with a
// checkpoint at every stage boundary, then load_latest + resume).
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "checks.hpp"
#include "circuit/io.hpp"
#include "ckpt/reader.hpp"
#include "ckpt/writer.hpp"
#include "obs/names.hpp"
#include "obs/report.hpp"
#include "runtime/distributed.hpp"
#include "sched/executor.hpp"
#include "serve/fingerprint.hpp"
#include "simulator/measure.hpp"
#include "traced.hpp"

namespace perfbench {
namespace {

using quasar::Circuit;
using quasar::DistributedSimulator;
using quasar::Schedule;
using quasar::ScheduleOptions;
using quasar::StateVector;
using quasar::StorageOptions;
using quasar::TransportKind;

constexpr int kSamples = 1000;
/// Width of check_reduced's 3 x 4 circuits.
constexpr int kReducedQubits = 12;
/// single_node's grid and the circuits a run cycles through.
constexpr int kSingleRows = 4;
constexpr int kSingleCols = 6;
constexpr std::uint64_t kSingleCircuits = 2;

/// One solve's timings; `total` runs from handing over the circuit to
/// having fingerprint-ready state, norm, entropy and samples. `slot` adds
/// the untimed reset before it (the solve's share of the phase's wall
/// time) and `cpu` is the CPU the program's processes spent in the slot.
struct SolveParts {
  double total = 0.0;
  double schedule = 0.0;
  double run = 0.0;
  double norm = 0.0;
  double entropy = 0.0;
  double sample = 0.0;
  double slot = 0.0;
  double cpu = 0.0;
};

/// The outputs of a solve that the checks read.
struct SolveOutput {
  double norm = 0.0;
  double entropy = 0.0;
  std::vector<std::uint64_t> samples;
  std::uint64_t bytes_per_rank = 0;  ///< distributed: stats() delta
  std::size_t circuit = 0;           ///< which circuit of the run's set
};

class Engine {
 public:
  virtual ~Engine() = default;
  /// Circuits the engine cycles through, one per solve.
  virtual std::size_t circuits() const = 0;
  /// Puts the state back to |0...0> before a repeat solve (untimed).
  virtual void reset() = 0;
  virtual SolveParts solve(SolveOutput& out) = 0;
};

/// Timings and resource readings of one phase of back-to-back solves.
struct Phase {
  std::vector<SolveParts> solves;
  std::vector<SolveOutput> outputs;
  double peak_rss_mib = 0.0;   ///< VmHWM, this process + children

  /// The median of `field` over each circuit's solves, one per circuit.
  std::vector<double> per_circuit(double SolveParts::*field) const {
    std::map<std::size_t, std::vector<double>> by_circuit;
    for (std::size_t i = 0; i < solves.size(); ++i) {
      by_circuit[outputs[i].circuit].push_back(solves[i].*field);
    }
    std::vector<double> medians;
    for (const auto& [circuit, values] : by_circuit) {
      medians.push_back(median(values));
    }
    return medians;
  }
  /// The mean over circuits of each circuit's median `field`: every
  /// circuit of the run weighs the same, and a slow outlier solve does
  /// not move it.
  double typical(double SolveParts::*field) const {
    const std::vector<double> medians = per_circuit(field);
    double sum = 0.0;
    for (const double m : medians) sum += m;
    return medians.empty() ? 0.0 : sum / static_cast<double>(medians.size());
  }
};

/// Solves back to back in whole rounds over the engine's circuits until
/// `seconds` have passed (at least one round).
Phase run_phase(Engine& engine, double seconds,
                const std::vector<pid_t>& children) {
  Phase phase;
  const auto cpu_now = [&] { return self_cpu_s() + sum_cpu_s(children); };
  const double start = now_s();
  const std::size_t round = engine.circuits();
  while (phase.solves.size() % round != 0 || phase.solves.empty() ||
         now_s() - start < seconds) {
    const double slot_start = now_s();
    const double cpu0 = cpu_now();
    engine.reset();
    SolveOutput out;
    SolveParts parts = engine.solve(out);
    parts.cpu = cpu_now() - cpu0;
    parts.slot = now_s() - slot_start;
    phase.solves.push_back(parts);
    phase.outputs.push_back(std::move(out));
  }
  std::cerr << "perfbench: solves (circuit, seconds, run, cpu):";
  for (std::size_t i = 0; i < phase.solves.size(); ++i) {
    const SolveParts& p = phase.solves[i];
    std::cerr << " " << phase.outputs[i].circuit << "," << p.total << ","
              << p.run << "," << p.cpu;
  }
  std::cerr << "\n";
  phase.peak_rss_mib =
      self_usage().hwm_mib + sum_usage(children).hwm_mib;
  return phase;
}

/// Times `fn` and returns seconds.
template <typename Fn>
double timed(Fn&& fn) {
  const double start = now_s();
  fn();
  return now_s() - start;
}

std::vector<Amp> to_amps(const StateVector& state) {
  return std::vector<Amp>(state.data(), state.data() + state.size());
}

class FusedEngine final : public Engine {
 public:
  FusedEngine(const std::vector<Circuit>& circuits, StateVector& state,
              quasar::FusedRunOptions options, std::uint64_t seed)
      : circuits_(circuits), state_(state), options_(options), seed_(seed) {}
  std::size_t circuits() const override { return circuits_.size(); }
  void reset() override { state_.set_basis_state(0); }
  SolveParts solve(SolveOutput& out) override {
    out.circuit = next_++ % circuits_.size();
    const Circuit& circuit = circuits_[out.circuit];
    SolveParts p;
    const double start = now_s();
    p.run = timed([&] { quasar::run_fused(state_, circuit, options_); });
    p.norm = timed([&] { out.norm = state_.norm_squared(); });
    p.entropy = timed([&] { out.entropy = quasar::entropy(state_); });
    p.sample = timed([&] {
      quasar::Rng rng(seed_);
      out.samples = quasar::sample_outcomes(state_, kSamples, rng);
    });
    p.total = now_s() - start;
    return p;
  }

 private:
  const std::vector<Circuit>& circuits_;
  std::size_t next_ = 0;
  StateVector& state_;
  quasar::FusedRunOptions options_;
  std::uint64_t seed_;
};

class DistributedEngine final : public Engine {
 public:
  DistributedEngine(const std::vector<Circuit>& circuits,
                    DistributedSimulator& sim, ScheduleOptions options,
                    std::uint64_t seed, quasar::ckpt::CheckpointWriter* writer)
      : circuits_(circuits), sim_(sim), options_(options), seed_(seed),
        writer_(writer) {}
  std::size_t circuits() const override { return circuits_.size(); }
  void reset() override { sim_.init_basis(0); }
  SolveParts solve(SolveOutput& out) override {
    out.circuit = next_++ % circuits_.size();
    const Circuit& circuit_ = circuits_[out.circuit];
    const std::uint64_t bytes0 = sim_.stats().bytes_sent_per_rank;
    SolveParts p;
    quasar::Rng rng(seed_);
    const double start = now_s();
    std::optional<Schedule> schedule;
    p.schedule = timed([&] { schedule = make_schedule(circuit_, options_); });
    p.run = timed([&] {
      if (writer_ == nullptr) {
        sim_.run(circuit_, *schedule);
        return;
      }
      quasar::CheckpointedRun ckpt;
      ckpt.writer = writer_;
      ckpt.rng = &rng;
      sim_.run(circuit_, *schedule, ckpt);
      // The run is only restartable once its final snapshot is on disk.
      writer_->wait_idle();
    });
    p.norm = timed([&] { out.norm = sim_.norm_squared(); });
    p.entropy = timed([&] { out.entropy = sim_.entropy(); });
    p.sample = timed([&] { out.samples = sim_.sample(kSamples, rng); });
    p.total = now_s() - start;
    out.bytes_per_rank = sim_.stats().bytes_sent_per_rank - bytes0;
    return p;
  }

 private:
  const std::vector<Circuit>& circuits_;
  std::size_t next_ = 0;
  DistributedSimulator& sim_;
  ScheduleOptions options_;
  std::uint64_t seed_;
  quasar::ckpt::CheckpointWriter* writer_;
};

/// Flops and DRAM bytes of the schedule's cluster sweeps, computed from
/// their widths: a dense k-qubit cluster costs 8 * 2^k flops per
/// amplitude, a diagonal one 6; each sweep reads and writes the state.
struct KernelWork {
  double flops = 0.0;
  double bytes = 0.0;
};
KernelWork kernel_work(const Schedule& schedule) {
  KernelWork w;
  const double amps = std::ldexp(1.0, schedule.num_qubits);
  for (const quasar::Stage& stage : schedule.stages) {
    for (const quasar::Cluster& c : stage.clusters) {
      w.flops += amps * (c.diagonal ? 6.0 : 8.0 * std::ldexp(1.0, c.width()));
      w.bytes += amps * 2.0 * sizeof(quasar::Amplitude);
    }
  }
  return w;
}

/// The common output checks of a phase: norm, entropy and cross-entropy
/// of the last solve (whose state the simulator still holds), identical
/// outputs whenever a circuit is solved again and, for distributed runs,
/// every solve's per-rank swap volume against its circuit's schedule.
void check_outputs(RunResult& result, const Phase& phase, int n,
                   const std::vector<std::size_t>& gates,
                   const std::function<double(std::uint64_t)>& probability,
                   const XebMoments& moments,
                   const std::vector<std::uint64_t>& expected_bytes) {
  const SolveOutput& last = phase.outputs.back();
  const std::string norm_why = check_norm(last.norm, gates[last.circuit],
                                          false);
  result.expect(norm_why.empty(), norm_why);
  result.expect(check_entropy(last.entropy, n).empty(),
                check_entropy(last.entropy, n));
  const double xeb = linear_xeb(last.samples, n, probability);
  const std::string xeb_why = check_xeb(xeb, moments, n, last.samples.size());
  result.expect(xeb_why.empty(), xeb_why);
  std::cerr << "perfbench: entropy " << last.entropy << " (Porter-Thomas "
            << porter_thomas_entropy(n) << "), cross-entropy " << xeb
            << " (expected " << moments.expected(n) << ")\n";
  std::map<std::size_t, const SolveOutput*> first;
  for (const SolveOutput& out : phase.outputs) {
    const SolveOutput& ref = *first.emplace(out.circuit, &out).first->second;
    result.expect(out.norm == ref.norm && out.entropy == ref.entropy &&
                      out.samples == ref.samples,
                  "repeat solves of one circuit gave different outputs");
    if (!expected_bytes.empty()) {
      const std::string why = check_bytes_per_rank(
          out.bytes_per_rank, expected_bytes[out.circuit]);
      result.expect(why.empty(), why);
    }
  }
}

/// The end-to-end metrics of an untraced phase. Times are each circuit's
/// median over its solves, averaged over the run's circuits; the rate is
/// the amp-gates of one solve of every circuit over the sum of their
/// median slots (solve plus reset), i.e. the throughput of a typical
/// round.
void set_end_to_end(RunResult& result, const Phase& phase, double setup_s,
                    int n, const std::vector<std::size_t>& gates) {
  double amp_gates = 0.0;
  for (const std::size_t g : gates) {
    amp_gates += static_cast<double>(g) * std::ldexp(1.0, n);
  }
  const double circuits = static_cast<double>(gates.size());
  result.set("setup_s", setup_s);
  result.set("solve_s", phase.typical(&SolveParts::total));
  result.set("amp_gate_rate",
             amp_gates / (phase.typical(&SolveParts::slot) * circuits) / 1e9);
  result.set("cpu_s_per_solve", phase.typical(&SolveParts::cpu));
  result.set("peak_rss_mib", phase.peak_rss_mib);
}

/// Per-layer metrics common to every in-process workload.
void set_common_layers(RunResult& result, const Phase& untraced,
                       const Phase& traced, double parse_s, double init_s,
                       double triad_gbs, const Prediction& model) {
  result.set("circuit.parse_s", parse_s);
  result.set("simulator.init_s", init_s);
  result.set("host.triad_gbs", triad_gbs);
  result.set("measure.norm_s", traced.typical(&SolveParts::norm));
  result.set("measure.entropy_s", traced.typical(&SolveParts::entropy));
  result.set("measure.sample_s", traced.typical(&SolveParts::sample));
  result.set("perfmodel.solve_over_model",
             untraced.typical(&SolveParts::run) / model.total);
  result.set("obs.trace_overhead_s",
             traced.typical(&SolveParts::total) -
                 untraced.typical(&SolveParts::total));
}

void set_kernel_layers(RunResult& result, double stages, double clusters,
                       const KernelWork& work, double gate_s,
                       double triad_gbs) {
  result.set("sched.stages", stages);
  result.set("sched.clusters", clusters);
  result.set("kernels.gate_s", gate_s);
  result.set("kernels.gflops", work.flops / gate_s / 1e9);
  result.set("kernels.flops_per_byte", work.flops / work.bytes);
  result.set("kernels.bw_frac", work.bytes / gate_s / 1e9 / triad_gbs);
}

/// The `count` circuits a run cycles through, so that its figures do not
/// hang on one circuit's qubit mapping: rows x cols grids, circuit seeds
/// seed * count + i. `parse_s` gets the mean time to parse one.
std::vector<Circuit> make_circuits(int rows, int cols, std::uint64_t seed,
                                   std::uint64_t count, double& parse_s) {
  std::vector<Circuit> circuits;
  parse_s = 0.0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::string text = supremacy_text(rows, cols, seed * count + i);
    parse_s +=
        timed([&] { circuits.push_back(quasar::circuit_from_string(text)); });
  }
  parse_s /= static_cast<double>(count);
  return circuits;
}

/// One untimed solve before the timed phase, counted in set-up.
void warm_up(Engine& engine) {
  SolveOutput out;
  engine.reset();
  engine.solve(out);
}

}  // namespace

RunResult run_single_node(const Options& o) {
  RunResult result;
  const double triad = o.trace ? stream_triad_gbs() : 0.0;
  double parse_s = 0.0;
  const std::vector<Circuit> circuits =
      make_circuits(kSingleRows, kSingleCols, o.seed, kSingleCircuits, parse_s);
  const int n = circuits.front().num_qubits();
  std::unique_ptr<StateVector> state;
  const double init_s = timed([&] {
    state = std::make_unique<StateVector>(n);
    state->set_basis_state(0);
  });
  std::vector<std::size_t> gates;
  for (const Circuit& c : circuits) gates.push_back(c.num_gates());

  FusedEngine engine(circuits, *state, quasar::FusedRunOptions{}, o.seed);
  warm_up(engine);
  const double setup_s = since_start_s();
  const Phase untraced =
      run_phase(engine, o.trace ? o.seconds / 2 : o.seconds, {});
  set_end_to_end(result, untraced, setup_s, n, gates);
  result.attempted = untraced.solves.size();
  const StateVector& s = *state;
  XebMoments moments;
  moments.add(s.data(), s.size());
  check_outputs(result, untraced, n, gates,
                [&](std::uint64_t x) { return s.probability(x); }, moments,
                {});

  if (o.trace) {
    Phase traced;
    SpanTotals spans;
    {
      Traced trace;
      traced = run_phase(engine, o.seconds / 2, {});
      trace.stop();
      spans = trace.spans();
    }
    result.attempted += traced.solves.size();
    check_outputs(result, traced, n, gates,
                  [&](std::uint64_t x) { return s.probability(x); },
                  [&] {
                    XebMoments m;
                    m.add(s.data(), s.size());
                    return m;
                  }(),
                  {});
    // The schedules run_fused builds for itself with its defaults.
    ScheduleOptions fused;
    fused.num_local = n;
    fused.kmax = quasar::FusedRunOptions{}.kmax;
    fused.qubit_mapping = quasar::FusedRunOptions{}.qubit_mapping;
    const double solves = static_cast<double>(traced.solves.size());
    double stages = 0.0, clusters = 0.0, flops = 0.0, bytes = 0.0;
    double schedule_s = 0.0;
    Prediction model;
    for (const Circuit& c : circuits) {
      std::optional<Schedule> schedule;
      schedule_s += timed([&] { schedule = make_schedule(c, fused); });
      const double share = 1.0 / static_cast<double>(circuits.size());
      stages += static_cast<double>(schedule->stages.size()) * share;
      clusters += static_cast<double>(schedule->num_clusters()) * share;
      const KernelWork work = kernel_work(*schedule);
      flops += work.flops * share;
      bytes += work.bytes * share;
      const Prediction p = predict(c, *schedule, triad);
      model.total += p.total * share;
      model.exchange += p.exchange * share;
    }
    result.set("sched.schedule_s",
               schedule_s / static_cast<double>(circuits.size()));
    const double gate_s = traced.typical(&SolveParts::run);
    set_kernel_layers(result, stages, clusters, KernelWork{flops, bytes},
                      gate_s, triad);
    set_common_layers(result, untraced, traced, parse_s, init_s, triad,
                      model);
    result.set("runtime.permute_s", spans.self("permute") / solves);
    // What the default qubit mapping costs: one more run of the first
    // circuit without it.
    quasar::FusedRunOptions unmapped;
    unmapped.qubit_mapping = false;
    state->set_basis_state(0);
    const double unmapped_s =
        timed([&] { quasar::run_fused(*state, circuits[0], unmapped); });
    result.set("kernels.mapping_cost",
               untraced.per_circuit(&SolveParts::run).front() / unmapped_s);
    ++result.attempted;
    const std::string why = check_norm(state->norm_squared(),
                                       circuits[0].num_gates(), false);
    result.expect(why.empty(), "unmapped run_fused: " + why);
  }

  check_reduced(
      result, o.seed, "run_fused",
      [](const Circuit& c) {
        StateVector small(c.num_qubits());
        small.set_basis_state(0);
        quasar::run_fused(small, c);
        return to_amps(small);
      },
      kAmpTolFp64);
  return result;
}

namespace {

/// Shared body of distributed_virtual, distributed_proc and out_of_core.
struct DistributedSetup {
  int rows = 4;
  int cols = 6;
  int local = 20;
  std::uint64_t circuits = 4;
  TransportKind transport = TransportKind::kVirtual;
  bool out_of_core = false;
};

StorageOptions storage_for(const DistributedSetup& d,
                           const std::string& directory) {
  StorageOptions storage;
  if (d.out_of_core) {
    storage.medium = quasar::StorageMedium::kOocore;
    storage.codec = quasar::oocore::Codec::kRaw;
    storage.directory = directory;
  }
  return storage;
}

RunResult run_distributed_workload(const Options& o,
                                   const DistributedSetup& d) {
  RunResult result;
  const double triad = o.trace ? stream_triad_gbs() : 0.0;
  const std::string ooc_dir = "ooc";
  const std::string ckpt_dir = "ckpt";
  if (d.out_of_core) {
    std::filesystem::create_directories(ooc_dir);
    std::filesystem::create_directories(ckpt_dir);
  }
  const StorageOptions storage = storage_for(d, ooc_dir);

  double parse_s = 0.0;
  const std::vector<Circuit> circuits =
      make_circuits(d.rows, d.cols, o.seed, d.circuits, parse_s);
  const int n = circuits.front().num_qubits();

  std::unique_ptr<DistributedSimulator> sim;
  const double init_s = timed([&] {
    sim = std::make_unique<DistributedSimulator>(
        n, d.local, quasar::ApplyOptions{}, storage, d.transport);
    sim->init_basis(0);
  });
  const std::vector<pid_t> ranks =
      d.transport == TransportKind::kProc ? child_pids()
                                          : std::vector<pid_t>{};
  if (d.transport == TransportKind::kProc) {
    result.expect(static_cast<int>(ranks.size()) == sim->num_ranks(),
                  "expected one child process per rank, found " +
                      std::to_string(ranks.size()));
  }

  ScheduleOptions options;
  options.num_local = d.local;
  options.kmax = 5;
  options.specialization = quasar::SpecializationMode::kWorstCase;

  std::unique_ptr<quasar::ckpt::CheckpointWriter> writer;
  if (d.out_of_core) {
    quasar::ckpt::CheckpointOptions ck;
    ck.directory = ckpt_dir;
    writer = std::make_unique<quasar::ckpt::CheckpointWriter>(ck);
  }
  DistributedEngine engine(circuits, *sim, options, o.seed, writer.get());
  warm_up(engine);
  const double setup_s = since_start_s();
  const Phase untraced =
      run_phase(engine, o.trace ? o.seconds / 2 : o.seconds, ranks);

  std::vector<Schedule> schedules;
  std::vector<std::size_t> gates;
  std::vector<std::uint64_t> expected_bytes;
  for (const Circuit& c : circuits) {
    schedules.push_back(make_schedule(c, options));
    gates.push_back(c.num_gates());
    expected_bytes.push_back(expected_bytes_per_rank(
        schedules.back(), sizeof(quasar::Amplitude)));
  }
  set_end_to_end(result, untraced, setup_s, n, gates);
  result.attempted = untraced.solves.size();

  const DistributedSimulator& simref = *sim;
  const auto probability = [&](std::uint64_t x) {
    return simref.probability(x);
  };
  const auto state_moments = [&] {
    XebMoments moments;
    for (int r = 0; r < sim->num_ranks(); ++r) {
      moments.add(sim->rank_slice(r), sim->local_size());
    }
    return moments;
  };
  check_outputs(result, untraced, n, gates, probability, state_moments(),
                expected_bytes);

  Phase traced;
  if (o.trace) {
    SpanTotals spans;
    double chunks = 0.0;
    double oocore[4] = {0, 0, 0, 0};
    double ckpt_bytes = 0.0;
    double ckpt_write_ns = 0.0;
    const std::uint64_t alltoalls0 = sim->stats().alltoalls;
    {
      Traced trace;
      traced = run_phase(engine, o.seconds / 2, ranks);
      trace.stop();
      spans = trace.spans();
      chunks = trace.histogram_count(quasar::obs::names::kCommExchangeChunkNs);
      oocore[0] = trace.counter(quasar::obs::names::kOocoreIoNs) * 1e-9;
      oocore[1] = trace.counter(quasar::obs::names::kOocoreStallNs) * 1e-9;
      oocore[2] = trace.counter(quasar::obs::names::kOocoreComputeNs) * 1e-9;
      oocore[3] = trace.counter(quasar::obs::names::kOocoreDiskBytes);
      ckpt_bytes = trace.counter(quasar::obs::names::kCkptBytesWritten);
      ckpt_write_ns = trace.counter(quasar::obs::names::kCkptWriteNs);
    }
    result.attempted += traced.solves.size();
    check_outputs(result, traced, n, gates, probability, state_moments(),
                  expected_bytes);
    const double solves = static_cast<double>(traced.solves.size());
    result.set("sched.schedule_s", traced.typical(&SolveParts::schedule));

    // Plan counts, computed kernel work and model predictions averaged
    // over the traced solves' circuits.
    double stages = 0.0, clusters = 0.0, flops = 0.0, bytes = 0.0;
    double swap_bytes = 0.0;
    Prediction model;
    for (const SolveOutput& out : traced.outputs) {
      const Schedule& sc = schedules[out.circuit];
      stages += static_cast<double>(sc.stages.size()) / solves;
      clusters += static_cast<double>(sc.num_clusters()) / solves;
      const KernelWork work = kernel_work(sc);
      flops += work.flops / solves;
      bytes += work.bytes / solves;
      swap_bytes += static_cast<double>(out.bytes_per_rank) / solves;
      const Prediction p = predict(circuits[out.circuit], sc, triad);
      model.total += p.total / solves;
      model.exchange += p.exchange / solves;
    }
    // Segmented storage streams gate sweeps through the out-of-core
    // pipeline, which counts its compute time instead of opening
    // gate_run spans.
    const double gate_s =
        d.out_of_core
            ? oocore[2] / solves
            : (spans.self("gate_run") - spans.self("gate_run/global_op")) /
                  solves;
    set_kernel_layers(result, stages, clusters, KernelWork{flops, bytes},
                      gate_s, triad);
    set_common_layers(result, untraced, traced, parse_s, init_s, triad,
                      model);
    const double exchange_s = spans.self("exchange") / solves;
    result.set("runtime.exchange_s", exchange_s);
    result.set("runtime.permute_s", spans.self("permute") / solves);
    result.set("runtime.global_op_s",
               spans.self("gate_run/global_op") / solves);
    result.set("runtime.exchange_over_model", exchange_s / model.exchange);
    result.set("runtime.alltoalls",
               static_cast<double>(sim->stats().alltoalls - alltoalls0) /
                   solves);
    result.set("runtime.bytes_per_rank", swap_bytes);
    result.set("runtime.exchange_chunks", chunks / solves);
    if (chunks > 0) {
      result.set("runtime.bytes_per_chunk",
                 swap_bytes * sim->num_ranks() * solves / chunks);
    }
    if (d.out_of_core) {
      result.set("oocore.io_s", oocore[0] / solves);
      result.set("oocore.stall_s", oocore[1] / solves);
      result.set("oocore.compute_s", oocore[2] / solves);
      result.set("oocore.disk_bytes", oocore[3] / solves);
      result.set("ckpt.snapshot_s",
                 spans.self("checkpoint/snapshot_stage") / solves);
      result.set("ckpt.bytes_written", ckpt_bytes / solves);
      if (ckpt_write_ns > 0) {
        result.set("ckpt.write_gbs", ckpt_bytes / ckpt_write_ns);
      }
    }
  }

  // The state the simulator holds is that of the last solve's circuit.
  const SolveOutput& last = (o.trace ? traced : untraced).outputs.back();
  const Circuit& circuit = circuits[last.circuit];
  const Schedule& schedule = schedules[last.circuit];

  if (d.transport == TransportKind::kProc) {
    // The design promises bit-identical state across transports.
    const std::uint32_t proc_fp = quasar::serve::state_fingerprint(*sim);
    DistributedSimulator virt(n, d.local, quasar::ApplyOptions{}, {},
                              TransportKind::kVirtual);
    virt.init_basis(0);
    virt.run(circuit, schedule);
    result.expect(quasar::serve::state_fingerprint(virt) == proc_fp,
                  "proc state fingerprint differs from the virtual run");
  }

  if (d.out_of_core) {
    // Stop writing, then restart from the newest snapshot (the final
    // boundary) and from the one before it (a mid-run boundary): both
    // must reproduce the uninterrupted state and sample stream.
    writer->close();
    const std::uint32_t want = quasar::serve::state_fingerprint(*sim);
    const std::vector<std::uint64_t>& want_samples = last.samples;
    quasar::ckpt::CheckpointReader reader(ckpt_dir);
    std::optional<quasar::ckpt::LoadedSnapshot> latest;
    std::unique_ptr<DistributedSimulator> fresh;
    quasar::Rng rng(0);
    std::size_t cursor = 0;
    const double resume_s = timed([&] {
      latest = reader.load_latest();
      fresh = std::make_unique<DistributedSimulator>(
          n, d.local, quasar::ApplyOptions{}, storage, d.transport);
      if (latest) cursor = fresh->resume(*latest, circuit, schedule, &rng);
    });
    if (o.trace) result.set("ckpt.resume_s", resume_s);
    result.expect(latest.has_value() && cursor == schedule.stages.size(),
                  "load_latest did not return the final snapshot");
    if (latest) {
      result.expect(quasar::serve::state_fingerprint(*fresh) == want &&
                        fresh->sample(kSamples, rng) == want_samples,
                    "state resumed from the final snapshot differs");
    }
    // Generation names are zero-padded, so name order is commit order.
    std::vector<std::string> generations = reader.generations();
    std::sort(generations.begin(), generations.end());
    result.expect(generations.size() >= 2,
                  "expected two kept snapshot generations");
    if (generations.size() >= 2) {
      fresh.reset();
      const quasar::ckpt::LoadedSnapshot mid =
          reader.load(generations[generations.size() - 2]);
      DistributedSimulator again(n, d.local, quasar::ApplyOptions{}, storage,
                                 d.transport);
      quasar::Rng mid_rng(0);
      quasar::ckpt::CheckpointOptions ck;
      ck.directory = "ckpt-resume";
      quasar::ckpt::CheckpointWriter resume_writer(ck);
      quasar::CheckpointedRun run;
      run.writer = &resume_writer;
      run.rng = &mid_rng;
      run.first_stage = again.resume(mid, circuit, schedule, &mid_rng);
      run.final_snapshot = false;
      again.run(circuit, schedule, run);
      resume_writer.close();
      result.expect(run.first_stage < schedule.stages.size() &&
                        quasar::serve::state_fingerprint(again) == want &&
                        again.sample(kSamples, mid_rng) == want_samples,
                    "state resumed mid-run differs from the uninterrupted "
                    "run");
    }
  }

  // The engine path at a reduced width, against the dense reference.
  const int small_local = kReducedQubits - (n - d.local);
  check_reduced(
      result, o.seed, "distributed engine",
      [&](const Circuit& c) {
        DistributedSimulator small(c.num_qubits(), small_local,
                                   quasar::ApplyOptions{},
                                   storage_for(d, ooc_dir), d.transport);
        small.init_basis(0);
        ScheduleOptions so = options;
        so.num_local = small_local;
        small.run(c, make_schedule(c, so));
        return to_amps(small.gather());
      },
      kAmpTolFp64);
  return result;
}

}  // namespace

RunResult run_distributed(const Options& o, bool proc) {
  DistributedSetup d;
  if (proc) {
    d.rows = 3;
    d.cols = 6;
    d.local = 16;
    d.transport = TransportKind::kProc;
  }
  return run_distributed_workload(o, d);
}

RunResult run_out_of_core(const Options& o) {
  DistributedSetup d;
  d.rows = 4;
  d.cols = 5;
  d.local = 16;
  d.out_of_core = true;
  return run_distributed_workload(o, d);
}

}  // namespace perfbench
