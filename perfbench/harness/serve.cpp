// serve_mixed: a quasar_serve daemon (2 workers, UNIX socket) under two
// closed-loop clients of this process. Each client submits rounds of the
// same six 20-qubit jobs, one per circuit of a seeded pool, two fp64 jobs
// with 1000 samples for each fp32 job, so repeats hit the schedule cache.
// Served result lines are checked line-for-line against direct runs of
// the same jobs.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "checks.hpp"
#include "circuit/io.hpp"
#include "core/rng.hpp"
#include "fp32/distributed_f32.hpp"
#include "obs/json.hpp"
#include "runtime/distributed.hpp"
#include "serve/fingerprint.hpp"
#include "serve/protocol.hpp"

namespace perfbench {
namespace {

using quasar::serve::JobSpec;
using quasar::serve::LineChannel;

/// As many clients as workers: jobs run two at a time and none waits in
/// the queue, so a job's latency does not hang on which jobs came first.
constexpr int kClients = 2;
constexpr int kWorkers = 2;
/// Each client's round is one job per pool circuit; circuit i runs on
/// the fp32 engine when i % 3 == 2, otherwise fp64 with samples. Client
/// c starts its rounds at circuit c * kPool / kClients.
constexpr int kPool = 6;
constexpr int kRows = 4;
constexpr int kCols = 5;
constexpr int kSamples = 1000;
constexpr const char* kEndpoint = "unix:serve.sock";
/// The server's default per-job bounce budget (ServeOptions), which the
/// direct reference runs use too.
constexpr std::size_t kBounceBytes = std::size_t{16} << 20;

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct PoolCircuit {
  std::string text;
  std::size_t gates = 0;
};

bool is_fp32(int circuit) { return circuit % 3 == 2; }

/// One submission as the client saw it.
struct JobRecord {
  int client = 0;
  int round = 0;
  int circuit = 0;
  bool fp32 = false;
  bool ok = false;
  double submit = 0.0;
  double queued = -1.0;
  double running = -1.0;  ///< first STATUS state=running, if any
  double result = -1.0;   ///< RESULT line
  double done = -1.0;     ///< DONE line
  std::vector<std::string> lines;  ///< result section, DONE excluded
  std::string error;
};

JobSpec spec_for(int circuit, bool fp32) {
  JobSpec spec;
  spec.engine = fp32 ? "fp32" : "fp64";
  spec.samples = fp32 ? 0 : kSamples;
  spec.seed = 2026 + static_cast<std::uint64_t>(circuit);
  return spec;
}

JobRecord submit(LineChannel& channel, const PoolCircuit& c, int circuit,
                 bool fp32) {
  JobRecord r;
  r.circuit = circuit;
  r.fp32 = fp32;
  std::string request = "SUBMIT " + spec_for(circuit, fp32).to_tokens();
  request += "\n" + c.text + "END";
  r.submit = now_s();
  if (!channel.write_line(request)) {
    r.error = "connection lost while submitting";
    return r;
  }
  std::string line;
  bool in_result = false;
  while (channel.read_line(line)) {
    const double t = now_s();
    if (in_result) {
      if (line.rfind("DONE ", 0) == 0) {
        r.done = t;
        r.ok = true;
        return r;
      }
      r.lines.push_back(line);
    } else if (line.rfind("QUEUED ", 0) == 0) {
      r.queued = t;
    } else if (line.rfind("STATUS ", 0) == 0) {
      if (r.running < 0 && line.find(" state=running") != std::string::npos) {
        r.running = t;
      }
    } else if (line.rfind("RESULT ", 0) == 0) {
      r.result = t;
      in_result = true;
    } else {
      r.error = line;  // REJECTED or ERROR
      return r;
    }
  }
  r.error = "connection closed mid-job";
  return r;
}

/// The daemon as a child process; killed and reaped if still running
/// when this object goes away.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, bool artifacts) {
    std::vector<std::string> args = {binary,         "--endpoint",
                                     kEndpoint,      "--workers",
                                     std::to_string(kWorkers), "--scratch",
                                     "serve-scratch"};
    if (artifacts) {
      args.push_back("--artifacts");
      args.push_back("artifacts");
    }
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    started_ = now_s();
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed for quasar_serve");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(2, 1);  // keep the benchmark's stdout for its result line
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
  }
  ~ServerProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }

  /// Seconds from fork until the daemon answers PING.
  double wait_ready() {
    const quasar::serve::Endpoint endpoint =
        quasar::serve::parse_endpoint(kEndpoint);
    while (now_s() - started_ < 60.0) {
      try {
        LineChannel channel(quasar::serve::connect_endpoint(endpoint));
        std::string line;
        if (channel.write_line("PING") && channel.read_line(line) &&
            line == "PONG") {
          return now_s() - started_;
        }
      } catch (const std::exception&) {
        // not listening yet
      }
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("quasar_serve exited during start-up");
      }
      ::usleep(1000);
    }
    throw std::runtime_error("quasar_serve did not answer PING in 60 s");
  }

  /// Sends `verb` on a fresh connection and returns the reply line.
  static std::string control(const std::string& verb) {
    LineChannel channel(quasar::serve::connect_endpoint(
        quasar::serve::parse_endpoint(kEndpoint)));
    std::string line;
    if (!channel.write_line(verb) || !channel.read_line(line)) return {};
    return line;
  }

  /// SHUTDOWN, then reap; true when the daemon exited 0 within 30 s.
  bool shutdown() {
    control("SHUTDOWN");
    int status = 0;
    for (int i = 0; i < 30000; ++i) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      ::usleep(1000);
    }
    return false;
  }

 private:
  pid_t pid_ = -1;
  double started_ = 0.0;
};

/// One served phase: a fresh daemon, clients until `seconds` pass.
struct ServePhase {
  std::vector<JobRecord> jobs;
  std::vector<JobRecord> warm_up;
  double start_s = 0.0;  ///< fork -> PONG
  double server_cpu_s = 0.0;
  double server_hwm_mib = 0.0;
  double cache_hits = 0.0;
  double cache_misses = 0.0;
  bool clean_exit = false;

  /// SUBMIT to DONE: each pool circuit's median, averaged over the pool.
  double typical_latency() const {
    double sum = 0.0;
    int circuits = 0;
    for (int circuit = 0; circuit < kPool; ++circuit) {
      std::vector<double> values;
      for (const JobRecord& j : jobs) {
        if (j.ok && j.circuit == circuit) values.push_back(j.done - j.submit);
      }
      if (values.empty()) continue;
      sum += median(values);
      ++circuits;
    }
    return circuits == 0 ? 0.0 : sum / circuits;
  }

  /// Served amp-gates per second: for each client, the amp-gates of one
  /// round over its median round time (first SUBMIT to last DONE), summed
  /// over the concurrent clients.
  double amp_gate_rate(const std::vector<PoolCircuit>& pool,
                       double amp_gates_unit) const {
    double round_amp_gates = 0.0;
    for (const PoolCircuit& c : pool) round_amp_gates += c.gates;
    round_amp_gates *= amp_gates_unit;
    double rate = 0.0;
    for (int client = 0; client < kClients; ++client) {
      std::map<int, std::pair<double, double>> rounds;  // first, last
      std::map<int, int> done;
      for (const JobRecord& j : jobs) {
        if (j.client != client || !j.ok) continue;
        auto [it, fresh] = rounds.emplace(j.round,
                                          std::make_pair(j.submit, j.done));
        if (!fresh) {
          it->second.first = std::min(it->second.first, j.submit);
          it->second.second = std::max(it->second.second, j.done);
        }
        ++done[j.round];
      }
      std::vector<double> seconds;
      for (const auto& [round, span] : rounds) {
        if (done[round] == kPool) seconds.push_back(span.second - span.first);
      }
      if (!seconds.empty()) rate += round_amp_gates / median(seconds);
    }
    return rate;
  }

  std::vector<double> latencies(double JobRecord::*from,
                                double JobRecord::*to,
                                int engine = -1) const {
    std::vector<double> values;
    for (const JobRecord& j : jobs) {
      if (!j.ok || j.*from < 0 || j.*to < 0) continue;
      if (engine >= 0 && j.fp32 != (engine == 1)) continue;
      values.push_back(j.*to - j.*from);
    }
    return values;
  }
};

double stats_field(const std::string& line, const std::string& key) {
  const std::size_t at = line.find(" " + key + "=");
  if (at == std::string::npos) return 0.0;
  return std::strtod(line.c_str() + at + key.size() + 2, nullptr);
}

ServePhase serve_phase(const Options& o, const std::vector<PoolCircuit>& pool,
                       double seconds, bool artifacts,
                       const std::function<void()>& before_timed) {
  ServePhase phase;
  ServerProcess server(o.serve_bin, artifacts);
  phase.start_s = server.wait_ready();
  const quasar::serve::Endpoint endpoint =
      quasar::serve::parse_endpoint(kEndpoint);
  std::vector<std::unique_ptr<LineChannel>> channels;
  for (int c = 0; c < kClients; ++c) {
    channels.push_back(std::make_unique<LineChannel>(
        quasar::serve::connect_endpoint(endpoint)));
  }
  // One untimed round over the pool from one client first, so the timed
  // phase starts on a server that has run every job once; it counts in
  // set-up.
  for (int circuit = 0; circuit < kPool; ++circuit) {
    phase.warm_up.push_back(
        submit(*channels[0], pool[circuit], circuit, is_fp32(circuit)));
  }
  before_timed();

  const ProcUsage usage0 = pid_usage(server.pid());
  const double start = now_s();
  std::vector<std::vector<JobRecord>> per_client(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int j = 0; j % kPool != 0 || j == 0 || now_s() - start < seconds;
           ++j) {
        const int circuit = (j + c * kPool / kClients) % kPool;
        JobRecord r =
            submit(*channels[c], pool[circuit], circuit, is_fp32(circuit));
        r.client = c;
        r.round = j / kPool;
        per_client[c].push_back(std::move(r));
        if (!per_client[c].back().ok) break;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const ProcUsage usage1 = pid_usage(server.pid());
  phase.server_cpu_s = usage1.cpu_s() - usage0.cpu_s();
  phase.server_hwm_mib = usage1.hwm_mib;
  channels.clear();

  const std::string stats = ServerProcess::control("STATS");
  phase.cache_hits = stats_field(stats, "cache_hits");
  phase.cache_misses = stats_field(stats, "cache_misses");
  phase.clean_exit = server.shutdown();
  for (auto& records : per_client) {
    for (JobRecord& r : records) phase.jobs.push_back(std::move(r));
  }
  return phase;
}

/// The four result lines of a direct in-process run of one served job.
template <typename Sim>
std::vector<std::string> direct_lines(Sim& sim, const quasar::Circuit& c,
                                      const JobSpec& spec) {
  quasar::ScheduleOptions options;
  options.num_local = c.num_qubits() - 2;
  options.kmax = spec.kmax;
  options.specialization = spec.mode;
  sim.init_basis(0);
  sim.run(c, make_schedule(c, options));
  std::vector<std::string> lines;
  lines.push_back(quasar::serve::format_fingerprint_line(
      quasar::serve::state_fingerprint(sim)));
  lines.push_back(quasar::serve::format_norm_line(sim.norm_squared()));
  lines.push_back(quasar::serve::format_entropy_line(sim.entropy()));
  std::vector<quasar::Index> samples;
  if constexpr (std::is_same_v<Sim, quasar::DistributedSimulator>) {
    quasar::Rng rng(spec.seed);
    if (spec.samples > 0) samples = sim.sample(spec.samples, rng);
  }
  lines.push_back(quasar::serve::format_samples_line(samples));
  return lines;
}

std::vector<std::uint64_t> parse_samples(const std::string& line) {
  std::istringstream in(line);
  std::string word;
  in >> word;  // "samples"
  std::vector<std::uint64_t> samples;
  for (std::uint64_t x; in >> x;) samples.push_back(x);
  return samples;
}

double line_value(const std::string& line) {
  const std::size_t space = line.find(' ');
  return space == std::string::npos
             ? NAN
             : std::strtod(line.c_str() + space + 1, nullptr);
}

/// Checks every served result against a direct run of the same job.
void check_served(RunResult& result, const std::vector<PoolCircuit>& pool,
                  const std::vector<JobRecord>& jobs) {
  const int n = kRows * kCols;
  for (int circuit = 0; circuit < kPool; ++circuit) {
    const quasar::Circuit c = quasar::circuit_from_string(pool[circuit].text);
    for (const bool fp32 : {false, true}) {
      std::vector<const JobRecord*> served;
      for (const JobRecord& j : jobs) {
        if (j.ok && j.circuit == circuit && j.fp32 == fp32) {
          served.push_back(&j);
        }
      }
      if (served.empty()) continue;
      const JobSpec spec = spec_for(circuit, fp32);
      std::vector<std::string> want;
      std::function<double(std::uint64_t)> probability;
      XebMoments moments;
      std::unique_ptr<quasar::DistributedSimulator> sim64;
      if (fp32) {
        quasar::DistributedSimulatorF sim(n, n - 2, 0, kBounceBytes,
                                          quasar::TransportKind::kVirtual);
        want = direct_lines(sim, c, spec);
      } else {
        quasar::StorageOptions storage;
        storage.bounce_buffer_bytes = kBounceBytes;
        sim64 = std::make_unique<quasar::DistributedSimulator>(
            n, n - 2, quasar::ApplyOptions{}, storage,
            quasar::TransportKind::kVirtual);
        want = direct_lines(*sim64, c, spec);
        probability = [&](std::uint64_t x) { return sim64->probability(x); };
        for (int r = 0; r < sim64->num_ranks(); ++r) {
          moments.add(sim64->rank_slice(r), sim64->local_size());
        }
      }
      for (const JobRecord* j : served) {
        const bool same = j->lines.size() >= 4 &&
                          std::equal(want.begin(), want.end(),
                                     j->lines.begin());
        result.expect(same, "served result lines of circuit " +
                                std::to_string(circuit) +
                                (fp32 ? " (fp32)" : " (fp64)") +
                                " differ from the direct run");
      }
      const JobRecord& first = *served.front();
      if (first.lines.size() < 4) continue;
      const std::string norm_why =
          check_norm(line_value(first.lines[1]), pool[circuit].gates, fp32);
      result.expect(norm_why.empty(), "served " + norm_why);
      const std::string entropy_why =
          check_entropy(line_value(first.lines[2]), n);
      result.expect(entropy_why.empty(), "served " + entropy_why);
      if (!fp32) {
        const std::vector<std::uint64_t> samples =
            parse_samples(first.lines[3]);
        const std::string why =
            check_xeb(linear_xeb(samples, n, probability), moments, n,
                      samples.size());
        result.expect(why.empty(), "served " + why);
      }
    }
  }
}

/// Mean per served job of the artifact metrics each job's session wrote.
struct ArtifactTotals {
  double jobs = 0.0;
  double gate_s = 0.0;
  double exchange_s = 0.0;
  double permute_s = 0.0;
  double alltoalls = 0.0;
  double bytes_per_rank = 0.0;
  double chunks = 0.0;
};

double json_at(const quasar::obs::JsonValue& root, const char* section,
               const char* key, const char* field) {
  const quasar::obs::JsonValue* s = root.find(section);
  const quasar::obs::JsonValue* k = s != nullptr ? s->find(key) : nullptr;
  if (k != nullptr && field != nullptr) k = k->find(field);
  return k != nullptr && k->is_number() ? k->number : 0.0;
}

ArtifactTotals read_artifacts(RunResult& result,
                              const std::vector<JobRecord>& jobs) {
  ArtifactTotals t;
  for (const JobRecord& j : jobs) {
    for (const std::string& line : j.lines) {
      if (line.rfind("metrics ", 0) != 0) continue;
      std::ifstream in(line.substr(8));
      const std::string text((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
      const auto root = quasar::obs::parse_json(text);
      result.expect(root.has_value(), "unreadable job artifact " + line);
      if (!root) continue;
      t.jobs += 1;
      t.gate_s += json_at(*root, "spans", "gate_run", "seconds");
      t.exchange_s += json_at(*root, "spans", "exchange", "seconds");
      t.permute_s += json_at(*root, "spans", "permute", "seconds");
      t.alltoalls += json_at(*root, "counters", "comm.alltoalls", nullptr);
      t.bytes_per_rank +=
          json_at(*root, "counters", "comm.bytes_sent_per_rank", nullptr);
      t.chunks +=
          json_at(*root, "histograms", "comm.exchange_chunk_ns", "count");
    }
  }
  return t;
}

}  // namespace

RunResult run_serve_mixed(const Options& o) {
  RunResult result;
  if (o.serve_bin.empty()) throw std::runtime_error("--serve-bin is required");
  const double triad = o.trace ? stream_triad_gbs() : 0.0;
  std::vector<PoolCircuit> pool;
  for (int i = 0; i < kPool; ++i) {
    PoolCircuit c;
    c.text = supremacy_text(kRows, kCols,
                            mix(o.seed * kPool + static_cast<std::uint64_t>(i)));
    c.gates = quasar::circuit_from_string(c.text).num_gates();
    pool.push_back(std::move(c));
  }
  const double amp_gates_unit = std::ldexp(1.0, kRows * kCols);

  double setup_s = 0.0;
  const ServePhase untraced =
      serve_phase(o, pool, o.trace ? o.seconds / 2 : o.seconds, false,
                  [&] { setup_s = since_start_s(); });
  std::vector<JobRecord> all = untraced.jobs;
  all.insert(all.end(), untraced.warm_up.begin(), untraced.warm_up.end());

  const auto account = [&](const ServePhase& phase) {
    for (const JobRecord& j : phase.jobs) {
      ++result.attempted;
      if (!j.ok) {
        ++result.failed;
        std::cerr << "perfbench: served job failed: " << j.error << "\n";
      }
    }
    for (const JobRecord& j : phase.warm_up) {
      result.expect(j.ok, "warm-up job failed: " + j.error);
    }
    result.expect(phase.clean_exit, "quasar_serve did not exit cleanly");
  };
  account(untraced);

  const double jobs = static_cast<double>(untraced.jobs.size());
  result.set("setup_s", setup_s);
  result.set("solve_s", untraced.typical_latency());
  result.set("amp_gate_rate",
             untraced.amp_gate_rate(pool, amp_gates_unit) / 1e9);
  result.set("cpu_s_per_solve", untraced.server_cpu_s / jobs);
  result.set("peak_rss_mib", untraced.server_hwm_mib);

  if (o.trace) {
    const ServePhase traced =
        serve_phase(o, pool, o.seconds / 2, true, [] {});
    account(traced);
    all.insert(all.end(), traced.jobs.begin(), traced.jobs.end());
    all.insert(all.end(), traced.warm_up.begin(), traced.warm_up.end());
    const double traced_jobs = static_cast<double>(traced.jobs.size());
    result.set("serve.start_s", traced.start_s);
    result.set("serve.admit_s", median(traced.latencies(&JobRecord::submit,
                                                        &JobRecord::queued)));
    result.set("serve.queue_s", median(traced.latencies(&JobRecord::queued,
                                                        &JobRecord::running)));
    result.set("serve.exec_s", median(traced.latencies(&JobRecord::running,
                                                       &JobRecord::result)));
    result.set("serve.fp64_exec_s",
               median(traced.latencies(&JobRecord::running,
                                       &JobRecord::result, 0)));
    result.set("serve.fp32_exec_s",
               median(traced.latencies(&JobRecord::running,
                                       &JobRecord::result, 1)));
    const double lookups = traced.cache_hits + traced.cache_misses;
    if (lookups > 0) {
      result.set("serve.cache_hit_ratio", traced.cache_hits / lookups);
    }
    result.set("serve.server_cpu_s_per_job",
               traced.server_cpu_s / traced_jobs);
    result.set("obs.trace_overhead_s",
               traced.typical_latency() - untraced.typical_latency());
    result.set("host.triad_gbs", triad);

    const ArtifactTotals a = read_artifacts(result, traced.jobs);
    if (a.jobs > 0) {
      result.set("kernels.gate_s", a.gate_s / a.jobs);
      result.set("runtime.exchange_s", a.exchange_s / a.jobs);
      result.set("runtime.permute_s", a.permute_s / a.jobs);
      result.set("runtime.alltoalls", a.alltoalls / a.jobs);
      result.set("runtime.bytes_per_rank", a.bytes_per_rank / a.jobs);
      result.set("runtime.exchange_chunks", a.chunks / a.jobs);
    }

    // The layers the server runs before execution, timed in-process on
    // the first pool circuit with the server's scheduling options.
    std::optional<quasar::Circuit> c;
    const double parse_s = [&] {
      const double start = now_s();
      c = quasar::circuit_from_string(pool[0].text);
      return now_s() - start;
    }();
    result.set("circuit.parse_s", parse_s);
    quasar::ScheduleOptions options;
    options.num_local = c->num_qubits() - 2;
    const double start = now_s();
    const quasar::Schedule schedule = make_schedule(*c, options);
    result.set("sched.schedule_s", now_s() - start);
    result.set("sched.stages", static_cast<double>(schedule.stages.size()));
    result.set("sched.clusters", static_cast<double>(schedule.num_clusters()));
    result.set("perfmodel.solve_over_model",
               median(traced.latencies(&JobRecord::running,
                                       &JobRecord::result, 0)) /
                   predict(*c, schedule, triad).total);
  }

  check_served(result, pool, all);

  // Both served engines at a reduced width, against the dense reference.
  const auto small_schedule = [](const quasar::Circuit& c) {
    quasar::ScheduleOptions so;
    so.num_local = c.num_qubits() - 2;
    return make_schedule(c, so);
  };
  check_reduced(
      result, o.seed, "fp64 engine",
      [&](const quasar::Circuit& c) {
        quasar::DistributedSimulator sim(c.num_qubits(), c.num_qubits() - 2,
                                         {}, {},
                                         quasar::TransportKind::kVirtual);
        sim.init_basis(0);
        sim.run(c, small_schedule(c));
        const quasar::StateVector g = sim.gather();
        return std::vector<Amp>(g.data(), g.data() + g.size());
      },
      kAmpTolFp64);
  check_reduced(
      result, o.seed, "fp32 engine",
      [&](const quasar::Circuit& c) {
        quasar::DistributedSimulatorF sim(c.num_qubits(), c.num_qubits() - 2,
                                          0, kBounceBytes,
                                          quasar::TransportKind::kVirtual);
        sim.init_basis(0);
        sim.run(c, small_schedule(c));
        const quasar::StateVectorF g = sim.gather();
        return std::vector<Amp>(g.data(), g.data() + g.size());
      },
      kAmpTolFp32);
  return result;
}

}  // namespace perfbench
