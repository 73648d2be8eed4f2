// Shared pieces of the end-to-end benchmark binary: options, metric
// report, clocks, process accounting and the workload entry points.
#pragma once

#include <sys/types.h>

#include <complex>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace quasar {
class Circuit;
struct Schedule;
}  // namespace quasar

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Path of the quasar_serve daemon binary (serve_mixed only).
  std::string serve_bin;
};

/// One run's outcome: the JSON object printed as the last stdout line.
/// Metrics are pre-seeded with every name of the active set (end-to-end
/// or per-layer), so a metric a workload does not produce reads 0.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;
  std::vector<std::string> failures;  ///< reasons, printed to stderr

  /// Records a check outcome; `ok == false` fails the run with `why`
  /// (the run then reports correct=false).
  void expect(bool ok, const std::string& why);
  void set(const std::string& name, double value);
};

/// Steady-clock seconds since an arbitrary epoch.
double now_s();
/// Seconds since this process started (the start of set-up).
double since_start_s();
void mark_process_start();

double median(std::vector<double> values);

/// CPU and memory readings of one process.
struct ProcUsage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double hwm_mib = 0.0;  ///< VmHWM (peak resident set)
  double cpu_s() const { return user_s + sys_s; }
};
/// This process (getrusage + /proc/self/status).
ProcUsage self_usage();
/// Another process, from /proc/<pid>; all zero once it is gone.
ProcUsage pid_usage(pid_t pid);
/// Live child processes of this process (scan of /proc/<pid>/stat).
std::vector<pid_t> child_pids();
/// Sum of pid_usage over `pids`.
ProcUsage sum_usage(const std::vector<pid_t>& pids);
/// User plus system CPU seconds: of this process (getrusage), and summed
/// over `pids` (/proc/<pid>/stat, clock-tick resolution). Cheap enough to
/// read around every solve.
double self_cpu_s();
double sum_cpu_s(const std::vector<pid_t>& pids);

/// Last-level cache size in bytes as the host reports it (sysfs), or
/// 32 MiB when it does not.
std::size_t llc_bytes();
/// STREAM triad a[i] = b[i] + s*c[i] over three arrays of
/// max(4 x LLC, 64 MiB) each; best of three passes, in GB/s (3 arrays of
/// traffic per pass).
double stream_triad_gbs();

/// Generates the depth-25 supremacy circuit of a rows x cols grid and
/// returns its text (circuit/io.hpp format): the program's only input.
std::string supremacy_text(int rows, int cols, std::uint64_t seed);

/// `obs::predict_stages` totals for one run of `schedule`, with the host
/// model's memory bandwidth calibrated by the run's own triad.
struct Prediction {
  double total = 0.0;
  double exchange = 0.0;
};
Prediction predict(const quasar::Circuit& circuit,
                   const quasar::Schedule& schedule, double triad_gbs);

/// Runs the 12-qubit (3 x 4) circuit of the same family and seed through
/// `run` and compares every amplitude with the dense reference.
void check_reduced(
    RunResult& result, std::uint64_t seed, const std::string& what,
    const std::function<std::vector<std::complex<double>>(
        const quasar::Circuit&)>& run,
    double tolerance);

/// Span self times from a trace session, keyed "category/name" and
/// "category". A span's self time is its duration minus that of its
/// direct children on the same thread.
struct SpanTotals {
  std::map<std::string, double> self_s;
  double self(const std::string& key) const;
};

RunResult run_single_node(const Options& options);
RunResult run_distributed(const Options& options, bool proc);
RunResult run_serve_mixed(const Options& options);
RunResult run_out_of_core(const Options& options);

}  // namespace perfbench
