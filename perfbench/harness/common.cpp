#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench.hpp"
#include "checks.hpp"
#include "circuit/io.hpp"
#include "circuit/supremacy.hpp"
#include "core/aligned.hpp"
#include "obs/report.hpp"
#include "perfmodel/comm_model.hpp"
#include "perfmodel/machine.hpp"

namespace perfbench {
namespace {

double g_process_start = 0.0;

/// Sums `key:` lines of a /proc status file (values in kB or counts).
std::uint64_t status_field(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0 && line[key.size()] == ':') {
      return std::strtoull(line.c_str() + key.size() + 1, nullptr, 10);
    }
  }
  return 0;
}

/// Fields after the command name of /proc/<pid>/stat ("state ppid ...").
std::vector<std::string> stat_fields(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const std::size_t paren = text.rfind(')');
  std::vector<std::string> fields;
  if (paren == std::string::npos) return fields;
  std::istringstream rest(text.substr(paren + 1));
  for (std::string field; rest >> field;) fields.push_back(field);
  return fields;
}

}  // namespace

void RunResult::expect(bool ok, const std::string& why) {
  if (ok) return;
  correct = false;
  failures.push_back(why);
}

void RunResult::set(const std::string& name, double value) {
  values[name] = value;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void mark_process_start() { g_process_start = now_s(); }

double since_start_s() { return now_s() - g_process_start; }

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

ProcUsage self_usage() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  ProcUsage u;
  u.user_s = usage.ru_utime.tv_sec + usage.ru_utime.tv_usec * 1e-6;
  u.sys_s = usage.ru_stime.tv_sec + usage.ru_stime.tv_usec * 1e-6;
  u.hwm_mib = status_field("/proc/self/status", "VmHWM") / 1024.0;
  return u;
}

double self_cpu_s() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_utime.tv_sec + usage.ru_utime.tv_usec * 1e-6 +
         usage.ru_stime.tv_sec + usage.ru_stime.tv_usec * 1e-6;
}

double sum_cpu_s(const std::vector<pid_t>& pids) {
  const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
  double total = 0.0;
  for (const pid_t pid : pids) {
    const std::vector<std::string> fields = stat_fields(pid);
    if (fields.size() < 13) continue;
    total += (std::strtod(fields[11].c_str(), nullptr) +
              std::strtod(fields[12].c_str(), nullptr)) / tick;
  }
  return total;
}

ProcUsage pid_usage(pid_t pid) {
  ProcUsage u;
  const std::vector<std::string> fields = stat_fields(pid);
  // After ')': state(0) ppid(1) ... utime(11) stime(12), in clock ticks.
  if (fields.size() < 13) return u;
  const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
  u.user_s = std::strtod(fields[11].c_str(), nullptr) / tick;
  u.sys_s = std::strtod(fields[12].c_str(), nullptr) / tick;
  const std::string dir = "/proc/" + std::to_string(pid);
  u.hwm_mib = status_field(dir + "/status", "VmHWM") / 1024.0;
  return u;
}

std::vector<pid_t> child_pids() {
  std::vector<pid_t> children;
  const std::string self = std::to_string(::getpid());
  DIR* dir = ::opendir("/proc");
  if (dir == nullptr) return children;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] < '0' || entry->d_name[0] > '9') continue;
    const pid_t pid = static_cast<pid_t>(std::atoi(entry->d_name));
    const std::vector<std::string> fields = stat_fields(pid);
    if (fields.size() > 1 && fields[1] == self && fields[0] != "Z") {
      children.push_back(pid);
    }
  }
  ::closedir(dir);
  std::sort(children.begin(), children.end());
  return children;
}

ProcUsage sum_usage(const std::vector<pid_t>& pids) {
  ProcUsage total;
  for (const pid_t pid : pids) {
    const ProcUsage u = pid_usage(pid);
    total.user_s += u.user_s;
    total.sys_s += u.sys_s;
    total.hwm_mib += u.hwm_mib;
  }
  return total;
}

std::size_t llc_bytes() {
  std::size_t best = 0;
  for (int index = 0; index < 8; ++index) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    std::ifstream level_in(base + "/level");
    std::ifstream size_in(base + "/size");
    int level = 0;
    std::string size;
    if (!(level_in >> level) || !(size_in >> size) || size.empty()) continue;
    std::size_t bytes = std::strtoull(size.c_str(), nullptr, 10);
    if (size.back() == 'K') bytes <<= 10;
    if (size.back() == 'M') bytes <<= 20;
    if (level >= 2 && bytes > best) best = bytes;
  }
  return best > 0 ? best : std::size_t{32} << 20;
}

double stream_triad_gbs() {
  const std::size_t bytes = std::max(4 * llc_bytes(), std::size_t{64} << 20);
  const std::size_t count = bytes / sizeof(double);
  quasar::AlignedVector<double> a(count), b(count), c(count);
  const std::int64_t n = static_cast<std::int64_t>(count);
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    a[i] = 0.0;
    b[i] = 1.0;
    c[i] = 2.0;
  }
  double best = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    const double s = 0.5 + pass;
    const double start = now_s();
#pragma omp parallel for schedule(static)
    for (std::int64_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
    const double gbs = 3.0 * static_cast<double>(bytes) / (now_s() - start) /
                       1e9;
    best = std::max(best, gbs);
  }
  if (a[n / 2] != 1.0 + 2.5 * 2.0) std::cerr << "triad: wrong result\n";
  return best;
}

std::string supremacy_text(int rows, int cols, std::uint64_t seed) {
  quasar::SupremacyOptions options;
  options.rows = rows;
  options.cols = cols;
  options.depth = 25;
  options.seed = seed;
  return quasar::circuit_to_string(quasar::make_supremacy_circuit(options));
}

Prediction predict(const quasar::Circuit& circuit,
                   const quasar::Schedule& schedule, double triad_gbs) {
  quasar::MachineModel host = quasar::host_machine(false);
  host.dram_bw_gbs = triad_gbs;
  host.fast_bw_gbs = triad_gbs;
  Prediction p;
  for (const quasar::obs::StagePrediction& s : quasar::obs::predict_stages(
           circuit, schedule, host, quasar::aries_dragonfly())) {
    p.total += s.total_seconds();
    p.exchange += s.exchange_seconds;
  }
  return p;
}

void check_reduced(
    RunResult& result, std::uint64_t seed, const std::string& what,
    const std::function<std::vector<std::complex<double>>(
        const quasar::Circuit&)>& run,
    double tolerance) {
  const std::string text = supremacy_text(3, 4, seed);
  const std::string why = check_amplitudes(
      run(quasar::circuit_from_string(text)), dense_simulate(text), tolerance);
  result.expect(why.empty(), what + " at 12 qubits: " + why);
}

double SpanTotals::self(const std::string& key) const {
  const auto it = self_s.find(key);
  return it == self_s.end() ? 0.0 : it->second;
}

}  // namespace perfbench
