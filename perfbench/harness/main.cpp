// The perfbench binary: runs one workload for --seconds, checks its outputs
// and prints one JSON object as the last line of stdout. With --trace 0
// it reports the end-to-end metrics of an untraced run; with --trace 1
// the per-layer metrics of a run whose second half is traced.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir> [--serve-bin <path to quasar_serve>]
//
// The working directory (created and removed by run.py) holds every file
// a workload makes: the serve socket, out-of-core segments, checkpoints.
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "core/parse.hpp"

namespace {

using perfbench::RunResult;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Kept in the order and with the units of BENCHMARK.json.
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"solve_s", "s"},
    {"amp_gate_rate", "G-amp-gate/s"},
    {"cpu_s_per_solve", "s"},
    {"peak_rss_mib", "MiB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"circuit.parse_s", "s"},
    {"sched.schedule_s", "s"},
    {"sched.stages", "count"},
    {"sched.clusters", "count"},
    {"kernels.gate_s", "s"},
    {"kernels.gflops", "GFLOP/s"},
    {"kernels.flops_per_byte", "flop/B"},
    {"kernels.bw_frac", "ratio"},
    {"kernels.mapping_cost", "ratio"},
    {"host.triad_gbs", "GB/s"},
    {"runtime.exchange_s", "s"},
    {"runtime.permute_s", "s"},
    {"runtime.global_op_s", "s"},
    {"runtime.alltoalls", "count"},
    {"runtime.bytes_per_rank", "B"},
    {"runtime.exchange_chunks", "count"},
    {"runtime.bytes_per_chunk", "B"},
    {"runtime.exchange_over_model", "ratio"},
    {"simulator.init_s", "s"},
    {"measure.norm_s", "s"},
    {"measure.entropy_s", "s"},
    {"measure.sample_s", "s"},
    {"oocore.io_s", "s"},
    {"oocore.stall_s", "s"},
    {"oocore.compute_s", "s"},
    {"oocore.disk_bytes", "B"},
    {"ckpt.snapshot_s", "s"},
    {"ckpt.bytes_written", "B"},
    {"ckpt.write_gbs", "GB/s"},
    {"ckpt.resume_s", "s"},
    {"serve.start_s", "s"},
    {"serve.admit_s", "s"},
    {"serve.queue_s", "s"},
    {"serve.exec_s", "s"},
    {"serve.fp64_exec_s", "s"},
    {"serve.fp32_exec_s", "s"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.server_cpu_s_per_job", "s"},
    {"perfmodel.solve_over_model", "ratio"},
    {"obs.trace_overhead_s", "s"},
};

int usage() {
  std::cerr << "usage: perfbench --workload <single_node|distributed_virtual|"
               "distributed_proc|serve_mixed|out_of_core> --seed N "
               "--seconds S --trace 0|1 --workdir DIR [--serve-bin PATH]\n";
  return 2;
}

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void print_result(const RunResult& result, bool trace) {
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& m : trace ? kPerLayer : kEndToEnd) {
    const auto it = result.values.find(m.name);
    const double value = it == result.values.end() ? 0.0 : it->second;
    if (!first) json += ", ";
    first = false;
    json += std::string("\"") + m.name + "\": {\"value\": " +
            json_number(value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::mark_process_start();
  perfbench::Options options;
  std::string workdir;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = quasar::parse_uint64(value, "--seed");
      } else if (arg == "--seconds") {
        options.seconds = quasar::parse_double(value, "--seconds");
      } else if (arg == "--trace") {
        options.trace = quasar::parse_int_in_range(value, 0, 1, "--trace");
      } else if (arg == "--workdir") {
        workdir = value;
      } else if (arg == "--serve-bin") {
        options.serve_bin = value;
      } else {
        return usage();
      }
    }
    if (workdir.empty() || options.workload.empty() ||
        !(options.seconds > 0)) {
      return usage();
    }
    if (::chdir(workdir.c_str()) != 0) {
      std::cerr << "perfbench: cannot enter " << workdir << ": "
                << std::strerror(errno) << "\n";
      return 1;
    }

    RunResult result;
    const std::string& w = options.workload;
    if (w == "single_node") {
      result = perfbench::run_single_node(options);
    } else if (w == "distributed_virtual") {
      result = perfbench::run_distributed(options, false);
    } else if (w == "distributed_proc") {
      result = perfbench::run_distributed(options, true);
    } else if (w == "serve_mixed") {
      result = perfbench::run_serve_mixed(options);
    } else if (w == "out_of_core") {
      result = perfbench::run_out_of_core(options);
    } else {
      return usage();
    }
    for (const std::string& why : result.failures) {
      std::cerr << "perfbench: check failed: " << why << "\n";
    }
    print_result(result, options.trace);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
