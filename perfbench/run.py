#!/usr/bin/env python3
"""End-to-end benchmark of the quasar simulator.

Builds the program and the perfbench binary from this checkout (Release,
in .bench_build/perfbench), then runs one workload in a fresh working
directory under .bench_build/tmp that is removed afterwards:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test     # the benchmark's own unit tests

Workloads: single_node, distributed_virtual, distributed_proc,
serve_mixed, out_of_core. The last line of stdout is the result JSON;
build output goes to stderr. See perfbench/README.md.
"""
import argparse
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["single_node", "distributed_virtual", "distributed_proc",
             "serve_mixed", "out_of_core"]


def build(targets):
    """Configures once, then builds `targets`; output goes to stderr."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target"] + targets +
                 ["-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()
    if args.test:
        build(["perfbench_test"])
        sys.exit(subprocess.run(
            [os.path.join(BUILD, "perfbench_test")]).returncode)
    if args.workload is None:
        parser.error("--workload is required")

    build(["perfbench", "quasar_serve_daemon"])
    scratch = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=scratch)
    try:
        command = [os.path.join(BUILD, "perfbench"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--workdir", workdir,
                   "--serve-bin", os.path.join(BUILD, "quasar", "examples",
                                               "quasar_serve")]
        code = subprocess.run(command).returncode
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
