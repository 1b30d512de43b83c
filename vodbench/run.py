#!/usr/bin/env python3
"""Build vodbench from this checkout and run one benchmark workload.

    python3 vodbench/run.py --workload sim_peak --seed 1 --seconds 20 --trace 0

Run from the root of the repository.  The first call configures and builds
the library and the vodbench program into .bench_build/ (CMake + Ninja); later
calls only rebuild what changed.  The workload runs in its own process, so
its peak RSS is its own.  The program's output is passed through, after a
check that the metrics it printed are exactly the ones BENCHMARK.json
declares for this mode, with the declared units; the last line of output is
the result as one JSON object.  With --trace 1 the spans are also written as
Chrome trace JSON to .bench_build/traces/.

Exit status: 0 when the workload ran (its JSON says whether the outputs were
correct), 1 when the build, the run or the metric check failed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "vodbench")
WORKLOADS = ("plan_library", "sim_peak", "sim_edge_cache", "sa_library")
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def threads():
    """min(4, nproc): the CPUs this process may run on, as nproc counts them."""
    return max(1, min(4, len(os.sched_getaffinity(0))))


def build():
    """Configures (once) and builds the vodbench target; output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("the vodrep sources (CMakeLists.txt, src/) are not next to "
             "vodbench/; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", BUILD, "--target", "vodbench",
                   "-j", str(threads())]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def check_result(result, trace):
    """Problems with the shape of the program's JSON result line."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
    if not result.get("correct"):
        return problems  # a failed run reports no metrics
    declared = declared_metrics(trace)
    printed = result["metrics"]
    for name in sorted(set(declared) - set(printed)):
        problems.append("metric %s declared but not printed" % name)
    for name in sorted(set(printed) - set(declared)):
        problems.append("metric %s printed but not declared" % name)
    for name in sorted(set(declared) & set(printed)):
        if printed[name].get("unit") != declared[name]:
            problems.append("metric %s has unit %r, declared %r" %
                            (name, printed[name].get("unit"), declared[name]))
    return problems


def run_workload(args):
    work_dir = os.path.join(BUILD, "runs", "%s-%d-%d" %
                            (args.workload, args.seed, os.getpid()))
    trace_dir = os.path.join(BUILD, "traces")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir,
           "--trace-out", os.path.join(trace_dir, "%s-seed%d.json" %
                                       (args.workload, args.seed))]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s timed out after %d s" % (args.workload,
                                                   RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("vodbench exited with status %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("vodbench's last line is not JSON: %r" % lines[-1])
    problems = check_result(result, args.trace)
    if problems:
        sys.stderr.write(proc.stdout)
        fail("; ".join(problems))
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes instead of the full workloads")
    args = parser.parse_args()
    build()
    run_workload(args)


if __name__ == "__main__":
    main()
