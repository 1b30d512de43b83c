#!/usr/bin/env python3
"""Self-test of the vodrep benchmark.

    python3 vodbench/selftest.py

Run from the root of the repository.  It builds the benchmark program, then:
  * runs every workload at the tiny self-test size, untraced and traced, and
    asserts that the run is correct and that every metric BENCHMARK.json
    declares for that mode is printed, both in the text lines and in the
    final JSON line, with its declared unit;
  * asserts that the benchmark's layout audit rejects a layout in which one
    video lists the same server twice;
  * asserts that run.py fails, without printing a result, in a directory
    that holds only BENCHMARK.json and vodbench/ (no library sources).
Exits 0 when every assertion holds.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark entry point, for its paths)

FAILURES = []


def expect(condition, message):
    if not condition:
        FAILURES.append(message)
        print("FAIL: " + message)


def run_py(args, cwd=run.ROOT):
    return subprocess.run([sys.executable, os.path.join("vodbench", "run.py")] + args,
                          cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


def check_workload(workload, trace):
    proc = run_py(["--workload", workload, "--seed", "1", "--seconds", "0.2",
                   "--trace", str(trace), "--tiny"])
    label = "%s --trace %d" % (workload, trace)
    expect(proc.returncode == 0, "%s exited %d: %s" %
           (label, proc.returncode, proc.stderr.strip()[-500:]))
    if proc.returncode != 0:
        return
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    expect(result["correct"] and result["failed"] == 0,
           "%s is not correct: %s" % (label, lines[:-1]))
    expect(result["attempted"] >= 1, "%s attempted nothing" % label)
    text = set(lines[:-1])
    for name, unit in run.declared_metrics(trace).items():
        printed = result["metrics"].get(name)
        expect(printed is not None and printed["unit"] == unit,
               "%s: JSON lacks %s [%s]" % (label, name, unit))
        expect(any(line.startswith("metric %s = " % name) and
                   line.endswith(" " + unit) for line in text),
               "%s: no text line for %s [%s]" % (label, name, unit))


def check_audit_rejects_duplicate():
    proc = subprocess.run([run.EXE, "--selftest-audit"], stdout=subprocess.PIPE,
                          text=True, timeout=60)
    expect(proc.returncode == 0 and
           "rejects a duplicated replica: yes" in proc.stdout,
           "the audit check accepted a duplicated replica: " + proc.stdout)


def check_bare_directory_fails():
    bare = os.path.join(run.BUILD, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "vodbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_py(["--workload", "sim_peak", "--seed", "1", "--seconds",
                       "1", "--trace", "0"], cwd=bare)
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               "run.py printed a result without the library sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    run.build()
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_workload(workload, trace)
    check_audit_rejects_duplicate()
    check_bare_directory_fails()
    if FAILURES:
        print("%d self-test assertion(s) failed" % len(FAILURES))
        sys.exit(1)
    print("vodbench self-test passed")


if __name__ == "__main__":
    main()
