#!/usr/bin/env python3
"""End-to-end benchmark for guesslib: build, run, check, report.

    python3 bench/e2e/run.py --workload paper-5k --seed 42 --seconds 30
    python3 bench/e2e/run.py --workload all --trace

Builds bench/e2e (Release, in bench/e2e/.build), then runs repetitions of a
workload, each in a fresh single-threaded e2e_bench process. One --seed
stands for INPUTS simulation seeds (INPUTS * seed + j). The bounds in
BENCHMARK.json are judged on the spread across --seed values, and over 40
seeds one seed's probes/query spreads by up to 9% (IQR / median) and its
peak memory by up to 4%; four pooled seeds halve that (baseline.json).
Repetitions cycle through the inputs, at least --reps times each.

The host probe (e2e_host_probe, a fixed workload that uses no library
code) runs before the first repetition and after every one. Each
repetition's wall times are scaled by PROBE_REF_S over the mean of the two
probes around it: host-normalised seconds, which on a shared host drift far
less than wall seconds (README, "Host-speed normalisation"). The report
line keeps the raw wall times and every probe time.

Each end-to-end timing is the mean over the inputs of each input's median
repetition, with min, max and the repetition count: the time of one
simulation in a sweep over the inputs. Simulated outputs (satisfied_frac,
probes_per_query) pool the inputs' counts; they are exact for a given
--seed. --trace replaces the run with untraced repetitions and one traced
process of the first input, which yields the per-layer metrics.

Every repetition is checked: the process succeeded, its conservation
identities held, and its results digest equals that of every other
repetition of the same input (and of the traced run).

Standard output: one JSON report line (run manifest, per-workload
statistics, digests, failures), then the result line
{"correct", "attempted", "failed", "metrics"}. With --trace the result
metrics are the per-layer ones; otherwise the end-to-end ones. Exits 1
when a check failed, 2 when the benchmark could not be built.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD = HERE / ".build"
BINARY = BUILD / "e2e_bench"
PROBE = BUILD / "e2e_host_probe"
WORKLOADS = ["paper-5k", "mr-10k", "lossy-faults-5k", "flood-open-5k"]
INPUTS = 4

# The host probe's median time on the host the bounds were set on (4-vCPU
# KVM guest, Intel Xeon at 2.0 GHz); normalised times are in that host's
# seconds. Changing it rescales every host timing, so it is fixed.
PROBE_REF_S = 0.30

# Host-side metrics of each repetition, with their units, and the power of
# the host factor (reference / probe time) each is scaled by.
TIMINGS = {
    "setup_s": ("s", 1),
    "run_s": ("s", 1),
    "queries_per_s": ("q/s", -1),
    "peak_rss_mb": ("MB", 0),
}
PHASES = ["construct_s", "bootstrap_s", "warmup_s", "measure_s", "collect_s"]
# The end-to-end metrics of the result line: every one that is never zero.
# failed_frac is reported too, but only in the report line.
RESULT_END_TO_END = list(TIMINGS) + ["satisfied_frac", "probes_per_query"]

REP_TIMEOUT_S = 150


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure and build e2e_bench; False if either step fails."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD)],
             ["cmake", "--build", str(BUILD), "--target", "e2e_bench",
              "e2e_host_probe", "-j", jobs]]
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("run.py: build step failed:", " ".join(cmd))
            return False
    return BINARY.exists() and PROBE.exists()


def run_probe():
    """Seconds the host probe took, or None if it failed."""
    try:
        proc = subprocess.run([str(PROBE)], capture_output=True, text=True,
                              timeout=60)
        value = json.loads(proc.stdout)["probe_s"]
    except (subprocess.TimeoutExpired, ValueError, KeyError):
        return None
    if proc.returncode != 0 or not isinstance(value, float) or value <= 0:
        return None
    return value


def run_rep(workload, seed, trace):
    """One e2e_bench process. Returns (record or None, failure messages)."""
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}"]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, [f"{workload}: timed out after {REP_TIMEOUT_S} s"]
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        err = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, [f"{workload}: exit {proc.returncode}: {err[0]}"]
    failures = [f for f in record.get("failures", "").split("; ") if f]
    if proc.returncode != 0 and not failures:
        failures.append(f"exit code {proc.returncode}")
    for key in list(TIMINGS) + PHASES:
        value = record.get(key)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            failures.append(f"{key} is {value!r}")
    return record, [f"{workload} seed {seed}: {f}" for f in failures]


def timing(by_input, key, unit, power):
    """Mean over the inputs of each one's median repetition, plus the range.

    Each sample is scaled by its repetition's host factor to the power."""
    def scaled(r):
        return r[key] * r["host_factor"] ** power
    samples = [scaled(r) for reps in by_input for r in reps]
    value = statistics.fmean(statistics.median(scaled(r) for r in reps)
                             for reps in by_input)
    return {"value": value, "unit": unit, "min": min(samples),
            "max": max(samples), "n": len(samples)}


def run_workload(workload, seed, reps, seconds, trace):
    """Untraced repetitions (plus the traced run with --trace)."""
    seeds = [INPUTS * seed + j for j in range(1 if trace else INPUTS)]
    by_seed = {s: [] for s in seeds}
    min_attempts = reps * len(seeds)
    failures, attempted, failed = [], 0, 0
    start = time.monotonic()
    probes = [run_probe()]
    while attempted < min_attempts or seconds is not None:
        if attempted >= min_attempts:
            elapsed = time.monotonic() - start
            mean = elapsed / attempted
            # A traced process runs the workload twice plus the kernels.
            reserve = 2.0 * mean + 3.0 if trace else 0.0
            if elapsed + mean + reserve > seconds:
                break
        s = seeds[attempted % len(seeds)]
        record, errs = run_rep(workload, s, trace=False)
        probes.append(run_probe())
        attempted += 1
        if None in probes[-2:]:
            errs.append(f"{workload} seed {s}: the host probe failed")
        if errs:
            failed += 1
            failures += errs
        else:
            record["host_factor"] = PROBE_REF_S / statistics.fmean(probes[-2:])
            by_seed[s].append(record)

    inputs = []
    for s, records in by_seed.items():
        digests = sorted({r["digest"] for r in records})
        if len(digests) > 1:
            failures.append(f"{workload}: repetitions of seed {s} disagree: "
                            f"digests {digests}")
            failed += len(records)
        inputs.append({"seed": s, "reps": len(records),
                       "digest": digests[0] if digests else None,
                       "samples": {k: [r[k] for r in records]
                                   for k in list(TIMINGS) + PHASES +
                                   ["host_factor"]}})
    result = {"seed": seed, "inputs": inputs, "probe_s": probes,
              "config": next((r[0]["config"] for r in by_seed.values() if r),
                             None)}
    e2e = {}
    if all(by_seed.values()):
        groups = list(by_seed.values())
        for key in PHASES:
            e2e["phase." + key] = timing(groups, key, "s", 1)
        for key, (unit, power) in TIMINGS.items():
            e2e[key] = timing(groups, key, unit, power)
        first = [records[0] for records in groups]
        completed = sum(r["queries_completed"] for r in first)
        satisfied = sum(r["queries_satisfied"] for r in first)
        probes = sum(r["probes"] for r in first)
        e2e["satisfied_frac"] = {"value": satisfied / completed,
                                 "unit": "fraction", "n": len(first)}
        e2e["probes_per_query"] = {"value": probes / completed,
                                   "unit": "probes", "n": len(first)}
    else:
        failures.append(f"{workload}: an input has no successful repetition")

    if trace:
        record, errs = run_rep(workload, seeds[0], trace=True)
        attempted += 1
        digest = inputs[0]["digest"]
        if not errs and record["digest"] != digest:
            errs = [f"{workload}: traced digest {record['digest']} != "
                    f"untraced digest {digest}"]
        if errs:
            failed += 1
            failures += errs
        elif by_seed[seeds[0]]:
            layers = record["layers"]
            measure = statistics.median(r["measure_s"]
                                        for r in by_seed[seeds[0]])
            layers["trace.overhead_frac"] = {
                "value": layers["driver.measure_s"]["value"] / measure - 1.0,
                "unit": "fraction"}
            result["layers"] = layers
    e2e["failed_frac"] = {"value": failed / attempted, "unit": "fraction",
                          "n": attempted}
    result.update(end_to_end=e2e, attempted=attempted, failed=failed,
                  failures=failures)
    return result


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30,
                             cwd=HERE).stdout
        return out.strip().splitlines()[0] if out.strip() else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def cmake_cache(key):
    try:
        for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return "unknown"


def manifest(args):
    commit = first_line(["git", "rev-parse", "HEAD"])
    dirty = "unknown"
    if commit != "unknown":
        status = subprocess.run(["git", "status", "--porcelain"], cwd=HERE,
                                capture_output=True, text=True).stdout
        dirty = bool(status.strip())
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    build_type = cmake_cache("CMAKE_BUILD_TYPE")
    flags = [cmake_cache("CMAKE_CXX_FLAGS"),
             cmake_cache(f"CMAKE_CXX_FLAGS_{build_type.upper()}")]
    return {
        "commit": commit,
        "dirty": dirty,
        "compiler": compiler,
        "compiler_version": first_line([compiler, "--version"])
        if shutil.which(compiler) else "unknown",
        "build_type": build_type,
        "cxx_flags": " ".join(f for f in flags if f and f != "unknown"),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "min_reps_per_input": args.reps,
        "inputs": 1 if args.trace else INPUTS,
        "seconds": args.seconds,
        "probe_ref_s": PROBE_REF_S,
        "seed": args.seed,
        "trace": bool(args.trace),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--reps", type=int, default=1,
                        help="minimum untraced repetitions of each input")
    parser.add_argument("--seconds", type=float, default=None,
                        help="time budget per workload: repeat while "
                             "another repetition fits")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1], help="add the traced run")
    args = parser.parse_args()
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not build():
        return 2

    names = WORKLOADS if args.workload == "all" else [args.workload]
    workloads = {}
    for name in names:
        log(f"run.py: {name} (seed {args.seed})")
        workloads[name] = run_workload(name, args.seed, args.reps,
                                       args.seconds, args.trace)
    report = {"manifest": manifest(args), "workloads": workloads}
    print(json.dumps(report))

    attempted = sum(w["attempted"] for w in workloads.values())
    failed = sum(w["failed"] for w in workloads.values())
    failures = [f for w in workloads.values() for f in w["failures"]]
    for f in failures:
        log("run.py: FAILED", f)
    metrics = {}
    for name, w in workloads.items():
        prefix = "" if len(workloads) == 1 else name + "."
        if args.trace:
            chosen = w.get("layers", {})
        else:
            chosen = {m: w["end_to_end"][m] for m in RESULT_END_TO_END
                      if m in w["end_to_end"]}
        for metric, entry in chosen.items():
            metrics[prefix + metric] = {"value": entry["value"],
                                        "unit": entry["unit"]}
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
