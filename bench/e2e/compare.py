#!/usr/bin/env python3
"""Compare end-to-end benchmark result sets against BENCHMARK.json bounds.

A result set is a file, or a directory of files, holding the standard
output of run.py; every report line in it is one run. Each run contributes
its per-workload metric values, so a set of ten runs gives ten values per
workload x metric.

    compare.py SET                  spread of one set: median, quartiles,
                                    IQR as a share of the median vs bound
    compare.py BASE HEAD            A/B verdict per workload x metric
    compare.py pairs --base DIR --head DIR --workload W [--pairs 10]
                                    run both checkouts alternately, seeds
                                    1, 2, ... one per pair, for
                                    BENCHMARK.json's run_seconds, and apply
                                    the claim rule

Host timings are noisy, so their A/B verdict compares medians over runs:
improved / unchanged / regressed, or unresolved when either side's spread
exceeds the bound. Simulated outputs are exact for a given seed, so they
are compared seed by seed: identical, or the median per-seed change
judged against the bound. Runs of one seed that disagree are reported as
nondeterministic.

The pairs rule claims a gain on a metric only when the head wins at least
9 of every 10 pairs (ties count for neither) and the medians differ by more
than the base's interquartile range.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent.parent / "BENCHMARK.json"
# Deterministic per seed: a function of the simulation alone.
SIMULATED = ("satisfied_frac", "probes_per_query")


def load_spec():
    """(end-to-end metrics by name, run_seconds) from BENCHMARK.json."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m for m in spec["end_to_end"]}, spec["run_seconds"]


def reports(path):
    """Every run.py report line under `path` (a file or a directory)."""
    path = Path(path)
    files = sorted(p for p in path.iterdir() if p.is_file()) \
        if path.is_dir() else [path]
    out = []
    for f in files:
        for line in f.read_text().splitlines():
            if line.startswith("{") and '"manifest"' in line:
                out.append(json.loads(line))
    if not out:
        sys.exit(f"compare.py: no run.py report lines in {path}")
    return out


def values(runs):
    """{workload: {metric: [(seed, value) per run, ...]}}"""
    table = {}
    for run in runs:
        seed = run["manifest"]["seed"]
        for workload, result in run["workloads"].items():
            for metric, entry in result["end_to_end"].items():
                table.setdefault(workload, {}).setdefault(metric, []).append(
                    (seed, entry["value"]))
    return table


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def spread(xs):
    q1, med, q3 = quartiles(xs)
    return (q3 - q1) / med if med else 0.0


def better(metric, a, b):
    """True if value b is better than value a for this metric."""
    return b > a if metric["better"] == "higher" else b < a


def worse_share(metric, base, head):
    """How much worse head is than base, as a share of base (< 0: better)."""
    if base == 0:
        return 0.0
    delta = (head - base) / base
    return -delta if metric["better"] == "higher" else delta


def by_seed(pairs):
    """{seed: value}, or None when two runs of one seed disagree."""
    out = {}
    for seed, value in pairs:
        if out.setdefault(seed, value) != value:
            return None
    return out


def show_one(table, spec):
    print(f"{'workload':18} {'metric':18} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>8} {'bound/3':>8}")
    flagged = 0
    for workload, metrics in table.items():
        for name, metric in spec.items():
            pairs = metrics.get(name)
            if not pairs:
                continue
            xs = [v for _, v in pairs]
            q1, med, q3 = quartiles(xs)
            s = spread(xs)
            flag = "" if s <= metric["bound"] / 3 else "  WIDE"
            if name in SIMULATED and by_seed(pairs) is None:
                flag += "  NONDETERMINISTIC"
            flagged += bool(flag)
            print(f"{workload:18} {name:18} {len(xs):3d} {med:12.6g} "
                  f"{q1:12.6g} {q3:12.6g} {s:8.4f} {metric['bound'] / 3:8.4f}"
                  f"{flag}")
    return flagged


def judge(metric, share):
    if share > metric["bound"]:
        return "regressed"
    if -share > metric["bound"]:
        return "improved"
    return "unchanged"


def timing_verdict(metric, base_xs, head_xs):
    if max(spread(base_xs), spread(head_xs)) > metric["bound"]:
        if all(better(metric, a, b) for a in base_xs for b in head_xs):
            return "improved"
        return "unresolved"
    return judge(metric, worse_share(metric, statistics.median(base_xs),
                                     statistics.median(head_xs)))


def simulated_verdict(metric, base_pairs, head_pairs):
    """(per-seed median worse share, verdict) over the seeds both ran."""
    base, head = by_seed(base_pairs), by_seed(head_pairs)
    if base is None or head is None:
        return 0.0, "nondeterministic"
    seeds = sorted(base.keys() & head.keys())
    if not seeds:
        return 0.0, "no common seed"
    shares = [worse_share(metric, base[s], head[s]) for s in seeds]
    share = statistics.median(shares)
    if all(base[s] == head[s] for s in seeds):
        return share, "identical"
    return share, judge(metric, share)


def show_ab(base, head, spec):
    print(f"{'workload':18} {'metric':18} {'base median [q1, q3]':>36} "
          f"{'head median [q1, q3]':>36} {'worse':>8} verdict")
    failed = 0
    for workload in base:
        for name, metric in spec.items():
            bp, hp = base[workload].get(name), head.get(workload, {}).get(name)
            if not bp or not hp:
                continue
            bx, hx = [v for _, v in bp], [v for _, v in hp]
            if name in SIMULATED:
                share, v = simulated_verdict(metric, bp, hp)
            else:
                share = worse_share(metric, statistics.median(bx),
                                    statistics.median(hx))
                v = timing_verdict(metric, bx, hx)
            failed += v in ("regressed", "nondeterministic")
            cols = []
            for xs in (bx, hx):
                q1, med, q3 = quartiles(xs)
                cols.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
            print(f"{workload:18} {name:18} {cols[0]:>36} {cols[1]:>36} "
                  f"{share:+8.2%} {v}")
    return failed


def run_checkout(checkout, workload, seed, seconds):
    cmd = [sys.executable, "bench/e2e/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = [l for l in proc.stdout.splitlines() if '"manifest"' in l]
    if proc.returncode != 0 or not lines:
        sys.exit(f"compare.py: {' '.join(cmd)} in {checkout} failed "
                 f"(exit {proc.returncode})")
    return json.loads(lines[-1])["workloads"][workload]["end_to_end"]


def pairs(args, spec, run_seconds):
    if args.pairs < 10:
        sys.exit("compare.py: the claim rule needs at least 10 pairs")
    rows = []
    for i in range(args.pairs):
        seed = 1 + i
        order = [("base", args.base), ("head", args.head)]
        if i % 2:
            order.reverse()
        got = {}
        for side, checkout in order:
            got[side] = run_checkout(checkout, args.workload, seed,
                                     run_seconds)
        rows.append(got)
        print(f"pair {i + 1}/{args.pairs} seed {seed} done ({order[0][0]} "
              "first)", file=sys.stderr)
    print(f"{'metric':18} {'base median [q1, q3]':>36} "
          f"{'head median [q1, q3]':>36} {'wins':>7} claim")
    for name, metric in spec.items():
        if not all(name in r["base"] and name in r["head"] for r in rows):
            continue
        bx = [r["base"][name]["value"] for r in rows]
        hx = [r["head"][name]["value"] for r in rows]
        wins = sum(better(metric, b, h) for b, h in zip(bx, hx))
        bq1, bmed, bq3 = quartiles(bx)
        hq1, hmed, hq3 = quartiles(hx)
        claim = (wins >= 0.9 * len(rows) and better(metric, bmed, hmed)
                 and abs(hmed - bmed) > bq3 - bq1)
        print(f"{name:18} {f'{bmed:.6g} [{bq1:.6g}, {bq3:.6g}]':>36} "
              f"{f'{hmed:.6g} [{hq1:.6g}, {hq3:.6g}]':>36} "
              f"{wins:3d}/{len(rows):<3d} {'gain' if claim else 'no claim'}")


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "pairs":
        parser = argparse.ArgumentParser(prog="compare.py pairs")
        parser.add_argument("--base", type=Path, required=True,
                            help="checkout of the parent commit")
        parser.add_argument("--head", type=Path, required=True,
                            help="checkout of the change")
        parser.add_argument("--workload", required=True)
        parser.add_argument("--pairs", type=int, default=10)
        args = parser.parse_args(sys.argv[2:])
        pairs(args, *load_spec())
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sets", nargs="+", type=Path, help="one or two sets")
    args = parser.parse_args()
    spec, _ = load_spec()
    if len(args.sets) == 1:
        return 1 if show_one(values(reports(args.sets[0])), spec) else 0
    if len(args.sets) == 2:
        base = values(reports(args.sets[0]))
        head = values(reports(args.sets[1]))
        return 1 if show_ab(base, head, spec) else 0
    parser.error("give one or two result sets")


if __name__ == "__main__":
    sys.exit(main())
