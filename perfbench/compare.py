#!/usr/bin/env python3
"""Compare two sets of perfbench results (parent vs change).

Collect alternating pairs from two checkouts, then compare them:

    python3 perfbench/compare.py collect --parent-root A --change-root B \\
        --out DIR [--trace 0|1]
    python3 perfbench/compare.py compare DIR/parent DIR/change

`collect` runs `python3 perfbench/run.py` in each checkout for every
workload of BENCHMARK.json, MIN_PAIRS pairs each at the benchmark's
run_seconds, alternating which side runs first; both sides of a pair use
the same seed and each pair a new one. Each side builds into its own tree,
DIR/build-<side>, and each run's stdout is saved as
DIR/<side>/<workload>-<pair>.txt.

`compare` pairs the files of each workload by sorted name and judges every
metric of BENCHMARK.json (end-to-end metrics carry a bound; per-layer
metrics of traced runs carry none):

  improved    at least 10 pairs, the change wins at least 9 in 10 of them
              (ties count for neither), and the medians differ by more than
              the parent's own spread (Q3 - Q1)
  worse       end-to-end: the change's median is worse than the parent's by
              more than the metric's bound; per-layer: the mirror image of
              "improved"
  unresolved  fewer than 10 pairs, or the parent's spread (IQR / median) is
              wider than the bound and not every change run beats every
              parent run
  unchanged   everything else

The exit code is 1 when any metric is worse, else 0.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10
WIN_SHARE = 0.9
SEED_BASE = 1000


def load_result(path):
    """(workload, metrics dict name -> value) from one saved run."""
    with open(path, encoding="utf-8") as f:
        lines = [line.strip() for line in f if line.strip()]
    workload = None
    for line in lines:
        if line.startswith("# workload="):
            workload = line.split()[1].split("=", 1)[1]
    result = json.loads(lines[-1])
    if not result.get("correct"):
        raise ValueError(f"{path}: run reported correct=false")
    return workload, {k: v["value"] for k, v in result["metrics"].items()}


def load_set(directory):
    """workload -> list of metric dicts, ordered by file name."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        workload, metrics = load_result(os.path.join(directory, name))
        runs.setdefault(workload, []).append(metrics)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound):
    """One metric of one workload: (verdict, wins, losses)."""
    n = min(len(parent), len(change))
    parent, change = parent[:n], change[:n]
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    if n < MIN_PAIRS:
        return "unresolved", wins, losses
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    iqr = q3 - q1
    gain = sign * (med_c - med_p)
    if wins >= WIN_SHARE * n and gain > iqr:
        return "improved", wins, losses
    if bound is None:
        if losses >= WIN_SHARE * n and -gain > iqr:
            return "worse", wins, losses
        return "unchanged", wins, losses
    spread = iqr / abs(med_p) if med_p else float("inf")
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved", wins, losses
    if -gain > bound * abs(med_p):
        return "worse", wins, losses
    return "unchanged", wins, losses


def compare(parent_dir, change_dir, bench_path):
    with open(bench_path, encoding="utf-8") as f:
        bench = json.load(f)
    specs = [(m["name"], m["better"], m.get("bound")) for m in bench["end_to_end"]]
    specs += [(m["name"], m["better"], None) for m in bench["per_layer"]]
    parent, change = load_set(parent_dir), load_set(change_dir)
    rows, any_worse = [], False
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        for name, better, bound in specs:
            p = [r[name] for r in p_runs if name in r]
            c = [r[name] for r in c_runs if name in r]
            if not p and not c:
                continue
            if not p or not c:
                rows.append((workload, name, "unresolved", "missing on one side"))
                continue
            v, wins, losses = verdict(p, c, better, bound)
            any_worse |= v == "worse"
            q1, q3 = quartiles(p)
            detail = (f"parent {statistics.median(p):.6g} [{q1:.6g}, {q3:.6g}] "
                      f"change {statistics.median(c):.6g} "
                      f"pairs={min(len(p), len(c))} wins={wins} losses={losses}")
            rows.append((workload, name, v, detail))
    for workload, name, v, detail in rows:
        print(f"{workload:18s} {name:34s} {v:10s} {detail}")
    return 1 if any_worse else 0


def collect(args):
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    out = os.path.abspath(args.out)
    sides = {"parent": os.path.abspath(args.parent_root),
             "change": os.path.abspath(args.change_root)}
    for side in sides:
        os.makedirs(os.path.join(out, side), exist_ok=True)
    for workload in [w["name"] for w in bench["workloads"]]:
        for i in range(MIN_PAIRS):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                       "--seed", str(SEED_BASE + i),
                       "--seconds", str(bench["run_seconds"]),
                       "--trace", str(args.trace)]
                env = {**os.environ,
                       "CARGO_TARGET_DIR": os.path.join(out, f"build-{side}")}
                r = subprocess.run(cmd, cwd=sides[side], env=env,
                                   capture_output=True, text=True, check=False)
                if r.returncode != 0:
                    sys.stderr.write(r.stdout[-2000:] + r.stderr[-2000:])
                    print(f"{side} run failed: {workload} pair {i}", file=sys.stderr)
                    return 1
                path = os.path.join(out, side, f"{workload}-{i:02d}.txt")
                with open(path, "w", encoding="utf-8") as f:
                    f.write(r.stdout)
    return 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--parent-root", required=True)
    c.add_argument("--change-root", required=True)
    c.add_argument("--out", required=True)
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    m = sub.add_parser("compare")
    m.add_argument("parent_dir")
    m.add_argument("change_dir")
    m.add_argument("--benchmark", default=os.path.join(HERE, "..", "BENCHMARK.json"))
    args = ap.parse_args(argv)
    if args.cmd == "collect":
        return collect(args)
    return compare(args.parent_dir, args.change_dir, args.benchmark)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
