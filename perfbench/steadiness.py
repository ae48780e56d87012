#!/usr/bin/env python3
"""Steadiness self-check of the benchmark.

    python3 perfbench/steadiness.py [--workloads a,b] [--runs 10] [--seed0 100]

Runs each workload --runs times through run.py, each run on its own seed,
and reports for every end-to-end metric the spread of its values (the
distance between the first and third quartile as a share of the median)
against the bound BENCHMARK.json gives it. It also runs a second, disjoint
seed range and compares the two medians, which shows that no metric hangs
on one set of inputs. The runs of the two sets alternate, so a slow spell
of the machine falls on both sets alike instead of looking like a seed
effect. Exits 1 if any spread or any median shift exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=100)
    parser.add_argument("--second-set", type=int, default=1,
                        help="also run a second seed range (1) or not (0)")
    parser.add_argument("--verbose", action="store_true",
                        help="also print every run's value")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    for wi, workload in enumerate(args.workloads.split(",")):
        runs = [[] for _ in range(1 + args.second_set)]
        for i in range(args.runs):
            for s, set_runs in enumerate(runs):
                seed = args.seed0 + 1000 * s + 100 * wi + i
                set_runs.append(run_once(workload, seed, bench["run_seconds"]))
        sets = [{name: [r[name] for r in set_runs] for name in bounds}
                for set_runs in runs]
        print(f"{workload}:")
        for name, bound in bounds.items():
            sp = spread(sets[0][name])
            line = (f"  {name:12s} median {statistics.median(sets[0][name]):.6g}"
                    f" spread {sp:.3f} (bound {bound}, target < {bound / 3:.3f})")
            if sp > bound:
                ok = False
                line += "  SPREAD OVER BOUND"
            if len(sets) > 1:
                m1 = statistics.median(sets[0][name])
                m2 = statistics.median(sets[1][name])
                shift = (m2 - m1) / m1
                line += f"; second seeds median {m2:.6g} ({shift:+.3f})"
                if abs(shift) > bound:
                    ok = False
                    line += "  MEDIAN MOVED"
            print(line, flush=True)
            if args.verbose:
                for values in sets:
                    print("    " + " ".join(f"{v:.6g}" for v in values[name]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
