"""Run the benchmark over many seeds and summarize each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds S]
                                [--trace 0|1] [--write FILE]

Runs ``run.py`` once per (workload, seed), one after another, and prints
for every metric n, median, quartiles, min and the quartile spread
(q3 - q1) / median next to the metric's bound in BENCHMARK.json.  With
``--write`` it also stores the rows as a baseline file (commit, Python
version, metric, n, median, quartiles, min); for a traced sweep the
file adds the per-layer table that ``run.py`` wrote for each run.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys

import common

RUN = str(common.BENCH / "run.py")


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def git_commit() -> str:
    try:
        p = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True,
                           cwd=common.ROOT, timeout=30)
    except OSError:
        return "unknown"
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def main() -> int:
    with open(common.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write", help="baseline file to write")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    rows, layers, ok = [], {}, True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in seeds:
            p = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                                "--seconds", str(args.seconds), "--trace", str(args.trace)],
                               capture_output=True, text=True, cwd=common.ROOT)
            if p.returncode != 0:
                print(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr}", file=sys.stderr)
                return 1
            result = json.loads(p.stdout.splitlines()[-1])
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{workload} seed {seed}: {result['failed']} failed\n{p.stderr}", file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            if args.trace:
                with open(common.BENCH / "out" / f"trace-{workload}-seed{seed}.json", encoding="utf-8") as fh:
                    layers.setdefault(workload, {})[seed] = json.load(fh)["layers"]
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            rows.append({"workload": workload, "metric": name, "unit": units[name], "n": len(vals),
                         "median": med, "q1": q1, "q3": q3, "min": min(vals), "spread": spread})
            flag = "" if bound is None else ("ok" if spread < bound / 3 else
                                             "WIDE" if spread < bound else "OVER BOUND")
            print(f"{workload:13} {name:44} n={len(vals):2} median={med:<12.6g} q1={q1:<12.6g} "
                  f"q3={q3:<12.6g} min={min(vals):<12.6g} spread={spread:.3f} "
                  f"{'' if bound is None else f'bound={bound} {flag}'}", flush=True)
    if args.write:
        out = {"commit": git_commit(), "python": platform.python_version(),
               "machine": f"{platform.machine()}, {platform.system()}", "seconds": args.seconds,
               "seeds": seeds, "trace": args.trace, "rows": rows}
        if args.trace:
            out["layers_by_seed"] = layers
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
