#!/usr/bin/env python3
"""Run the benchmark's workloads repeatedly and report how steady they are.

    python3 bench/steady.py                       # 10 runs of every workload
    python3 bench/steady.py --seeds 1 --workloads fig1_scatter
    python3 bench/steady.py --trace 1 --seeds 7,7  # two traced runs, same seed

Each run is a fresh ``bench/run.py`` process; consecutive seeds alternate
the workload order, so a slow stretch of the host does not always hit the
same workload. For every workload and metric it prints the median, the
quartiles (``statistics.quantiles(n=4)``) and the spread, the quartile
distance as a share of the median, next to the metric's bound from
``BENCHMARK.json``, and the same for the timing metrics before they are
scaled to the reference host speed. Each run's host-speed readings (the
probe, a fixed numpy + Python loop, timed first, last and its median) are
printed beside it. With ``--trace 1`` it also checks that every count-type
layer metric is identical across runs of the same seed. Exits 1 if any run
failed or a count differed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"
# layer metrics that count work; they must repeat exactly for a given seed
EXACT_UNITS = {"count/item", "ratio", "gflop/item"}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        return {"workload": workload, "seed": seed, "exit": proc.returncode, "result": None}
    return {"workload": workload, "seed": seed, "exit": 0,
            "info": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="results JSON (default: bench/results/steady-<time>.json)")
    args = parser.parse_args(argv)
    names = args.workloads.split(",")
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    runs, ok = [], True
    for index, seed in enumerate(seeds):
        for name in (names if index % 2 == 0 else names[::-1]):
            run = run_once(name, seed, spec["run_seconds"], args.trace)
            runs.append(run)
            if run["result"] is None or not run["result"]["correct"]:
                ok = False
                print(f"{name:20s} seed {seed:4d}  FAILED (exit {run['exit']})", flush=True)
                continue
            res, host = run["result"], run["info"]["probe_ms"]
            shown = "  ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()
                              if args.trace == 0)
            print(f"{name:20s} seed {seed:4d}  attempted={res['attempted']} "
                  f"failed={res['failed']} rounds={run['info']['rounds']}  {shown}  "
                  f"probe_ms={host['first']:.2f}/{host['last']:.2f}/{host['median']:.2f}",
                  flush=True)

    print(f"\n{'workload':20s} {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'bound':>6s}")
    for name in names:
        good = [r for r in runs if r["workload"] == name and r["result"]]
        if not good:
            continue
        shares = {r["result"]["failed"] / r["result"]["attempted"] for r in good}
        for metric, first in good[0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][metric]["value"] for r in good]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(metric)
            flag = ""
            if bound:
                flag = "ok" if spread < bound / 3 else ("WIDE" if spread < bound else "OVER")
            print(f"{name:20s} {metric:34s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.3f} {bound if bound else '':>6} {flag}")
            if args.trace and first["unit"] in EXACT_UNITS:
                for seed in set(seeds):
                    same = {r["result"]["metrics"][metric]["value"]
                            for r in good if r["seed"] == seed}
                    if len(same) > 1:
                        ok = False
                        print(f"  {metric} differs between runs of seed {seed}: {same}")
        for metric in good[0]["info"]["unscaled"]:
            q1, med, q3 = quartiles([r["info"]["unscaled"][metric] for r in good])
            print(f"{name:20s} {metric + ' (unscaled)':34s} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {(q3 - q1) / med:7.3f}")
        q1, med, q3 = quartiles([r["info"]["probe_ms"]["median"] for r in good])
        print(f"{name:20s} {'(probe median ms, not a metric)':34s} {med:12.6g} {q1:12.6g} "
              f"{q3:12.6g}   failed share: {sorted(shares)}")

    out = Path(args.out) if args.out else RESULTS / time.strftime("steady-%Y%m%dT%H%M%S.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(runs, indent=1) + "\n")
    print(f"\nresults: {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
