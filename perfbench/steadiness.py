"""Run the benchmark several times and report each metric's spread.

    python3 perfbench/steadiness.py --workloads grid sphere curvature \
        --seeds 1 2 3 4 5 6 7 8 9 10 [--label A]

Runs are made one after another, cycling through the workloads for each
seed, each measuring for ``run_seconds`` of ``BENCHMARK.json``.  For every
workload and metric it prints the median and the distance between the first
and third quartiles (``statistics.quantiles(v, n=4)``) as a share of the
median, which is what the benchmark's bounds are compared with.  All results
are written to ``perfbench/out/steadiness-<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", default=["grid", "sphere", "curvature"])
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--label", default="runs")
    args = p.parse_args(argv)

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    results = {w: [] for w in args.workloads}
    for seed in args.seeds:
        for w in args.workloads:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr[-1000:]}")
                return 1
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            info = json.loads(lines[-2][len("perfbench: "):])
            results[w].append({"seed": seed, "result": res, "info": info})
            vals = {k: round(v["value"], 4) for k, v in res["metrics"].items()}
            print(f"{w} seed {seed}: correct={res['correct']} failed={res['failed']}/"
                  f"{res['attempted']} {vals} raw={info.get('raw_time_s', 0):.3f}", flush=True)

    out = HERE / "out" / f"steadiness-{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    for w, runs in results.items():
        if len(runs) < 2:
            continue
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            if statistics.median(values) == 0:
                continue
            bound = bounds.get(name)
            note = f" bound {bound}" if bound is not None else ""
            print(f"{w:9s} {name:28s} median {statistics.median(values):10.4f} "
                  f"IQR/median {spread(values):.4f}{note}")
        shares = {r["result"]["failed"] / r["result"]["attempted"] for r in runs}
        print(f"{w:9s} failed share(s): {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
