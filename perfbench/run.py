"""Benchmark of the secondform engine: three seeded workloads, one command.

    python3 perfbench/run.py --workload {grid,sphere,curvature} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout.  The command starts one fresh worker
process for the workload, which sets up (imports the package from ``src``,
writes or draws its seeded inputs, fills the jet-space tables), then runs
whole rounds of the workload's operations for about S seconds.  Each
operation is timed between two runs of a calibration kernel (see
``calib.py``) and its output is checked after the timed call.  With
``--trace 0`` four more processes only set up, so that set-up time is a
median of five; with ``--trace 1`` the worker wraps the package's public
calls in spans (see ``tracing.py``) and reports per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
starts with ``perfbench:`` and carries the raw (not speed-normalised)
figures.  Run details go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("grid", "sphere", "curvature")
SETUP_PROCESSES = 5  # the worker's own set-up plus four set-up-only processes
MIN_ROUNDS = 3
SETUP_TIMEOUT_S = 20

END_TO_END_UNITS = {"time_s": "s", "op_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# (metric, unit, source): source is ("calls"|"counts"|"name_s"|"self_s", key)
PER_LAYER = [
    ("jets.mul_calls", "count", ("calls", "jets.mul")),
    ("jets.madds", "count", ("counts", "jets.madds")),
    ("jets.compose_calls", "count", ("calls", "jets.compose")),
    ("jets.inv_calls", "count", ("calls", "jets.inv")),
    ("ambient.curvature_jet_calls", "count", ("calls", "ambient.curvature_jet")),
    ("ambient.curvature_jet_s", "s", ("name_s", "ambient.curvature_jet")),
    ("ambient.exp_map_calls", "count", ("calls", "ambient.exp_map")),
    ("ambient.exp_map_s", "s", ("name_s", "ambient.exp_map")),
    ("ambient.rk4_steps", "count", ("counts", "ambient.rk4_steps")),
    ("ambient.rk4_point_steps", "count", ("counts", "ambient.rk4_point_steps")),
    ("hypersurface.frame_jets_calls", "count", ("calls", "hypersurface.frame_jets")),
    ("hypersurface.frame_jets_points", "count", ("counts", "hypersurface.frame_jets_points")),
    ("hypersurface.frame_jets_s", "s", ("name_s", "hypersurface.frame_jets")),
    ("iigeom.ii_geometry_calls", "count", ("calls", "iigeom.ii_geometry")),
    ("iigeom.ii_geometry_points", "count", ("counts", "iigeom.ii_geometry_points")),
    ("iigeom.ii_geometry_s", "s", ("name_s", "iigeom.ii_geometry")),
    ("variation.area_calls", "count", ("calls", "variation.area")),
    ("variation.first_variation_check_s", "s", ("name_s", "variation.first_variation_check")),
    ("spheres.numeric_sphere_quantities_s", "s", ("name_s", "spheres.numeric_sphere_quantities")),
    ("spheres.area_derivative_check_s", "s", ("name_s", "spheres.area_derivative_check")),
    ("cli.run_scenario_s", "s", ("name_s", "cli.run_scenario")),
    ("cli.csv_rows_s", "s", ("name_s", "cli._csv_rows")),
] + [(f"{layer}.self_s", "s", ("self_s", layer)) for layer in tracing.LAYERS]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("main", "worker", "setup"), default="main")
    p.add_argument("--work-dir", type=Path, default=None)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


def set_up(workload: str, seed: int, work_dir: Path):
    """Import the package, build the seeded operations and fill the jet-space
    tables.  Returns (prepare, ops, raw seconds); the caller brackets it with
    kernel timings."""
    import workloads

    t0 = time.perf_counter()
    from secondform import ambient, cli, jets, spheres, variation  # timed import

    sf = SimpleNamespace(ambient=ambient, cli=cli, jets=jets, spheres=spheres,
                         variation=variation)
    prepare, ops = workloads.OPS_FOR[workload](sf, seed, work_dir)
    for nvars, order in workloads.JET_SPACES[workload]:
        jets.jet_space(nvars, order)
    return prepare, ops, time.perf_counter() - t0


def timed_set_up(args):
    import calib

    for _ in range(5):  # the first kernel runs of a process are slow
        calib.kernel_once()
    before = calib.kernel_time()
    prepare, ops, raw = set_up(args.workload, args.seed, args.work_dir)
    after = calib.kernel_time()
    setup = {"raw_s": raw, "kernel_before_s": before, "kernel_after_s": after,
             "norm_s": calib.normalise(raw, before, after)}
    return prepare, ops, setup


def _scaled(stats: dict, factor: float) -> dict:
    out = dict(stats)
    for key in ("name_s", "self_s"):
        out[key] = {k: v * factor for k, v in stats[key].items()}
    out["root_s"] = stats["root_s"] * factor
    return out


def measure(ops, seconds: float, tracer=None) -> list:
    """Whole rounds of every op until about `seconds` have passed."""
    import calib

    rounds = []
    start = time.perf_counter()
    while True:
        state, recs = {}, []
        for op in ops:
            gc.collect()
            if tracer is not None:
                tracer.take()
            before = calib.kernel_time()
            t0 = time.perf_counter()
            error = None
            try:
                if tracer is not None:
                    with tracer.span(f"bench.{op.name}", "bench"):
                        out = op.run()
                else:
                    out = op.run()
            except Exception as exc:  # counted as a failed operation
                out, error = None, f"{type(exc).__name__}: {exc}"
            raw = time.perf_counter() - t0
            after = calib.kernel_time()
            norm = calib.normalise(raw, before, after)
            rec = {"op": op.name, "raw_s": raw, "norm_s": norm,
                   "kernel_before_s": before, "kernel_after_s": after, "probe": op.probe}
            if op.probe:
                rec["exit_code"] = out
                rec["failed"] = out != op.expect_exit
                rec["problems"] = []
            else:
                # an operation that should succeed and raises makes the run incorrect
                rec["failed"] = error is not None
                rec["problems"] = [error] if error else op.check(out, state)
            if tracer is not None:
                rec["trace"] = _scaled(tracer.take(), norm / raw if raw > 0 else 1.0)
            del out
            recs.append(rec)
        rounds.append(recs)
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def end_to_end(rounds: list) -> dict:
    per_op = {}
    for recs in rounds:
        for rec in recs:
            if not rec["probe"] and not rec["failed"]:
                per_op.setdefault(rec["op"], []).append(rec)
    norm = {op: statistics.median(r["norm_s"] for r in recs) for op, recs in per_op.items()}
    raw = {op: statistics.median(r["raw_s"] for r in recs) for op, recs in per_op.items()}
    return {
        "time_s": sum(norm.values()),
        "op_p50_s": statistics.median(norm.values()),
        "raw_time_s": sum(raw.values()),
        "raw_op_p50_s": statistics.median(raw.values()),
        "per_op_norm_s": norm,
        "per_op_raw_s": raw,
    }


def per_layer(rounds: list) -> tuple:
    """Per-round layer metrics and the self-time identity residual."""
    total = {"calls": {}, "counts": {}, "name_s": {}, "self_s": {}}
    root_s = 0.0
    distinct = 0
    for recs in rounds:
        for rec in recs:
            t = rec["trace"]
            for kind in total:
                for k, v in t[kind].items():
                    total[kind][k] = total[kind].get(k, 0) + v
            root_s += t["root_s"]
            distinct += t["distinct_points"]
    n = len(rounds)
    metrics = {}
    for name, unit, (kind, key) in PER_LAYER:
        metrics[name] = {"value": total[kind].get(key, 0) / n, "unit": unit}
    points = total["counts"].get("iigeom.ii_geometry_points", 0)
    metrics["iigeom.recompute_ratio"] = {"value": points / distinct if distinct else 0.0,
                                         "unit": "ratio"}
    metrics["trace.total_s"] = {"value": root_s / n, "unit": "s"}
    residual = abs(sum(total["self_s"].values()) - root_s)
    return metrics, residual / root_s if root_s else 0.0


def worker(args) -> dict:
    prepare, ops, setup = timed_set_up(args)
    if prepare is not None:
        prepare()
    tracer = uninstall = None
    if args.trace:
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
    try:
        rounds = measure(ops, args.seconds, tracer)
    finally:
        if uninstall is not None:
            uninstall()
    return {"setup": setup, "rounds": rounds,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


# ---------------------------------------------------------------------------
# main side
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, role: str, work_dir: Path, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--role", role, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir)]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))  # stay in the checkout
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "blas_threads": child_env()["OPENBLAS_NUM_THREADS"], "nproc": os.cpu_count(),
            "git_sha": sha}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role != "main":
        if args.role == "worker":
            print(json.dumps(worker(args)))
        else:
            print(json.dumps({"setup": timed_set_up(args)[2]}))
        return 0

    if not (SRC / "secondform" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'secondform'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT / f"work-{tag}-{os.getpid()}"
    try:
        # at least MIN_ROUNDS rounds, the last one's overshoot and set-up
        detail = run_child(args, "worker", work_dir, 3 * args.seconds + 60)
        setups = [detail["setup"]]
        if not args.trace:
            for k in range(SETUP_PROCESSES - 1):
                setups.append(run_child(args, "setup", work_dir / f"setup{k}",
                                        SETUP_TIMEOUT_S)["setup"])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    rounds = detail["rounds"]
    recs = [rec for recs in rounds for rec in recs]
    problems = [f"{rec['op']}: {p}" for rec in recs for p in rec["problems"]]
    if args.trace:
        metrics, residual = per_layer(rounds)
        if residual > 1e-9:
            problems.append(f"layer self times miss the traced total by {residual:.3g}")
        raw = {}
    elif all(rec["probe"] or rec["failed"] for rec in recs):
        print("perfbench: no operation succeeded; nothing to time", file=sys.stderr)
        return 1
    else:
        e2e = end_to_end(rounds)
        setup_norm = statistics.median(s["norm_s"] for s in setups)
        values = {"time_s": e2e["time_s"], "op_p50_s": e2e["op_p50_s"], "setup_s": setup_norm,
                  "peak_rss_mb": detail["peak_rss_mb"]}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        raw = {"raw_time_s": e2e["raw_time_s"], "raw_op_p50_s": e2e["raw_op_p50_s"],
               "raw_setup_s": statistics.median(s["raw_s"] for s in setups),
               "per_op_norm_s": e2e["per_op_norm_s"], "per_op_raw_s": e2e["per_op_raw_s"]}
    result = {"correct": not problems, "attempted": len(recs),
              "failed": sum(rec["failed"] for rec in recs), "metrics": metrics}
    info = {"workload": args.workload, "seed": args.seed, "rounds": len(rounds), **raw,
            "failed_ops": sorted({rec["op"] for rec in recs if rec["failed"]}),
            "problems": problems[:20]}
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {"result": result, "info": info, "environment": environment(), "setups": setups,
         "rounds": rounds}, indent=1, default=str))
    print("perfbench: " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
