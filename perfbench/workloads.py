"""The operations of each workload, built from seeded inputs.

Every operation calls the program through a public entry point
(``cli.run_scenario`` or a public function of ``ambient``, ``spheres`` or
``variation``) and returns what the program returned; its check runs after
the timed call.  Malformed-scenario probes return the exit code the runner
gave, and fail when it is not the documented 2.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import checks
import inputs as inp


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object, dict], list]
    expect_exit: Optional[int] = None  # set on probes only

    @property
    def probe(self) -> bool:
        return self.expect_exit is not None


def _no_check(out, state):
    return []


def run_scenario_code(cli, path: Path, out_dir: Path) -> int:
    """Exit code of one scenario run; an uncaught exception counts as 1, the
    status Python gives a command that dies with a traceback."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return cli.run_scenario(path, out_dir=out_dir)
        except Exception:  # the runner's own contract is what is measured
            return 1


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


def _grid_rows(scenario: dict) -> int:
    sub = scenario["subject"]
    members = len(sub.get("immersions", [sub.get("immersion")]))
    return members * math.prod(sub["grid"])


def _grid_check(name: str, scenario: dict, out_dir: Path):
    sub = scenario["subject"]

    def check(code, state):
        if code != 0:
            return [f"{name}: exit code {code}, expected 0"]
        rows, summary = checks.read_outputs(out_dir, name)
        probs = checks.check_summary(summary)
        if name == "first_variation":
            return probs + checks.check_round_sphere_variation(rows, sub["immersion"]["radius"])
        if name == "clifford_area":
            return probs
        # Theorem 6.1 needs S̄ > 0, so H⁴ points are flagged, not invalid
        allowed = ("ok", "ambient_scalar_nonpositive") if name == "perturbed_h4" else ("ok",)
        probs += checks.check_immersion_rows(rows, _grid_rows(scenario), allowed)
        if name == "clifford":
            probs += checks.check_ii_minimal(rows, mean=0.0, det_a=-1.0)
        elif name == "s3_in_s4":
            probs += checks.check_ii_minimal(rows, mean=1.0, det_a=1.0)
        elif name == "ovaloids":
            probs += checks.check_positive_mean(rows)
        return probs

    return check


def grid_ops(sf, seed: int, work_dir: Path) -> list:
    work_dir.mkdir(parents=True, exist_ok=True)
    ops = []
    for name, scenario, expected in inp.grid_scenarios(seed):
        path = work_dir / f"{name}.scenario.json"
        path.write_text(json.dumps(scenario, indent=1))
        run = (lambda p=path: run_scenario_code(sf.cli, p, work_dir))
        if expected == 2:
            ops.append(Op(name, run, _no_check, expect_exit=2))
        else:
            ops.append(Op(name, run, _grid_check(name, scenario, work_dir)))
    return None, ops


# ---------------------------------------------------------------------------
# sphere
# ---------------------------------------------------------------------------


def sphere_ops(sf, seed: int, work_dir: Path) -> list:
    spheres, variation, ambient = sf.spheres, sf.variation, sf.ambient
    ins = inp.sphere_inputs(seed)
    steps = inp.SPHERE_STEPS
    s3 = ambient.chart_from_descriptor(inp.CURVATURE_CHARTS["s3"])
    bumpy = ambient.chart_from_descriptor(inp.CURVATURE_CHARTS["bumpy_e3"])
    origin = np.zeros(3)
    e0_s3 = np.array([1.0, 0.0, 0.0])
    center = np.array(inp.BUMPY_CENTER)
    g = checks.bumpy_e3_curvature(center)[0]
    e0_bumpy = np.array(inp.BUMPY_DIRECTION)
    e0_bumpy = e0_bumpy / math.sqrt(e0_bumpy @ g @ e0_bumpy)
    r_s3, r_b, r_adc, r_fv = ins["s3_r"], ins["bumpy_r"], ins["adc_r"], ins["fv_r"]
    series = {}

    def prepare():
        # The series route at both radii, made before measuring so that no
        # check calls the program.
        jet = ambient.curvature_jet(bumpy, center, order=2)
        for r in (r_b, r_b / 2):
            series[r] = {q: spheres.series_eval(jet, e0_bumpy, r, q) for q in checks.SLOPE_MIN}

    def remainders(out, r):
        return {q: out[q] - series[r][q] for q in checks.SLOPE_MIN}

    def check_patch_r(out, state):
        state["bumpy_r"] = out
        return checks.routes_agree("bumpy r", out)

    def check_patch_half(out, state):
        probs = checks.routes_agree("bumpy r/2", out)
        if "bumpy_r" not in state:
            return probs + ["bumpy r/2: the radius-r patch gave no output this round"]
        return probs + checks.check_slopes(remainders(state["bumpy_r"], r_b),
                                           remainders(out, r_b / 2))

    def first_variation():
        sphere = spheres.geodesic_sphere(s3, origin, r_fv, n_steps=steps)
        grid = variation.grid_for_immersion(sphere, ins["fv_grid"])
        return variation.first_variation_check(sphere, lambda u: u[0] * 0.0 + 1.0, grid)

    return prepare, [
        Op("s3_whole_sphere",
           lambda: spheres.numeric_sphere_quantities(
               s3, origin, e0_s3, r_s3, want_area=True, n_steps=steps,
               grid_shape=ins["whole_grid"]),
           lambda out, state: checks.check_s3_sphere(out, r_s3)),
        Op("bumpy_patch_r",
           lambda: spheres.numeric_sphere_quantities(
               bumpy, center, e0_bumpy, r_b, want_area=False, n_steps=steps),
           check_patch_r),
        Op("bumpy_patch_half_r",
           lambda: spheres.numeric_sphere_quantities(
               bumpy, center, e0_bumpy, r_b / 2, want_area=False, n_steps=steps),
           check_patch_half),
        Op("s3_area_derivative",
           lambda: spheres.area_derivative_check(
               s3, origin, r_adc, n_steps=steps, grid_shape=ins["adc_grid"]),
           lambda out, state: checks.check_area_derivative(out, r_adc)),
        Op("s3_first_variation", first_variation,
           lambda out, state: checks.check_first_variation(out, r_fv)),
    ]


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


def curvature_ops(sf, seed: int, work_dir: Path) -> list:
    ambient, spheres = sf.ambient, sf.spheres
    ins = inp.curvature_inputs(seed)
    charts = {name: ambient.chart_from_descriptor(desc)
              for name, desc in inp.CURVATURE_CHARTS.items()}
    cbar = {"s3": 1.0, "h3": -1.0, "s4": 1.0}

    def jet_op(name):
        x = ins["points"][name]

        def check(jet, state):
            if name == "bumpy_e3":
                return checks.check_bumpy_jet(jet, x)
            if name == "s2xs2":
                return checks.check_product_jet(jet, x, 2, (1.0, 1.0))
            return checks.check_space_form_jet(jet, x, cbar[name])

        return Op(f"curvature_{name}",
                  lambda: ambient.curvature_jet(charts[name], x, order=2), check)

    def flatness():
        return {name: spheres.flatness_diagnostic(
                    ambient.curvature_jet(charts[name], ins["flat_points"][name], order=0))
                for name in inp.FLATNESS_CHARTS}

    def check_flatness(out, state):
        probs = []
        for name, diag in out.items():
            probs += checks.check_flatness(name, diag)
        return probs

    s3_framed = spheres.FramedJet(**checks.unit_s3_framed_parts())
    r = ins["series_r"]

    def series():
        rng = np.random.default_rng(ins["jets_seed"])
        dims = (3, 4, 5)
        errors = [spheres.h_ii_recombination_error(
                      spheres.synthetic_framed_jet(dims[i % 3], rng))
                  for i in range(inp.N_SYNTHETIC_JETS)]
        s3_series = {q: spheres.series_eval(s3_framed, None, r, q)
                     for q in ("H", "H_II", "Area_II")}
        return {"recombination": errors, "s3_series": s3_series}

    ops = [jet_op(name) for name in inp.CURVATURE_ORDER2]
    ops.append(Op("flatness", flatness, check_flatness))
    ops.append(Op("series", series, lambda out, state: checks.check_series(out, r)))
    return None, ops


# Each function returns (prepare, ops): prepare, when not None, computes
# references from the program after set-up and before measuring.
OPS_FOR = {"grid": grid_ops, "sphere": sphere_ops, "curvature": curvature_ops}

# Jet spaces (nvars, order) each workload builds; set-up fills their tables
# so that no operation pays for them.
JET_SPACES = {
    "grid": [(2, 4), (3, 4)],
    "sphere": [(2, 4), (3, 4)],
    "curvature": [(3, 4), (4, 4)],
}
