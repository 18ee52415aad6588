"""Scenario runner: load a JSON scenario, execute its checks, emit reports.

A scenario bundles a subject (an immersion with a grid, a curve, a
geodesic-sphere study, an ODE integration, …) with named checks and their
tolerances.  Exit codes: 0 all checks pass, 1 a check failed, 2 the scenario
file is malformed, 3 a numerical error surfaced that the scenario did not
declare as expected.  CSV output is deterministic for a fixed scenario and
seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ambient, curves, hypersurface, iigeom, spheres, variation
from .errors import DegenerateII, GeometryError, ScenarioError, SingularShapeOperator

SCHEMA_VERSION = 1
SCENARIO_DIR = Path(__file__).parent / "scenarios"


# ---------------------------------------------------------------------------
# subject construction
# ---------------------------------------------------------------------------


def build_immersion(desc: dict):
    desc = dict(desc)
    if desc.get("kind") == "geodesic_sphere":
        chart = ambient.chart_from_descriptor(desc["chart"])
        return spheres.geodesic_sphere(chart, np.asarray(desc["center"], float), float(desc["r"]))
    return hypersurface.immersion_from_descriptor(desc)


AMPLITUDES = {
    "one": lambda u: u[0] * 0.0 + 1.0,
    "cos_theta": lambda u: u[0].cos(),
    "cos_theta_shifted": lambda u: u[0].cos() + 1.3,
    "harmonic22": lambda u: (u[0].sin() * u[0].sin()) * (u[1] * 2.0).cos(),
}


@dataclass
class Context:
    scenario: dict
    seed: int
    cache: dict

    def subject(self):
        return self.scenario["subject"]

    def get_immersion(self, idx=0):
        key = ("immersion", idx)
        if key not in self.cache:
            descs = self._immersion_descs()
            self.cache[key] = build_immersion(descs[idx])
        return self.cache[key]

    def _immersion_descs(self):
        sub = self.subject()
        if "immersions" in sub:
            return sub["immersions"]
        return [sub["immersion"]]

    def n_immersions(self):
        return len(self._immersion_descs())

    def get_grid(self, idx=0):
        key = ("grid", idx)
        if key not in self.cache:
            shape = tuple(self.subject()["grid"])
            self.cache[key] = variation.grid_for_immersion(self.get_immersion(idx), shape)
        return self.cache[key]

    def _masked_geo(self, idx=0):
        """II-geometry on the grid with invalid points masked, computed once."""
        key = ("geo", idx)
        if key not in self.cache:
            self.cache[key] = iigeom.ii_geometry(
                self.get_immersion(idx), self.get_grid(idx).nodes, on_error="mask"
            )
        return self.cache[key]

    def get_geo(self, idx=0):
        geo = self._masked_geo(idx)
        if not np.all(geo.valid) and not self.subject().get("allow_invalid", False):
            reason = str(np.asarray(geo.invalid_reason)[~geo.valid][0])
            exc = {
                "singular_shape": SingularShapeOperator,
                "degenerate_ii": DegenerateII,
                "degenerate_frame": DegenerateII,
            }.get(reason, GeometryError)
            raise exc(f"{int(np.sum(~geo.valid))} grid point(s) invalid: {reason}")
        return geo

    def get_report(self, idx=0):
        key = ("report", idx)
        if key not in self.cache:
            self.cache[key] = iigeom.sphere_inequality_report(
                self.get_immersion(idx), self.get_grid(idx).nodes, geo=self._masked_geo(idx)
            )
        return self.cache[key]

    def get_curve(self):
        if "curve" not in self.cache:
            self.cache["curve"] = curves.curve_from_descriptor(self.subject()["curve"])
        return self.cache["curve"]

    def get_chart(self):
        if "chart" not in self.cache:
            self.cache["chart"] = ambient.chart_from_descriptor(self.subject()["chart"])
        return self.cache["chart"]

    def get_sphere_study(self):
        if "study" not in self.cache:
            sub = self.subject()
            chart = self.get_chart()
            center = np.asarray(sub.get("center", [0.0] * chart.dim), float)
            e0 = sub.get("e0")
            if e0 is None:
                g = ambient.metric_value(chart, center)
                e0 = np.zeros(chart.dim)
                e0[0] = 1.0 / math.sqrt(g[0, 0])
            else:
                e0 = np.asarray(e0, float)
            self.cache["study"] = spheres.sphere_remainder_studies(
                chart, center, e0, sub["quantities"], sub["radii"],
            )
        return self.cache["study"]

    def get_ode_solution(self):
        if "ode" not in self.cache:
            sub = self.subject()
            self.cache["ode"] = curves.integrate_ii_minimal(
                sub["ambient"], sub["kappa0"], sub.get("kappa_prime0", 0.0), sub["s_max"]
            )
        return self.cache["ode"]

    def get_first_variation(self, amplitude: str):
        key = ("fv", amplitude)
        if key not in self.cache:
            if amplitude not in AMPLITUDES:
                raise ScenarioError(f"unknown amplitude {amplitude!r}")
            # an invalid point must raise as ii_geometry's default does, so a
            # masked geometry is passed on only when every point is valid
            geo = self._masked_geo()
            self.cache[key] = variation.first_variation_check(
                self.get_immersion(), AMPLITUDES[amplitude], self.get_grid(),
                geo=geo if np.all(geo.valid) else None,
            )
        return self.cache[key]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    value: float
    tolerance: float
    passed: bool
    detail: str = ""

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: value={self.value:.6g} tolerance={self.tolerance:.3g} {self.detail}"


def _agg_over_immersions(ctx, fn):
    return max(fn(i) for i in range(ctx.n_immersions()))


def check_max_abs_h_ii(ctx, params, tol):
    def one(i):
        geo = ctx.get_geo(i)
        return float(np.nanmax(np.abs(geo.h_ii["variational"])))

    return _agg_over_immersions(ctx, one)


def check_h_ii_route_spread(ctx, params, tol):
    def one(i):
        geo = ctx.get_geo(i)
        spread = geo.h_ii_spread
        return float(np.nanmax(spread[geo.valid])) if np.any(geo.valid) else math.nan

    return _agg_over_immersions(ctx, one)


def check_all_points_valid(ctx, params, tol):
    def one(i):
        geo = ctx.get_geo(i)
        return float(np.sum(~geo.valid))

    return _agg_over_immersions(ctx, one)


def check_area_matches(ctx, params, tol):
    which = params.get("functional", "second_form")
    val = variation.area(ctx.get_immersion(), ctx.get_grid(), which)
    return abs(val - float(params["expected"]))


def check_gauss_codazzi(ctx, params, tol):
    def one(i):
        imm = ctx.get_immersion(i)
        nodes = ctx.get_grid(i).nodes
        take = nodes[:: max(1, len(nodes) // int(params.get("max_points", 40)))]
        g, c = hypersurface.gauss_codazzi_residual(imm, take)
        return max(g, c)

    return _agg_over_immersions(ctx, one)


def check_metricity(ctx, params, tol):
    def one(i):
        return float(np.max(ctx.get_geo(i).metricity_residual))

    return _agg_over_immersions(ctx, one)


def check_transport_probe_vs_L(ctx, params, tol):
    imm = ctx.get_immersion()
    u0 = np.asarray(params["base_point"], float)
    w = np.asarray(params["curve_velocity"], float)
    v = np.asarray(params["vector"], float)

    def curve(t):
        return [t * w[k] + u0[k] for k in range(len(u0))]

    geo = iigeom.ii_geometry(imm, u0)
    expect = np.einsum("kij,i,j->k", geo.L, v, w)
    eps = params.get("eps", 2e-2)
    probes = [iigeom.transport_holonomy_probe(imm, curve, v, e) for e in (eps, eps / 2, eps / 4)]
    rich = 2 * probes[2] - probes[1]
    best = 2 * rich - (2 * probes[1] - probes[0])
    return float(np.max(np.abs(best - expect)) / (1 + np.max(np.abs(expect))))


def check_first_variation_gap(ctx, params, tol):
    res = ctx.get_first_variation(params["amplitude"])
    return res.gaps[params.get("which", "area_ii")]


def check_first_variation_slope(ctx, params, tol):
    res = ctx.get_first_variation(params["amplitude"])
    slope = res.slope_area if params.get("which", "area_ii") == "area" else res.slope_area_ii
    return slope


def check_curve_h_ii_max(ctx, params, tol):
    curve = ctx.get_curve()
    s = np.linspace(curve.s_lo, curve.s_hi, int(params.get("samples", 64)))
    return float(np.max(np.abs(curves.h_ii_curve(curve, s))))


def check_curve_kappa_matches(ctx, params, tol):
    curve = ctx.get_curve()
    s = np.linspace(curve.s_lo, curve.s_hi, int(params.get("samples", 32)))
    data = curves.frenet(curve, s)
    return float(np.max(np.abs(data.kappa - float(params["expected"]))))


def check_length_ii_matches(ctx, params, tol):
    curve = ctx.get_curve()
    val = curves.length_ii(curve, curve.s_lo, curve.s_hi)
    return abs(val - float(params["expected"]))


def check_catenary_family_residual(ctx, params, tol):
    worst = 0.0
    for a_par, q_par in params.get("family", [[1.0, 0.0], [2.0, -0.4]]):
        for s in params.get("s_values", [0.0, 0.5, 2.0]):
            w = a_par**2 * (s + q_par) ** 2 + 1.0
            k = a_par / w
            kp = -2 * a_par**3 * (s + q_par) / w**2
            kpp = -2 * a_par**3 / w**2 + 8 * a_par**5 * (s + q_par) ** 2 / w**3
            worst = max(worst, abs(curves.ode_residual(k, kp, kpp, "planar")))
    return worst


def check_ode_matches_family(ctx, params, tol):
    sol = ctx.get_ode_solution()
    expect = curves.catenary_family_kappa(params["A"], params["Q"], sol.s)
    return float(np.max(np.abs(sol.kappa - expect)))


def check_ode_constant_preserved(ctx, params, tol):
    sol = ctx.get_ode_solution()
    return float(np.max(np.abs(sol.kappa - ctx.subject()["kappa0"])))


def check_phi_third_derivative(ctx, params, tol):
    return float(ctx.get_ode_solution().phi_third_deriv_max)


def check_series_slope_min(ctx, params, tol):
    return ctx.get_sphere_study()[params["quantity"]].slope


def check_series_remainder_max(ctx, params, tol):
    study = ctx.get_sphere_study()[params["quantity"]]
    return float(np.max(np.abs(study.remainder)))


def check_numeric_matches_expected(ctx, params, tol):
    study = ctx.get_sphere_study()[params["quantity"]]
    expected = np.asarray(params["expected"], float)
    return float(np.max(np.abs(study.numeric - expected)))


def check_recombination(ctx, params, tol):
    sub = ctx.subject()
    rng = np.random.default_rng(int(sub.get("seed", ctx.seed)))
    worst = 0.0
    dims = sub.get("dims", [3, 4, 5])
    for i in range(int(sub.get("n_jets", 50))):
        f = spheres.synthetic_framed_jet(dims[i % len(dims)], rng)
        worst = max(worst, spheres.h_ii_recombination_error(f))
    return worst


def _flatness_rows(ctx):
    if "flatness" not in ctx.cache:
        rows = []
        for desc in ctx.subject()["charts"]:
            chart = ambient.chart_from_descriptor(desc)
            jet = ambient.curvature_jet(chart, np.zeros(chart.dim), order=0)
            diag = spheres.flatness_diagnostic(jet)
            rows.append((chart.name, diag))
        ctx.cache["flatness"] = rows
    return ctx.cache["flatness"]


def check_flatness_condition(ctx, params, tol):
    # registered twice: "zero" passes below the tolerance, "nonzero" at or above it
    name = params["chart"]
    for cname, diag in _flatness_rows(ctx):
        if cname == name:
            return max(diag["condition_residuals"])
    raise ScenarioError(f"chart {name!r} not in scenario")


def check_weyl_identity(ctx, params, tol):
    return max(diag["weyl_identity_gap"] for _, diag in _flatness_rows(ctx))


def _area_derivative_rows(ctx):
    if "area_derivative" not in ctx.cache:
        chart = ctx.get_chart()
        rows = []
        for r in ctx.subject()["radii"]:
            res = spheres.area_derivative_check(chart, np.zeros(chart.dim), float(r))
            rows.append((float(r), res))
        ctx.cache["area_derivative"] = rows
    return ctx.cache["area_derivative"]


def check_area_derivative_gap(ctx, params, tol):
    return max(res["relative_gap"] for _, res in _area_derivative_rows(ctx))


CHECKS = {
    "max_abs_h_ii": (check_max_abs_h_ii, "max"),
    "h_ii_route_spread": (check_h_ii_route_spread, "max"),
    "all_points_valid": (check_all_points_valid, "max"),
    "area_matches": (check_area_matches, "max"),
    "gauss_codazzi": (check_gauss_codazzi, "max"),
    "metricity": (check_metricity, "max"),
    "transport_probe_vs_L": (check_transport_probe_vs_L, "max"),
    "first_variation_gap": (check_first_variation_gap, "max"),
    "first_variation_slope": (check_first_variation_slope, "min"),
    "curve_h_ii_max": (check_curve_h_ii_max, "max"),
    "curve_kappa_matches": (check_curve_kappa_matches, "max"),
    "length_ii_matches": (check_length_ii_matches, "max"),
    "catenary_family_residual": (check_catenary_family_residual, "max"),
    "ode_matches_family": (check_ode_matches_family, "max"),
    "ode_constant_preserved": (check_ode_constant_preserved, "max"),
    "phi_third_derivative": (check_phi_third_derivative, "max"),
    "series_slope_min": (check_series_slope_min, "min"),
    "series_remainder_max": (check_series_remainder_max, "max"),
    "numeric_matches_expected": (check_numeric_matches_expected, "max"),
    "recombination_max_error": (check_recombination, "max"),
    "flatness_condition_zero": (check_flatness_condition, "max"),
    "flatness_condition_nonzero": (check_flatness_condition, "min"),
    "weyl_identity": (check_weyl_identity, "max"),
    "area_derivative_gap": (check_area_derivative_gap, "max"),
}


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    x = float(x)
    if math.isnan(x):
        return ""
    return format(x, ".17g")


def _fmt_col(col, n: int) -> list:
    """`_fmt` over a numeric column of n entries; None is an empty column."""
    if col is None:
        return [""] * n
    return ["" if v != v else format(v, ".17g") for v in np.asarray(col, dtype=float).tolist()]


def _member_rows(member: int, n: int, cols) -> list:
    """Rows [member, *cols] of n points, each column formatted at once."""
    return [[str(member), *vals] for vals in zip(*(_fmt_col(c, n) for c in cols))]


def _csv_rows(ctx) -> tuple:
    sub = ctx.subject()
    kind = sub["type"]
    if kind in ("immersion", "ensemble") and sub.get("csv_style") == "surface":
        # classical per-point rows: u..., x..., H, detA, lambda...
        header = None
        rows = []
        for i in range(ctx.n_immersions()):
            imm = ctx.get_immersion(i)
            data = hypersurface.surface_point(imm, ctx.get_grid(i).nodes, order=2)
            m, d = imm.param_dim, imm.ambient.dim
            if header is None:
                header = (
                    ["member"] + [f"u{k}" for k in range(m)] + [f"x{k}" for k in range(d)]
                    + ["H", "detA"] + [f"lambda{k}" for k in range(m)]
                )
            cols = [*data.u.T, *data.x.T, data.mean, data.detA, *data.lam.T]
            rows.extend(_member_rows(i, len(data.u), cols))
        return header, rows
    if kind in ("immersion", "ensemble"):
        header = None
        rows = []
        for i in range(ctx.n_immersions()):
            rep = ctx.get_report(i)
            geo = rep.geo
            m = ctx.get_immersion(i).param_dim
            if header is None:
                header = (
                    ["member"] + [f"u{k}" for k in range(m)]
                    + ["H", "detA", "H_II_var", "H_II_gauss", "S_II",
                       "lemma51", "thm52", "thm61", "thm71", "cor7", "status"]
                )
            cols = [
                *rep.u.T, geo.base.mean, geo.base.detA, geo.h_ii["variational"], geo.h_ii["gauss"],
                geo.s_ii, rep.lemma51, rep.thm52, rep.thm61, rep.thm71, rep.cor7,
            ]
            member_rows = _member_rows(i, rep.u.shape[0], cols)
            rows.extend(row + [status] for row, status in zip(member_rows, rep.status))
        return header, rows
    if kind == "curve":
        curve = ctx.get_curve()
        s = np.linspace(curve.s_lo, curve.s_hi, int(sub.get("samples", 64)))
        data = curves.frenet(curve, s)
        h = curves.h_ii_curve(curve, s)
        header = ["s", "kappa", "H_II", "frenet_residual"]
        rows = [
            [_fmt(s[k]), _fmt(data.kappa[k]), _fmt(h[k]), _fmt(data.frenet_residual[k])]
            for k in range(len(s))
        ]
        return header, rows
    if kind == "ode":
        sol = ctx.get_ode_solution()
        stride = max(1, len(sol.s) // int(sub.get("csv_samples", 128)))
        header = ["s", "kappa", "kappa_prime"]
        rows = [
            [_fmt(sol.s[k]), _fmt(sol.kappa[k]), _fmt(sol.kappa_prime[k])]
            for k in range(0, len(sol.s), stride)
        ]
        return header, rows
    if kind == "sphere_study":
        studies = ctx.get_sphere_study()
        header = ["quantity", "r", "numeric", "series", "remainder"]
        rows = []
        for q, study in studies.items():
            for k in range(len(study.radii)):
                rows.append(
                    [q, _fmt(study.radii[k]), _fmt(study.numeric[k]),
                     _fmt(study.series[k]), _fmt(study.remainder[k])]
                )
        return header, rows
    if kind == "first_variation":
        header = ["amplitude", "s", "diff_area", "diff_area_ii", "rhs_area", "rhs_area_ii"]
        rows = []
        for amp in sub.get("amplitudes", ["one"]):
            res = ctx.get_first_variation(amp)
            for k, s in enumerate(res.s_ladder):
                rows.append(
                    [amp, _fmt(s), _fmt(res.diffs_area[k]), _fmt(res.diffs_area_ii[k]),
                     _fmt(res.rhs_area), _fmt(res.rhs_area_ii)]
                )
        return header, rows
    if kind == "recombination":
        return ["n_jets", "dims", "seed"], [
            [str(sub.get("n_jets", 50)), str(sub.get("dims", [3, 4, 5])), str(sub.get("seed", 0))]
        ]
    if kind == "flatness":
        header = ["chart", "Sbar", "riem_norm2", "ricci_norm2", "weyl_norm2", "weyl_identity_gap"]
        rows = [
            [name, _fmt(d["Sbar"]), _fmt(d["riem_norm2"]), _fmt(d["ricci_norm2"]),
             _fmt(d["weyl_norm2"]), _fmt(d["weyl_identity_gap"])]
            for name, d in _flatness_rows(ctx)
        ]
        return header, rows
    if kind == "area_derivative":
        header = ["r", "d_area_ii_dr", "h_ii_integral", "relative_gap"]
        rows = [
            [_fmt(r), _fmt(res["d_area_ii_dr"]), _fmt(res["h_ii_integral"]),
             _fmt(res["relative_gap"])]
            for r, res in _area_derivative_rows(ctx)
        ]
        return header, rows
    raise ScenarioError(f"unknown subject type {kind!r}")


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


def _validate(scenario: dict):
    if not isinstance(scenario, dict):
        raise ScenarioError("scenario must be a JSON object")
    if scenario.get("schema") != SCHEMA_VERSION:
        raise ScenarioError(f"unsupported schema version {scenario.get('schema')!r}")
    for key in ("name", "subject", "checks"):
        if key not in scenario:
            raise ScenarioError(f"scenario missing {key!r}")
    if "type" not in scenario["subject"]:
        raise ScenarioError("subject missing 'type'")
    for chk in scenario["checks"]:
        if chk.get("check") not in CHECKS:
            raise ScenarioError(f"unknown check {chk.get('check')!r}")
        try:
            tol = float(chk.get("tolerance"))
        except (TypeError, ValueError):
            tol = math.nan
        if not tol > 0:
            raise ScenarioError(f"check {chk.get('check')!r} needs a positive tolerance")


def _atomic_write(path: Path, text: str):
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def run_scenario(path, out_dir=None, seed=None, tolerance_scale: float = 1.0) -> int:
    try:
        scenario = json.loads(Path(path).read_text())
        _validate(scenario)
    except (OSError, json.JSONDecodeError, ScenarioError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2

    # precedence: command-line flag > scenario file > default
    effective_seed = seed if seed is not None else int(scenario.get("seed", 0))
    ctx = Context(scenario=scenario, seed=effective_seed, cache={})
    results = []
    expected_error = scenario.get("expect_error")
    try:
        for chk in scenario["checks"]:
            fn, direction = CHECKS[chk["check"]]
            tol = float(chk["tolerance"]) * tolerance_scale
            params = {k: v for k, v in chk.items() if k not in ("check", "tolerance")}
            value = fn(ctx, params, tol)
            passed = (value <= tol) if direction == "max" else (value >= tol)
            results.append(
                CheckResult(chk["check"], float(value), tol, bool(passed), params.get("label", ""))
            )
        header, rows = _csv_rows(ctx)
    except GeometryError as exc:
        if expected_error and type(exc).__name__ == expected_error:
            print(f"[PASS] expected numerical error raised: {type(exc).__name__}")
            return 0
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    out_dir = Path(out_dir) if out_dir else Path.cwd()
    out_dir.mkdir(parents=True, exist_ok=True)
    output = scenario.get("output", {})
    csv_name = output.get("csv", f"{scenario['name']}.csv")
    json_name = output.get("json", f"{scenario['name']}.json")

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write(out_dir / csv_name, buf.getvalue())

    summary = {
        "name": scenario["name"],
        "schema": SCHEMA_VERSION,
        "seed": ctx.seed,
        "tolerance_scale": tolerance_scale,
        "checks": [
            {
                "check": r.name,
                "value": r.value,
                "tolerance": r.tolerance,
                "passed": r.passed,
            }
            for r in results
        ],
        "passed": all(r.passed for r in results),
    }
    _atomic_write(out_dir / json_name, json.dumps(summary, indent=2) + "\n")

    for r in results:
        print(r.line())
        if not r.passed:
            print(f"check failed: {r.name}", file=sys.stderr)
    return 0 if summary["passed"] else 1


def bundled_scenarios():
    return sorted(SCENARIO_DIR.glob("*.json"))


def list_scenarios(as_json: bool = False) -> int:
    entries = []
    for p in bundled_scenarios():
        try:
            data = json.loads(p.read_text())
            entries.append({"name": data.get("name", p.stem), "path": str(p),
                            "description": data.get("description", "")})
        except json.JSONDecodeError:
            entries.append({"name": p.stem, "path": str(p), "description": "(unparseable)"})
    if as_json:
        print(json.dumps(entries, indent=2))
    else:
        width = max((len(e["name"]) for e in entries), default=4)
        for e in entries:
            print(f"{e['name']:<{width}}  {e['description']}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="secondform",
        description="Run second-fundamental-form geometry scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a scenario JSON file")
    runp.add_argument("scenario", help="path to a scenario file or a bundled scenario name")
    runp.add_argument("--out-dir", default=None)
    runp.add_argument("--seed", type=int, default=None)
    runp.add_argument("--tolerance-scale", type=float, default=1.0)
    listp = sub.add_parser("list", help="list bundled scenarios")
    listp.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)

    if args.command == "list":
        return list_scenarios(as_json=args.json)
    path = Path(args.scenario)
    if not path.exists():
        candidate = SCENARIO_DIR / f"{args.scenario}.json"
        if candidate.exists():
            path = candidate
    return run_scenario(
        path, out_dir=args.out_dir, seed=args.seed, tolerance_scale=args.tolerance_scale
    )


if __name__ == "__main__":
    sys.exit(main())
