"""Scenario runner: load a JSON scenario, execute its checks, emit reports.

A scenario bundles a subject (an immersion with a grid, a curve, a
geodesic-sphere study, an ODE integration, …) with named checks and their
tolerances.  Exit codes: 0 all checks pass, 1 a check failed, 2 the scenario
file is malformed (an unknown or missing key of the subject, a descriptor or
a check included: the keys are the `SUBJECTS` builders', the catalog
builders' and the checks' keyword parameters), 3 a numerical error surfaced
that the scenario did not declare as expected (a GeometryError, or any other
exception, such as numpy's LinAlgError on an extreme value; a RuntimeWarning
while the checks or the CSV rows run, which the runner turns into an error;
a check whose value is not finite), reported in one line without a
traceback.
CSV output is deterministic for a fixed scenario and seed.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import re
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Literal, get_args, get_origin

import numpy as np

from . import ambient, curves, hypersurface, iigeom, spheres, variation
from .errors import (
    BadParameters, DegenerateII, GeometryError, ScenarioError, SingularShapeOperator, _lookup,
)
from .iigeom import STACK_MAX_POINTS

SCHEMA_VERSION = 1
SCENARIO_DIR = Path(__file__).parent / "scenarios"


# ---------------------------------------------------------------------------
# subject construction
# ---------------------------------------------------------------------------


def _sphere_chart(desc, whole: bool = False):
    """A Riemannian chart, where geodesic spheres are built, with a default
    sphere grid in its dimension if `whole` spheres are integrated; else BadParameters."""
    chart = ambient.chart_from_descriptor(desc)
    if chart.index != 0:
        raise BadParameters(f"geodesic spheres need a Riemannian chart ('index' 0), got {desc!r}")
    if whole and chart.dim - 1 not in spheres.SPHERE_GRID_SHAPES:
        dims = [m + 1 for m in spheres.SPHERE_GRID_SHAPES]
        raise BadParameters(f"whole geodesic spheres need a chart of dim in {dims}, got {desc!r}")
    return chart


def _geodesic_sphere(chart, center, r):
    chart = _sphere_chart(chart)
    center = _numbers("immersion 'center'", center, (chart.dim,))
    return spheres.geodesic_sphere(chart, center, float(_positive("immersion 'r'", r, ())))


IMMERSIONS = {**hypersurface.IMMERSIONS, "geodesic_sphere": _geodesic_sphere}

AMPLITUDES = {
    "one": lambda u: u[0] * 0.0 + 1.0,
    "cos_theta": lambda u: u[0].cos(),
    "cos_theta_shifted": lambda u: u[0].cos() + 1.3,
    "harmonic22": lambda u: u[0].sin() ** 2 * (u[1] * 2.0).cos(),
}

# closed sets of check parameters (a sphere study has the scalar series and Area_II)
Amplitude = Literal[tuple(AMPLITUDES)]
Area = Literal["area", "area_ii"]
Quantity = Literal[(*spheres.SCALAR_SERIES_QUANTITIES, "Area_II")]


def _choice(what: str, value, allowed):
    """`value`, once it is one of `allowed`; else BadParameters."""
    allowed = tuple(allowed)
    if value not in allowed:
        raise BadParameters(f"{what} must be one of {list(allowed)}, got {value!r}")
    return value


def _count(what: str, value, least: int = 1):
    """`value`, once it is an integer of at least `least`; else BadParameters."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise BadParameters(f"{what} must be an integer of at least {least}, got {value!r}")
    return value


def _numbers(what: str, value, shape):
    """`value` as a non-empty float array of `shape` (−1: any length) whose
    entries are finite numbers (bool is none); else BadParameters."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = np.asarray(None)
    if (arr.dtype.kind not in "iuf" or arr.size == 0 or arr.ndim != len(shape)
            or any(k not in (-1, n) for k, n in zip(shape, arr.shape))
            or not np.all(np.isfinite(arr))):
        dims = "×".join("n" if k < 0 else str(k) for k in shape)
        raise BadParameters(f"{what} must be finite numbers of shape {dims}, got {value!r}")
    return arr.astype(float)


def _positive(what: str, value, shape):
    """`_numbers` whose entries are all > 0; else BadParameters."""
    arr = _numbers(what, value, shape)
    if np.any(arr <= 0):
        raise BadParameters(f"{what} must be > 0, got {value!r}")
    return arr


def _nonempty(key: str, value):
    """The subject's `key` value, once it is a non-empty list (or a default
    tuple); else BadParameters."""
    if not isinstance(value, (list, tuple)) or not value:
        raise BadParameters(f"subject {key!r} must be a non-empty list, got {value!r}")
    return value


class _Subject(dict):
    """The objects a subject builds: reading one its type lacks exits 2."""

    def __missing__(self, key):
        raise ScenarioError(f"subject missing {key!r}")


# Each subject type is a keyword builder: the keys of a subject, besides
# "type", are its builder's parameters, and the defaults are theirs.


def _ensemble(immersions, grid, allow_invalid=False, csv_style="report"):
    imms = [_lookup(IMMERSIONS, "immersion", d) for d in _nonempty("immersions", immersions)]
    return _Subject(
        immersions=imms,
        grids=[variation.grid_for_immersion(imm, grid) for imm in imms],
        allow_invalid=_choice("subject 'allow_invalid'", allow_invalid, (False, True)),
        csv_style=_choice("subject 'csv_style'", csv_style, ("report", "surface")),
    )


def _immersion(immersion, grid, allow_invalid=False, csv_style="report"):
    return _ensemble([immersion], grid, allow_invalid, csv_style)


def _first_variation(immersion, grid, amplitudes=("one",), allow_invalid=False):
    amps = [_choice("subject 'amplitudes'", a, AMPLITUDES) for a in amplitudes]
    return _Subject(_ensemble([immersion], grid, allow_invalid), amplitudes=amps)


def _curve(curve, samples=64):
    samples = _count("subject 'samples'", samples)
    return _Subject(curve=curves.curve_from_descriptor(curve), samples=samples)


def _ode(ambient, kappa0, s_max, kappa_prime0=0.0):
    return _Subject(ambient=ambient, kappa0=float(kappa0), kappa_prime0=float(kappa_prime0),
                    s_max=float(s_max))


def _sphere_study(chart, quantities, radii, center=None, e0=None):
    """`e0` defaults to the unit first coordinate vector at `center` (the origin)."""
    chart = _sphere_chart(chart, whole="Area_II" in quantities)
    center = np.zeros(chart.dim) if center is None else center
    return _Subject(
        chart=chart,
        center=_numbers("subject 'center'", center, (chart.dim,)),
        e0=None if e0 is None else _numbers("subject 'e0'", e0, (chart.dim,)),
        quantities=[_choice("subject 'quantities'", q, get_args(Quantity)) for q in quantities],
        radii=_positive("subject 'radii'", radii, (-1,)).tolist(),
    )


def _flatness(charts):
    """Each chart has dim ≥ 3, which the Weyl-norm identity needs."""
    built = [ambient.chart_from_descriptor(d) for d in _nonempty("charts", charts)]
    if any(chart.dim < 3 for chart in built):
        raise BadParameters(f"flatness diagnostics need charts of dim >= 3, got {charts!r}")
    return _Subject(charts=built)


def _area_derivative(chart, radii):
    radii = _positive("subject 'radii'", radii, (-1,)).tolist()
    return _Subject(chart=_sphere_chart(chart, whole=True), radii=radii)


def _recombination(n_jets=50, dims=(3, 4, 5), seed=None):
    """`seed` defaults to the scenario's."""
    dims = [_count("subject 'dims'", d, least=2) for d in _nonempty("dims", dims)]
    n_jets = _count("subject 'n_jets'", n_jets)
    seed = None if seed is None else _count("subject 'seed'", seed, least=0)
    return _Subject(n_jets=n_jets, dims=dims, seed=seed)


SUBJECTS = {fn.__name__[1:]: fn for fn in (
    _immersion, _ensemble, _first_variation, _curve, _ode, _sphere_study, _flatness,
    _area_derivative, _recombination)}


@dataclass
class Context:
    """A scenario, the objects its subject's `SUBJECTS` builder returns
    (`built`), and the results its checks share."""

    scenario: dict
    seed: int
    cache: dict

    def __post_init__(self):
        self.built = _lookup(SUBJECTS, "subject", self.scenario["subject"], key="type")
        if "seed" in self.built and self.built["seed"] is None:  # the scenario's seed
            self.built["seed"] = _count("scenario 'seed'", self.seed, least=0)

    def _masked_geo(self, idx=0):
        """II-geometry of member `idx` on its grid, invalid points masked.

        Computed once for all members: those that share an ambient chart
        descriptor, a parameter dimension and an orientation run as one
        batch through one ``ii_geometry`` call (``stacked_immersion``), up
        to ``STACK_MAX_POINTS`` points a batch, and each member reads its
        slice of it; a member alone in its batch runs on its own immersion,
        in ``ii_geometry``'s blocks when it is large."""
        if "geos" not in self.cache:
            imms, grids = self.built["immersions"], self.built["grids"]
            groups, open_group = [], {}
            for i, imm in enumerate(imms):
                key = (json.dumps(imm.ambient.descriptor, sort_keys=True), imm.param_dim, imm.orientation)
                group = open_group.get(key)
                if group is None or sum(len(grids[j].nodes) for j in group) + len(grids[i].nodes) > STACK_MAX_POINTS:
                    group = open_group[key] = []
                    groups.append(group)
                group.append(i)
            geos = [None] * len(imms)
            for members in groups:
                if len(members) == 1:
                    (i,) = members
                    geos[i] = iigeom.ii_geometry(imms[i], grids[i].nodes, on_error="mask")
                    continue
                batch, nodes, slices = hypersurface.stacked_immersion(
                    [imms[i] for i in members], [grids[i].nodes for i in members])
                geo = iigeom.ii_geometry(batch, nodes, on_error="mask")
                for i, sl in zip(members, slices):
                    geos[i] = geo.take(imms[i], sl)
            self.cache["geos"] = geos
        return self.cache["geos"][idx]

    def get_geo(self, idx=0):
        geo = self._masked_geo(idx)
        if not np.all(geo.valid) and not self.built["allow_invalid"]:
            reason = str(np.asarray(geo.invalid_reason)[~geo.valid][0])
            exc = {
                "singular_shape": SingularShapeOperator,
                "degenerate_ii": DegenerateII,
            }.get(reason, GeometryError)
            raise exc(f"{int(np.sum(~geo.valid))} grid point(s) invalid: {reason}")
        return geo

    def get_report(self, idx=0):
        key = ("report", idx)
        if key not in self.cache:
            self.cache[key] = iigeom.sphere_inequality_report(
                self.built["immersions"][idx], self.built["grids"][idx].nodes,
                geo=self._masked_geo(idx),
            )
        return self.cache[key]

    def get_sphere_study(self):
        if "study" not in self.cache:
            b = self.built
            chart, center, e0 = b["chart"], b["center"], b["e0"]
            if e0 is None:
                e0 = np.eye(chart.dim)[0] / math.sqrt(ambient.metric_value(chart, center)[0, 0])
            self.cache["study"] = _Subject(spheres.sphere_remainder_studies(
                chart, center, e0, b["quantities"], b["radii"],
            ))
        return self.cache["study"]

    def get_ode_solution(self):
        if "ode" not in self.cache:
            b = self.built
            self.cache["ode"] = curves.integrate_ii_minimal(
                b["ambient"], b["kappa0"], b["kappa_prime0"], b["s_max"]
            )
        return self.cache["ode"]

    def get_first_variation(self, amplitude: str):
        key = ("fv", amplitude)
        if key not in self.cache:
            # an invalid point must raise as ii_geometry's default does, so a
            # masked geometry is passed on only when every point is valid
            geo = self._masked_geo()
            self.cache[key] = variation.first_variation_check(
                self.built["immersions"][0], AMPLITUDES[amplitude], self.built["grids"][0],
                geo=geo if np.all(geo.valid) else None,
            )
        return self.cache[key]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _max_over_geos(ctx, fn):
    return max(fn(ctx.get_geo(i)) for i in range(len(ctx.built["immersions"])))


# Each check takes the context and its parameters as keywords: the keys of a
# check entry, besides "check" and "tolerance", bind to them (`_bind_check`).


def check_max_abs_h_ii(ctx):
    return _max_over_geos(ctx, lambda geo: float(np.nanmax(np.abs(geo.h_ii["variational"]))))


def check_h_ii_route_spread(ctx):
    def one(geo):
        return float(np.nanmax(geo.h_ii_spread[geo.valid])) if np.any(geo.valid) else math.nan

    return _max_over_geos(ctx, one)


def check_all_points_valid(ctx):
    return _max_over_geos(ctx, lambda geo: float(np.sum(~geo.valid)))


def check_area_matches(
    ctx, expected: float, functional: Literal["first_form", "second_form"] = "second_form"
):
    """``variation.area``'s |Area − expected| or |Area_II − expected| (and its
    SingularShapeOperator), off the frame of the cached masked II-geometry."""
    geo = ctx._masked_geo()
    second = functional == "second_form"
    if second and np.any(geo.invalid_reason == "singular_shape"):
        raise SingularShapeOperator("shape operator singular on a quadrature node")
    return abs(variation._area_pair(geo.base, ctx.built["grids"][0])[second] - expected)


def check_gauss_codazzi(ctx, max_points: int = 40):
    def one(imm, grid):
        take = grid.nodes[:: max(1, len(grid.nodes) // max_points)]
        return max(hypersurface.gauss_codazzi_residual(imm, take))

    return max(one(imm, grid) for imm, grid in zip(ctx.built["immersions"], ctx.built["grids"]))


def check_metricity(ctx):
    return _max_over_geos(ctx, lambda geo: float(np.max(geo.metricity_residual)))


def check_transport_probe_vs_L(ctx, base_point, curve_velocity, vector, eps: float = 2e-2):
    imm = ctx.built["immersions"][0]

    def vec(key, value):
        return _numbers(f"check 'transport_probe_vs_L': {key!r}", value, (imm.param_dim,))

    u0 = vec("base_point", base_point)
    w = vec("curve_velocity", curve_velocity)
    v = vec("vector", vector)

    def curve(t):
        return [t * w[k] + u0[k] for k in range(len(u0))]

    geo = iigeom.ii_geometry(imm, u0)
    expect = np.einsum("kij,i,j->k", geo.L, v, w)
    probes = [iigeom.transport_holonomy_probe(imm, curve, v, e) for e in (eps, eps / 2, eps / 4)]
    rich = 2 * probes[2] - probes[1]
    best = 2 * rich - (2 * probes[1] - probes[0])
    return float(np.max(np.abs(best - expect)) / (1 + np.max(np.abs(expect))))


def check_first_variation_gap(ctx, amplitude: Amplitude, which: Area = "area_ii"):
    return ctx.get_first_variation(amplitude).gaps[which]


def check_curve_h_ii_max(ctx, samples: int = 64):
    curve = ctx.built["curve"]
    s = np.linspace(curve.param_lo[0], curve.param_hi[0], samples)
    return float(np.max(np.abs(curves.h_ii_curve(curve, s))))


def check_curve_kappa_matches(ctx, expected: float, samples: int = 32):
    curve = ctx.built["curve"]
    s = np.linspace(curve.param_lo[0], curve.param_hi[0], samples)
    data = curves.frenet(curve, s)
    return float(np.max(np.abs(data.kappa - expected)))


def check_length_ii_matches(ctx, expected: float):
    curve = ctx.built["curve"]
    val = curves.length_ii(curve, curve.param_lo[0], curve.param_hi[0])
    return abs(val - expected)


def check_catenary_family_residual(ctx, family=((1.0, 0.0), (2.0, -0.4)), s_values=(0.0, 0.5, 2.0)):
    family = _numbers("check 'catenary_family_residual': 'family'", family, (-1, 2))
    s_values = _numbers("check 'catenary_family_residual': 's_values'", s_values, (-1,))
    worst = 0.0
    for a_par, q_par in family:
        for s in s_values:
            w = a_par**2 * (s + q_par) ** 2 + 1.0
            k = a_par / w
            kp = -2 * a_par**3 * (s + q_par) / w**2
            kpp = -2 * a_par**3 / w**2 + 8 * a_par**5 * (s + q_par) ** 2 / w**3
            worst = max(worst, abs(curves.ode_residual(k, kp, kpp, "planar")))
    return worst


def check_ode_matches_family(ctx, A: float, Q: float):
    sol = ctx.get_ode_solution()
    expect = curves.catenary_family_kappa(A, Q, sol.s)
    return float(np.max(np.abs(sol.kappa - expect)))


def check_ode_constant_preserved(ctx):
    sol = ctx.get_ode_solution()
    return float(np.max(np.abs(sol.kappa - ctx.built["kappa0"])))


def check_phi_third_derivative(ctx):
    return float(ctx.get_ode_solution().phi_third_deriv_max)


def check_series_slope_min(ctx, quantity: Quantity):
    return ctx.get_sphere_study()[quantity].slope


def check_series_remainder_max(ctx, quantity: Quantity):
    study = ctx.get_sphere_study()[quantity]
    return float(np.max(np.abs(study.remainder)))


def check_numeric_matches_expected(ctx, quantity: Quantity, expected):
    study = ctx.get_sphere_study()[quantity]
    where = "check 'numeric_matches_expected': 'expected'"
    expected = _numbers(where, expected, study.numeric.shape)
    return float(np.max(np.abs(study.numeric - expected)))


def check_recombination(ctx):
    rng = np.random.default_rng(ctx.built["seed"])
    worst = 0.0
    dims = ctx.built["dims"]
    for i in range(ctx.built["n_jets"]):
        f = spheres.synthetic_framed_jet(dims[i % len(dims)], rng)
        worst = max(worst, spheres.h_ii_recombination_error(f))
    return worst


def _flatness_rows(ctx):
    if "flatness" not in ctx.cache:
        rows = []
        for chart in ctx.built["charts"]:
            jet = ambient.curvature_jet(chart, np.zeros(chart.dim), order=0)
            diag = spheres.flatness_diagnostic(jet)
            rows.append((chart.name, diag))
        ctx.cache["flatness"] = rows
    return ctx.cache["flatness"]


def check_flatness_condition(ctx, chart):
    # registered twice: "zero" passes below the tolerance, "nonzero" at or above it
    for cname, diag in _flatness_rows(ctx):
        if cname == chart:
            return max(diag["condition_residuals"])
    raise ScenarioError(f"chart {chart!r} not in scenario")


def check_weyl_identity(ctx):
    return max(diag["weyl_identity_gap"] for _, diag in _flatness_rows(ctx))


def _area_derivative_rows(ctx):
    if "area_derivative" not in ctx.cache:
        chart = ctx.built["chart"]
        ctx.cache["area_derivative"] = [
            (r, spheres.area_derivative_check(chart, np.zeros(chart.dim), r))
            for r in ctx.built["radii"]
        ]
    return ctx.cache["area_derivative"]


def check_area_derivative_gap(ctx):
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


_SPECIAL = re.compile('[,"\r\n]')  # characters whose field csv.writer quotes


def _field(x) -> str:
    """One CSV field as ``csv.writer`` writes it in a row of several fields:
    empty for None and NaN, ``str`` of an int, ``%.17g`` of a float, a
    string quoted when it holds a `_SPECIAL` character."""
    if isinstance(x, str):
        return '"' + x.replace('"', '""') + '"' if _SPECIAL.search(x) else x
    if isinstance(x, int):
        return str(x)
    return "" if x is None or x != x else format(float(x), ".17g")


def _csv_columns(n: int, cols) -> str:
    """CSV text of n rows whose k-th fields come from ``cols[k]``.

    A column is None, a str or a number (``_field``'d once: the same field
    on every row), a list of n strings, or n numbers.  Each row is one ``%``
    on a template: ``%.17g`` for a NaN-free numeric column, ``%s`` over the
    per-row fields otherwise.  The bytes are those of ``csv.writer`` on the
    rows' fields.
    """
    fields, args = [], []
    for col in cols:
        if col is None or isinstance(col, (str, int, float)):
            fields.append(_field(col).replace("%", "%%"))
        elif isinstance(col, list) and col and isinstance(col[0], str):
            fields.append("%s")
            args.append([_field(v) for v in col] if _SPECIAL.search("".join(col)) else col)
        else:
            vals = np.asarray(col, dtype=float)
            nan_free = not np.isnan(vals).any()
            fields.append("%.17g" if nan_free else "%s")
            args.append(vals.tolist() if nan_free else [_field(v) for v in vals.tolist()])
    template = ",".join(fields) + "\n"
    return "".join(template % row for row in (zip(*args) if args else [()] * n))


def _csv_rows(ctx) -> tuple:
    """(header, CSV text of the rows) of the scenario's subject."""
    kind, b = ctx.scenario["subject"]["type"], ctx.built
    if kind in ("immersion", "ensemble"):
        m = b["immersions"][0].param_dim
        header = ["member", *(f"u{k}" for k in range(m))]
        if b["csv_style"] == "surface":  # classical per-point rows: u..., x..., H, detA, lambda...
            header += [f"x{k}" for k in range(b["immersions"][0].ambient.dim)]
            header += ["H", "detA", *(f"lambda{k}" for k in range(m))]
            pts = (hypersurface.surface_point(imm, grid.nodes, order=2)
                   for imm, grid in zip(b["immersions"], b["grids"]))
            blocks = ([*p.u.T, *p.x.T, p.mean, p.detA, *p.lam.T] for p in pts)
        else:
            header += ["H", "detA", "H_II_var", "H_II_gauss", "S_II",
                       "lemma51", "thm52", "thm61", "thm71", "cor7", "status"]
            reps = [ctx.get_report(i) for i in range(len(b["immersions"]))]
            blocks = [
                [*r.u.T, r.geo.base.mean, r.geo.base.detA, r.geo.h_ii["variational"],
                 r.geo.h_ii["gauss"], r.geo.s_ii, r.lemma51, r.thm52, r.thm61, r.thm71, r.cor7,
                 r.status]
                for r in reps
            ]
        return header, "".join(_csv_columns(len(c[0]), [i, *c]) for i, c in enumerate(blocks))
    if kind == "curve":
        curve = b["curve"]
        s = np.linspace(curve.param_lo[0], curve.param_hi[0], b["samples"])
        data = curves.frenet(curve, s)
        cols = [s, data.kappa, curves.h_ii_curve(curve, s), data.frenet_residual]
        return ["s", "kappa", "H_II", "frenet_residual"], _csv_columns(len(s), cols)
    if kind == "ode":
        sol = ctx.get_ode_solution()
        take = slice(None, None, max(1, len(sol.s) // 128))
        cols = [sol.s[take], sol.kappa[take], sol.kappa_prime[take]]
        return ["s", "kappa", "kappa_prime"], _csv_columns(len(cols[0]), cols)
    if kind == "sphere_study":
        return ["quantity", "r", "numeric", "series", "remainder"], "".join(
            _csv_columns(len(st.radii), [q, st.radii, st.numeric, st.series, st.remainder])
            for q, st in ctx.get_sphere_study().items()
        )
    if kind == "first_variation":  # one row per amplitude: d/ds (exact) and the rhs
        fvs = [ctx.get_first_variation(amp) for amp in b["amplitudes"]]
        cols = [list(b["amplitudes"]), *([getattr(r, k) for r in fvs]
                for k in ("lhs_area", "lhs_area_ii", "rhs_area", "rhs_area_ii"))]
        return ["amplitude", "diff_area", "diff_area_ii", "rhs_area", "rhs_area_ii"], _csv_columns(
            len(fvs), cols)
    if kind == "recombination":
        cols = [b["n_jets"], str(b["dims"]), b["seed"]]
        return ["n_jets", "dims", "seed"], _csv_columns(1, cols)
    # flatness and area_derivative: one row of a result dict per chart or radius
    if kind == "flatness":
        rows, keys = _flatness_rows(ctx), ["chart", "Sbar", "riem_norm2", "ricci_norm2",
                                           "weyl_norm2", "weyl_identity_gap"]
    else:
        rows, keys = _area_derivative_rows(ctx), ["r", "d_area_ii_dr", "h_ii_integral",
                                                  "relative_gap"]
    cols = [[x for x, _ in rows], *([res[k] for _, res in rows] for k in keys[1:])]
    return keys, _csv_columns(len(rows), cols)


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


SCENARIO_KEYS = ("schema", "name", "description", "seed", "subject", "checks", "expect_error")
NAME = re.compile("[A-Za-z0-9][A-Za-z0-9_.-]*")  # the stem of the report files


def _bind_check(chk: dict) -> tuple:
    """(name, function, direction, tolerance, parameters) of a check entry
    whose `check` names a check and whose `tolerance` is finite and positive.
    Its other keys bind to the function's parameters; a value must be one of
    its Literal annotation's values, a count (≥ 1) for int, a number for
    float (bool is neither)."""
    name = chk.get("check")
    if not isinstance(name, str) or name not in CHECKS:
        raise ScenarioError(f"unknown check {name!r}")
    try:
        tol = float(chk.get("tolerance"))
    except (TypeError, ValueError):
        tol = math.nan
    if not 0 < tol < math.inf:
        raise ScenarioError(f"check {name!r} needs a finite positive tolerance")
    fn, direction = CHECKS[name]
    params = {k: v for k, v in chk.items() if k not in ("check", "tolerance")}
    sig = inspect.signature(fn, eval_str=True)
    try:
        bound = sig.bind(None, **params)
    except TypeError as exc:
        raise ScenarioError(f"check {name!r}: {exc}") from None
    for key, value in bound.arguments.items():
        hint = sig.parameters[key].annotation
        where = f"check {name!r}: {key!r}"
        if get_origin(hint) is Literal:
            _choice(where, value, get_args(hint))
        elif hint is int:
            _count(where, value)
        elif hint is float and (isinstance(value, bool) or not isinstance(value, (int, float))):
            raise BadParameters(f"{where} must be a number, got {value!r}")
    return name, fn, direction, tol, params


def _validate(scenario: dict, seed=None) -> tuple:
    """(Context, bound checks) of a well-formed scenario: no unknown key, a
    `NAME` for the report files, the subject and its descriptors built and
    every check bound before any check runs; else ScenarioError or
    BadParameters.  `seed` (the command-line flag) takes precedence over the
    scenario's."""
    if not isinstance(scenario, dict):
        raise ScenarioError("scenario must be a JSON object")
    if scenario.get("schema") != SCHEMA_VERSION:
        raise ScenarioError(f"unsupported schema version {scenario.get('schema')!r}")
    for key in ("name", "subject", "checks"):
        if key not in scenario:
            raise ScenarioError(f"scenario missing {key!r}")
    unknown = sorted(set(scenario) - set(SCENARIO_KEYS))
    if unknown:
        raise ScenarioError(f"unknown scenario key(s) {unknown}")
    name = scenario["name"]
    if not isinstance(name, str) or not NAME.fullmatch(name):
        raise ScenarioError(f"scenario name must match {NAME.pattern}, got {name!r}")
    checks = scenario["checks"]
    if not isinstance(checks, list) or not all(isinstance(chk, dict) for chk in checks):
        raise ScenarioError("'checks' must be a list of objects")
    checks = [_bind_check(chk) for chk in checks]
    try:
        seed = int(scenario.get("seed", 0)) if seed is None else seed
    except (TypeError, ValueError):
        raise ScenarioError(f"seed must be an integer, got {scenario['seed']!r}") from None
    return Context(scenario=scenario, seed=seed, cache={}), checks


def _atomic_write(path: Path, text: str):
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def run_scenario(path, out_dir=None, seed=None, tolerance_scale: float = 1.0) -> int:
    try:
        scenario = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    results = []  # the JSON report's "checks" entries
    try:
        ctx, checks = _validate(scenario, seed)
        with warnings.catch_warnings():  # numpy's overflow, division by zero, …
            warnings.simplefilter("error", RuntimeWarning)
            for name, fn, direction, tol, params in checks:
                tol *= tolerance_scale
                value = float(fn(ctx, **params))
                if not math.isfinite(value):
                    print(f"numerical error: check {name} gave {value}", file=sys.stderr)
                    return 3
                passed = (value <= tol) if direction == "max" else (value >= tol)
                results.append({"check": name, "value": value, "tolerance": tol,
                                "passed": bool(passed)})
            header, body = _csv_rows(ctx)
    except (ScenarioError, BadParameters) as exc:  # found while building or running
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a GeometryError, or a fault numpy raised (LinAlgError, …)
        expected_error = scenario.get("expect_error")
        if expected_error and type(exc).__name__ == expected_error:
            print(f"[PASS] expected numerical error raised: {type(exc).__name__}")
            return 0
        message = str(exc).replace("\n", " ")
        print(f"numerical error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3

    out_dir = Path(out_dir) if out_dir else Path.cwd()
    out_dir.mkdir(parents=True, exist_ok=True)
    _atomic_write(out_dir / f"{scenario['name']}.csv", _csv_columns(1, header) + body)

    summary = {
        "name": scenario["name"],
        "schema": SCHEMA_VERSION,
        "seed": ctx.seed,
        "tolerance_scale": tolerance_scale,
        "checks": results,
        "passed": all(r["passed"] for r in results),
    }
    _atomic_write(out_dir / f"{scenario['name']}.json", json.dumps(summary, indent=2) + "\n")

    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        print(f"[{status}] {r['check']}: value={r['value']:.6g} tolerance={r['tolerance']:.3g}")
        if not r["passed"]:
            print(f"check failed: {r['check']}", file=sys.stderr)
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
