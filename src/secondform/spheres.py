"""Geodesic hyperspheres and their curvature power series.

Small geodesic spheres 𝒢_n(r) are built numerically by pushing a unit-sphere
parametrization through the exponential map in jet arithmetic, so the
immersion is differentiable to order 4: in closed form on space forms and
their products, by RK4 on other charts (see `ambient.exp_map`).
Alongside, every power series for the sphere quantities (H, log det A,
Δ_II log det A, div_II Z, the II-traces of both Ricci tensors, H_II and
Area_II) is an evaluatable truncation in the curvature data at the centre,
expressed in a ḡ(n)-orthonormal frame with the radial direction e₀ as
0-axis.

Two kinds of checks hang off this module: remainder studies (numeric value at
γ(r) minus truncated series, with fitted log-log slopes), and an algebraic
recombination test that re-derives the H_II series from the five other blocks
through the contracted-Gauss expression for H_II.  The latter runs on random
synthetic curvature data with tensor symmetries but no Bianchi identities, so
it checks the transcription of every block, not just their consistency on
honest metrics.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import ambient as amb
from .ambient import CurvatureJet, MetricChart, curvature_jet, orthonormal_frame
from .ambient import exp_map  # noqa: F401  (perfbench/tests check that its tracer rebinds this name)
from .errors import (
    BadDirection,
    ConjugatePoint,
    DimensionTooSmall,
    GeometryError,
    JetTooShallow,
    UnsupportedSignature,
)
from .hypersurface import Immersion, _sphere_param_box, _unit_sphere_map
from .iigeom import ii_geometry
from .jets import Jet
from .variation import _area_density, _exp_family, _fit_slope, area, areas, grid_for_immersion

__all__ = [
    "FramedJet",
    "SeriesCoefficients",
    "geodesic_sphere",
    "geodesic_sphere_patch",
    "series_eval",
    "series_coefficients",
    "series_vs_numeric",
    "sphere_remainder_studies",
    "numeric_sphere_quantities",
    "RemainderStudy",
    "flatness_diagnostic",
    "area_derivative_check",
    "synthetic_framed_jet",
    "h_ii_recombination_error",
    "unit_sphere_area",
    "SCALAR_SERIES_QUANTITIES",
]

SCALAR_SERIES_QUANTITIES = (
    "H",
    "log_detA",
    "lap_ii_log_detA",
    "div_ii_Z",
    "tr_ii_ricbar",
    "tr_ii_ric",
    "H_II",
)


def unit_sphere_area(m: int) -> float:
    """Area of the unit m-sphere in E^{m+1}: 2π^{(m+1)/2}/Γ((m+1)/2)."""
    return 2.0 * math.pi ** ((m + 1) / 2) / math.gamma((m + 1) / 2)


# ---------------------------------------------------------------------------
# framed curvature data
# ---------------------------------------------------------------------------


@dataclass
class FramedJet:
    """Curvature data in an orthonormal frame with e₀ as the 0-axis.

    Index layout: riem[a,b,c,d]; nabla_ric[a,b,c] = ∇_a Ric_bc;
    nabla2_ric[a,b,c,d] = ∇_a∇_b Ric_cd; nabla_riem and nabla2_riem carry the
    derivative slots first in the same way.
    """

    dim: int
    riem: np.ndarray
    ric: np.ndarray
    scal: float
    grad_scal: Optional[np.ndarray] = None
    nabla_ric: Optional[np.ndarray] = None
    nabla_riem: Optional[np.ndarray] = None
    hess_scal: Optional[np.ndarray] = None
    nabla2_ric: Optional[np.ndarray] = None
    nabla2_riem: Optional[np.ndarray] = None
    lap_ric: Optional[np.ndarray] = None

    @property
    def order(self) -> int:
        if self.nabla2_riem is not None:
            return 2
        return 1 if self.nabla_riem is not None else 0

    @staticmethod
    def from_curvature_jet(jet: CurvatureJet, e0) -> "FramedJet":
        if jet.index != 0:
            raise UnsupportedSignature("sphere expansions assume a Riemannian ambient")
        frame = orthonormal_frame(jet.metric, np.asarray(e0, dtype=float))
        f = frame

        def tf(tensor, rank):
            letters = "abcdef"[:rank]
            src = "ijklmn"[:rank]
            pattern = ",".join(f"{a}{i}" for a, i in zip(letters, src))
            return np.einsum(f"{pattern},{''.join(src)}->{''.join(letters)}", *([f] * rank), tensor)

        out = FramedJet(
            dim=jet.dim,
            riem=tf(jet.riem, 4),
            ric=tf(jet.ricci, 2),
            scal=float(jet.scalar),
        )
        if jet.order >= 1:
            out.grad_scal = tf(jet.grad_scalar, 1)
            out.nabla_ric = tf(jet.nabla_ricci, 3)
            out.nabla_riem = tf(jet.nabla_riem, 5)
        if jet.order >= 2:
            out.hess_scal = tf(jet.hess_scalar, 2)
            out.nabla2_ric = tf(jet.nabla2_ricci, 4)
            out.nabla2_riem = tf(jet.nabla2_riem, 6)
            out.lap_ric = tf(jet.lap_ricci, 2)
        return out


def synthetic_framed_jet(dim: int, rng: np.random.Generator) -> FramedJet:
    """Random curvature data with the tensor symmetries imposed but the
    Bianchi identities deliberately NOT imposed, and Ricci drawn independently
    of Riemann: identities that survive this data test pure transcription."""

    def riem_sym(t):
        t = 0.5 * (t - np.swapaxes(t, -4, -3))
        t = 0.5 * (t - np.swapaxes(t, -2, -1))
        perm = list(range(t.ndim - 4)) + [t.ndim - 2, t.ndim - 1, t.ndim - 4, t.ndim - 3]
        return 0.5 * (t + np.transpose(t, perm))

    def sym2(t):
        return 0.5 * (t + np.swapaxes(t, -2, -1))

    d = dim
    return FramedJet(
        dim=d,
        riem=riem_sym(rng.normal(size=(d,) * 4)),
        ric=sym2(rng.normal(size=(d, d))),
        scal=float(rng.normal()),
        grad_scal=rng.normal(size=d),
        nabla_ric=sym2(rng.normal(size=(d, d, d))),
        nabla_riem=riem_sym(rng.normal(size=(d,) * 5)),
        hess_scal=sym2(rng.normal(size=(d, d))),
        nabla2_ric=sym2(rng.normal(size=(d,) * 4)),
        nabla2_riem=riem_sym(rng.normal(size=(d,) * 6)),
        lap_ric=sym2(rng.normal(size=(d, d))),
    )


# ---------------------------------------------------------------------------
# the printed series, coefficient by coefficient
# ---------------------------------------------------------------------------


@dataclass
class SeriesCoefficients:
    """A truncated expansion in r of one geodesic-sphere quantity.

    `coeffs[p]` multiplies r^p.  `log_coeff` multiplies log(r) (only the
    log det A series uses it).  Area_II instead stores the bracket: the value
    is r^{m/2}·α_m·Σ coeffs[p] r^p.
    """

    quantity: str
    coeffs: dict
    m: int
    bracket_prefactor: bool = False
    log_coeff: float = 0.0

    def evaluate(self, r: float):
        r = float(r)
        acc = 0.0
        for p, c in self.coeffs.items():
            acc = acc + c * r**p
        if self.log_coeff:
            acc = acc + self.log_coeff * math.log(r)
        if self.bracket_prefactor:
            acc = acc * r ** (self.m / 2) * unit_sphere_area(self.m)
        return acc


def _invariants(f: FramedJet):
    """The scalar contractions entering the §-series brackets."""
    d = f.dim
    ric00 = f.ric[0, 0]
    p1 = float(np.einsum("vw,vw->", f.riem[0, :, 0, :], f.ric))
    p3_all = float(np.sum(f.ric[0, :] ** 2))
    p3_pos = float(np.sum(f.ric[0, 1:] ** 2))
    p4 = float(np.sum(f.riem[0, :, 0, :] ** 2))
    p6 = float(np.sum(f.riem[:, :, 0, :] ** 2))  # Σ (R̄_{iv0w})²
    p7 = float(np.sum(f.riem[:, :, :, 0] ** 2))  # Σ (R̄_{ace0})²
    return {
        "ric00": float(ric00),
        "scal": float(f.scal),
        "p1": p1,
        "p3_all": p3_all,
        "p3_pos": p3_pos,
        "p4": p4,
        "p6": p6,
        "p7": p7,
        "grad_scal0": float(f.grad_scal[0]) if f.grad_scal is not None else None,
        "n_ric": float(f.nabla_ric[0, 0, 0]) if f.nabla_ric is not None else None,
        "n2_ric": float(f.nabla2_ric[0, 0, 0, 0]) if f.nabla2_ric is not None else None,
        "hess00": float(f.hess_scal[0, 0]) if f.hess_scal is not None else None,
        "lap_ric00": float(f.lap_ric[0, 0]) if f.lap_ric is not None else None,
    }


def _need(inv, *keys):
    for k in keys:
        if inv[k] is None:
            raise JetTooShallow(f"series needs curvature derivative data ({k})")


def series_coefficients(f: FramedJet, quantity: str) -> SeriesCoefficients:
    """Truncated series of one sphere quantity from framed centre data."""
    return _series_coefficients(f, quantity, _invariants(f))


def _series_coefficients(f: FramedJet, quantity: str, inv: dict) -> SeriesCoefficients:
    """``series_coefficients`` with the invariants ``_invariants(f)`` given."""
    m = f.dim - 1
    s, ric00 = inv["scal"], inv["ric00"]

    if quantity == "H":
        _need(inv, "n_ric", "n2_ric")
        return SeriesCoefficients(
            quantity,
            {
                -1: 1.0,
                1: -ric00 / (3 * m),
                2: -inv["n_ric"] / (4 * m),
                3: (-inv["n2_ric"] / 10.0 - inv["p4"] / 45.0) / m,
            },
            m=m,
        )

    if quantity == "log_detA":
        _need(inv, "n_ric", "n2_ric")
        return SeriesCoefficients(
            quantity,
            {
                2: -ric00 / 3.0,
                3: -inv["n_ric"] / 4.0,
                4: -7.0 / 90.0 * inv["p4"] - inv["n2_ric"] / 10.0,
            },
            m=m,
            log_coeff=-float(m),
        )

    if quantity == "lap_ii_log_detA":
        _need(inv, "grad_scal0", "n_ric", "n2_ric", "hess00", "lap_ric00")
        r3 = (
            -16.0 / 45.0 * inv["p1"]
            + 14.0 / 45.0 * (3 + m) * inv["p4"]
            - 7.0 / 15.0 * inv["p6"]
            - 3.0 / 5.0 * inv["hess00"]
            + (6.0 + 2 * m) / 5.0 * inv["n2_ric"]
            + 22.0 / 45.0 * inv["p3_all"]
            - 4.0 / 9.0 * ric00**2
            - inv["lap_ric00"] / 5.0
        )
        return SeriesCoefficients(
            quantity,
            {
                1: -2.0 / 3.0 * (s - (m + 1) * ric00),
                2: -inv["grad_scal0"] + 0.75 * (m + 2) * inv["n_ric"],
                3: r3,
            },
            m=m,
        )

    if quantity == "div_ii_Z":
        _need(inv, "grad_scal0", "n_ric", "n2_ric", "hess00")
        r3 = (
            -inv["p1"] / 3.0
            + (m + 3) / 2.0 * inv["n2_ric"]
            + 2.0 / 3.0 * inv["p3_pos"]
            + (m + 3) / 3.0 * inv["p4"]
            - inv["hess00"]
            - inv["p7"] / 2.0
        )
        return SeriesCoefficients(
            quantity,
            {
                1: (m + 1) * ric00 - s,
                2: (m + 2) * inv["n_ric"] - 1.5 * inv["grad_scal0"],
                3: r3,
            },
            m=m,
        )

    if quantity == "tr_ii_ricbar":
        _need(inv, "grad_scal0", "n_ric", "n2_ric", "hess00")
        return SeriesCoefficients(
            quantity,
            {
                1: s - ric00,
                2: inv["grad_scal0"] - inv["n_ric"],
                3: inv["p1"] / 3.0 - inv["n2_ric"] / 2.0 + inv["hess00"] / 2.0,
            },
            m=m,
        )

    if quantity == "tr_ii_ric":
        _need(inv, "grad_scal0", "n_ric", "n2_ric", "hess00")
        r3 = (
            inv["p1"] / 3.0
            - (m + 9) / 10.0 * inv["n2_ric"]
            - (m + 14) / 45.0 * inv["p4"]
            + inv["hess00"] / 2.0
        )
        return SeriesCoefficients(
            quantity,
            {
                -1: float(m * (m - 1)),
                1: s - (m + 5) / 3.0 * ric00,
                2: inv["grad_scal0"] - (m + 7) / 4.0 * inv["n_ric"],
                3: r3,
            },
            m=m,
        )

    if quantity == "H_II":
        _need(inv, "grad_scal0", "n_ric", "n2_ric", "hess00", "lap_ric00")
        r3 = (
            7.0 / 90.0 * inv["p1"]
            - (15.0 + 3 * m) / 20.0 * inv["n2_ric"]
            - 19.0 / 90.0 * inv["p3_pos"]
            - (20.0 + 4 * m) / 45.0 * inv["p4"]
            + 7.0 / 20.0 * inv["hess00"]
            + 2.0 / 15.0 * inv["p7"]
            + ric00**2 / 90.0
            - inv["lap_ric00"] / 20.0
        )
        return SeriesCoefficients(
            quantity,
            {
                -1: m / 2.0,
                1: (s - (m + 3) * ric00) / 3.0,
                2: inv["grad_scal0"] / 2.0 - (20.0 + 5 * m) / 16.0 * inv["n_ric"],
                3: r3,
            },
            m=m,
        )

    if quantity == "Area_II":
        _need(inv, "hess00")
        ric_sq = float(np.sum(f.ric**2))
        riem_sq = float(np.sum(f.riem**2))
        lap_s = float(np.trace(f.hess_scal))
        c4 = (
            (s**2) / 18.0 + ric_sq / 15.0 - riem_sq / 15.0 - 3.0 / 20.0 * lap_s
        ) / ((m + 1) * (m + 3))
        return SeriesCoefficients(
            quantity,
            {0: 1.0, 2: -s / (3.0 * (m + 1)), 4: c4},
            m=m,
            bracket_prefactor=True,
        )

    raise GeometryError(f"unknown series quantity {quantity!r}")


def matrix_series(f: FramedJet, quantity: str, r: float) -> np.ndarray:
    """Truncated matrix expansions at γ(r): metric_g, shape_A, second_form_II,
    christoffel_II (the last returns the leading-order 3-tensor)."""
    d, m = f.dim, f.dim - 1
    r00 = f.riem[0, 1:, 0, 1:]
    if quantity == "christoffel_II":
        # Γ_II^s_{ij} = (2r/3)(R̄_{si0j} + R̄_{0isj}), assembled with s first
        return (2.0 * r / 3.0) * (
            f.riem[1:, 1:, 0, 1:] + np.einsum("isj->sij", f.riem[0, 1:, 1:, 1:])
        )
    if f.nabla_riem is None or f.nabla2_riem is None:
        raise JetTooShallow("matrix series need curvature derivatives")
    n_r00 = f.nabla_riem[0, 0, 1:, 0, 1:]
    n2_r00 = f.nabla2_riem[0, 0, 0, 1:, 0, 1:]
    r0s = f.riem[0, 1:, 0, :]  # R̄_{0i0s}, s over all directions
    quad = r0s @ r0s.T  # Σ_s R̄_{0i0s} R̄_{0j0s}
    quad_mixed = f.riem[0, 1:, 0, :] @ f.riem[0, :, 0, 1:]  # Σ_s R̄_{0i0s}R̄_{0s0j}
    eye = np.eye(m)
    if quantity == "metric_g":
        return (
            eye
            - (r**2 / 3.0) * r00
            - (r**3 / 6.0) * n_r00
            + (r**4 / 120.0) * (-6.0 * n2_r00 + (16.0 / 3.0) * quad)
        )
    if quantity == "shape_A":
        return (
            eye / r
            - (r / 3.0) * r00
            - (r**2 / 4.0) * n_r00
            + r**3 * (-n2_r00 / 10.0 - quad_mixed / 45.0)
        )
    if quantity == "second_form_II":
        return (
            eye / r
            - (2.0 * r / 3.0) * r00
            - (5.0 * r**2 / 12.0) * n_r00
            + r**3 * (-3.0 / 20.0 * n2_r00 + (2.0 / 15.0) * quad_mixed)
        )
    raise GeometryError(f"unknown matrix series quantity {quantity!r}")


def series_eval(jet, e0, r: float, quantity: str):
    """Evaluate the truncated series of `quantity` at radius r.

    `jet` may be a CurvatureJet (framed here using e0) or a FramedJet (e0
    ignored).  Scalar quantities return floats; the matrix quantities return
    arrays over the tangential indices.
    """
    f = jet if isinstance(jet, FramedJet) else FramedJet.from_curvature_jet(jet, e0)
    if quantity in SCALAR_SERIES_QUANTITIES or quantity == "Area_II":
        return series_coefficients(f, quantity).evaluate(r)
    return matrix_series(f, quantity, r)


# ---------------------------------------------------------------------------
# recombination check (transcription audit of the five printed blocks)
# ---------------------------------------------------------------------------


def _combine(dicts_with_factors):
    out = {}
    for factor, d in dicts_with_factors:
        for p, c in d.items():
            out[p] = out.get(p, 0.0) + factor * c
    return out


def h_ii_recombination_error(f: FramedJet) -> float:
    """Rebuild the H_II series from the other five blocks via the
    contracted-Gauss expression and compare coefficients (α = 1):

        H_II = −½( tr_II R̄ic − tr_II Ric + (m²−2m) H − ½ Δ_II log det A
                   + div_II Z ).
    """
    m = f.dim - 1
    inv = _invariants(f)
    blocks = {q: _series_coefficients(f, q, inv).coeffs for q in SCALAR_SERIES_QUANTITIES}
    recombined = _combine(
        [
            (-0.5, blocks["tr_ii_ricbar"]),
            (+0.5, blocks["tr_ii_ric"]),
            (-0.5 * (m * m - 2 * m), blocks["H"]),
            (+0.25, blocks["lap_ii_log_detA"]),
            (-0.5, blocks["div_ii_Z"]),
        ]
    )
    printed = blocks["H_II"]
    err = 0.0
    for p in sorted(set(printed) | set(recombined)):
        err = max(err, abs(printed.get(p, 0.0) - recombined.get(p, 0.0)))
    return err


# ---------------------------------------------------------------------------
# numeric geodesic spheres
# ---------------------------------------------------------------------------


def _radial_frame(chart: MetricChart, n, e0=None):
    g = amb.metric_value(chart, np.asarray(n, dtype=float))
    return orthonormal_frame(g, e0)


def _exp_immersions(chart, n, direction_fn, radii, m, lo, hi, hint, n_steps):
    """One immersion u ↦ exp_n(r·ξ(u)) per radius r in `radii`, for the
    direction field given as ``direction_fn(u_jets, r)`` = r·ξ(u): one
    ``variation._exp_family``, so the radii share one integration with step
    r_max/n_steps, memoised per node set."""
    n = np.asarray(n, dtype=float)

    def rays(u_jets):
        batch = u_jets[0].batch_shape
        x = [Jet.constant(u_jets[0].space, np.broadcast_to(n[a], batch).copy())
             for a in range(chart.dim)]
        return x, functools.partial(direction_fn, u_jets)

    maps = _exp_family(chart, rays, radii, n_steps, chart.is_flat)
    return [Immersion(chart, m, map_fn, lo, hi, hint) for map_fn in maps]


def _check_radii(chart: MetricChart, radii):
    if chart.index != 0:
        raise UnsupportedSignature("geodesic spheres are built in Riemannian charts")
    for r in radii:
        if r <= 0:
            raise BadDirection("geodesic sphere needs r > 0")
        if r >= chart.conjugate_radius - 1e-12:
            raise ConjugatePoint(
                f"radius {r} reaches the conjugate radius {chart.conjugate_radius:.6g}"
            )


def _geodesic_spheres(chart: MetricChart, n, radii, n_steps: int):
    """Whole geodesic spheres 𝒢_n(r) for each r in `radii`, one integration."""
    _check_radii(chart, radii)
    m = chart.dim - 1
    frame = _radial_frame(chart, n)
    lo, hi, hint = _sphere_param_box(m)

    def direction_fn(u_jets, r):
        omega = _unit_sphere_map(m, u_jets)
        return [
            sum_jets([omega[a] * (r * frame[a, i]) for a in range(m + 1)])
            for i in range(chart.dim)
        ]

    return _exp_immersions(chart, n, direction_fn, radii, m, lo, hi, hint, n_steps)


def _geodesic_sphere_patches(chart: MetricChart, n, radii, e0, n_steps: int):
    """Patches of 𝒢_n(r) over |u_i| ≤ 0.4 around γ(r) = exp_n(r e₀) for each
    r in `radii`, one integration."""
    _check_radii(chart, radii)
    m = chart.dim - 1
    frame = _radial_frame(chart, n, np.asarray(e0, dtype=float))

    def direction_fn(u_jets, r):
        norm2 = None
        for i in range(m):
            t = u_jets[i] * u_jets[i]
            norm2 = t if norm2 is None else norm2 + t
        inv = (norm2 + 1.0).sqrt().reciprocal() * r
        out = []
        for a in range(chart.dim):
            acc = Jet.constant(u_jets[0].space, frame[0, a])
            for i in range(m):
                acc = acc + u_jets[i] * frame[i + 1, a]
            out.append(acc * inv)
        return out

    box = np.full(m, 0.4)
    return _exp_immersions(chart, n, direction_fn, radii, m, -box, box, ("gl",) * m, n_steps)


def geodesic_sphere(chart: MetricChart, n, r: float, n_steps: int = 128) -> Immersion:
    """The geodesic hypersphere 𝒢_n(r) as an immersion over the unit-sphere
    parameter box, with the inward normal selected by the orientation rule.

    The map is ``ambient.exp_map`` in jet arithmetic.  On a space form or a
    product of them it is the closed-form geodesic flow, exact to rounding
    (n_steps then only spaces the domain checks).  On other charts it
    integrates the geodesic equation by RK4 with the fixed step r/n_steps
    (r_max/n_steps within a family of radii up to r_max on one path, as
    `area_derivative_check` and `sphere_remainder_studies` build them); for
    r ≲ 1 and the default step count, the endpoint error sits around
    1e−12, far below every tolerance used downstream.  It is a one-member
    ``variation._exp_family``, as the normal deformations are: evaluations
    on one node set share one geodesic computation.
    """
    return _geodesic_spheres(chart, n, [r], n_steps)[0]


def geodesic_sphere_patch(chart: MetricChart, n, r: float, e0, n_steps: int = 128) -> Immersion:
    """A local patch of 𝒢_n(r) over |u_i| ≤ 0.4, with u = 0 mapping to
    γ(r) = exp_n(r e₀).

    Directions are ξ(u) = (e₀ + Σ u_i E_i)/√(1+|u|²) for a ḡ(n)-orthonormal
    frame {e₀, E_1, …, E_m}; ideal for point evaluations of sphere quantities
    at γ(r) itself.
    """
    return _geodesic_sphere_patches(chart, n, [r], e0, n_steps)[0]


def sum_jets(jets):
    acc = jets[0]
    for j in jets[1:]:
        acc = acc + j
    return acc


def default_sphere_grid_shape(m: int):
    return {1: (64,), 2: (20, 40), 3: (10, 10, 20)}[m]


def numeric_sphere_quantities(
    chart: MetricChart, n, e0, r: float, want_area: bool = True,
    n_steps: int = 128, grid_shape=None,
) -> dict:
    """All sphere scalars at γ(r) through the full numeric pipeline, plus
    Area_II by quadrature over the whole sphere when requested."""
    patch = geodesic_sphere_patch(chart, n, r, e0, n_steps=n_steps)
    sphere = geodesic_sphere(chart, n, r, n_steps=n_steps) if want_area else None
    return _sphere_quantities(patch, sphere, grid_shape)


def _sphere_quantities(patch: Immersion, sphere: Optional[Immersion], grid_shape) -> dict:
    """``numeric_sphere_quantities`` on a built patch and, when not None, a
    built whole sphere."""
    u0 = np.zeros((1, patch.param_dim))
    geo = ii_geometry(patch, u0)
    data = geo.base
    out = {
        "H": float(data.mean[0]),
        "log_detA": float(np.log(np.abs(data.detA[0]))),
        "lap_ii_log_detA": float(geo.lap_ii_log_det_a[0]),
        "div_ii_Z": float(geo.div_ii_z[0]),
        "tr_ii_ricbar": float(geo.tr_ii_ricbar[0]),
        "tr_ii_ric": float(geo.tr_ii_ric[0]),
        "H_II": float(geo.h_ii["variational"][0]),
        "H_II_routes": {k: float(v[0]) for k, v in geo.h_ii.items()},
    }
    if sphere is not None:
        grid = grid_for_immersion(sphere, grid_shape or default_sphere_grid_shape(sphere.param_dim))
        out["Area"], out["Area_II"] = areas(sphere, grid)
    return out


@dataclass
class RemainderStudy:
    quantity: str
    radii: np.ndarray
    numeric: np.ndarray
    series: np.ndarray
    remainder: np.ndarray
    slope: float


def sphere_remainder_studies(
    chart: MetricChart, n, e0, quantities, radii, n_steps: int = 128, grid_shape=None
) -> dict:
    """Remainder studies for several quantities sharing one numeric pass per
    radius (the patch pipeline yields every scalar at once).  The patches of
    all radii ride on one integration, and so do the whole spheres when
    Area_II is wanted (step max(radii)/n_steps)."""
    jet = curvature_jet(chart, np.asarray(n, dtype=float), order=2)
    framed = FramedJet.from_curvature_jet(jet, e0)
    m = chart.dim - 1
    patches = _geodesic_sphere_patches(chart, n, radii, e0, n_steps)
    if "Area_II" in quantities:
        spheres = _geodesic_spheres(chart, n, radii, n_steps)
    else:
        spheres = [None] * len(radii)
    per_radius = [_sphere_quantities(p, s, grid_shape) for p, s in zip(patches, spheres)]
    out = {}
    for quantity in quantities:
        numeric = np.asarray([vals[quantity] for vals in per_radius])
        series = np.asarray([series_eval(framed, e0, r, quantity) for r in radii])
        remainder = numeric - series
        if quantity == "Area_II":
            scale = np.array([r ** (m / 2) * unit_sphere_area(m) for r in radii])
            remainder = remainder / scale
        out[quantity] = RemainderStudy(
            quantity=quantity,
            radii=np.asarray(radii, float),
            numeric=numeric,
            series=series,
            remainder=remainder,
            slope=_fit_slope(radii, remainder, floor=1e-12),
        )
    return out


def series_vs_numeric(
    chart: MetricChart, n, e0, quantity: str, radii, n_steps: int = 128, grid_shape=None
) -> RemainderStudy:
    """Numeric-minus-series remainders over a ladder of radii, with the
    fitted log-log slope.  Area_II remainders are measured relative to the
    flat-sphere prefactor r^{m/2}·α_m (the bracket scale)."""
    return sphere_remainder_studies(
        chart, n, e0, [quantity], radii, n_steps=n_steps, grid_shape=grid_shape
    )[quantity]


# ---------------------------------------------------------------------------
# flatness diagnostics and the area-derivative identity
# ---------------------------------------------------------------------------


def flatness_diagnostic(jet) -> dict:
    """The two flatness-condition residuals (S̄ = 0, ‖R̄‖² = ‖Ric̄‖²) and the
    Weyl norm computed both directly and through the dimension identity

        ‖W̄‖² = ‖R̄‖² − 4/(m−1)·‖Ric̄‖² + 2/(m(m−1))·S̄².
    """
    f = jet if isinstance(jet, FramedJet) else FramedJet.from_curvature_jet(
        jet, _first_unit_direction(jet)
    )
    d = f.dim
    m = d - 1
    if m < 2:
        raise DimensionTooSmall("Weyl identity needs ambient dimension >= 3")
    riem_sq = float(np.sum(f.riem**2))
    ric_sq = float(np.sum(f.ric**2))
    s = float(f.scal)
    delta = np.eye(d)
    tail = (
        np.einsum("ik,jl->ijkl", delta, f.ric)
        - np.einsum("il,jk->ijkl", delta, f.ric)
        + np.einsum("jl,ik->ijkl", delta, f.ric)
        - np.einsum("jk,il->ijkl", delta, f.ric)
    )
    weyl = (
        f.riem
        - tail / (m - 1)
        + (s / (m * (m - 1))) * (
            np.einsum("ik,jl->ijkl", delta, delta) - np.einsum("il,jk->ijkl", delta, delta)
        )
    )
    weyl_sq_direct = float(np.sum(weyl**2))
    weyl_sq_identity = riem_sq - 4.0 / (m - 1) * ric_sq + 2.0 / (m * (m - 1)) * s**2
    return {
        "Sbar": s,
        "riem_norm2": riem_sq,
        "ricci_norm2": ric_sq,
        "weyl_norm2": weyl_sq_direct,
        "weyl_identity_gap": abs(weyl_sq_direct - weyl_sq_identity),
        "condition_residuals": (abs(s), abs(riem_sq - ric_sq)),
    }


def _first_unit_direction(jet: CurvatureJet):
    g = jet.metric
    e0 = np.zeros(jet.dim)
    e0[0] = 1.0 / math.sqrt(abs(g[0, 0]))
    return e0


def area_derivative_check(
    chart: MetricChart, n, r: float, dr: float = 5e-3, n_steps: int = 128, grid_shape=None
) -> dict:
    """∂_r Area_II(𝒢_n(r)) against ∫ H_II dΩ_II over the sphere.

    The radial derivative uses a central difference with one halving
    Richardson step; the integral runs the full II-geometry pipeline over the
    quadrature grid.  The five spheres at r, r ± dr/2 and r ± dr are one
    family on one integration (step (r + dr)/n_steps), and every radius is
    validated before it runs.
    """
    m = chart.dim - 1
    shape = grid_shape or default_sphere_grid_shape(m)
    radii = (r - dr, r - dr / 2, r, r + dr / 2, r + dr)
    family = _geodesic_spheres(chart, n, radii, n_steps)
    grid = grid_for_immersion(family[2], shape)
    # the order-4 pass first, so that the areas' order-2 maps are its prefix
    geo = ii_geometry(family[2], grid.nodes)
    dens = _area_density(geo.base) * np.sqrt(np.abs(geo.base.detA))
    integral = float(np.sum(grid.weights * geo.h_ii["variational"] * dens))

    a = {k: area(family[k], grid, "second_form") for k in (0, 1, 3, 4)}
    coarse = (a[4] - a[0]) / (2 * dr)
    fine = (a[3] - a[1]) / dr
    d_area = (4 * fine - coarse) / 3.0
    gap = abs(d_area - integral) / (1.0 + abs(integral))
    return {"d_area_ii_dr": d_area, "h_ii_integral": integral, "relative_gap": gap}
