"""Geodesic hyperspheres and their curvature power series.

Small geodesic spheres 𝒢_n(r) are built numerically by pushing a unit-sphere
parametrization through the exponential map in jet arithmetic, so the
immersion is differentiable to order 4: in closed form on space forms and
their products, by Chebyshev–Picard sweeps on other charts (see
`ambient.exp_map`).
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
from .ambient import CurvatureJet, MetricChart, curvature_jet, exp_map, orthonormal_frame
from .errors import (
    BadDirection,
    ConjugatePoint,
    DimensionTooSmall,
    GeometryError,
    JetTooShallow,
    UnsupportedSignature,
)
from .hypersurface import Immersion, _frame, _sphere_param_box, _unit_sphere_map
from .iigeom import _ii_geometry_from, ii_geometry
from .jets import Jet, jet_space, seed_jets
from .variation import (
    _area_rates, _eps_monomials, _gap, _variation_rhs, areas, grid_for_immersion,
)

__all__ = [
    "FramedJet",
    "SeriesCoefficients",
    "geodesic_sphere",
    "geodesic_sphere_patch",
    "series_eval",
    "series_coefficients",
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
        f = orthonormal_frame(jet.metric, np.asarray(e0, dtype=float))

        def tf(tensor, rank):
            # along a contraction path: one unoptimized product of rank + 1
            # operands costs d^(2·rank) multiply-adds, 4¹² for ∇²R̄ at d = 4
            letters = "abcdef"[:rank]
            src = "ijklmn"[:rank]
            pattern = ",".join(f"{a}{i}" for a, i in zip(letters, src))
            return np.einsum(f"{pattern},{''.join(src)}->{''.join(letters)}", *([f] * rank), tensor,
                             optimize=True)

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


def _pair_basis(n: int):
    """(number, unit) on n×n: the unordered pair {i, j} is coordinate
    number[i, j] of the symmetric n×n matrices, in the orthonormal basis
    e_i⊗e_i and (e_i⊗e_j + e_j⊗e_i)/√2, whose (i, j) entry is unit[i, j]."""
    number = np.zeros((n, n), dtype=np.intp)
    number[np.triu_indices(n)] = np.arange(n * (n + 1) // 2)
    number = np.maximum(number, number.T)
    unit = np.where(np.eye(n, dtype=bool), 1.0, math.sqrt(0.5))
    return number, unit


def _symmetric_basis(d: int, symmetry: str):
    """(index, scale, n): an orthonormal basis of the d-dimensional tensors
    with `symmetry` on all their axes ("scalar", "vector", "sym2" or "riem"),
    as the flattened tensor z[index]·scale of its n coordinates z.

    "riem" is the symmetric matrices over the bivectors
    E_ab = (e_a⊗e_b − e_b⊗e_a)/√2, a < b: antisymmetric within each pair of
    axes, symmetric under exchange of the pairs."""
    if symmetry in ("scalar", "vector"):
        n = 1 if symmetry == "scalar" else d
        return np.arange(n), np.ones(n), n
    if symmetry == "sym2":
        number, unit = _pair_basis(d)
        return number.ravel(), unit.ravel(), d * (d + 1) // 2
    p = d * (d - 1) // 2
    biv = np.zeros((d, d), dtype=np.intp)
    biv[np.triu_indices(d, 1)] = np.arange(p)
    biv = np.maximum(biv, biv.T)
    sign = math.sqrt(0.5) * np.sign(np.arange(d)[None, :] - np.arange(d)[:, None])
    number, unit = _pair_basis(p)
    ab, ce = biv[:, :, None, None], biv[None, None, :, :]
    scale = sign[:, :, None, None] * sign[None, None, :, :] * unit[ab, ce]
    return number[ab, ce].ravel(), scale.ravel(), p * (p + 1) // 2


# FramedJet field → (symmetry on the trailing axes, number of leading axes)
_SYNTHETIC_FIELDS = {
    "riem": ("riem", 0),
    "ric": ("sym2", 0),
    "scal": ("scalar", 0),
    "grad_scal": ("vector", 0),
    "nabla_ric": ("sym2", 1),
    "nabla_riem": ("riem", 1),
    "hess_scal": ("sym2", 0),
    "nabla2_ric": ("sym2", 2),
    "nabla2_riem": ("riem", 2),
    "lap_ric": ("sym2", 0),
}
_TRAILING_AXES = {"scalar": 0, "vector": 1, "sym2": 2, "riem": 4}
_LAZY_FIELDS = ("nabla_riem", "nabla2_riem")  # never read by the recombination audit


@functools.lru_cache(maxsize=None)
def _synthetic_table(d: int):
    """(n, index, scale, shapes, lazy): a synthetic d-dimensional jet as n
    coordinates z.  The fields but `_LAZY_FIELDS` are z[index]·scale,
    concatenated flat, with their (name, shape) in `shapes`; `lazy` maps
    each of the other two to its own (index, scale, shape)."""
    table, n = {}, 0
    for name, (symmetry, lead) in _SYNTHETIC_FIELDS.items():
        index, scale, k = _symmetric_basis(d, symmetry)
        copies = d**lead
        table[name] = ((n + k * np.arange(copies)[:, None] + index).ravel(),
                       np.tile(scale, copies), (d,) * (lead + _TRAILING_AXES[symmetry]))
        n += k * copies
    lazy = {name: table.pop(name) for name in _LAZY_FIELDS}
    index, scale = (np.concatenate([entry[i] for entry in table.values()]) for i in (0, 1))
    for a in (index, scale, *(entry[i] for entry in lazy.values() for i in (0, 1))):
        a.flags.writeable = False  # shared by every call
    return n, index, scale, [(name, entry[2]) for name, entry in table.items()], lazy


class _SyntheticJet(FramedJet):
    """A synthetic draw whose `_LAZY_FIELDS` are scattered from its coordinates
    z on first read.  It skips the dataclass ``__init__``, whose stores of
    the two fields would shadow the properties."""

    def __init__(self, z=None, lazy=None, **fields):
        vars(self).update(fields)
        self._z, self._lazy = z, lazy

    def _scatter(self, name):
        index, scale, shape = self._lazy[name]
        return (self._z[index] * scale).reshape(shape)

    nabla_riem = functools.cached_property(lambda self: self._scatter("nabla_riem"))
    nabla2_riem = functools.cached_property(lambda self: self._scatter("nabla2_riem"))
    order = property(lambda self: 2)  # every field is drawn: no scatter to tell


def synthetic_framed_jet(dim: int, rng: np.random.Generator) -> FramedJet:
    """Random curvature data with the tensor symmetries imposed but the
    Bianchi identities deliberately NOT imposed, and Ricci drawn independently
    of Riemann: identities that survive this data test pure transcription.

    Each tensor is an isotropic Gaussian on its symmetry subspace (Riemann
    symmetries on the last four axes of R̄, ∇R̄, ∇²R̄; symmetric last two
    axes of the Ricci tensors and Hess S̄): independent N(0, 1) coordinates
    in a Frobenius-orthonormal basis of the subspace.  That is the law of
    i.i.d. normals over the whole tensor projected onto the subspace, which
    is how earlier versions drew it; the values drawn for a given seed
    differ from theirs.

    Every coordinate is drawn here, but ∇R̄ and ∇²R̄, which
    `h_ii_recombination_error` never reads, are built from them on first
    read and cached: bit for bit the values of an eager scatter."""
    n, index, scale, shapes, lazy = _synthetic_table(dim)
    z = rng.normal(size=n)
    flat = z[index] * scale
    fields, start = {"dim": dim}, 0
    for name, shape in shapes:
        size = math.prod(shape)
        fields[name] = flat[start:start + size].reshape(shape)
        start += size
    fields["scal"] = float(fields["scal"])
    return _SyntheticJet(z, lazy, **fields)


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
    r0, row = f.riem[0, :, 0, :], f.ric[0]
    r6, r7 = f.riem[:, :, 0, :], f.riem[:, :, :, 0]
    return {
        "ric00": float(row[0]),
        "scal": float(f.scal),
        "p1": float(np.vdot(r0, f.ric)),
        "p3_all": float(row @ row),
        "p3_pos": float(row[1:] @ row[1:]),
        "p4": float(np.vdot(r0, r0)),
        "p6": float(np.vdot(r6, r6)),  # Σ (R̄_{iv0w})²
        "p7": float(np.vdot(r7, r7)),  # Σ (R̄_{ace0})²
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
    weights = {
        "tr_ii_ricbar": -0.5,
        "tr_ii_ric": +0.5,
        "H": -0.5 * (m * m - 2 * m),
        "lap_ii_log_detA": +0.25,
        "div_ii_Z": -0.5,
    }
    recombined = _combine(
        (w, _series_coefficients(f, q, inv).coeffs) for q, w in weights.items()
    )
    printed = _series_coefficients(f, "H_II", inv).coeffs
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
    """One immersion u ↦ exp_n(r·ξ(u)) per radius r > 0 in `radii`, for the
    direction field given as jets ``direction_fn(u_jets, r)`` = r·ξ(u).

    The radii ride one ``exp_map`` path, w = r_max·ξ with stops r/r_max.
    All members are evaluated together, once per node set
    (batch shape and seed values), at the highest jet order asked for so
    far; a lower order is their prefix slice on the monomial axis, served
    only when the incoming u-jets equal the cached seeds' prefix.  Cached
    arrays are read-only.
    """
    n = np.asarray(n, dtype=float)
    r_max = max(radii)
    stops = sorted({r / r_max for r in radii})
    memo: dict = {}

    def evaluate(space, u_jets):
        batch = u_jets[0].batch_shape
        x = np.zeros((space.n, chart.dim) + batch)
        x[0] = n.reshape((-1,) + (1,) * len(batch))
        w = amb._stack_list(direction_fn(u_jets, r_max))[1]
        ends = exp_map(chart, space, x, w, n_steps=n_steps, stops=stops)
        for end, _ in ends:
            end.flags.writeable = False
        return [ends[stops.index(r / r_max)][0] for r in radii]

    def member(u_jets, i):
        space, seeds = amb._stack_list(u_jets)
        key = (seeds.shape[2:], seeds[0].tobytes())
        hit = memo.get(key)
        if hit is None or len(hit[0]) < space.n or not np.array_equal(hit[0][: space.n], seeds):
            hit = (seeds, evaluate(space, u_jets))
            if key not in memo or len(memo[key][0]) <= space.n:
                memo[key] = hit
        c = hit[1][i]
        return [Jet(space, c[: space.n, a]) for a in range(chart.dim)]

    return [
        Immersion(chart, m, functools.partial(member, i=i), lo, hi, hint)
        for i in range(len(radii))
    ]


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
        if len(u_jets) > m:  # the radius as a jet, r + ε (`area_derivative_check`)
            r = u_jets[m] + r
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
    parameter box, with the normal of the orientation rule: inward where
    that makes tr A > 0 (on the unit S³, for r < π/2), else outward.
    Its map evaluated at m + 1 jets reads the last as ε and gives the
    sphere of radius r + ε.

    The map is ``ambient.exp_map`` on the coefficient arrays of the
    parameter jets: the closed-form geodesic flow on a space form, a flat
    chart or a product of them, and Chebyshev–Picard sweeps elsewhere, both
    exact to rounding (n_steps only spaces the domain checks).  It is a
    one-member family of `_exp_immersions`: evaluations on one node set
    share one geodesic computation.
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


SPHERE_GRID_SHAPES = {1: (64,), 2: (20, 40), 3: (10, 10, 20)}  # m -> default whole-sphere grid


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
        grid = grid_for_immersion(sphere, grid_shape or SPHERE_GRID_SHAPES[sphere.param_dim])
        out["Area"], out["Area_II"] = areas(sphere, grid)
    return out


def _fit_slope(radii, errors, floor):
    """Least-squares slope of log|error| against log r over the errors above
    `floor`; +inf when fewer than two are (rounding carries no rate)."""
    radii, errors = np.asarray(radii, float), np.abs(np.asarray(errors, float))
    good = errors > floor
    if np.sum(good) < 2:
        return math.inf
    return float(np.polyfit(np.log(radii[good]), np.log(errors[good]), 1)[0])


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
    Area_II is wanted."""
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
    chart: MetricChart, n, r: float, n_steps: int = 128, grid_shape=None
) -> dict:
    """∂_r Area_II(𝒢_n(r)) against the first-variation right-hand side
    −α ∫ f H_II dΩ_II over the sphere, with f = α ḡ(∂_r x, U).

    The radius is a jet: the sphere's map at m + 1 jets reads the last as ε
    and takes the radius r + ε, so one ``exp_map`` gives both the sphere at
    order 4 (its ε⁰ terms, which the II-geometry reads) and ∂_r Area_II
    (the ε-coefficient of the density, ``variation._area_rates``), with no
    step size.  By the Gauss lemma ∂_r x is the unit normal up to sign:
    |f| = 1 is asserted to 1e−9.
    """
    m = chart.dim - 1
    sphere = _geodesic_spheres(chart, n, [r], n_steps)[0]
    grid = grid_for_immersion(sphere, grid_shape or SPHERE_GRID_SHAPES[m])
    nodes = np.concatenate([grid.nodes, np.zeros((len(grid.nodes), 1))], axis=1)
    xc = amb._stack_list(sphere.map_fn(seed_jets(nodes, m + 1, 4)))[1]
    _, plain, along = _eps_monomials(m, 4)
    geo = _ii_geometry_from(_frame(sphere, jet_space(m, 4), xc[plain]), "raise")
    eps3 = jet_space(m + 1, 3)
    d_area = _area_rates(_frame(sphere, eps3, xc[: eps3.n]), grid.weights)[1]
    b = geo.base
    f = b.alpha * np.einsum("a...,ab...,b...->...", xc[along[0]], b.gbar[0], b.U[0])
    if np.max(np.abs(np.abs(f) - 1.0)) > 1e-9:
        raise GeometryError("radial variation field is not the unit normal")
    integral = _variation_rhs(geo, f, grid.weights)[1]
    return {"d_area_ii_dr": d_area, "h_ii_integral": integral, "relative_gap": _gap(d_area, integral)}
