"""Quadrature for Area and Area_II and the first-variation identities.

The first-variation identities under a deformation with normal amplitude f,

    d/ds Area    = −m α ∫ f H dΩ,
    d/ds Area_II = −α ∫ f H_II dΩ_II,

are checked exactly.  d/ds at s = 0 depends only on the variation field
f·U, so the map x + ε·f·U, with ε one more jet variable next to the m
parameters, carries d/ds Area and d/ds Area_II as the ε-coefficients of the
densities √|det g| and √|det g|·√|det A|: one frame pass, with no step size
and no extrapolation (forward-mode Taylor arithmetic; Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., ch. 3 and 13).  No deformed immersion
μ_s is built.  The quadrature grids put Gauss–Legendre nodes on open axes
(latitude, graph coordinates) and uniform nodes on periodic ones, so closed
surfaces integrate spectrally; both sides of each identity share one grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BadParameters, GeometryError, SingularShapeOperator
from .hypersurface import (
    ORIENTATION_TIE,
    Immersion,
    _cvals,
    _frame,
    ambient_curvature_on_jets,
    intrinsic_curvature_jets,
    surface_point,
)
from .iigeom import SHAPE_EIGENVALUE_FLOOR, ii_geometry
from .jets import Jet, _cauchy, _cofactors, _wedge, jet_space, seed_jets

__all__ = [
    "QuadratureGrid",
    "grid_for_immersion",
    "tensor_gauss_legendre",
    "lat_long_sphere",
    "area",
    "areas",
    "first_variation_check",
    "second_form_variation_check",
    "FirstVariationResult",
]


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes and positive weights over a parameter box; Σ weights = volume."""

    nodes: np.ndarray  # (N, m)
    weights: np.ndarray  # (N,)
    scheme: str
    shape: tuple


def _axis_rule(lo, hi, n, kind):
    if kind == "per":
        h = (hi - lo) / n
        return lo + h * (np.arange(n) + 0.5), np.full(n, h)
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (hi - lo) * (x + 1.0) + lo, 0.5 * (hi - lo) * w


def _tensor_grid(lo, hi, shape, kinds, scheme):
    axes = [_axis_rule(lo[i], hi[i], shape[i], kinds[i]) for i in range(len(shape))]
    mesh = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    wmesh = np.meshgrid(*[a[1] for a in axes], indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=-1)
    weights = np.ones(nodes.shape[0])
    for w in wmesh:
        weights = weights * w.ravel()
    return QuadratureGrid(nodes=nodes, weights=weights, scheme=scheme, shape=tuple(shape))


def tensor_gauss_legendre(lo, hi, shape, periodic=None) -> QuadratureGrid:
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    kinds = ["per" if periodic and periodic[i] else "gl" for i in range(len(shape))]
    return _tensor_grid(lo, hi, list(shape), kinds, "tensor_gauss_legendre")


def lat_long_sphere(n_lat: int, n_long: int) -> QuadratureGrid:
    """Gauss–Legendre colatitude × uniform longitude on (0,π) × (0,2π)."""
    return _tensor_grid(
        np.array([0.0, 0.0]), np.array([math.pi, 2 * math.pi]),
        [n_lat, n_long], ["gl", "per"], "lat_long_sphere",
    )


def grid_for_immersion(imm: Immersion, shape) -> QuadratureGrid:
    """Tensor grid matching the immersion's per-axis open/periodic structure;
    `shape` holds one positive integer size per parameter axis."""
    hint = imm.grid_hint or ("gl",) * imm.param_dim
    if not isinstance(shape, (list, tuple)) or not all(
        isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n > 0 for n in shape
    ):
        raise BadParameters(f"grid sizes must be positive integers, got {shape!r}")
    if len(shape) != imm.param_dim:
        raise BadParameters("grid shape rank must equal the parameter dimension")
    scheme = "lat_long_sphere" if hint == ("gl",) * (imm.param_dim - 1) + ("per",) else "tensor_gauss_legendre"
    return _tensor_grid(imm.param_lo, imm.param_hi, list(shape), list(hint), scheme)


def _check_shape_nonsingular(data):
    """The singular-shape rule of ``ii_geometry``: the moduli of the frame's
    principal solve against ``SHAPE_EIGENVALUE_FLOOR``."""
    if np.min(data.principal[4]) < SHAPE_EIGENVALUE_FLOOR:
        raise SingularShapeOperator("shape operator singular on a quadrature node")


def _area_density(data):
    """√|det g| at the frame's points, the density of dΩ."""
    return np.sqrt(np.abs(_cofactors(data.g[0])[1]))


def _area_pair(data, grid: QuadratureGrid):
    """(Area, Area_II) from one surface pass over the grid nodes."""
    dens = _area_density(data)
    return float(grid.weights @ dens), float(grid.weights @ (dens * np.sqrt(np.abs(data.detA))))


def area(imm: Immersion, grid: QuadratureGrid, which: str = "first_form") -> float:
    """∫ dΩ or ∫ √|det A| dΩ over the grid."""
    data = surface_point(imm, grid.nodes, order=2)
    if which == "second_form":
        _check_shape_nonsingular(data)
    elif which != "first_form":
        raise BadParameters(f"unknown area functional {which!r}")
    return _area_pair(data, grid)[which == "second_form"]


def areas(imm: Immersion, grid: QuadratureGrid):
    """(Area, Area_II) from one surface pass; the same values, and the same
    SingularShapeOperator check, as ``area`` with each functional."""
    data = surface_point(imm, grid.nodes, order=2)
    _check_shape_nonsingular(data)
    return _area_pair(data, grid)


# ---------------------------------------------------------------------------
# first variation
# ---------------------------------------------------------------------------


@dataclass
class FirstVariationResult:
    lhs_area: float  # d/ds Area at s = 0, read off the ε-coefficients
    rhs_area: float
    lhs_area_ii: float
    rhs_area_ii: float
    gaps: dict


def _eps_monomials(m: int, order: int):
    """``jet_space(m + 1, order)``, whose last variable is ε, and the indices
    there of the monomials u^a (a over ``jet_space(m, order)``) and u^a·ε
    (a over ``jet_space(m, order − 1)``)."""
    big = jet_space(m + 1, order)
    plain = [big.index[a + (0,)] for a in jet_space(m, order).monomials]
    along = [big.index[a + (1,)] for a in jet_space(m, order - 1).monomials]
    return big, plain, along


def _normal_variation(data, amp):
    """The frame of x + ε·f·U over the m parameters and ε (order 3), from a
    base frame at order ≥ 3 and the coefficient array of f at order ≥ 2."""
    m = data.imm.param_dim
    big, plain, along = _eps_monomials(m, 3)
    xc = np.zeros((big.n,) + data.xc.shape[1:])
    xc[plain] = data.xc[: len(plain)]
    xc[along] = _cauchy(jet_space(m, 2), amp[:, None], data.U)
    return _frame(data.imm, big, xc)


def _area_rates(eps_frame, weights):
    """(d/dε Area, d/dε Area_II) at ε = 0: the weighted ε-coefficients of
    √|det g| and √|det g|·√|det A|, the square roots lifted on jets."""
    m = eps_frame.imm.param_dim
    sp = jet_space(m + 1, 1)
    g = eps_frame.g[: sp.n]
    dens = Jet(sp, _wedge(sp, [g[:, :, j] for j in range(m)])).sqrt_abs()
    dens_ii = dens * Jet(sp, eps_frame.detAc[: sp.n]).sqrt_abs()
    k = sp.index[(0,) * m + (1,)]
    return float(weights @ dens.coeffs[k]), float(weights @ dens_ii.coeffs[k])


def _variation_rhs(geo, f, weights):
    """(−m ∫ α f H dΩ, −∫ α f H_II dΩ_II) for amplitude values f on the grid
    of `geo`."""
    data = geo.base
    d_omega = _area_density(data) * weights * data.alpha * f
    return (
        float(-data.imm.param_dim * np.sum(data.mean * d_omega)),
        float(-np.sum(geo.h_ii["variational"] * d_omega * np.sqrt(np.abs(data.detA)))),
    )


def _gap(lhs, rhs):
    return abs(lhs - rhs) / (1 + abs(rhs))


def _check_one_normal(data):
    """Raise where the auto orientation rule flipped the normal at some
    decidable points (|tr A| > ORIENTATION_TIE) and kept it at others: the
    first-variation identities integrate by parts over one continuous normal
    field."""
    if data.imm.orientation == 0:
        kept = ~data.flips & (np.einsum("ii...->...", data.A[0]) > ORIENTATION_TIE)
        if np.any(data.flips) and np.any(kept):
            raise GeometryError(
                f"the auto orientation rule flipped the normal at {int(np.sum(data.flips))} "
                f"of the grid's points and kept it at {int(np.sum(kept))}; pass orientation "
                "+1 or -1 for one continuous normal field"
            )


def first_variation_check(
    imm: Immersion, f: Callable, grid: QuadratureGrid, geo=None
) -> FirstVariationResult:
    """Compare d/ds Area and d/ds Area_II at s = 0 with the H and H_II
    integrals for the deformation with normal amplitude f.

    The left-hand sides are exact up to rounding: the ε-coefficients of the
    densities of x + ε·f·U (`_area_rates`), built on the base frame's x and
    U.  The orientation rule reads only the ε⁰ terms, so every point keeps
    the base's normal.  Raises GeometryError where the auto rule
    (orientation 0) flipped that normal at some decidable points of the grid
    and not at others.

    `geo`, when given, must be ``ii_geometry(imm, grid.nodes)`` with every
    point valid, already computed by the caller.
    """
    m = imm.param_dim
    if geo is None:
        geo = ii_geometry(imm, grid.nodes)
    _check_one_normal(geo.base)
    amp = f(seed_jets(grid.nodes, m, 2)).coeffs
    lhs_area, lhs_area_ii = _area_rates(_normal_variation(geo.base, amp), grid.weights)
    rhs_area, rhs_area_ii = _variation_rhs(geo, amp[0], grid.weights)
    return FirstVariationResult(
        lhs_area=lhs_area,
        rhs_area=rhs_area,
        lhs_area_ii=lhs_area_ii,
        rhs_area_ii=rhs_area_ii,
        gaps={"area": _gap(lhs_area, rhs_area), "area_ii": _gap(lhs_area_ii, rhs_area_ii)},
    )


def second_form_variation_check(imm: Immersion, f: Callable, u, i: int, j: int):
    """d/ds II(μ_s)(∂_i,∂_j) at s = 0, the ε-coefficient of II for
    x + ε·f·U, against α f (ḡ(R̄(U,∂_i)U,∂_j) − III(∂_i,∂_j)) + Hess_f(∂_i,∂_j).
    Both sides come from the arrays of one frame at u."""
    u = np.asarray(u, dtype=float)
    data = surface_point(imm, u, order=3)
    m = imm.param_dim

    riem_bar, _, _ = ambient_curvature_on_jets(imm.ambient, jet_space(m, 0), data.xc, data.gbar)
    rb = _cvals(riem_bar, data.batched)
    curv_term = np.einsum(
        "...abcf,...a,...b,...c,...f->...",
        rb, data.normal, data.tangent[..., i, :], data.normal, data.tangent[..., j, :],
    )
    gam = _cvals(intrinsic_curvature_jets(data).gamma, data.batched)
    fj = f(seed_jets(u, m, 2))
    hess = np.asarray(fj.partial(i).partial(j).value) - sum(
        gam[..., k, i, j] * np.asarray(fj.partial(k).value) for k in range(m)
    )
    fval = np.asarray(fj.value)
    formula = data.alpha * fval * (curv_term - data.third[..., i, j]) + hess

    ii = _normal_variation(data, fj.coeffs).II
    numeric = ii[jet_space(m + 1, 1).index[(0,) * m + (1,)], i, j]
    return float(numeric), float(formula), float(_gap(numeric, formula))
