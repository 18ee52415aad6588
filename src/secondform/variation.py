"""Quadrature for Area and Area_II, normal deformations, first variation.

The first-variation identities under a deformation with normal amplitude f,

    d/ds Area    = −m α ∫ f H dΩ,
    d/ds Area_II = −α ∫ f H_II dΩ_II,

are verified by central finite differences in the deformation parameter with
an s-halving Richardson ladder.  The quadrature grids put Gauss–Legendre
nodes on open axes (latitude, graph coordinates) and uniform nodes on
periodic ones, so closed surfaces integrate spectrally and the s-truncation
error dominates the measured gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .ambient import exp_map
from .errors import (
    BadParameters,
    GeometryError,
    LeftEpsilonClass,
    SingularShapeOperator,
)
from .hypersurface import (
    Immersion,
    _cvals,
    ambient_curvature_on_jets,
    frame_jets,
    intrinsic_curvature_jets,
    resolved_orientation,
    surface_point,
)
from .iigeom import ii_geometry
from .jets import Jet, jet_space, seed_jets

__all__ = [
    "QuadratureGrid",
    "Deformation",
    "grid_for_immersion",
    "tensor_gauss_legendre",
    "lat_long_sphere",
    "area",
    "areas",
    "area_with_refinement",
    "normal_deform",
    "first_variation_check",
    "second_form_variation_check",
    "FirstVariationResult",
]

DEFAULT_S_LADDER = (1e-2, 5e-3, 2.5e-3)
EPSILON_CLASS_FLOOR = 1e-6


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
    grid = QuadratureGrid(nodes=nodes, weights=weights, scheme=scheme, shape=tuple(shape))
    object.__setattr__(
        grid, "_refine", lambda: _tensor_grid(lo, hi, [2 * s for s in shape], kinds, scheme)
    )
    return grid


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
    """Tensor grid matching the immersion's per-axis open/periodic structure."""
    hint = imm.grid_hint or ("gl",) * imm.param_dim
    if len(shape) != imm.param_dim:
        raise BadParameters("grid shape rank must equal the parameter dimension")
    scheme = "lat_long_sphere" if hint == ("gl",) * (imm.param_dim - 1) + ("per",) else "tensor_gauss_legendre"
    return _tensor_grid(imm.param_lo, imm.param_hi, list(shape), list(hint), scheme)


def refine(grid: QuadratureGrid) -> QuadratureGrid:
    return grid._refine()


def _check_shape_nonsingular(data):
    if np.min(np.abs(np.linalg.eigvals(data.shape))) < 1e-8:
        raise SingularShapeOperator("shape operator singular on a quadrature node")


def _area_pair(data, grid: QuadratureGrid):
    """(Area, Area_II) from one surface pass over the grid nodes."""
    dens = np.sqrt(np.abs(np.linalg.det(data.first)))
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


def area_with_refinement(imm: Immersion, grid: QuadratureGrid, which: str = "first_form"):
    """(value on the refined grid, Richardson-style error estimate)."""
    coarse = area(imm, grid, which)
    fine = area(imm, refine(grid), which)
    return fine, abs(fine - coarse)


# ---------------------------------------------------------------------------
# deformations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Deformation:
    """Normal deformation of amplitude f at parameter s.

    chart_linear moves chart coordinates along s·f·U; ambient_exponential
    follows ambient geodesics for arclength s·f.  Both have variational
    vector field f·U at s = 0.
    """

    base: Immersion
    f: Callable  # list of parameter jets -> jet
    s: float
    mode: str = "chart_linear"


def normal_deform(d: Deformation, check_grid: Optional[QuadratureGrid] = None) -> Immersion:
    """The deformed immersion μ_s.

    The returned map re-seeds its input one Taylor order higher (the unit
    normal costs one derivative), so it must be evaluated at plain coordinate
    seeds, which is what every pipeline in this package does.  When
    `check_grid` is given, membership in the nondegenerate-II class is
    checked on its nodes (raises LeftEpsilonClass).
    """
    imm = _deformed_family(d.base, d.f, d.mode)(float(d.s))
    if check_grid is not None:
        _class_checked_point(imm, check_grid)
    return imm


# ---------------------------------------------------------------------------
# first variation
# ---------------------------------------------------------------------------


@dataclass
class FirstVariationResult:
    lhs_area: float
    rhs_area: float
    lhs_area_ii: float
    rhs_area_ii: float
    gaps: dict
    s_ladder: tuple
    diffs_area: np.ndarray  # central differences at each s
    diffs_area_ii: np.ndarray
    slope_area: float
    slope_area_ii: float


def _f_values(f, nodes, m):
    jets = seed_jets(nodes, m, 0)
    out = f(jets)
    return np.broadcast_to(np.asarray(out.value), nodes.shape[:-1])


def _richardson(values):
    """One limit value from a ladder of s-halved central differences."""
    vals = list(values)
    while len(vals) > 1:
        vals = [(4 * vals[i + 1] - vals[i]) / 3.0 for i in range(len(vals) - 1)]
    return vals[0]


def _fit_slope(s_values, errors, floor=1e-11):
    """Least-squares slope of log|error| vs log s.

    Errors already at roundoff level carry no rate information (this happens
    when the functional is exactly polynomial in s, e.g. concentric spheres);
    if fewer than two ladder points sit above the floor the gap has fully
    converged and the slope is reported as +inf.
    """
    s_values, errors = np.asarray(s_values, float), np.asarray(errors, float)
    good = errors > floor
    if np.sum(good) < 2:
        return math.inf
    return float(np.polyfit(np.log(s_values[good]), np.log(errors[good]), 1)[0])


def _deformed_family(base: Immersion, f: Callable, mode: str):
    """Deformed immersions sharing one evaluation of the base pipeline.

    All members of the s-ladder are evaluated at the same grid seeds, so the
    base frame jets and the amplitude are computed once and reused (guarded
    by comparing the seed points)."""
    if mode not in ("chart_linear", "ambient_exponential"):
        raise BadParameters(f"unknown deformation mode {mode!r}")
    # Pin the base's realized orientation: re-running the auto rule on the
    # deformed surface could flip the normal between +s and −s and destroy
    # the continuity of the family.
    orientation = resolved_orientation(base)
    dim = base.ambient.dim
    cache: dict = {}

    def make(s: float) -> Immersion:
        def map_fn(u_jets):
            order = u_jets[0].space.order
            u0 = np.stack([np.asarray(j.value, float) for j in u_jets], axis=-1)
            entry = cache.get(order)
            if entry is None or entry[0].shape != u0.shape or not np.array_equal(entry[0], u0):
                jets = seed_jets(u0, base.param_dim, order + 1)
                b = frame_jets(base, jets, check_two_routes=False)
                entry = (u0, b, f(jets))
                cache[order] = entry
            _, b, amp = entry
            scaled = amp * s
            x = [Jet(b.space(b.x), b.x[:, a]) for a in range(dim)]
            w = [scaled * Jet(b.space(b.U), b.U[:, a]) for a in range(dim)]
            if mode == "chart_linear":
                out = [x[a] + w[a] for a in range(dim)]
            else:
                # x at order k+1, w = s·f·U at order k (the normal costs one)
                out, _ = exp_map(base.ambient, x, w, n_steps=64)
            return [o.truncate(order) for o in out]

        return Immersion(
            ambient=base.ambient, param_dim=base.param_dim, map_fn=map_fn,
            param_lo=base.param_lo, param_hi=base.param_hi,
            orientation=orientation, grid_hint=base.grid_hint,
        )

    return make


def _class_checked_point(imm: Immersion, grid: QuadratureGrid):
    """``surface_point`` on the grid nodes, raising LeftEpsilonClass on exit
    from the nondegenerate-II class."""
    try:
        data = surface_point(imm, grid.nodes, order=2)
    except GeometryError as exc:
        raise LeftEpsilonClass(f"deformed immersion degenerate: {exc}") from exc
    lam_mod = np.abs(np.linalg.eigvals(data.shape))
    if np.min(lam_mod) <= EPSILON_CLASS_FLOOR:
        raise LeftEpsilonClass(
            f"deformation left the nondegenerate-II class (min |λ| = {np.min(lam_mod):.2e})"
        )
    return data


def _areas_with_class_check(imm_s: Immersion, grid: QuadratureGrid):
    """(Area, Area_II) in one surface pass, raising LeftEpsilonClass on exit
    from the nondegenerate-II class."""
    return _area_pair(_class_checked_point(imm_s, grid), grid)


def first_variation_check(
    imm: Immersion,
    f: Callable,
    grid: QuadratureGrid,
    s_ladder=DEFAULT_S_LADDER,
    mode: str = "chart_linear",
    geo=None,
) -> FirstVariationResult:
    """Compare finite-difference dArea/ds and dArea_II/ds with the H/H_II
    integrals for the deformation with normal amplitude f.

    `geo`, when given, must be ``ii_geometry(imm, grid.nodes)`` with every
    point valid, already computed by the caller.
    """
    m = imm.param_dim
    if geo is None:
        geo = ii_geometry(imm, grid.nodes)
    data = geo.base
    alpha = float(np.asarray(data.alpha).ravel()[0])
    fvals = _f_values(f, grid.nodes, m)
    d_omega = np.sqrt(np.abs(np.linalg.det(data.first))) * grid.weights
    d_omega_ii = d_omega * np.sqrt(np.abs(data.detA))
    rhs_area = float(-m * alpha * np.sum(fvals * data.mean * d_omega))
    rhs_area_ii = float(-alpha * np.sum(fvals * geo.h_ii["variational"] * d_omega_ii))

    family = _deformed_family(imm, f, mode)
    diffs_a, diffs_aii = [], []
    for s in s_ladder:
        a_p, aii_p = _areas_with_class_check(family(+s), grid)
        a_m, aii_m = _areas_with_class_check(family(-s), grid)
        diffs_a.append((a_p - a_m) / (2 * s))
        diffs_aii.append((aii_p - aii_m) / (2 * s))
    lhs_area = _richardson(diffs_a)
    lhs_area_ii = _richardson(diffs_aii)
    gaps = {
        "area": abs(lhs_area - rhs_area) / (1 + abs(rhs_area)),
        "area_ii": abs(lhs_area_ii - rhs_area_ii) / (1 + abs(rhs_area_ii)),
    }
    return FirstVariationResult(
        lhs_area=lhs_area,
        rhs_area=rhs_area,
        lhs_area_ii=lhs_area_ii,
        rhs_area_ii=rhs_area_ii,
        gaps=gaps,
        s_ladder=tuple(s_ladder),
        diffs_area=np.asarray(diffs_a),
        diffs_area_ii=np.asarray(diffs_aii),
        slope_area=_fit_slope(
            s_ladder, [abs(v - rhs_area) for v in diffs_a], floor=1e-11 * (1 + abs(rhs_area))
        ),
        slope_area_ii=_fit_slope(
            s_ladder,
            [abs(v - rhs_area_ii) for v in diffs_aii],
            floor=1e-11 * (1 + abs(rhs_area_ii)),
        ),
    )


def second_form_variation_check(
    imm: Immersion, f: Callable, u, i: int, j: int, s_ladder=(1e-3, 5e-4)
):
    """d/ds II(μ_s)(∂_i,∂_j) vs α f (ḡ(R̄(U,∂_i)U,∂_j) − III(∂_i,∂_j)) + Hess_f(∂_i,∂_j)."""
    u = np.asarray(u, dtype=float)
    data = surface_point(imm, u, order=3)
    b = data._bundle
    m = imm.param_dim

    riem_bar, _, _ = ambient_curvature_on_jets(imm.ambient, jet_space(m, 0), b.x, b.gbar)
    rb = _cvals(riem_bar, b.batched)
    curv_term = np.einsum(
        "...abcf,...a,...b,...c,...f->...",
        rb, data.normal, data.tangent[..., i, :], data.normal, data.tangent[..., j, :],
    )
    gam = _cvals(intrinsic_curvature_jets(b).gamma, b.batched)
    u_jets = seed_jets(u, m, 2)
    fj = f(u_jets)
    hess = np.asarray(fj.partial(i).partial(j).value) - sum(
        gam[..., k, i, j] * np.asarray(fj.partial(k).value) for k in range(m)
    )
    fval = np.asarray(fj.value)
    formula = data.alpha * fval * (curv_term - data.third[..., i, j]) + hess

    diffs = []
    for s in s_ladder:
        plus = surface_point(normal_deform(Deformation(imm, f, +s)), u, order=2)
        minus = surface_point(normal_deform(Deformation(imm, f, -s)), u, order=2)
        diffs.append((plus.second[..., i, j] - minus.second[..., i, j]) / (2 * s))
    numeric = _richardson(diffs)
    gap = abs(numeric - formula) / (1 + abs(formula))
    return float(numeric), float(formula), float(gap)
