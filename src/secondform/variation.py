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

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .ambient import _stack_list, exp_map
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
from .jets import Jet, _cofactors, jet_space, seed_jets

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


def refine(grid: QuadratureGrid) -> QuadratureGrid:
    return grid._refine()


def _check_shape_nonsingular(data):
    if np.min(np.abs(np.linalg.eigvals(data.shape))) < 1e-8:
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

    chart_linear moves chart coordinates along (f·s)·U; ambient_exponential
    is μ_s(u) = exp_{x(u)}((f·s)·U) by ``ambient.exp_map`` in jets (RK4 with
    step |s|/64 on charts without a closed-form geodesic flow).  Both have
    variational vector field f·U at s = 0.
    """

    base: Immersion
    f: Callable  # list of parameter jets -> jet
    s: float
    mode: str = "chart_linear"


def normal_deform(d: Deformation, check_grid: Optional[QuadratureGrid] = None) -> Immersion:
    """The deformed immersion μ_s, a one-member ``_exp_family``.

    The returned map re-seeds its input one Taylor order higher (the unit
    normal costs one derivative), so it must be evaluated at plain coordinate
    seeds, which is what every pipeline in this package does.  When
    `check_grid` is given, membership in the nondegenerate-II class is
    checked on its nodes (raises LeftEpsilonClass).
    """
    imm = _deformed_family(d.base, d.f, d.mode, [d.s])[0]
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
    s_values, errors = np.asarray(s_values, float), np.abs(np.asarray(errors, float))
    good = errors > floor
    if np.sum(good) < 2:
        return math.inf
    return float(np.polyfit(np.log(s_values[good]), np.log(errors[good]), 1)[0])


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _exp_family(chart, rays, scales, n_steps: int, linear: bool):
    """Map functions u ↦ exp_{x(u)}(w_s(u)), one per s in `scales`, for
    ``rays(u_jets)`` = (x, s ↦ w_s) on the parameter jets.

    With `linear` every member is the chart line x + w_s.  Otherwise the
    scales of one sign ride one path: w = w_e for the scale e of largest |s|
    among them, with stops s/e, so the step is |e|/n_steps (s = 0 is the
    chart line, exact there).  All members are evaluated together, once per
    node set (batch shape and seed values), at the highest jet order asked
    for so far; a lower order is their prefix slice on the monomial axis,
    served only when the incoming u-jets equal the cached seeds' prefix.
    Cached arrays are read-only.
    """
    memo: dict = {}

    def evaluate(u_jets):
        x, velocity = rays(u_jets)
        out = {}
        for sign in () if linear else (1.0, -1.0):
            same = [s for s in scales if s * sign > 0]
            if same:
                end = sign * max(s * sign for s in same)
                stops = sorted({s / end for s in same})
                ends = exp_map(chart, x, velocity(end), n_steps=n_steps, stops=stops)
                out.update((s, ends[stops.index(s / end)][0]) for s in same)
        for s in scales:
            if s not in out:
                out[s] = [xa + wa for xa, wa in zip(x, velocity(s))]
        return [[_read_only(j.coeffs) for j in out[s]] for s in scales]

    def member(u_jets, i):
        space, seeds = _stack_list(u_jets)
        key = (seeds.shape[2:], seeds[0].tobytes())
        hit = memo.get(key)
        if hit is None or len(hit[0]) < space.n or not np.array_equal(hit[0][: space.n], seeds):
            hit = (seeds, evaluate(u_jets))
            if key not in memo or len(memo[key][0]) <= space.n:
                memo[key] = hit
        return [Jet(space, c[: space.n]) for c in hit[1][i]]

    return [functools.partial(member, i=i) for i in range(len(scales))]


def _deformed_family(base: Immersion, f: Callable, mode: str, scales):
    """The deformed immersions μ_s, one per s in `scales`, as one
    ``_exp_family``: the base frame and the amplitude are evaluated once per
    node set for all of them."""
    if mode not in ("chart_linear", "ambient_exponential"):
        raise BadParameters(f"unknown deformation mode {mode!r}")
    # Pin the base's realized orientation: re-running the auto rule on the
    # deformed surface could flip the normal between +s and −s and destroy
    # the continuity of the family.
    orientation = resolved_orientation(base)
    dim = base.ambient.dim

    def rays(u_jets):
        # x at order k+1, w = (f·s)·U at order k (the normal costs one)
        u0 = np.stack([np.asarray(j.value, float) for j in u_jets], axis=-1)
        jets = seed_jets(u0, base.param_dim, u_jets[0].space.order + 1)
        b = frame_jets(base, jets)
        amp = f(jets)
        x = [Jet(b.space(b.xc), b.xc[:, a]) for a in range(dim)]
        normal = [Jet(b.space(b.U), b.U[:, a]) for a in range(dim)]

        def velocity(s):
            scaled = amp * s
            return [scaled * u for u in normal]

        return x, velocity

    maps = _exp_family(base.ambient, rays, scales, 64, mode == "chart_linear")
    return [
        Immersion(
            ambient=base.ambient, param_dim=base.param_dim, map_fn=map_fn,
            param_lo=base.param_lo, param_hi=base.param_hi,
            orientation=orientation, grid_hint=base.grid_hint,
        )
        for map_fn in maps
    ]


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

    The ±s ladder is one ``_exp_family``: one base frame on the grid and,
    in ambient_exponential mode, one path per sign of s (step s_max/64).

    `geo`, when given, must be ``ii_geometry(imm, grid.nodes)`` with every
    point valid, already computed by the caller.
    """
    m = imm.param_dim
    if geo is None:
        geo = ii_geometry(imm, grid.nodes)
    data = geo.base
    alpha = float(np.asarray(data.alpha).ravel()[0])
    fvals = _f_values(f, grid.nodes, m)
    d_omega = _area_density(data) * grid.weights
    d_omega_ii = d_omega * np.sqrt(np.abs(data.detA))
    rhs_area = float(-m * alpha * np.sum(fvals * data.mean * d_omega))
    rhs_area_ii = float(-alpha * np.sum(fvals * geo.h_ii["variational"] * d_omega_ii))

    family = _deformed_family(imm, f, mode, [t for s in s_ladder for t in (s, -s)])
    diffs_a, diffs_aii = [], []
    for s, plus, minus in zip(s_ladder, family[::2], family[1::2]):
        a_p, aii_p = _areas_with_class_check(plus, grid)
        a_m, aii_m = _areas_with_class_check(minus, grid)
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
    m = imm.param_dim

    riem_bar, _, _ = ambient_curvature_on_jets(imm.ambient, jet_space(m, 0), data.xc, data.gbar)
    rb = _cvals(riem_bar, data.batched)
    curv_term = np.einsum(
        "...abcf,...a,...b,...c,...f->...",
        rb, data.normal, data.tangent[..., i, :], data.normal, data.tangent[..., j, :],
    )
    gam = _cvals(intrinsic_curvature_jets(data).gamma, data.batched)
    u_jets = seed_jets(u, m, 2)
    fj = f(u_jets)
    hess = np.asarray(fj.partial(i).partial(j).value) - sum(
        gam[..., k, i, j] * np.asarray(fj.partial(k).value) for k in range(m)
    )
    fval = np.asarray(fj.value)
    formula = data.alpha * fval * (curv_term - data.third[..., i, j]) + hess

    family = _deformed_family(imm, f, "chart_linear", [t for s in s_ladder for t in (s, -s)])
    diffs = []
    for s, imm_p, imm_m in zip(s_ladder, family[::2], family[1::2]):
        plus = surface_point(imm_p, u, order=2)
        minus = surface_point(imm_m, u, order=2)
        diffs.append((plus.second[..., i, j] - minus.second[..., i, j]) / (2 * s))
    numeric = _richardson(diffs)
    gap = abs(numeric - formula) / (1 + abs(formula))
    return float(numeric), float(formula), float(gap)
