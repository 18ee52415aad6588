"""Ambient semi-Riemannian charts and their curvature data.

A chart packages a metric-component function evaluated on jet coefficient
arrays, together with the gradient of the conformal exponent, off which the
geodesic integrator and the frame read the connection, and the Schouten
tensor, off which the curvature along a patch is read (see
:class:`MetricChart`); a product chart is built from such conformal blocks.
All model spaces (the six constant-curvature spaces and products of
Riemannian factors) are conformally flat in the chart used here,

    ḡ_ab = ε_a δ_ab / (1 + C̄⟨x,x⟩_ε/4)²,

so one construction covers them all.  Their geodesics have a closed form
too: the chart is the stereographic image of the quadric
C̄⟨y,y⟩_ε + z² = 1, on which a geodesic is Y(t) = C(q t²)·Y₀ + t·S(q t²)·Y₀′
(`_quadric_flow`).  `exp_map` reads γ(t) off that formula on these charts
and their products, in about 25 jet products per stop, and by
Chebyshev–Picard sweeps on charts without it (`bumpy_e3` and its products).

Every tensor of jets is one coefficient array (n_mono, *tensor, *batch),
contracted with ``jets.jeinsum``.  One chain, ``_curvature_chain``, takes
any metric given that way (the ambient ḡ at points, for `curvature_jet` and
`christoffel`, the independent oracle of the closed forms, and in
``hypersurface`` and ``iigeom`` the induced metric g and II itself) through

    Γ^k_ij = ½g^{kl}(∂_i g_lj + ∂_j g_li − ∂_l g_ij),
    R^l_ijk = ∂_j Γ^l_ik − ∂_i Γ^l_jk + Γ^l_js Γ^s_ik − Γ^l_is Γ^s_jk,

then R_ijkl = R^s_ijk g_sl, Ric_jl = g^{ik}R_ijkl and S = g^{jl}Ric_jl; Γ
is one jet order below the metric, the curvature two.

Curvature convention (fixed once, asserted against space forms in the tests):

    R(X,Y)Z = ∇_{[X,Y]}Z − ∇_X∇_Y Z + ∇_Y∇_X Z,
    R_{ijkl} = ḡ(R(∂_i,∂_j)∂_k, ∂_l),

which makes the sectional curvature of an orthonormal plane K = R(X,Y,X,Y)
and gives space forms R_{ijkl} = C̄(ḡ_ik ḡ_jl − ḡ_il ḡ_jk).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import (
    BadDirection,
    DegenerateMetric,
    LeftDomain,
    OutOfDomain,
    StepFailure,
    UnsupportedSignature,
    _lookup,
)
from .jets import Jet, _cauchy, _col, _inv, _lead, _lift, jeinsum, jet_space, seed_jets

__all__ = [
    "MetricChart",
    "CurvatureJet",
    "space_form",
    "product_chart",
    "flat_chart",
    "registry_chart",
    "chart_from_descriptor",
    "christoffel",
    "curvature_jet",
    "exp_map",
    "metric_value",
    "orthonormal_frame",
    "CHART_REGISTRY",
]

DEGENERACY_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class MetricChart:
    """One coordinate chart of an ambient semi-Riemannian manifold.

    The chart functions work on coefficient arrays at a jet space `space`
    (monomial axis first, then tensor axes, then batch axes); the
    coordinates `x` have shape (space.n, dim, *batch).

    * `metric_fn(space, x)` returns ḡ_ab, shape (space.n, dim, dim, *batch).
    * `sigma_grad_fn(space, x)`, on a conformal chart ḡ = ε δ e^{2σ} (ε
      the signs of `index`), returns ∂_a σ on axis 1, shape
      (space.n, dim, *batch), or None where σ ≡ 0.  The connection is read
      off it: Γ̄ (:func:`christoffel_on_jets`), Γ̄ contracted with a
      covector (:func:`christoffel_u_on_jets`) and the geodesic right-hand
      side (:func:`geodesic_rhs`).
    * The curvature (``hypersurface.ambient_curvature_on_jets``) is read
      off the Schouten tensor P̄: (C̄/2)ḡ where `curvature_const` is C̄,
      else `schouten_fn(space, x)`, shape (space.n, dim, dim, *batch).
    * `geodesic_flow(space, x, w, ts)` (optional) returns the geodesic from
      x with velocity w in closed form: (x_t, v_t), each of shape
      (len(ts), space.n, dim, *batch), at the times ts, or None where its
      formula loses accuracy (see `_quadric_flow`).

    A product chart has none of the first three of its own: it is built
    from its conformal blocks, `product_factors`.
    """

    dim: int
    index: int
    metric_fn: Callable
    domain_lo: np.ndarray
    domain_hi: np.ndarray
    descriptor: dict
    sigma_grad_fn: Optional[Callable] = None
    schouten_fn: Optional[Callable] = None
    geodesic_flow: Optional[Callable] = None
    predicate_fn: Optional[Callable] = None
    curvature_const: Optional[float] = None
    product_factors: Optional[tuple] = None  # ((chart, slice), ...)
    conjugate_radius: float = math.inf
    name: str = "chart"

    def __post_init__(self):
        conformal = self.sigma_grad_fn is not None and (self.curvature_const, self.schouten_fn) != (None, None)
        if self.product_factors is None and not conformal:
            raise ValueError(f"{self.name}: a chart needs a σ-gradient and C̄ or P̄, or product factors")

    def contains(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        inside = np.all((x > self.domain_lo) & (x < self.domain_hi), axis=-1)
        if self.predicate_fn is not None:
            inside = inside & self.predicate_fn(x)
        return inside

    def __repr__(self):
        return f"MetricChart({self.name}, dim={self.dim}, index={self.index})"


@dataclass
class CurvatureJet:
    """Pointwise curvature data of an ambient chart.

    Index conventions: `riem[i,j,k,l]` = R_{ijkl} as in the module docstring,
    `nabla_riem[a,i,j,k,l]` = ∇_a R_{ijkl}, `nabla2_riem[a,b,...]` = ∇_a∇_b R,
    and likewise for the Ricci fields.  Arrays may carry trailing batch axes.
    """

    point: np.ndarray
    dim: int
    index: int
    order: int
    metric: np.ndarray
    metric_inv: np.ndarray
    gamma: np.ndarray
    riem: np.ndarray
    ricci: np.ndarray
    scalar: np.ndarray
    nabla_riem: Optional[np.ndarray] = None
    nabla_ricci: Optional[np.ndarray] = None
    grad_scalar: Optional[np.ndarray] = None
    nabla2_riem: Optional[np.ndarray] = None
    nabla2_ricci: Optional[np.ndarray] = None
    hess_scalar: Optional[np.ndarray] = None
    lap_ricci: Optional[np.ndarray] = None


# ---------------------------------------------------------------------------
# jet-level tensor calculus
# ---------------------------------------------------------------------------


def _stack_list(jets):
    """(space, coefficient array (space.n, len(jets), *batch)) of a list of
    jets, at their lowest order as jet arithmetic would combine them."""
    if len({j.space.nvars for j in jets}) > 1:
        raise ValueError("cannot mix jets over different variable sets")
    space = jet_space(jets[0].space.nvars, min(j.space.order for j in jets))
    coeffs = [j.coeffs[: space.n] for j in jets]
    batch = np.broadcast_shapes(*(c.shape[1:] for c in coeffs))
    return space, np.stack([np.broadcast_to(_lead(c, len(batch)), c.shape[:1] + batch) for c in coeffs], axis=1)


def _tsum(c):
    """Σ over the tensor axis 1 of a coefficient array, in index order."""
    acc = c[:, 0]
    for a in range(1, c.shape[1]):
        acc = acc + c[:, a]
    return acc


def _grad(c, space):
    """∂_a of a coefficient array at `space`, as a new first tensor axis, one order down."""
    bcast = (-1,) + (1,) * (c.ndim - 1)
    return np.stack([c[src] * fac.reshape(bcast) for src, fac in space._diff_maps], axis=1)


def _cov_deriv(c, gamma, space, rank):
    """(∇T)_{a i…} = ∂_a T_{i…} − Σ_slot Γ^s_{a i_slot} T_{…s…}, one order down,
    for a covariant rank-`rank` tensor T given as a coefficient array at `space`."""
    lower = jet_space(space.nvars, space.order - 1)
    out = _grad(c, space)
    idx = "bcdefghijk"[:rank]
    for slot, i in enumerate(idx):
        out -= jeinsum(lower, f"sa{i}...,{idx[:slot]}s{idx[slot + 1:]}...->a{idx}...", gamma, c)
    return out


class _Curvature(NamedTuple):
    """The curvature chain of one metric g given at jet order p, as coefficient
    arrays (n_mono, *tensor, *batch): g⁻¹ and Γ^k_ij (k first) at order p − 1,
    R_ijkl, Ric_jl and S at order p − 2 (None when p < 2)."""

    ginv: np.ndarray
    gamma: np.ndarray
    riem: Optional[np.ndarray] = None
    ric: Optional[np.ndarray] = None
    scal: Optional[np.ndarray] = None


def _levi_civita(space, g, ginv=None):
    """(g⁻¹, Γ^k_ij = ½g^{kl}(∂_i g_lj + ∂_j g_li − ∂_l g_ij)) of a metric
    coefficient array g (n_mono, d, d, *batch) at `space`, one order down.
    `ginv`, when given, is g⁻¹ at that order or above."""
    lower = jet_space(space.nvars, space.order - 1)
    if ginv is None:
        ginv = _inv(lower, g)
    dg = _grad(g, space)  # dg[:, c, a, b] = ∂_c g_ab
    di = np.swapaxes(dg, 1, 2)  # [:, l, i, j] = ∂_i g_lj
    return ginv, jeinsum(lower, "kl...,lij...->kij...", ginv, (di + np.swapaxes(di, 2, 3) - dg) * 0.5)


def _curvature_chain(space, g, ginv=None) -> _Curvature:
    """metric → Γ → R → Ric → S for a metric coefficient array g at `space`,
    in the sign convention of the module docstring; `ginv` as in
    `_levi_civita`."""
    ginv, gamma = _levi_civita(space, g, ginv)
    if space.order < 2:
        return _Curvature(ginv, gamma)
    sp1, sp2 = jet_space(space.nvars, space.order - 1), jet_space(space.nvars, space.order - 2)
    # R^l_ijk = ∂_j Γ^l_ik + Γ^l_js Γ^s_ik − (i ↔ j), stored [i, j, k, l]
    half = np.einsum("Zjlik...->Zijkl...", _grad(gamma, sp1)) + jeinsum(
        sp2, "ljs...,sik...->ijkl...", gamma, gamma
    )
    riem = jeinsum(sp2, "ijks...,sl...->ijkl...", half - np.swapaxes(half, 1, 2), g)
    ric = jeinsum(sp2, "ik...,ijkl...->jl...", ginv, riem)
    return _Curvature(ginv, gamma, riem, ric, jeinsum(sp2, "jl...,jl...->...", ginv, ric))


def _seeded(chart: MetricChart, x, order):
    """(space, ḡ) at the chart's coordinate jets of `order` at point(s) x (..., dim)."""
    space, xc = _stack_list(seed_jets(x, chart.dim, order))
    return space, chart.metric_fn(space, xc)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def metric_value(chart: MetricChart, x) -> np.ndarray:
    """Metric components at point(s) x; batched input gives shape (..., d, d)."""
    return np.moveaxis(_seeded(chart, np.asarray(x, dtype=float), 0)[1][0], (0, 1), (-2, -1))


def _check_domain(chart: MetricChart, x):
    if not np.all(chart.contains(x)):
        raise OutOfDomain(f"point outside the domain of {chart.name}")


def _check_nondegenerate(gval):
    det = np.linalg.det(np.moveaxis(gval, (0, 1), (-2, -1)))
    if np.any(np.abs(det) <= DEGENERACY_FLOOR):
        raise DegenerateMetric(f"|det g| <= {DEGENERACY_FLOOR}")
    return det


def christoffel(chart: MetricChart, x) -> np.ndarray:
    """Levi-Civita coefficients Γ^k_{ij} at x (k first index, batch axes last)."""
    x = np.asarray(x, dtype=float)
    _check_domain(chart, x)
    space, g = _seeded(chart, x, 1)
    _check_nondegenerate(g[0])
    return _levi_civita(space, g)[1][0]


def curvature_jet(chart: MetricChart, x, order: int = 2) -> CurvatureJet:
    """Curvature data at x to the requested derivative order (0, 1 or 2)."""
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    x = np.asarray(x, dtype=float)
    _check_domain(chart, x)
    d = chart.dim
    top, g = _seeded(chart, x, 2 + order)
    _check_nondegenerate(g[0])
    curv = _curvature_chain(top, g)
    gam, r, ric, scal = curv.gamma, curv.riem, curv.ric, curv.scal
    space = jet_space(d, order)
    jet = CurvatureJet(
        point=x,
        dim=d,
        index=chart.index,
        order=order,
        metric=g[0],
        metric_inv=curv.ginv[0],
        gamma=gam[0],
        riem=r[0],
        ricci=ric[0],
        scalar=np.asarray(scal[0]),
    )
    if order >= 1:
        nabla_r = _cov_deriv(r, gam, space, 4)
        nabla_ric = _cov_deriv(ric, gam, space, 2)
        grad_s = _grad(scal, space)
        jet.nabla_riem, jet.nabla_ricci, jet.grad_scalar = nabla_r[0], nabla_ric[0], grad_s[0]
    if order >= 2:
        lower = jet_space(d, order - 1)
        jet.nabla2_riem = _cov_deriv(nabla_r, gam, lower, 5)[0]
        jet.nabla2_ricci = _cov_deriv(nabla_ric, gam, lower, 3)[0]
        jet.hess_scalar = _cov_deriv(grad_s, gam, lower, 1)[0]
        jet.lap_ricci = np.einsum("ab...,ab...->...", jet.metric_inv, jet.nabla2_ricci)
    return jet


# ---------------------------------------------------------------------------
# conformally flat charts (space forms, perturbations) and products
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _signs(dim: int, index: int) -> np.ndarray:
    eps = np.array([-1.0] * index + [1.0] * (dim - index))
    eps.flags.writeable = False  # shared by every caller
    return eps


# Largest |s| = |q|·t² at which `_quadric_flow` sums the series of C and S:
# there the alternating series of cos √s loses about e^√s·2⁻⁵³ ≈ 2.4e-12 to
# rounding.  Beyond it the flow returns None and `exp_map` runs its sweeps.
FLOW_MAX_S = 100.0
_CS_TERMS = 32  # at |s| ≤ FLOW_MAX_S the summands left out are below 1e-17


@functools.lru_cache(maxsize=None)
def _cs_series(order: int) -> np.ndarray:
    """(2, order + 1, _CS_TERMS): the power series in s of C^(j)(s)/j! and
    S^(j)(s)/j!, j ≤ order, for the entire functions
    C(s) = Σ(−s)^k/(2k)! = cos √s and S(s) = Σ(−s)^k/(2k+1)! = sin √s/√s."""
    tab = np.empty((2, order + 1, _CS_TERMS))
    for j in range(order + 1):
        for m in range(_CS_TERMS):
            k = m + j
            coef = (-1) ** k * math.comb(k, j)
            tab[:, j, m] = coef / math.factorial(2 * k), coef / math.factorial(2 * k + 1)
    tab.flags.writeable = False  # shared by every caller
    return tab


def _reciprocal(space, c):
    """1/c for a scalar coefficient array c (n_mono, *batch); NaN, without a
    warning, where c₀ ≤ 0."""
    a0 = np.where(c[0] > 0.0, c[0], np.nan)
    return _lift(space, c, [(-1.0) ** k / a0 ** (k + 1) for k in range(space.order + 1)])[0]


def _quadric_flow(space, x, w, ts, eps, cbar):
    """Geodesics of ḡ = ε δ F², F = 1/(1 + C̄⟨x,x⟩_ε/4), in closed form.

    The chart is the stereographic image of the quadric C̄⟨y,y⟩_ε + z² = 1
    through Y = (y, z) = (F·x, 2F − 1), whose geodesics are
    Y(t) = C(q t²)·Y₀ + t·S(q t²)·Y₀′ with Y₀′ = (F·w + F′·x, 2F′),
    F′ = −(C̄/2)·F²·⟨x,w⟩_ε and q = C̄·F²·⟨w,w⟩_ε (O'Neill, Semi-Riemannian
    Geometry, ch. 4); back in the chart, x = 2y/(1 + z) and
    v = (2y′ − x·z′)/(1 + z).  C and S are lifted as entire functions of
    s = q t², so neither √C̄ nor the sign of C̄ or ⟨w,w⟩_ε enters, and
    q = 0 (a flat chart, or a vanishing velocity) is no special case.

    `x`, `w` are coefficient arrays (space.n, dim, *batch).  Returns
    (x_t, v_t), each (len(ts), space.n, dim, *batch), or None when
    |q₀|·max(ts)² exceeds FLOW_MAX_S.  A point whose 1 + z₀ is ≤ 0 went
    through the chart's point at infinity and comes back NaN, without a
    warning (so does a start point with F₀ ≤ 0, outside the chart).
    """
    d, nb = x.shape[1], x.ndim - 2
    gram = _cauchy(space, np.stack((x, x, w), 1), np.stack((x, w, w), 1))
    xx, xw, ww = np.einsum("Zpa...,a->pZ...", gram, eps)
    den = xx * (cbar / 4.0)
    den[0] += 1.0
    f = _reciprocal(space, den)
    f2 = _cauchy(space, f, f)[:, None]
    fp, q = np.moveaxis(_cauchy(space, f2, np.stack((xw * (-0.5 * cbar), ww * cbar), 1)), 1, 0)
    if np.max(np.abs(q[0]), initial=0.0) * max(ts) ** 2 > FLOW_MAX_S:
        return None
    scaled = _cauchy(space, np.stack((x, w, x), 1), np.stack((f, f, fp), 1)[:, :, None])
    fx, fw, fpx = np.moveaxis(scaled, 1, 0)
    z0 = f * 2.0
    z0[0] -= 1.0
    y0 = np.concatenate((fx, z0[:, None]), 1)
    y1 = np.concatenate((fw + fpx, fp[:, None] * 2.0), 1)
    # C(q t²) and S(q t²): their Taylor coefficients at s₀ = q₀t², summed
    # from `_cs_series`, on the powers of the nilpotent part (q − q₀)t²,
    # which every t shares up to the factor t^2j
    e = q.copy()
    e[0] = 0.0
    powers = np.zeros((space.order + 1,) + q.shape)
    powers[0, 0] = 1.0
    for k in range(1, space.order + 1):
        powers[k] = e if k == 1 else _cauchy(space, powers[k - 1], e)
    series = _cs_series(space.order)
    exps = np.arange(_CS_TERMS).reshape((-1,) + (1,) * nb)
    # the factors of C (row 0) and S (row 1): [Y₀, Y₀′] and [Y₀′, q·Y₀]
    pairs = np.stack((np.stack((y0, y1), 1), np.stack((y1, _cauchy(space, q[:, None], y0)), 1)), 1)

    def at(t):  # one t at a time, so that γ(t) does not depend on the other ts
        coef = np.einsum("cjm,m...->cj...", series, (q[0] * (t * t)) ** exps)
        coef *= (t ** (2 * np.arange(space.order + 1))).reshape((-1,) + (1,) * nb)
        cs = np.einsum("cj...,jZ...->Zc...", coef, powers)
        prod = _cauchy(space, cs[:, :, None, None], pairs)
        big_y = prod[:, 0, 0] + prod[:, 1, 0] * t
        big_yp = prod[:, 0, 1] - prod[:, 1, 1] * t
        one_z = big_y[:, d]  # 1 + z = 2F along the path
        one_z[0] += 1.0
        r = _reciprocal(space, one_z)[:, None]
        xt = _cauchy(space, big_y[:, :d], r) * 2.0
        return xt, _cauchy(space, big_yp[:, :d] * 2.0 - _cauchy(space, xt, big_yp[:, d:]), r)

    xs, vs = zip(*(at(t) for t in ts))
    return np.stack(xs), np.stack(vs)


def _conformal_chart(dim, index, cbar, name, descriptor, bump=None):
    """Chart with ḡ = ε δ / (1 + C̄⟨x,x⟩_ε/4 )², optionally with a conformal bump.

    Its `sigma_grad_fn` is the gradient of σ = log of the conformal factor:
    5 jet products at order 4 (F and its gradient, or the bump and its).
    Where C̄ = 0, F = 1/(1 + C̄⟨x,x⟩_ε/4) ≡ 1 is not built, so a flat chart
    gives εδ and σ ≡ 0 with no product.  Without a bump the geodesics have
    the closed form of `_quadric_flow`.  `bump` is a triple of functions
    (space, x) ↦ σ_bump, (space, x, σ_bump) ↦ its gradient on axis 1 and
    (space, x) ↦ the chart's Schouten tensor P̄, which it must give whole.
    """
    eps = _signs(dim, index)

    def factor(space, x):
        # the jet of F, or None where C̄ = 0 (F ≡ 1)
        if cbar == 0.0:
            return None
        denom = _tsum(_cauchy(space, x, x) * _col(eps, x)) * (cbar / 4.0)
        denom[0] += 1.0
        return Jet(space, denom).reciprocal()

    def sigma_grad(space, x):
        # [σ_1..σ_d] on axis 1, or None where σ ≡ 0
        f = factor(space, x)
        grads = None
        if f is not None:  # ∂ log F = −(C̄/2)·F·ε x
            grads = _cauchy(space, x * (_col(eps, x) * (-0.5 * cbar)), f.coeffs[:, None])
        if bump is None:
            return grads
        grads_bump = bump[1](space, x, bump[0](space, x))
        return grads_bump if grads is None else grads + grads_bump

    def metric_fn(space, x):
        root = factor(space, x)  # e^σ, or None where it is 1
        if bump is not None:
            e = Jet(space, bump[0](space, x)).exp()
            root = e if root is None else root * e
        if root is None:
            out = np.zeros((space.n, dim, dim) + x.shape[2:])
            out[0] = np.diag(eps).reshape((dim, dim) + (1,) * (x.ndim - 2))
            return out
        return np.einsum("ab,Z...->Zab...", np.diag(eps), (root * root).coeffs)

    def predicate(x):
        q = np.sum(eps * x * x, axis=-1)
        return 1.0 + cbar * q / 4.0 > 0.05

    if cbar > 0:
        half = math.sqrt((10 ** (11.0 / (2 * dim)) - 1.0) * 4.0 / (dim * cbar))
        conj = math.pi / math.sqrt(cbar)
        if index == 0:
            predicate = None  # 1 + C̄|x|²/4 >= 1 on the whole box
    elif cbar < 0:
        half = 0.98 * 2.0 / math.sqrt(dim * abs(cbar))
        conj = math.inf
    else:
        half, predicate, conj = 50.0, None, math.inf
    return MetricChart(
        dim=dim,
        index=index,
        metric_fn=metric_fn,
        domain_lo=-half * np.ones(dim),
        domain_hi=half * np.ones(dim),
        descriptor=descriptor,
        sigma_grad_fn=sigma_grad,
        schouten_fn=bump[2] if bump else None,
        geodesic_flow=None if bump else functools.partial(_quadric_flow, eps=eps, cbar=cbar),
        predicate_fn=predicate,
        curvature_const=cbar if bump is None else None,
        conjugate_radius=conj,
        name=name,
    )


def space_form(m_plus_1: int, cbar: float, index: int = 0) -> MetricChart:
    """Conformal chart of the constant-curvature space of dimension m+1."""
    if m_plus_1 < 2:
        raise ValueError("ambient dimension must be >= 2")
    if index not in (0, 1):
        raise UnsupportedSignature("only Riemannian (0) and Lorentzian (1) signatures")
    names = {
        (0, 1): "sphere",
        (0, 0): "euclidean",
        (0, -1): "hyperbolic",
        (1, 1): "de_sitter",
        (1, 0): "minkowski",
        (1, -1): "anti_de_sitter",
    }
    name = f"{names[(index, int(np.sign(cbar)))]}_{m_plus_1}d"
    desc = {"kind": "space_form", "dim": m_plus_1, "index": index, "Cbar": cbar}
    return _conformal_chart(m_plus_1, index, float(cbar), name, desc)


def flat_chart(dim: int, index: int = 0) -> MetricChart:
    """Flat chart of any dimension >= 1 (dim-1 factors are used in products)."""
    if dim >= 2:
        return space_form(dim, 0.0, index)
    if index != 0:
        raise UnsupportedSignature("a 1-dim factor must be Riemannian")
    return _conformal_chart(
        1, 0, 0.0, "euclidean_1d", {"kind": "space_form", "dim": 1, "index": 0, "Cbar": 0.0}
    )


def product_chart(a: MetricChart, b: MetricChart) -> MetricChart:
    """Riemannian product chart with block-diagonal metric."""
    if a.index != 0 or b.index != 0:
        raise UnsupportedSignature("product charts require Riemannian factors")
    dim = a.dim + b.dim
    sl_a, sl_b = slice(0, a.dim), slice(a.dim, dim)
    factors = []
    for chart, sl in ((a, sl_a), (b, sl_b)):
        if chart.product_factors is not None:
            for sub, sub_sl in chart.product_factors:
                factors.append((sub, slice(sub_sl.start + sl.start, sub_sl.stop + sl.start)))
        else:
            factors.append((chart, sl))
    factors = tuple(factors)

    def metric_fn(space, x):
        out = np.zeros((space.n, dim, dim) + x.shape[2:])
        for chart, sl in factors:
            out[:, sl, sl] = chart.metric_fn(space, x[:, sl])
        return out

    def flow(space, x, w, ts):
        parts = [chart.geodesic_flow(space, x[:, sl], w[:, sl], ts) for chart, sl in factors]
        if any(p is None for p in parts):
            return None
        return tuple(np.concatenate([p[i] for p in parts], axis=2) for i in (0, 1))

    preds = [(c.predicate_fn, sl) for c, sl in factors if c.predicate_fn is not None]

    def predicate(x):
        good = np.ones(x.shape[:-1], dtype=bool)
        for p, sl in preds:
            good = good & p(x[..., sl])
        return good

    return MetricChart(
        dim=dim,
        index=0,
        metric_fn=metric_fn,
        domain_lo=np.concatenate([a.domain_lo, b.domain_lo]),
        domain_hi=np.concatenate([a.domain_hi, b.domain_hi]),
        descriptor={"kind": "product", "factors": [a.descriptor, b.descriptor]},
        geodesic_flow=flow if all(c.geodesic_flow is not None for c, _ in factors) else None,
        predicate_fn=predicate if preds else None,
        product_factors=factors,
        conjugate_radius=min(a.conjugate_radius, b.conjugate_radius),
        name=f"{a.name}*{b.name}",
    )


def _bumpy_e3() -> MetricChart:
    """Flat 3-space with a small conformal Gaussian bump (a genuinely
    non-symmetric test metric: curvature and its derivatives all nonzero)."""
    amp = 0.05

    def sigma(space, x):
        # σ_bump = amp·exp(−|x|²), on coefficient arrays
        return Jet(space, _tsum(_cauchy(space, x, x)) * -1.0).exp().coeffs * amp

    def grad(space, x, s):
        return _cauchy(space, x * -2.0, s[:, None])

    def schouten(space, x):
        # P̄ = −∂²σ + dσ⊗dσ − ½|dσ|²δ, with ∂²σ = −2δσ − 2x⊗∂σ
        s = sigma(space, x)
        ds = grad(space, x, s)
        out = _cauchy(space, (x * 2.0 + ds)[:, :, None], ds[:, None])
        np.einsum("Zaa...->Za...", out)[...] += (s * 2.0 - _tsum(_cauchy(space, ds, ds)) * 0.5)[:, None]
        return out

    return _conformal_chart(
        3, 0, 0.0, "bumpy_e3", {"kind": "custom", "name": "bumpy_e3"}, bump=(sigma, grad, schouten)
    )


CHART_REGISTRY = {
    "bumpy_e3": _bumpy_e3,
}


def registry_chart(name: str) -> MetricChart:
    return _lookup(CHART_REGISTRY, "custom chart", {"kind": name})


def _space_form_chart(dim, Cbar, index=0):
    """`dim` and `index` must be integers, `index` 0 or 1, and `Cbar` a finite
    number (a bool is neither)."""
    if any(isinstance(v, bool) or not isinstance(v, numbers.Integral) for v in (dim, index)):
        raise ValueError(f"'dim' and 'index' must be integers, got {dim!r} and {index!r}")
    if index not in (0, 1):
        raise ValueError(f"'index' must be 0 (Riemannian) or 1 (Lorentzian), got {index!r}")
    if isinstance(Cbar, bool) or not isinstance(Cbar, numbers.Real) or not math.isfinite(Cbar):
        raise ValueError(f"'Cbar' must be a finite number, got {Cbar!r}")
    dim, cbar = int(dim), float(Cbar)
    if dim == 1 and cbar == 0.0:
        if index != 0:
            raise ValueError("a 1-dimensional chart must be Riemannian ('index' 0)")
        return flat_chart(1)
    return space_form(dim, cbar, int(index))


def _product_chart(factors):
    return functools.reduce(product_chart, [chart_from_descriptor(d) for d in factors])


# kind -> builder, whose keyword parameters are the descriptor's keys
CHARTS = {"space_form": _space_form_chart, "product": _product_chart, "custom": registry_chart}


def chart_from_descriptor(desc: dict) -> MetricChart:
    return _lookup(CHARTS, "chart", desc)


# ---------------------------------------------------------------------------
# geodesics
# ---------------------------------------------------------------------------


def _sigma_grads(chart: MetricChart, space, x):
    """[(slice, ε, ∂σ or None where σ ≡ 0), ...] of the conformal blocks of a
    chart at coordinates x (at `space` or above)."""
    blocks = chart.product_factors or ((chart, slice(None)),)
    return [(sl, _signs(c.dim, c.index), c.sigma_grad_fn(space, x[: space.n, sl])) for c, sl in blocks]


def christoffel_on_jets(chart: MetricChart, space, x):
    """Γ^k_{ab} (n_mono, dim, dim, dim, *batch) at coordinates given as a
    coefficient array x (n_mono, dim, *batch) at `space` or above.

    On each conformal block ḡ = ε δ e^{2σ}, Γ^k_ab = δ^k_a σ_b + δ^k_b σ_a −
    ε_a δ_ab ε_k σ_k, filled term by term on diagonal views: no Γ-sized
    temporaries.
    """
    out = np.zeros((space.n,) + (chart.dim,) * 3 + x.shape[2:])
    for sl, eps, sg in _sigma_grads(chart, space, x):
        if sg is None:
            continue
        block = out[:, sl, sl, sl]
        np.einsum("Zkkb...->Zkb...", block)[...] = sg[:, None]  # δ^k_a σ_b
        half = np.einsum("Zkak...->Zka...", block)
        half += sg[:, None]  # δ^k_b σ_a
        diag = np.einsum("Zkaa...->Zka...", block)
        diag -= np.outer(eps, eps).reshape(eps.shape * 2 + (1,) * (sg.ndim - 2)) * sg[:, :, None]
    return out


def christoffel_u_on_jets(chart: MetricChart, space, x, u):
    """Γ^k_{ab}u_k (n_mono, dim, dim, *batch) for a covector field u along
    the coordinates x, both coefficient arrays at `space` or above.

    On each conformal block, u_a σ_b + u_b σ_a − ε_a δ_ab (εσ·u): one jet
    product, without the d³ Γ.
    """
    u = u[: space.n]
    out = np.zeros((space.n, chart.dim, chart.dim) + np.broadcast_shapes(x.shape[2:], u.shape[2:]))
    for sl, eps, sg in _sigma_grads(chart, space, x):
        if sg is None:
            continue
        us = _cauchy(space, u[:, sl, None], sg[:, None])  # u_a σ_b
        su = np.einsum("Zaa...,a->Z...", us, eps)  # εσ·u, off the diagonal of us
        block = np.add(us, np.swapaxes(us, 1, 2), out=out[:, sl, sl])
        diag = np.einsum("Zaa...->Za...", block)
        diag -= _col(eps, sg) * su[:, None]
    return out


def geodesic_rhs(chart: MetricChart, space, x, v):
    """The geodesic acceleration −Γ^k_ab(x) v^a v^b for a velocity v shaped
    like the coordinates x, coefficient arrays at `space`.

    On each conformal block −2v(σ′·v) + εσ′⟨v,v⟩_ε: at order 4, 9 jet
    products, 5 for σ′, 2 for the dot products and 2 for the scalings; none
    where σ ≡ 0.
    """
    parts = []
    for sl, eps, sg in _sigma_grads(chart, space, x):
        vb = v[: space.n, sl]
        if sg is None:
            parts.append(np.zeros(vb.shape))
            continue
        e = _col(eps, vb)
        sv = _tsum(_cauchy(space, sg, vb))
        vv = _tsum(_cauchy(space, vb, vb) * e)
        parts.append(_cauchy(space, vb, sv[:, None]) * (-2.0) + _cauchy(space, sg, vv[:, None]) * e)
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


# Chebyshev–Picard sweeps (Clenshaw & Norton 1963; Bai & Junkins 2011), N + 1 nodes a segment: a
# sweep that moves x by ≤ PICARD_TOL·max|x| settles if the last two Chebyshev coefficients are
# ≤ PICARD_TAIL·max|x| (one settled segment was 6.6e-8 off at r = 4 on bumpy_e3, which takes 8).
PICARD_N, PICARD_TOL, PICARD_TAIL = 12, 4e-16, 8e-16 * 12  # a bumpy_e3 patch: 1 segment, 6-7 sweeps
PICARD_SWEEPS, PICARD_MAX_SEGMENTS = 32, 1024  # sweeps a segment, segments a path (S³'s 11-rad circle: 16)
PICARD_MAX_NODES = 1024  # points × (N + 1) a block: the 800-point sphere peaks as with RK4


@functools.lru_cache(maxsize=None)
def _lobatto(n: int):
    """Read-only (τ, C, Qᵀ) at the Chebyshev–Lobatto nodes τ_j = cos θ_j,
    θ_j = π(n − j)/n: C maps node values to Chebyshev coefficients, and
    (Qf)_i = ∫_{−1}^{τ_i} p for the interpolant p of the values f."""
    k = np.arange(n + 1.0)
    theta = np.pi * (n - k) / n
    ends = np.where((k == 0) | (k == n), 0.5, 1.0)
    coef = np.cos(np.outer(k, theta)) * np.outer(ends, ends) * (2.0 / n)  # T_k(τ_j) = cos kθ_j
    # ∫T_k = T_{k+1}/(2(k + 1)) − T_{|k−1|}/(2(k − 1)), ∫T_1 = T_2/4, at each θ_i and at π
    th, low = np.append(theta, np.pi)[:, None], np.where(k == 1, np.inf, 2.0 * k - 2.0)
    prim = np.cos(th * (k + 1.0)) / (2.0 * k + 2.0) - np.cos(th * abs(k - 1.0)) / low
    tables = (np.cos(theta), coef, ((prim[:-1] - prim[-1]) @ coef).T)
    for t in tables:
        t.flags.writeable = False  # shared by every caller
    return tables


def _picard_segment(chart, space, xa, va, half):
    """(x, v) at the nodes (last axis) of one segment of half-length `half`
    from (xa, va), or None where the sweeps do not settle."""
    tau, coef, integ = _lobatto(PICARD_N)
    xa, va = xa[..., None], va[..., None]
    xs, vs = xa + va * ((tau + 1.0) * half), np.broadcast_to(va, va.shape[:-1] + tau.shape)
    with np.errstate(all="ignore"):  # a diverging sweep is caught as non-finite
        for _ in range(PICARD_SWEEPS):
            vs = va + (geodesic_rhs(chart, space, xs, vs) @ integ) * half
            new = xa + (vs @ integ) * half
            moved, scale, xs = np.max(np.abs(new - xs), initial=0.0), np.max(np.abs(new), initial=0.0), new
            if moved <= PICARD_TOL * scale:  # and the interpolant's tail at rounding level
                return (xs, vs) if np.max(np.abs(xs @ coef[-2:].T), initial=0.0) <= PICARD_TAIL * scale else None
            if not math.isfinite(moved):
                return None
    return None


def _picard_ends(chart, space, x, v, ts, checks, check):
    """(x, v) at every t in `ts` along the geodesic from (x, v), points on
    the last axis, with `check` on x[0] at `ts` and `checks`.

    The path on [0, ts[-1]] runs in equal segments, twice as many (and a
    `check` where it starts) each time one does not settle, up to
    PICARD_MAX_SEGMENTS.  A time inside a segment is read off its
    interpolants, one at its end is its last node."""
    span, reads = ts[-1], sorted(set(ts) | set(checks))
    for segments in (2**i for i in range(PICARD_MAX_SEGMENTS.bit_length())):
        edges = [span * k / segments for k in range(segments)] + [span]
        xa, va, out = x, v, {}
        for a, b in zip(edges, edges[1:]):
            path = _picard_segment(chart, space, xa, va, span / segments / 2)
            if path is None:
                check(xa[0])  # the path left the chart before it failed
                break
            here = np.array([t for t in reads if a < t <= b])
            # rows T_k(τ)·C at the local τ of each read, a unit row at τ = 1
            cos_t = np.clip(2.0 * (here - a) / (b - a) - 1.0, -1.0, 1.0)
            ev = np.cos(np.outer(np.arccos(cos_t), np.arange(PICARD_N + 1))) @ _lobatto(PICARD_N)[1]
            ev[here == b] = np.arange(PICARD_N + 1) == PICARD_N
            xt, vt = (p @ ev.T for p in path)
            check(xt[0])
            out.update((t, (xt[..., i], vt[..., i])) for i, t in enumerate(here) if t in ts)
            xa, va = path[0][..., -1], path[1][..., -1]
        else:
            return [out[t] for t in ts]
    raise StepFailure(f"geodesic sweeps did not settle on {PICARD_MAX_SEGMENTS} segments")


def exp_map(chart: MetricChart, space, x0_jets, w_jets, n_steps: int = 256, stops=None):
    """Endpoint of the geodesic with initial position x0 and velocity w at t=1.

    `x0_jets` and `w_jets` are coefficient arrays (n_mono, dim, *batch) of
    one shape at the jet space `space` or above: jets in the parameters, so
    that parameter derivatives of sphere charts flow through the geodesic,
    or order 0 for plain points.  Returns (x, v), two arrays
    (space.n, dim, *batch).

    With `stops`, sorted fractions in (0, 1], the same path yields γ(t) at
    every t in `stops`: it returns one (x, v) pair per stop, and
    ``stops=(1.0,)`` gives ``[exp_map(...)]`` bit for bit.

    A chart with a `geodesic_flow` (space forms, flat charts and their
    products) gets γ(t) at every stop from that closed form.  Elsewhere, or
    where the flow declines (returns None), Chebyshev–Picard sweeps solve
    for the path (`_picard_ends`) in blocks of PICARD_MAX_NODES point-nodes.
    Either way the domain is checked at every 32nd node of n_steps before
    the last stop (the flow there on values only) and at every stop.
    """
    ts = (1.0,) if stops is None else tuple(float(t) for t in stops)
    if not ts or ts[0] <= 0.0 or ts[-1] > 1.0 or any(a > b for a, b in zip(ts, ts[1:])):
        raise ValueError(f"stops must be sorted fractions in (0, 1], got {stops!r}")
    x, v = x0_jets[: space.n], w_jets[: space.n]
    checks = np.arange(32, math.floor(ts[-1] * n_steps) + 1, 32) / n_steps

    def check(xt):  # values (dim, *batch)
        if not np.all(chart.contains(np.moveaxis(xt, 0, -1))):
            raise LeftDomain(f"geodesic left the domain of {chart.name}")

    def flow_ends():
        if checks.size:
            path = chart.geodesic_flow(jet_space(space.nvars, 0), x[:1], v[:1], checks)
            if path is None:
                return None
            check(np.moveaxis(path[0][:, 0], 0, -1))
        ends = chart.geodesic_flow(space, x, v, ts)
        if ends is not None:
            check(np.moveaxis(ends[0][:, 0], 0, -1))
            ends = list(zip(*ends))
        return ends

    def picard_ends():
        batch = np.broadcast_shapes(x.shape[2:], v.shape[2:])
        flat = [np.broadcast_to(a, a.shape[:2] + batch).reshape(space.n, chart.dim, -1) for a in (x, v)]
        size = PICARD_MAX_NODES // (PICARD_N + 1)
        blocks = [_picard_ends(chart, space, *(a[..., i : i + size] for a in flat), ts, checks, check)
                  for i in range(0, max(flat[0].shape[-1], 1), size)]  # one block where there are no points
        return [tuple(np.concatenate(p, -1).reshape(x.shape[:2] + batch) for p in zip(*e)) for e in zip(*blocks)]

    ends = None if chart.geodesic_flow is None else flow_ends()
    ends = picard_ends() if ends is None else ends
    return ends[0] if stops is None else ends


# ---------------------------------------------------------------------------
# orthonormal frames
# ---------------------------------------------------------------------------


def orthonormal_frame(g: np.ndarray, e0: Optional[np.ndarray] = None) -> np.ndarray:
    """Rows of the result are g-orthonormal frame vectors (Riemannian g).

    When `e0` is given it becomes the 0th frame vector (it must be a unit
    vector); remaining directions are Gram–Schmidt completions of the chart
    basis, lowest index first.
    """
    d = g.shape[0]
    frame = []
    if e0 is not None:
        nrm2 = float(e0 @ g @ e0)
        if abs(nrm2 - 1.0) > 1e-9:
            raise BadDirection("e0 is not a unit vector")
        frame.append(np.asarray(e0, dtype=float))
    for i in range(d):
        if len(frame) == d:
            break
        w = np.zeros(d)
        w[i] = 1.0
        for f in frame:
            w = w - (f @ g @ w) * f
        nrm2 = float(w @ g @ w)
        if nrm2 < 1e-12:
            continue
        frame.append(w / math.sqrt(nrm2))
    if len(frame) != d:
        raise DegenerateMetric("could not complete an orthonormal frame")
    return np.array(frame)
