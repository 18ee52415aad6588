"""Immersed hypersurface patches and their classical invariants.

The pipeline evaluates the immersion map in jet arithmetic, so first/second
fundamental forms, the shape operator and their parameter derivatives come
out exact to roundoff.  Conventions:

    A(V)   = −∇̄_V U                    (shape operator),
    II(V,W) = α g(A V, W) = α ḡ(∇̄_V W, U),   α = ḡ(U,U) = ±1,
    III(V,W) = g(A V, A W),
    H = (α/m) tr A.

The frame (:func:`frame_jets`) runs on coefficient arrays of shape
(n_mono, *tensor, *batch), one array per tensor, contracted with
``jets.jeinsum``: the tangents t = ∂x, the metric g = tᵀḡt, the normal
covector n_a = ε_{a b₁…b_m} t₁^{b₁}⋯t_m^{b_m}, U = ḡ⁻¹n/√|n·ḡ⁻¹n|,
II = α(∂t + Γ̄tt)·U♭ and A = α g⁻¹II, with inverses by the Neumann series
and det A by ε-contraction.  With the parameter jets at order k, each
quantity is carried at the order its readers use: t, ḡ and U at k − 1 (a
normal deformation reads U to first order below x), II, A, g⁻¹, det A and
H at k − 2, g at max(k − 2, min(k − 1, 2)) (intrinsic curvature reads two
derivatives of g), ḡ⁻¹ as values only.  Γ̄ is built at k − 2 and kept as
values only once II is built (the shape-operator check reads no more).
One frame type, :class:`SurfacePointData`, carries these coefficient arrays; the classical
values (x, g, II, A, H, det A, …) are read off their constant terms, and III
and the principal spectrum are computed on first read, once.  The
connection and curvature of g (and, in ``iigeom``, of II) come from the
one curvature chain in ``ambient``, and R̄, Ric̄, S̄ along the patch from
:func:`ambient_curvature_on_jets` on the same arrays.

The second fundamental form is computed both ways (through ∇̄U and through
∇̄∂∂); their values agree to 1e−9 on every call, which catches sign and
index errors in one stroke.

The default normal orientation picks U so that tr A > 0 where that is
decidable (on ovaloids and geodesic spheres this selects the inward normal);
surfaces with tr A ≈ 0 everywhere (minimal surfaces, the Clifford torus) keep
the raw cofactor orientation.  An explicit ±1 on the immersion overrides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations, combinations_with_replacement
from typing import Callable, Optional

import numpy as np

from . import ambient as amb
from .ambient import MetricChart
from .errors import (
    BadParameters,
    DegenerateImmersion,
    DegenerateInducedMetric,
    GeometryError,
    NullNormal,
    OutOfDomain,
    _lookup,
)
from .jets import Jet, _cauchy, _cofactors, _inv, _wedge, jeinsum, jet_space, seed_jets
from .jets import jinv  # noqa: F401  (perfbench/tests check that its tracer rebinds this name)

__all__ = [
    "Immersion",
    "SurfacePointData",
    "surface_point",
    "gauss_codazzi_residual",
    "standard_immersion",
    "immersion_from_descriptor",
    "reparametrized",
    "flipped",
    "validate_immersion",
]

RANK_FLOOR = 1e-10
ORIENTATION_TIE = 1e-9


@dataclass(frozen=True, eq=False)
class Immersion:
    """A parametrized hypersurface patch u ↦ x in an ambient chart (with
    m = 1, a curve in a surface; see ``curves``).

    `map_fn` maps a list of m parameter jets to a list of dim ambient-chart
    jets; it must be evaluable to total derivative order 4.

    On patches where tr A changes sign, the auto orientation rule is
    evaluated per point and flips the normal between points.  That happens
    with indefinite II, and also with definite II when g is Lorentzian (a
    timelike graph in de Sitter space); pass an explicit ±1 orientation
    there to keep one continuous normal field (``first_variation_check``
    raises on such a grid under the auto rule).
    """

    ambient: MetricChart
    param_dim: int
    map_fn: Callable
    param_lo: np.ndarray
    param_hi: np.ndarray
    grid_hint: tuple = ()  # per-axis "gl" or "per", used by quadrature builders
    orientation: int = 0  # 0: auto (tr A > 0 when decidable), else ±1

    def __post_init__(self):
        if self.orientation not in (-1, 0, 1):
            raise ValueError(f"orientation must be -1, 0 or 1, got {self.orientation!r}")

    def contains(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return np.all((u >= self.param_lo - 1e-12) & (u <= self.param_hi + 1e-12), axis=-1)

    def __repr__(self):
        return f"Immersion(m={self.param_dim}, ambient={self.ambient.name})"


@dataclass
class SurfacePointData:
    """The fundamental-form frame at parameter point(s), one type for the
    coefficient arrays and the classical values read off them.

    Each array has the monomial axis first, then tensor axes, then batch
    axes, at the order its readers use (see the module docstring): with the
    parameter jets at order k, x at k; t, ḡ and U at k − 1; g at
    max(k − 2, min(k − 1, 2)); g⁻¹, II, A, det A and H at k − 2; ḡ⁻¹ at 0.
    The values (`x`, `tangent`, `normal`, `first`, `second`, `shape`,
    `mean`, `detA`) are views of the arrays' constant terms, with a leading
    batch axis on grids; III and the principal spectrum are computed on
    first read.  `u` is set by :func:`surface_point`.
    """

    imm: Immersion
    order: int
    nvars: int  # the m parameters, then any passive variables (see `frame_jets`)
    batched: bool
    alpha: np.ndarray
    xc: np.ndarray  # (n_mono, dim, *batch)
    t: np.ndarray  # (n_mono, m, dim, *batch): t[:, i, a] = ∂_i x^a
    gbar: np.ndarray  # (n_mono, dim, dim, *batch)
    gbar_inv: np.ndarray
    g: np.ndarray  # (n_mono, m, m, *batch)
    ginv: np.ndarray
    U: np.ndarray  # (n_mono, dim, *batch)
    II: np.ndarray
    A: np.ndarray  # A[:, i, j] = A^i_j
    detAc: np.ndarray  # (n_mono, *batch)
    H: np.ndarray
    flips: np.ndarray  # (*batch): where the orientation rule flipped the cofactor normal
    u: Optional[np.ndarray] = None

    def space(self, c):
        """The jet space, over the frame's jet variables, of one of these arrays."""
        n = self.nvars
        return next(jet_space(n, k) for k in range(self.order + 1) if jet_space(n, k).n == c.shape[0])

    x = property(lambda self: _cvals(self.xc, self.batched))
    tangent = property(lambda self: _cvals(self.t, self.batched))  # (..., m, dim)
    normal = property(lambda self: _cvals(self.U, self.batched))  # (..., dim)
    first = property(lambda self: _cvals(self.g, self.batched))  # g_ij
    second = property(lambda self: _cvals(self.II, self.batched))  # II_ij
    shape = property(lambda self: _cvals(self.A, self.batched))  # A^i_j (row upper index)
    mean = property(lambda self: self.H[0])
    detA = property(lambda self: self.detAc[0])

    @cached_property
    def third(self):
        """III_ij = g(A ∂_i, A ∂_j)."""
        return np.einsum("...si,...tj,...st->...ij", self.shape, self.shape, self.first)

    @cached_property
    def principal(self):
        """``principal_curvatures`` of (g, II, α): (lam, E, eps, valid)."""
        return principal_curvatures(self.first, self.second, self.alpha)

    @property
    def lam(self):
        """Principal curvatures, ascending."""
        return self.principal[0]


def _cvals(c, batched):
    """Values of a coefficient array, with the batch axis first when batched."""
    return np.moveaxis(c[0], -1, 0) if batched else c[0]


def frame_jets(imm: Immersion, u_jets) -> SurfacePointData:
    """Run the fundamental-form pipeline on caller-supplied parameter jets
    (at order ≥ 2; see the module docstring for the order of each field)."""
    x = [xi if isinstance(xi, Jet) else Jet.constant(u_jets[0].space, xi) for xi in imm.map_fn(u_jets)]
    return _frame(imm, *amb._stack_list(x))


def _frame(imm: Immersion, space, xc) -> SurfacePointData:
    """The frame of the map given as a coefficient array xc (space.n, dim,
    *batch).  t, ∂t and ∂U are taken along the first m = ``imm.param_dim``
    jet variables; a further one (a variation parameter ε) is carried along
    passively.  The orientation rule and the checks read constant terms."""
    m, d = imm.param_dim, imm.ambient.dim
    order, n = space.order, space.nvars
    batched = xc.ndim > 2
    sp1, sp2 = jet_space(n, order - 1), jet_space(n, order - 2)
    sp_g = jet_space(n, max(order - 2, min(order - 1, 2)))

    t = amb._grad(xc, space)[:, :m]  # t[:, i, a] = ∂_i x^a
    gb = imm.ambient.metric_fn(sp1, xc[: sp1.n])
    g = jeinsum(sp_g, "ib...,jb...->ij...", jeinsum(sp_g, "ia...,ab...->ib...", t, gb), t)

    gval = _cvals(g, batched)
    g_scale = np.maximum(np.max(np.abs(gval), axis=(-2, -1)), 1e-300)
    if np.any(np.abs(_cofactors(g[0])[1]) <= 1e-12 * g_scale**m):
        raise DegenerateInducedMetric("induced metric degenerate at a sampled point")
    sv = np.linalg.svd(np.swapaxes(_cvals(t, batched), -1, -2), compute_uv=False)
    if np.any(sv[..., -1] <= RANK_FLOOR):
        raise DegenerateImmersion("immersion Jacobian lost rank")
    if m != d - 1:
        raise DegenerateImmersion("hypersurface requires param_dim = ambient dim − 1")
    ginv = _inv(sp2, g)

    # covariant normal n(v) = det[v; t_1; …; t_m], raised, and its length
    n_cov = _wedge(sp1, [t[:, i] for i in range(m)])
    N = _inv(sp1, gb, n_cov)
    nn = jeinsum(sp1, "a...,a...->...", n_cov, N)
    scale = np.sum(N[0] ** 2, axis=0)
    if np.any(np.abs(nn[0]) <= 1e-12 * np.maximum(scale, 1e-300)):
        raise NullNormal("normal direction is null for the ambient metric")
    alpha = np.sign(nn[0])
    inv_len = Jet(sp1, nn * alpha).sqrt().reciprocal().coeffs[:, None]
    U = _cauchy(sp1, N, inv_len)
    u_flat = _cauchy(sp2, n_cov, inv_len)  # ḡ(U, ·)

    # II_ij = α ḡ(∂_i t_j + Γ̄(t_i, t_j), U); Γ̄ is kept as values only
    gamma_bar = amb.christoffel_on_jets(imm.ambient, sp2, xc)
    gam_u = jeinsum(sp2, "kab...,k...->ab...", gamma_bar, u_flat)
    gamma_bar = gamma_bar[0].copy()
    II = jeinsum(sp2, "ib...,jb...->ij...", jeinsum(sp2, "ab...,ia...->ib...", gam_u, t), t)
    II = (II + jeinsum(sp2, "ijk...,k...->ij...", amb._grad(t, sp1)[:, :m], u_flat)) * alpha
    A = jeinsum(sp2, "ik...,kj...->ij...", ginv, II) * alpha

    # orientation: flip U (and II, A) if tr A would be negative where decidable
    tr_a = np.einsum("Zii...->Z...", A)
    if imm.orientation == 0:
        flip = tr_a[0] < -ORIENTATION_TIE
    else:
        flip = np.broadcast_to(imm.orientation < 0, tr_a[0].shape)
    if np.any(flip):
        sgn = np.where(flip, -1.0, 1.0)
        U, II, A, tr_a = U * sgn, II * sgn, A * sgn, tr_a * sgn

    sp_u = jet_space(n, 1)
    du = amb._grad(U[: sp_u.n], sp_u)[0, :m]
    _check_shape_operator_two_routes(A[0], t[0], U[0], du, gamma_bar)
    return SurfacePointData(
        imm=imm,
        order=order,
        nvars=n,
        batched=batched,
        alpha=alpha,
        xc=xc,
        t=t,
        gbar=gb,
        gbar_inv=_inv(jet_space(n, 0), gb),
        g=g,
        ginv=ginv,
        U=U,
        II=II,
        A=A,
        detAc=_wedge(sp2, [A[:, :, j] for j in range(m)]),
        H=tr_a * (alpha / m),
        flips=flip,
    )


def _check_shape_operator_two_routes(a, t, u, du, gamma_bar):
    """II via ∇̄∂∂ against A = −∇̄U at the base points, asserted to 1e−9.

    Values with the batch axes last: a = A (m, m), t (m, d), u = U (d,),
    du[i] = ∂_i U (m, d) and gamma_bar = Γ̄ (d, d, d).
    """
    direct = -du - np.einsum("kab...,ia...,b...->ik...", gamma_bar, t, u)
    primary = np.einsum("ji...,jk...->ik...", a, t)  # A(∂_i) in ambient components
    resid = np.max(np.abs(primary - direct))
    if resid > 1e-9 * (1.0 + np.max(np.abs(a))):
        raise GeometryError(f"shape-operator routes disagree by {resid:.3e}")


def principal_curvatures(first, second, alpha):
    """Principal curvatures and g-orthonormal principal directions of A,
    from II v = μ g v with λ = α μ.

    Returns (lam, E, eps, valid): lam ascending, E[..., i, :] the direction
    for lam[..., i] and eps the signs g(E_i, E_i).  Positive/negative
    definite g uses the symmetric reduction; indefinite g falls back to the
    non-symmetric spectrum of A with a 1e−10 pairing tolerance on imaginary
    parts.  Complex pairs come back as NaN (sorted last), and points with
    complex or null-direction spectra are marked not valid.
    """
    g = np.asarray(first, dtype=float)
    ii = np.asarray(second, dtype=float)
    single = g.ndim == 2
    if single:
        g, ii, alpha = g[None], ii[None], np.atleast_1d(alpha)
    n, m, _ = g.shape
    lam = np.full((n, m), np.nan)
    E = np.full((n, m, m), np.nan)
    eps = np.ones((n, m))
    valid = np.zeros(n, dtype=bool)
    evg = np.linalg.eigvalsh(g)
    pos = evg[:, 0] > 0
    neg = evg[:, -1] < 0
    for mask, sign in ((pos, 1.0), (neg, -1.0)):
        if not np.any(mask):
            continue
        L = np.linalg.cholesky(sign * g[mask])
        Mred = np.linalg.solve(L, np.swapaxes(np.linalg.solve(L, ii[mask]), -1, -2))
        mu, y = np.linalg.eigh(Mred)
        E[mask] = np.swapaxes(np.linalg.solve(np.swapaxes(L, -1, -2), y), -1, -2)
        lam[mask] = alpha[mask, None] * mu * sign
        eps[mask] = sign
        valid[mask] = True
    indef = ~(pos | neg)
    if np.any(indef):
        a_mat = alpha[indef, None, None] * np.linalg.solve(g[indef], ii[indef])
        ev, vec = np.linalg.eig(a_mat)
        scale = 1.0 + np.max(np.abs(ev.real), axis=-1, keepdims=True)
        cplx = np.abs(ev.imag) > 1e-10 * scale
        vec = np.real(np.swapaxes(vec, -1, -2))
        gvv = np.einsum("nia,nab,nib->ni", vec, g[indef], vec)
        lam[indef] = np.where(cplx, np.nan, ev.real)
        E[indef] = vec / np.sqrt(np.abs(np.where(np.abs(gvv) > 1e-300, gvv, 1.0)))[:, :, None]
        eps[indef] = np.sign(gvv)
        valid[indef] = ~np.any(cplx, axis=-1) & (np.min(np.abs(gvv), axis=-1) > 1e-10)
    order = np.argsort(lam, axis=-1)
    lam = np.take_along_axis(lam, order, axis=-1)
    E = np.take_along_axis(E, order[:, :, None], axis=1)
    eps = np.take_along_axis(eps, order, axis=-1)
    if single:
        return lam[0], E[0], eps[0], valid[0]
    return lam, E, eps, valid


def surface_point(imm: Immersion, u, order: int = 4) -> SurfacePointData:
    """The frame at parameter point(s) u, with `u` set: all classical
    pointwise data.

    u may be a single point of shape (m,) or a batch (N, m); batched values
    carry the batch axis first.
    """
    u = np.asarray(u, dtype=float)
    if not np.all(imm.contains(u)):
        raise OutOfDomain("parameter point outside the immersion domain")
    data = frame_jets(imm, seed_jets(u, imm.param_dim, order))
    data.u = u
    return data


# ---------------------------------------------------------------------------
# ambient curvature along an immersion
# ---------------------------------------------------------------------------


def ambient_curvature_on_jets(chart: MetricChart, space, x, gbar=None, u=None):
    """R̄_{abcf}, Ric̄_{ab}, S̄ as coefficient arrays at `space` along the
    coordinates x (n_mono, dim, *batch); `x`, `gbar` (ḡ along x, when
    given) and `u` may come from a higher order than `space`.  Jet order 1
    is enough for every consumer here: the Z field needs one parameter
    derivative, everything else point values.

    With `u`, a vector field U along x (n_mono, dim, *batch), the first
    array is R̄(·,U,·,·)_{acf} = R̄_{abcf}U^b instead: d³ entries, not d⁴.

    Constant-curvature charts and products of them use the closed forms
    R̄ = C̄(ḡ ∧ ḡ) and R̄(·,U,·,·)_{acf} = C̄(ḡ_ac(ḡU)_f − ḡ_af(ḡU)_c) block
    by block; anything else composes the ambient Taylor expansion of the
    curvature with the displacement (and contracts it with U).
    """
    d = chart.dim
    x = x[: space.n]
    if chart.curvature_const is not None:
        blocks = ((chart, slice(0, d)),)
    elif chart.product_factors is not None and all(
        c.curvature_const is not None for c, _ in chart.product_factors
    ):
        blocks = chart.product_factors
    else:
        riem, ric, scal = _generic_curvature_along(chart, space, x)
        if u is not None:
            riem = jeinsum(space, "abcf...,b...->acf...", riem, u)
        return riem, ric, scal
    gbar = chart.metric_fn(space, x) if gbar is None else gbar[: space.n]
    batch = gbar.shape[3:]
    riem = np.zeros((space.n,) + (d,) * (4 if u is None else 3) + batch)
    ric = np.zeros((space.n, d, d) + batch)
    scal = np.zeros((space.n,) + batch)
    for sub, sl in blocks:
        cbar, k = sub.curvature_const, sub.dim
        g = gbar[:, sl, sl]
        if u is None:
            block = riem[:, sl, sl, sl, sl]
            # R_ijab = C̄(g_ia g_jb − g_ib g_ja) for a < b: no d⁴-sized temporaries
            for a, b in combinations(range(k), 2):
                prod = jeinsum(space, "i...,j...->ij...", g[:, :, a], g[:, :, b])
                block[:, :, :, a, b] = (prod - np.swapaxes(prod, 1, 2)) * cbar
                block[:, :, :, b, a] = -block[:, :, :, a, b]
        else:
            g_u = jeinsum(space, "fb...,b...->f...", g, u[: space.n, sl])
            prod = jeinsum(space, "ac...,f...->acf...", g, g_u)
            block = np.subtract(prod, np.swapaxes(prod, 2, 3), out=riem[:, sl, sl, sl])
            block *= cbar
        ric[:, sl, sl] = g * (cbar * (k - 1))
        scal[0] += cbar * k * (k - 1)
    return riem, ric, scal


def _generic_curvature_along(chart: MetricChart, space, x):
    d = chart.dim
    batch = x.shape[2:]

    def stacked(amb_space, g):
        # R̄, Ric̄ and S̄ side by side on one tensor axis, for one compose
        curv = amb._curvature_chain(amb_space, g)
        n = curv.riem.shape[0]
        return np.concatenate(
            [curv.riem.reshape((n, d**4) + batch), curv.ric.reshape((n, d * d) + batch), curv.scal[:, None]],
            axis=1,
        )

    out = amb._compose_along(chart, space, x, 2, stacked)
    return (
        out[:, : d**4].reshape((space.n,) + (d,) * 4 + batch),
        out[:, d**4 : -1].reshape((space.n, d, d) + batch),
        out[:, -1],
    )


# ---------------------------------------------------------------------------
# Gauss and Codazzi residuals
# ---------------------------------------------------------------------------


def intrinsic_curvature_jets(b: SurfacePointData):
    """The curvature chain (g⁻¹, Γ, R, Ric, S) of the induced metric g of a
    frame, as coefficient arrays."""
    return amb._curvature_chain(b.space(b.g), b.g, b.ginv)


def gauss_codazzi_residual(imm: Immersion, u):
    """Max-norm residuals of the Gauss and Codazzi equations at u."""
    u = np.asarray(u, dtype=float)
    b = frame_jets(imm, seed_jets(u, imm.param_dim, 3))
    batched = b.batched

    def vals(c):
        return _cvals(c, batched)

    curv = intrinsic_curvature_jets(b)
    rb = vals(ambient_curvature_on_jets(imm.ambient, jet_space(imm.param_dim, 0), b.xc, b.gbar)[0])
    tv, iiv, alpha = b.tangent, b.second, b.alpha
    rbar_tangent = np.einsum("...abcd,...ia,...jb,...kc,...ld->...ijkl", rb, tv, tv, tv, tv)
    gauss = vals(curv.riem) - rbar_tangent - (alpha[..., None, None, None, None] if batched else alpha) * (
        np.einsum("...ik,...jl->...ijkl", iiv, iiv) - np.einsum("...il,...jk->...ijkl", iiv, iiv)
    )
    gauss_res = np.max(np.abs(gauss))

    # Codazzi: (∇_i A)_j − (∇_j A)_i = R̄(∂_i, ∂_j)U, compared in parameter components
    gam_val, a_val = vals(curv.gamma), b.shape
    nabla_a = (
        vals(amb._grad(b.A, b.space(b.A)))  # [..., i, k, j] = ∂_i A^k_j
        + np.einsum("...kis,...sj->...ikj", gam_val, a_val)
        - np.einsum("...sij,...ks->...ikj", gam_val, a_val)
    )
    # antisymmetrize in (i, j); nabla_a axes are [..., i, k, j]
    lhs = nabla_a - np.moveaxis(nabla_a, [-3, -1], [-1, -3])
    rhs_amb = np.einsum("...abcf,...ia,...jb,...c,...ef->...ije", rb, tv, tv, b.normal, vals(b.gbar_inv))
    rhs_cov = np.einsum("...ije,...ef,...kf->...ijk", rhs_amb, vals(b.gbar), tv)
    rhs_param = np.einsum("...kl,...ijl->...ijk", vals(b.ginv), rhs_cov)
    # lhs[..., i, k, j] has k the component; rhs_param[..., i, j, k]
    codazzi = lhs - np.moveaxis(rhs_param, -1, -2)
    codazzi_res = np.max(np.abs(codazzi))
    return float(gauss_res), float(codazzi_res)


# ---------------------------------------------------------------------------
# standard immersions
# ---------------------------------------------------------------------------


def _unit_sphere_map(k, jets_u):
    """ω: (θ_1, …, θ_{k−1}, φ) ↦ unit vector in ℝ^{k+1} (colatitudes first)."""
    if k == 0:
        return [1.0]
    comps = []
    prefix = None
    for i in range(k - 1):
        cos, sin = jets_u[i].cos_sin()
        comps.append(cos if prefix is None else prefix * cos)
        prefix = sin if prefix is None else prefix * sin
    cos, sin = jets_u[k - 1].cos_sin()
    comps.append(cos if prefix is None else prefix * cos)
    comps.append(sin if prefix is None else prefix * sin)
    return comps


def _sphere_param_box(k):
    lo = np.array([0.0] * (k - 1) + [0.0])
    hi = np.array([math.pi] * (k - 1) + [2 * math.pi])
    hint = tuple(["gl"] * (k - 1) + ["per"])
    return lo, hi, hint


def _chart_radius_fn(cbar):
    """Geodesic radius ρ ↦ conformal-chart radius of the sphere exp(ρ·ω)."""
    if cbar == 0.0:
        return lambda rho: rho
    s = math.sqrt(abs(cbar))

    def fn(rho):
        half = rho * (s / 2)
        if isinstance(half, Jet):
            sin, cos = half.cos_sin()[::-1] if cbar > 0 else (half.sinh(), half.cosh())
            val = sin / cos
        else:
            val = math.tan(half) if cbar > 0 else math.tanh(half)
        return val * (2 / s)

    return fn


def _random_quartic(nvars, rng, amplitude):
    """q(ω) = Σ c·ω_iω_jω_kω_l over the sorted index tuples, with random c of
    total |c| = amplitude, as W : (C : W) for W = ω⊗ω and the constant
    tensor C holding c at each tuple: two jet products, whatever nvars."""
    terms = list(combinations_with_replacement(range(nvars), 4))
    coeffs = rng.normal(size=len(terms))
    coeffs *= amplitude / np.sum(np.abs(coeffs))
    ctensor = np.zeros((nvars,) * 4)
    for c, term in zip(coeffs, terms):
        ctensor[term] = c

    def q(omega):
        space, w = amb._stack_list(omega)
        ww = jeinsum(space, "i...,j...->ij...", w, w)
        cw = np.einsum("ijkl,Zkl...->Zij...", ctensor, ww)
        return Jet(space, jeinsum(space, "ij...,ij...->...", ww, cw))

    return q


def _round_sphere(radius=1.0, m=2, orientation=0):
    radius, m = float(radius), int(m)
    if radius <= 0:
        raise BadParameters("radius must be positive")

    def map_fn(u):
        return [w * radius for w in _unit_sphere_map(m, u)]

    return Immersion(amb.flat_chart(m + 1), m, map_fn, *_sphere_param_box(m), orientation)


def _ellipsoid(axes, orientation=0):
    axes = [float(a) for a in axes]
    if min(axes) <= 0:
        raise BadParameters("all semi-axes must be positive")
    m = len(axes) - 1

    def map_fn(u):
        return [w * a for w, a in zip(_unit_sphere_map(m, u), axes)]

    return Immersion(amb.flat_chart(m + 1), m, map_fn, *_sphere_param_box(m), orientation)


def _perturbed_ovaloid(m=2, amplitude=0.02, seed=0, orientation=0):
    m, amplitude = int(m), float(amplitude)
    if m < 1:
        raise BadParameters(f"m must be at least 1, got {m}")
    if not 0 <= amplitude < 0.2:
        raise BadParameters("amplitude outside the ovaloid-safe range")
    q = _random_quartic(m + 1, np.random.default_rng(int(seed)), amplitude)

    def map_fn(u):
        omega = _unit_sphere_map(m, u)
        rho = q(omega) + 1.0
        return [w * rho for w in omega]

    return Immersion(amb.flat_chart(m + 1), m, map_fn, *_sphere_param_box(m), orientation)


def _graph(quadratic=((1.0, 0.0), (0.0, 1.0)), half_width=1.0, orientation=0):
    quad, half = np.asarray(quadratic, dtype=float), float(half_width)
    if quad.ndim != 2 or quad.shape[0] != quad.shape[1] or not np.all(np.isfinite(quad)):
        raise BadParameters("quadratic must be a square matrix of finite numbers")
    if not 0 < half < math.inf:
        raise BadParameters(f"half_width must be a finite number > 0, got {half_width!r}")
    m = quad.shape[0]

    def map_fn(u):
        z = None
        for i in range(m):
            for j in range(m):
                if quad[i, j] == 0.0:
                    continue
                term = u[i] * u[j] * (0.5 * quad[i, j])
                z = term if z is None else z + term
        if z is None:
            z = u[0] * 0.0
        return list(u) + [z]

    box = half * np.ones(m)
    return Immersion(amb.flat_chart(m + 1), m, map_fn, -box, box, ("gl",) * m, orientation)


def _rotational(profile="catenoid", waist=1.0, half_height=1.0, orientation=0):
    if profile != "catenoid":
        raise BadParameters(f"unknown rotational profile {profile!r}")
    a, half = float(waist), float(half_height)

    def map_fn(u):
        s, phi = u
        r = (s / a).cosh() * a
        cos, sin = phi.cos_sin()
        return [r * cos, r * sin, s]

    lo, hi = np.array([-half, 0.0]), np.array([half, 2 * math.pi])
    return Immersion(amb.flat_chart(3), 2, map_fn, lo, hi, ("gl", "per"), orientation)


def _clifford(orientation=0):
    c = 1.0 / math.sqrt(2.0)

    def map_fn(u):
        (cos_s, sin_s), (cos_t, sin_t) = (v.cos_sin() for v in u)
        y0 = cos_s * c
        rest = [sin_s * c, cos_t * c, sin_t * c]
        denom = (y0 + 1.0).reciprocal() * 2.0
        return [yi * denom for yi in rest]

    box = np.array([2 * math.pi, 2 * math.pi])
    return Immersion(amb.space_form(3, 1.0), 2, map_fn, np.zeros(2), box, ("per", "per"), orientation)


def _small_sphere_in_sphere(geodesic_radius, Cbar=1.0, m=2, orientation=0):
    rho, cbar, m = float(geodesic_radius), float(Cbar), int(m)
    if rho <= 0:
        raise BadParameters("geodesic radius must be positive")
    if cbar > 0 and rho >= math.pi / math.sqrt(cbar):
        raise BadParameters("geodesic sphere beyond the conjugate radius")
    c = _chart_radius_fn(cbar)(rho)

    def map_fn(u):
        return [w * c for w in _unit_sphere_map(m, u)]

    return Immersion(amb.space_form(m + 1, cbar), m, map_fn, *_sphere_param_box(m), orientation)


def _perturbed_sphere_in_space_form(
    Cbar=1.0, m=3, base_radius=0.7, amplitude=0.02, seed=0, orientation=0
):
    cbar, m, rho0 = float(Cbar), int(m), float(base_radius)
    if m < 1:
        raise BadParameters(f"m must be at least 1, got {m}")
    if not 0 < rho0 < (math.pi / math.sqrt(cbar) if cbar > 0 else math.inf):
        raise BadParameters(f"base radius must lie in (0, conjugate radius), got {base_radius!r}")
    q = _random_quartic(m + 1, np.random.default_rng(int(seed)), float(amplitude))
    radius_fn = _chart_radius_fn(cbar)

    def map_fn(u):
        omega = _unit_sphere_map(m, u)
        rho = (q(omega) + 1.0) * rho0
        c = radius_fn(rho)
        return [w * c for w in omega]

    return Immersion(amb.space_form(m + 1, cbar), m, map_fn, *_sphere_param_box(m), orientation)


def _product_sphere_in_sphere(m=2, k=1, orientation=0):
    m, k = int(m), int(k)
    if not 1 <= k <= m - 1:
        raise BadParameters("need 1 <= k <= m-1")
    c = 1.0 / math.sqrt(2.0)
    (lo_a, hi_a, hint_a), (lo_b, hi_b, hint_b) = _sphere_param_box(k), _sphere_param_box(m - k)

    def map_fn(u):
        a_part = [w * c for w in _unit_sphere_map(k, u[:k])]
        b_part = [w * c for w in _unit_sphere_map(m - k, u[k:])]
        y = a_part + b_part
        denom = (y[0] + 1.0).reciprocal() * 2.0
        return [yi * denom for yi in y[1:]]

    lo, hi = np.concatenate([lo_a, lo_b]), np.concatenate([hi_a, hi_b])
    return Immersion(amb.space_form(m + 1, 1.0), m, map_fn, lo, hi, hint_a + hint_b, orientation)


def _latitude_circle(colatitude=math.pi / 4, Cbar=1.0, orientation=0):
    theta, cbar = float(colatitude), float(Cbar)
    if not 0 < theta < math.pi:
        raise BadParameters("colatitude must lie in (0, π)")
    rc = _chart_radius_fn(cbar)(theta)
    circumference = 2 * math.pi * math.sin(theta)  # unit sphere

    def map_fn(u):
        (s,) = u
        cos, sin = (s * (2 * math.pi / circumference)).cos_sin()
        return [cos * rc, sin * rc]

    lo, hi = np.array([0.0]), np.array([circumference])
    return Immersion(amb.space_form(2, cbar), 1, map_fn, lo, hi, ("per",), orientation)


# the catalog: kind -> builder _<kind>, whose keyword parameters are the descriptor's keys
IMMERSIONS = {fn.__name__[1:]: fn for fn in (
    _round_sphere, _ellipsoid, _perturbed_ovaloid, _graph, _rotational, _clifford,
    _small_sphere_in_sphere, _perturbed_sphere_in_space_form, _product_sphere_in_sphere,
    _latitude_circle,
)}
STANDARD_KINDS = tuple(IMMERSIONS)


def standard_immersion(kind: str, **params) -> Immersion:
    """Catalog of closed-form immersions used throughout the test corpus;
    `kind` is one of ``STANDARD_KINDS`` and `params` are its builder's
    keywords (``orientation`` among them)."""
    return immersion_from_descriptor({"kind": kind, **params})


def immersion_from_descriptor(desc: dict) -> Immersion:
    return _lookup(IMMERSIONS, "immersion", desc)


def reparametrized(imm: Immersion, mat, shift, new_lo, new_hi) -> Immersion:
    """Compose the parameter chart with the affine map u ↦ mat·u + shift."""
    mat = np.asarray(mat, dtype=float)
    shift = np.asarray(shift, dtype=float)

    def map_fn(u):
        w = [None] * imm.param_dim
        for i in range(imm.param_dim):
            acc = None
            for j in range(imm.param_dim):
                if mat[i, j] == 0.0:
                    continue
                term = u[j] * mat[i, j]
                acc = term if acc is None else acc + term
            w[i] = (acc if acc is not None else u[0] * 0.0) + shift[i]
        return imm.map_fn(w)

    return Immersion(
        imm.ambient, imm.param_dim, map_fn, np.asarray(new_lo, float), np.asarray(new_hi, float),
        grid_hint=imm.grid_hint, orientation=imm.orientation,
    )


def resolved_orientation(imm: Immersion) -> int:
    """The concrete ±1 (relative to the cofactor normal) that the immersion's
    orientation rule realizes at the domain midpoint.  The auto rule flips
    the cofactor normal exactly where tr A < −ORIENTATION_TIE, so one raw
    frame there decides.  Where tr A changes sign over the patch (the saddle
    z = u₀u₁ on |u_i| ≤ 0.4 flips at half of a 16×16 grid), the auto rule
    realizes the other sign at some points."""
    if imm.orientation != 0:
        return imm.orientation
    u_mid = 0.5 * (imm.param_lo + imm.param_hi)
    raw = surface_point(replace(imm, orientation=1), u_mid, order=2)
    return -1 if np.trace(raw.shape) < -ORIENTATION_TIE else 1


def flipped(imm: Immersion) -> Immersion:
    """The patch with the orientation opposite to the one the rule realizes
    at the domain midpoint (``resolved_orientation``).  Under the auto rule
    it keeps the auto normal wherever that rule flipped it."""
    return replace(imm, orientation=-resolved_orientation(imm))


def validate_immersion(imm: Immersion) -> None:
    """Run the SurfacePointData invariants on a grid of 5 points per axis,
    inset by 1e−3 of each axis' length; raises on failure."""
    m = imm.param_dim
    axes = [
        np.linspace(lo + 1e-3 * (hi - lo), hi - 1e-3 * (hi - lo), 5)
        for lo, hi in zip(imm.param_lo, imm.param_hi)
    ]
    mesh = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=-1)
    data = surface_point(imm, mesh, order=2)
    gbar = amb.metric_value(imm.ambient, data.x)
    udotu = np.einsum("...a,...ab,...b->...", data.normal, gbar, data.normal)
    if np.max(np.abs(np.abs(udotu) - 1.0)) > 1e-10:
        raise GeometryError("normal is not unit")
    tdotu = np.einsum("...ia,...ab,...b->...i", data.tangent, gbar, data.normal)
    if np.max(np.abs(tdotu)) > 1e-9:
        raise GeometryError("normal not orthogonal to tangents")
    ii_sym = np.max(np.abs(data.second - np.swapaxes(data.second, -1, -2)))
    if ii_sym > 1e-10:
        raise GeometryError("second fundamental form not symmetric")
    aga = np.einsum("...ik,...kj->...ij", data.first, data.shape) * data.alpha[..., None, None]
    if np.max(np.abs(aga - data.second)) > 1e-9:
        raise GeometryError("α·g·A != II")
    h = data.alpha / m * np.einsum("...ii->...", data.shape)
    if np.max(np.abs(h - data.mean)) > 1e-10:
        raise GeometryError("mean curvature mismatch")
    prod = np.prod(data.lam, axis=-1)
    ok = np.isfinite(prod)
    if np.any(np.abs(prod[ok] - data.detA[ok]) > 1e-8 * (1 + np.abs(data.detA[ok]))):
        raise GeometryError("det A != product of principal curvatures")
