"""Geometry measured in the second fundamental form.

Everything here lives on hypersurfaces whose second fundamental form II is a
semi-Riemannian metric, of any signature: the Levi-Civita connection of II
and the difference tensor L = ∇^II − ∇, the curvature field

    Z = Σ_i κ_i A^{←}([R̄(V_i, U)V_i]^T),

Δ_II log|det A| and div_II Z (sign convention Δf = f″ on ℝ), and the
mean curvature of the second fundamental form computed through three
genuinely different routes:

  variational:  H_II = ½(mH − Σ_i κ_i ḡ(R̄(V_i,U)V_i,U)) + tail,
  principal:    H_II = ½(mH − Σ_i K̄(E_i,U)/λ_i) + tail,
  contracted:   H_II = −(α/2)(tr_II R̄ic − tr_II Ric + α(m²−2m)H) + tail,

with the shared tail (α/4)Δ_II log|det A| − (α/2) div_II Z.  Here (V_i, κ_i)
is any II-orthonormal frame, II(V_i, V_j) = κ_i δ_ij, and every such sum is
a trace tr_II B = Σ_i κ_i B(V_i, V_i) = II^{ij}B_ij: the code contracts with
the inverse of II and builds no frame.  The first route uses the ambient
curvature along the hypersurface, the second the principal directions, the
third the intrinsic Ricci curvature of the induced metric; their mutual
agreement is the strongest single correctness check in the package.  For
m = 2 the contracted route loses its α(m²−2m)H term and leans entirely on
the trace terms; it is still computed and must still agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Callable, Optional

import numpy as np

from . import ambient as amb
from .errors import (
    DegenerateII,
    SingularShapeOperator,
    StepFailure,
)
from .hypersurface import (
    Immersion,
    SurfacePointData,
    _cvals,
    ambient_curvature_on_jets,
    frame_jets,
    intrinsic_curvature_jets,
    surface_point,
)
from .jets import Jet, _cauchy, _cofactors, _inv, _wedge, jeinsum, jet_space, seed_jets

__all__ = [
    "IIGeometryPoint",
    "ii_geometry",
    "transport_holonomy_probe",
    "sphere_inequality_report",
    "SphereInequalityReport",
]

SHAPE_EIGENVALUE_FLOOR = 1e-8
II_DET_FLOOR = 1e-12
PRINCIPAL_GAP = 1e-6

# Points of one frame in ``ii_geometry``: a batch of N ≥ 2·STACK_MAX_POINTS
# runs as N // STACK_MAX_POINTS blocks of 2,048–4,095 points, and the
# scenario runner stacks ensemble members up to this many points a batch.
# Each call has a fixed cost of a few ms, and its cost per point flattens
# near 2,000 points: ``ii_geometry`` on a perturbed ovaloid takes 66 µs a
# point at 153 points, 28 at 918 and 19–23 from 2,448 to 8,192 (Clifford
# torus: 55, 23 and 13–18; 2-core x86_64 VM, numpy 2.4).  Larger frames
# buy no time, and a frame's transient memory grows with its points.
STACK_MAX_POINTS = 2048


@dataclass
class IIGeometryPoint:
    """Per-point package of II-metric quantities (batch axis first on grids).

    `h_ii` holds the three routes under keys "variational", "principal",
    "gauss"; `principal_valid` marks points where the eigenbasis route was
    computable.  `valid` marks points passing the nondegeneracy guards; with
    on_error="mask" the invalid entries are NaN instead of raising.
    `ii_inv` holds the values of II^{ij}, the inverse every tr_II contracts
    with, and `ii_LL` the invariant II(L, L) = II^{ia}II^{jb}II_{kl}L^k_{ij}L^l_{ab}.
    `base` is the frame as ``SurfacePointData.kept`` leaves it: jets for
    `xc` (order 3) and `U` (order 2), values only for the other arrays.
    """

    base: SurfacePointData  # jets of xc and U only
    ii_inv: np.ndarray  # (..., m, m): II^{ij}
    gamma_ii: np.ndarray  # (..., m, m, m): Γ_II^k_{ij}, k first
    L: np.ndarray  # (..., m, m, m): L^k_{ij}
    tr_ii_L: np.ndarray  # (..., m)
    Z: np.ndarray  # (..., m) parameter components
    h_ii: dict
    s_ii: np.ndarray
    ii_LL: np.ndarray
    lap_ii_log_det_a: np.ndarray
    div_ii_z: np.ndarray
    tr_ii_ricbar: np.ndarray
    tr_ii_ric: np.ndarray
    scal_g: np.ndarray  # scalar curvature of g (2K on surfaces)
    sbar: np.ndarray  # ambient scalar curvature S̄ along the patch
    metricity_residual: np.ndarray
    principal_valid: np.ndarray
    valid: np.ndarray
    invalid_reason: np.ndarray = None

    def take(self, imm: Immersion, sl: slice) -> "IIGeometryPoint":
        """The package of `imm` over the batch slice `sl` of this one: views
        of every array, a spectrum already solved included."""
        return self.batch_map(lambda a, last: a[..., sl] if last else a[sl], imm=imm)

    def batch_map(self, fn, *others, imm=None) -> "IIGeometryPoint":
        """This package with fn(a, *b, last) for each array a with a batch
        axis, its frame's included (see ``SurfacePointData.batch_map``),
        and its frame's immersion replaced by `imm` when given."""
        geos = (self, *others)
        arrays = {f.name: fn(*[getattr(x, f.name) for x in geos], False)
                  for f in fields(self) if isinstance(getattr(self, f.name), np.ndarray)}
        h_ii = {k: fn(*[x.h_ii[k] for x in geos], False) for k in self.h_ii}
        base = self.base.batch_map(fn, *[x.base for x in others], imm=self.base.imm if imm is None else imm)
        return replace(self, base=base, h_ii=h_ii, **arrays)

    @property
    def h_ii_spread(self):
        """Max relative disagreement of the available routes."""
        routes = [self.h_ii["variational"], self.h_ii["gauss"]]
        hp = np.where(self.principal_valid, self.h_ii["principal"], self.h_ii["variational"])
        routes.append(hp)
        stack = np.stack(routes)
        return (np.max(stack, axis=0) - np.min(stack, axis=0)) / (
            1.0 + np.abs(self.h_ii["variational"])
        )


def _divergence_form(w, comps):
    """(1/W)·Σ_i ∂_i(W·comps^i) at the base point, for coefficient arrays
    w (n_mono, *batch) at order 1 and comps (n_mono, m, *batch)."""
    space = jet_space(comps.shape[1], 1)
    flux = amb._grad(_cauchy(space, comps, w[:, None]), space)[0]
    return np.einsum("ii...->...", flux) / w[0]


def _ii_machine(b: SurfacePointData):
    """(space, II⁻¹, W = √|det II|) as coefficient arrays at jet order ≤ 1:
    the divergence form reads one derivative, Γ_II one order below II."""
    m = b.imm.param_dim
    space = jet_space(m, min(b.order - 2, 1))
    ii = b.II[: space.n]
    det_ii = _wedge(space, [ii[:, :, j] for j in range(m)])
    w = Jet(space, det_ii * np.sign(det_ii[0])).sqrt().coeffs
    return space, _inv(space, ii), w


def ii_geometry(imm: Immersion, u, on_error: str = "raise") -> IIGeometryPoint:
    """Full II-geometry package at parameter point(s) u.

    Needs the immersion to Taylor order 4 (Δ_II log|det A| consumes two
    parameter derivatives of det A).  With on_error="mask", points failing
    the nondegeneracy guards come back NaN with `valid`=False rather than
    raising.

    A batch of N ≥ 2·``STACK_MAX_POINTS`` points runs in
    N // ``STACK_MAX_POINTS`` blocks written into full-size outputs, each
    block's order-4 frame freed: bounded memory on any grid, bit for bit
    the values of one frame.  The result's frame keeps jets for x and U
    only, which the first variation reads (``SurfacePointData.kept``);
    reading another field's jet raises.
    """
    u = np.asarray(u, dtype=float)
    n = len(u) if u.ndim == 2 else 0
    if n < 2 * STACK_MAX_POINTS:
        return _ii_geometry_from(surface_point(imm, u, order=4), on_error)
    out = None
    for block in np.array_split(np.arange(n), n // STACK_MAX_POINTS):
        sl = slice(int(block[0]), int(block[-1]) + 1)
        geo = _ii_geometry_from(surface_point(imm, u[sl], order=4), "mask")
        if out is None:
            out = geo.batch_map(lambda a, last: np.empty_like(
                a, shape=a.shape[:-1] + (n,) if last else (n,) + a.shape[1:]))
        out.take(imm, sl).batch_map(lambda a, b, last: np.copyto(a, b), geo)
    if on_error == "raise":
        _raise_invalid(out.invalid_reason)
    return out


def _raise_invalid(reason):
    """Raise for the first nondegeneracy guard that fails at some point,
    counting its points; `reason` is ``IIGeometryPoint.invalid_reason``."""
    singular, degenerate = int(np.sum(reason == "singular_shape")), int(np.sum(reason == "degenerate_ii"))
    if singular:
        raise SingularShapeOperator(f"min |principal curvature| < {SHAPE_EIGENVALUE_FLOOR} at {singular} point(s)")
    if degenerate:
        raise DegenerateII(f"|det II| < {II_DET_FLOOR} at {degenerate} point(s)")


@np.errstate(all="ignore")
def _ii_geometry_from(data: SurfacePointData, on_error):
    """``ii_geometry`` on a frame at order 4 over the m parameters, in one
    block; the result keeps the frame's jets for x and U only."""
    m, batched = data.imm.param_dim, data.batched
    lam, E, eps_dir, prin_ok, lam_mod = data.principal  # one eigen-solve per point
    singular = np.min(lam_mod, axis=-1) < SHAPE_EIGENVALUE_FLOOR
    ii_val = data.second
    det_ii_val = _cofactors(data.II[0])[1]
    degenerate = np.abs(det_ii_val) < II_DET_FLOOR
    valid = ~(singular | degenerate)
    reason = np.where(singular, "singular_shape", np.where(degenerate, "degenerate_ii", ""))
    if on_error == "raise":
        _raise_invalid(reason)

    sp1, ii_inv, w = _ii_machine(data)
    curv_ii = amb._curvature_chain(data.space(data.II), data.II, ii_inv)
    curv_g = intrinsic_curvature_jets(data)

    gamma_ii_val = _cvals(curv_ii.gamma, batched)
    L = gamma_ii_val - _cvals(curv_g.gamma, batched)
    ii_inv_val = _cvals(ii_inv, batched)

    # metricity of ∇^II (a plumbing check: holds to roundoff by construction)
    dii = _cvals(amb._grad(data.II[: sp1.n], sp1), batched)  # [..., k, i, j] = ∂_k II_ij
    nab_ii = (
        dii
        - np.einsum("...ski,...sj->...kij", gamma_ii_val, ii_val)
        - np.einsum("...skj,...is->...kij", gamma_ii_val, ii_val)
    )
    metricity = np.max(np.abs(nab_ii), axis=(-1, -2, -3))

    # tr_II L as a vector
    tr_l = np.einsum("...ab,...kab->...k", ii_inv_val, L)

    # ambient curvature along the patch, at the order the Z field reads, R̄ as R̄(·,U,·,·)
    r_u, ric_bar, sbar = ambient_curvature_on_jets(data.imm.ambient, sp1, data.xc, data.gbar, data.U)
    # P^{ac} = II^{ij} t_i^a t_j^c: the tr_II of a form B̄ on the ambient is P^{ac}B̄_ac
    t = data.t
    p = jeinsum(sp1, "ja...,jc...->ac...", jeinsum(sp1, "ij...,ia...->ja...", ii_inv, t), t)
    p_val = _cvals(p, batched)
    z = _z_field(data, r_u, ii_inv, p)
    z_val = _cvals(z, batched)

    # Δ_II log|det A| and div_II Z via the divergence form
    f_log = Jet(data.space(data.detAc), data.detAc).log_abs()
    grad_log = jeinsum(sp1, "ij...,j...->i...", ii_inv, amb._grad(f_log.coeffs, f_log.space))
    lap_log_det_a = _divergence_form(w, grad_log)
    div_z = _divergence_form(w, z)

    alpha = data.alpha
    h = data.mean
    tail = 0.25 * alpha * lap_log_det_a - 0.5 * alpha * div_z

    # variational head: tr_II of B(X,Y) = ḡ(R̄(X,U)Y,U)
    tv, uv = data.tangent, data.normal
    r_uu = np.einsum("...acf,...f->...ac", _cvals(r_u, batched), uv)  # R̄(·,U,·,U)
    h_var = 0.5 * (m * h - np.einsum("...ac,...ac->...", p_val, r_uu)) + tail

    # principal head: Σ K̄(E_i,U)/λ_i with eigenvalue clusters merged
    scale = 1.0 + np.max(np.abs(lam), axis=-1, keepdims=True)
    lam_grouped = _group_eigenvalues(lam, PRINCIPAL_GAP * scale)
    e_amb = np.einsum("...ik,...ka->...ia", E, tv)
    kbar_num = np.einsum("...ic,...ic->...i", np.einsum("...ac,...ia->...ic", r_uu, e_amb), e_amb)
    kbar = kbar_num / (eps_dir * alpha[..., None] if batched else eps_dir * alpha)
    with np.errstate(all="ignore"):
        h_prin = 0.5 * (m * h - np.sum(kbar / lam_grouped, axis=-1)) + tail

    # contracted-Gauss head: needs tr_II of ambient and intrinsic Ricci
    tr_ii_ricbar = np.einsum("...ac,...ac->...", p_val, _cvals(ric_bar, batched))
    tr_ii_ric = np.einsum("...ij,...ij->...", ii_inv_val, _cvals(curv_g.ric, batched))
    scal_g = _cvals(curv_g.scal, batched)
    h_gauss = -0.5 * alpha * (tr_ii_ricbar - tr_ii_ric + alpha * (m * m - 2 * m) * h) + tail

    # intrinsic scalar curvature of (M, II)
    s_ii = _cvals(curv_ii.scal, batched)

    # II(L,L) = II^{ia}II^{jb}II_{kl}L^k_{ij}L^l_{ab}
    l_flat = np.einsum("...kl,...kij->...lij", ii_val, L)
    l_up = np.einsum("...ia,...jb,...kab->...kij", ii_inv_val, ii_inv_val, L)
    ii_ll = np.einsum("...lij,...lij->...", l_flat, l_up)

    nanify = None if on_error == "raise" else ~valid
    out = IIGeometryPoint(
        base=data.kept(),
        ii_inv=ii_inv_val,
        gamma_ii=gamma_ii_val,
        L=L,
        tr_ii_L=tr_l,
        Z=z_val,
        h_ii={
            "variational": _mask(h_var, nanify),
            "principal": _mask(h_prin, nanify),
            "gauss": _mask(h_gauss, nanify),
        },
        s_ii=_mask(s_ii, nanify),
        ii_LL=ii_ll,
        lap_ii_log_det_a=_mask(lap_log_det_a, nanify),
        div_ii_z=_mask(div_z, nanify),
        tr_ii_ricbar=_mask(tr_ii_ricbar, nanify),
        tr_ii_ric=_mask(tr_ii_ric, nanify),
        scal_g=_mask(scal_g, nanify),
        sbar=sbar[0],
        metricity_residual=metricity,
        principal_valid=prin_ok & valid,
        valid=valid,
        invalid_reason=reason,
    )
    return out


def _mask(arr, bad):
    if bad is None or not np.any(bad):
        return arr
    return np.where(bad, np.nan, arr)


def _group_eigenvalues(lam, tol):
    """Merge eigenvalue clusters closer than tol (sorted input)."""
    out = lam.copy()
    m = lam.shape[-1]
    i = 0
    # vectorized pairwise merge: average runs of near-equal eigenvalues
    for _ in range(m - 1):
        diff = np.abs(np.diff(out, axis=-1))
        close = diff < tol
        if not np.any(close):
            break
        for j in range(m - 1):
            mask = close[..., j]
            if np.any(mask):
                avg = 0.5 * (out[..., j] + out[..., j + 1])
                out[..., j] = np.where(mask, avg, out[..., j])
                out[..., j + 1] = np.where(mask, avg, out[..., j + 1])
    return out


def _z_field(b: SurfacePointData, r_u, ii_inv, p):
    """Z in parameter components, a coefficient array (n_mono, m, *batch) at
    jet order 1 (div_II Z reads one derivative).

    With W the II-trace of (X,Y) ↦ R̄(X,U)Y, Z = A⁻¹g⁻¹ḡ(W, ∂_·) =
    α II⁻¹ḡ(W, ∂_·), because gA = α II; and ḡ(W, ∂_l) = R̄_{abcf} P^{ac} U^b
    t_l^f with P^{ac} = II^{ij} t_i^a t_j^c, so the normal part of W and ḡ⁻¹
    drop out.  `r_u` (R̄(·,U,·,·)_{acf} = R̄_{abcf}U^b), `ii_inv` and `p` (P)
    are coefficient arrays.
    """
    space = jet_space(b.imm.param_dim, 1)
    w_t = jeinsum(space, "f...,lf...->l...", jeinsum(space, "acf...,ac...->f...", r_u, p), b.t)
    return jeinsum(space, "kl...,l...->k...", ii_inv, w_t) * b.alpha


# ---------------------------------------------------------------------------
# parallel-transport probe of the difference tensor
# ---------------------------------------------------------------------------


def _connections_on_path(imm: Immersion, pts):
    """(Γ_g, Γ_II) values at a batch of parameter points."""
    b = frame_jets(imm, seed_jets(pts, imm.param_dim, 3))
    gamma_g = amb._curvature_chain(b.space(b.g), b.g, b.ginv).gamma
    gamma_ii = amb._curvature_chain(b.space(b.II), b.II).gamma
    return _cvals(gamma_g, True), _cvals(gamma_ii, True)


def transport_holonomy_probe(imm: Immersion, curve: Callable, v, eps: float):
    """(v★_ε − v)/ε for ∇-transport out and ∇^II-transport back along `curve`,
    RK4 on 32 steps each way.

    As ε → 0 this converges (first order) to L(v, c′(0)); `curve` maps a
    1-variable jet to a list of parameter jets.
    """
    if eps == 0.0:
        raise StepFailure("transport probe needs a nonzero step")
    m = imm.param_dim
    v = np.asarray(v, dtype=float)
    n_steps = 32
    # sample the curve and its velocity at the RK4 stage times, both legs
    n_nodes = 2 * n_steps + 1
    ts = np.linspace(0.0, eps, n_nodes)
    t_jets = seed_jets(ts[:, None], 1, 1)
    c_jets = curve(t_jets[0])
    pts = np.stack([np.asarray(cj.value) for cj in c_jets], axis=-1)
    vel = np.stack([np.asarray(cj.partial(0).value) for cj in c_jets], axis=-1)
    gam_g, gam_ii = _connections_on_path(imm, pts)

    def rk4_leg(v0, gamma, order, sign):
        h = eps / n_steps * sign
        w = v0.copy()
        for k in range(n_steps):
            idx = order[2 * k], order[2 * k + 1], order[2 * k + 2]
            m0 = -np.einsum("kij,i->kj", gamma[idx[0]], vel[idx[0]])
            m1 = -np.einsum("kij,i->kj", gamma[idx[1]], vel[idx[1]])
            m2 = -np.einsum("kij,i->kj", gamma[idx[2]], vel[idx[2]])
            k1 = m0 @ w
            k2 = m1 @ (w + 0.5 * h * k1)
            k3 = m1 @ (w + 0.5 * h * k2)
            k4 = m2 @ (w + h * k3)
            w = w + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        return w

    fwd_order = list(range(n_nodes))
    v_out = rk4_leg(v, gam_g, fwd_order, +1.0)
    back_order = list(range(n_nodes - 1, -1, -1))
    v_back = rk4_leg(v_out, gam_ii, back_order, -1.0)
    return (v_back - v) / eps


# ---------------------------------------------------------------------------
# hypersphere inequality diagnostics
# ---------------------------------------------------------------------------


@dataclass
class SphereInequalityReport:
    """Per-point values of the hypersphere characterisation quantities.

    Columns follow the inequalities: `lemma51`/`thm52` is
    S_II − 2α(m−1)(H_II + C̄ tr A^{←}) (nonpositive exactly on parallel
    hypersurfaces / extrinsic hyperspheres), `thm61` the Einstein-space
    quantity H_II + mβ − ½ tr_II Ric (m ≥ 3), `thm71` the surface quantity
    K_II − αH_II − ½ tr_II R̄ic (m = 2), and `cor7` the sign quantity
    H_II − αK_II + 2C̄H/(K − C̄).  Quantities whose hypotheses fail at a
    point are NaN there and flagged in `status`.
    """

    u: np.ndarray
    geo: IIGeometryPoint
    lemma51: np.ndarray
    thm52: np.ndarray
    thm61: Optional[np.ndarray]
    thm71: Optional[np.ndarray]
    cor7: Optional[np.ndarray]
    status: list
    summary: dict


def sphere_inequality_report(imm: Immersion, grid_u, geo=None) -> SphereInequalityReport:
    """Evaluate the space-form / Einstein / surface inequality quantities.

    `geo`, when given, must be ``ii_geometry(imm, grid_u, on_error="mask")``,
    already computed by the caller.
    """
    u = np.atleast_2d(np.asarray(grid_u, dtype=float))
    if geo is None:
        geo = ii_geometry(imm, u, on_error="mask")
    data = geo.base
    m = imm.param_dim
    alpha = data.alpha
    cbar = imm.ambient.curvature_const
    h_ii = geo.h_ii["variational"]
    status = np.where(geo.valid, "ok", "degenerate").astype(object)

    with np.errstate(all="ignore"):
        tr_a_inv = alpha * np.einsum("...ij,...ij->...", geo.ii_inv, data.first)  # A⁻¹ = α II⁻¹g
        lemma51 = thm52 = None
        if cbar is not None:
            lemma51 = geo.s_ii - 2.0 * alpha * (m - 1) * (h_ii + cbar * tr_a_inv)
            thm52 = lemma51
        thm61 = thm71 = cor7 = None
        if m >= 3:
            sbar_val = geo.sbar
            beta = np.sqrt(np.maximum(((m - 2) / (m + 1)) * sbar_val, 0.0))
            thm61 = h_ii + m * beta - 0.5 * geo.tr_ii_ric
            bad = sbar_val <= 0
            if np.any(bad):
                thm61 = np.where(bad, np.nan, thm61)
                status[bad & geo.valid] = "ambient_scalar_nonpositive"
        if m == 2:
            k_ii = 0.5 * geo.s_ii
            thm71 = k_ii - alpha * h_ii - 0.5 * geo.tr_ii_ricbar
            if cbar is not None:
                k_gauss = 0.5 * geo.scal_g  # Ric = K g on surfaces
                denom = k_gauss - cbar
                cor7 = h_ii - alpha * k_ii + 2.0 * cbar * data.mean / denom
                near = np.abs(denom) < 1e-10
                if np.any(near):
                    cor7 = np.where(near, np.nan, cor7)
                    status[near & geo.valid] = "K_equals_Cbar"

    def stats(arr):
        if arr is None:
            return None
        ok = np.isfinite(arr)
        if not np.any(ok):
            return {"min": math.nan, "max": math.nan}
        return {"min": float(np.min(arr[ok])), "max": float(np.max(arr[ok]))}

    summary = {
        "lemma51": stats(lemma51),
        "thm61": stats(thm61),
        "thm71": stats(thm71),
        "cor7": stats(cor7),
        "max_abs_h_ii": float(np.nanmax(np.abs(h_ii))) if np.any(geo.valid) else math.nan,
        "n_valid": int(np.sum(geo.valid)),
        "n_points": int(u.shape[0]),
    }
    return SphereInequalityReport(
        u=u, geo=geo, lemma51=lemma51, thm52=thm52, thm61=thm61, thm71=thm71, cor7=cor7,
        status=list(status), summary=summary,
    )
