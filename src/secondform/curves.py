"""Curves in semi-Riemannian surfaces: Frenet data, H_II, Length_II, ODEs.

A curve is an immersion with m = 1 (an ``Immersion`` with ``param_dim`` 1,
parametrized by arclength s), so its Frenet data are read off the one
fundamental-form frame of ``hypersurface.surface_point``: with
β = ḡ(T,T) = g the shape operator is the 1×1 matrix A = ±κ, so the geodesic
curvature is κ = β|A| (κ′ and κ″ from A's jet), and the Frenet normal U is
the frame normal turned along ∇̄_T T.  Its Length_II = ∫ √|κ| ds is its
Area_II.  For an arclength-parametrized Frenet curve with frame {T, U} and
geodesic curvature κ (signs β = ḡ(T,T), α = ḡ(U,U)), H_II at m = 1 is the
closed formula

    H_II = ½( −α K̄/κ + κ + (αβ/4)(2κ″/κ² − 3(κ′)²/κ³) ),

with K̄ the Gauss curvature of the ambient surface.  II-minimal planar curves
satisfy 4κ⁴ + 2κκ″ − 3(κ′)² = 0, solved by κ(s) = A/(A²(s+Q)²+1) (the
catenaries); on the unit sphere the equation becomes
4κ² − 4κ⁴ − 2κ″κ + 3(κ′)² = 0, with κ ≡ 1 (the circle of radius 1/√2) as the
constant solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import ambient as amb
from .errors import BadParameters, BlowUp, NotFrenet, NotUnitSpeed, _lookup
from .hypersurface import Immersion, _latitude_circle, surface_point
from .jets import Jet, jet_space
from .variation import area, tensor_gauss_legendre

__all__ = [
    "FrenetData",
    "frenet",
    "h_ii_curve",
    "length_ii",
    "ode_residual",
    "integrate_ii_minimal",
    "standard_curve",
    "curve_from_descriptor",
    "catenary_family_kappa",
    "IIMinimalSolution",
]

FRENET_FLOOR = 1e-10


@dataclass
class FrenetData:
    s: np.ndarray
    x: np.ndarray
    T: np.ndarray
    U: np.ndarray
    kappa: np.ndarray
    alpha: float
    beta: float
    frenet_residual: np.ndarray  # max norm of the two Frenet-Serret defects


def _frame(curve: Immersion, s):
    """(s, the frame at s, κ = β|A| as a jet over s, α, β)."""
    s = np.asarray(s, dtype=float)
    b = surface_point(curve, s[..., None] if s.ndim else s[None])
    g = b.g[0, 0, 0]
    if np.max(np.abs(np.abs(g) - 1.0)) > 1e-9:
        raise NotUnitSpeed("curve is not parametrized by arclength")
    a = b.A[:, 0, 0]
    if np.min(a[0] ** 2) < FRENET_FLOOR:
        raise NotFrenet("curve acceleration is zero")
    beta = float(np.sign(g).ravel()[0])
    kappa = Jet(b.space(b.A), a * (np.sign(a[0]) * beta))
    return s, b, kappa, float(np.ravel(b.alpha)[0]), beta


def frenet(curve: Immersion, s) -> FrenetData:
    """Frenet frame, geodesic curvature and Frenet-Serret residuals at s."""
    s, b, kappa_jet, alpha, beta = _frame(curve, s)
    kappa = kappa_jet.value
    # U along ∇̄_T T: II = α ḡ(∇̄_T T, U) is positive for that normal
    sign = np.sign(b.II[0, 0, 0])
    t, u = b.t[0, 0], b.U[0] * sign
    gamma = amb.christoffel_on_jets(curve.ambient, jet_space(1, 0), b.xc)[0]
    # residuals: ∇̄_T T − βκU and ∇̄_T U + ακT
    accel = amb._grad(b.t, b.space(b.t))[0, 0, 0] + np.einsum("kab...,a...,b...->k...", gamma, t, t)
    du = amb._grad(b.U, b.space(b.U))[0, 0] * sign + np.einsum("kab...,a...,b...->k...", gamma, t, u)
    res1 = np.max(np.abs(accel - kappa * u * beta), axis=0)
    res2 = np.max(np.abs(du + kappa * t * alpha), axis=0)
    return FrenetData(
        s=s,
        x=b.x,
        T=np.moveaxis(t, 0, -1),
        U=np.moveaxis(u, 0, -1),
        kappa=kappa,
        alpha=alpha,
        beta=beta,
        frenet_residual=np.maximum(res1, res2),
    )


def h_ii_curve(curve: Immersion, s) -> np.ndarray:
    """The closed formula for H_II along the curve."""
    s, b, kappa_jet, alpha, beta = _frame(curve, s)
    kappa = kappa_jet.value
    kp = kappa_jet.deriv((1,))
    kpp = kappa_jet.deriv((2,))
    jet = amb.curvature_jet(curve.ambient, b.x, order=0)
    gv = jet.metric
    kbar = jet.riem[0, 1, 0, 1] / (gv[0, 0] * gv[1, 1] - gv[0, 1] ** 2)
    return 0.5 * (
        -alpha * kbar / kappa
        + kappa
        + (alpha * beta / 4.0) * (2 * kpp / kappa**2 - 3 * kp**2 / kappa**3)
    )


def length_ii(curve: Immersion, a: float, b: float) -> float:
    """∫_a^b √|κ| ds, the Area_II of the arc, on 64 Gauss–Legendre nodes."""
    if b < a:
        raise BadParameters("need a <= b")
    if b == a:
        return 0.0
    return area(curve, tensor_gauss_legendre([a], [b], (64,)), "second_form")


def ode_residual(kappa, kappa_p, kappa_pp, ambient: str = "planar"):
    """LHS of the II-minimality ODE for curvature samples (pure arithmetic)."""
    kappa = np.asarray(kappa, dtype=float)
    kappa_p = np.asarray(kappa_p, dtype=float)
    kappa_pp = np.asarray(kappa_pp, dtype=float)
    if ambient == "planar":
        return 4 * kappa**4 + 2 * kappa * kappa_pp - 3 * kappa_p**2
    if ambient == "unit_sphere":
        return 4 * kappa**2 - 4 * kappa**4 - 2 * kappa_pp * kappa + 3 * kappa_p**2
    raise BadParameters(f"unknown ambient {ambient!r}")


def catenary_family_kappa(A: float, Q: float, s):
    """κ(s) = A/(A²(s+Q)²+1): the general planar II-minimal curvature."""
    s = np.asarray(s, dtype=float)
    return A / (A**2 * (s + Q) ** 2 + 1.0)


@dataclass
class IIMinimalSolution:
    s: np.ndarray
    kappa: np.ndarray
    kappa_prime: np.ndarray
    halving_error: float
    family_A: Optional[float] = None
    family_Q: Optional[float] = None
    family_max_dev: Optional[float] = None
    phi_third_deriv_max: Optional[float] = None


def _kappa_rhs(kappa, kp, ambient):
    if ambient == "planar":
        return (3 * kp**2 - 4 * kappa**4) / (2 * kappa)
    return (4 * kappa**2 - 4 * kappa**4 + 3 * kp**2) / (2 * kappa)


def _integrate(ambient, k0, kp0, s_max, n_steps):
    h = s_max / n_steps
    out_k = np.empty(n_steps + 1)
    out_kp = np.empty(n_steps + 1)
    k, kp = float(k0), float(kp0)
    out_k[0], out_kp[0] = k, kp
    for i in range(n_steps):
        if not (1e-8 < k < 1e8):
            raise BlowUp(f"curvature left (1e-8, 1e8) at s = {i * h:.4f}")
        a1, b1 = kp, _kappa_rhs(k, kp, ambient)
        a2, b2 = kp + 0.5 * h * b1, _kappa_rhs(k + 0.5 * h * a1, kp + 0.5 * h * b1, ambient)
        a3, b3 = kp + 0.5 * h * b2, _kappa_rhs(k + 0.5 * h * a2, kp + 0.5 * h * b2, ambient)
        a4, b4 = kp + h * b3, _kappa_rhs(k + h * a3, kp + h * b3, ambient)
        k += (h / 6) * (a1 + 2 * a2 + 2 * a3 + a4)
        kp += (h / 6) * (b1 + 2 * b2 + 2 * b3 + b4)
        out_k[i + 1], out_kp[i + 1] = k, kp
    return out_k, out_kp


def integrate_ii_minimal(
    ambient: str, kappa0: float, kappa_prime0: float, s_max: float
) -> IIMinimalSolution:
    """Integrate the II-minimality ODE from (κ₀, κ′₀); RK4 on 4096 steps with
    one halving check.

    Planar solutions are cross-checked against the closed two-parameter
    family by a quadratic fit of φ = 1/κ; φ‴ ≈ 0 is reported from finite
    differences as an independent structure check.
    """
    if ambient not in ("planar", "unit_sphere"):
        raise BadParameters(f"unknown ambient {ambient!r}")
    if kappa0 <= 0:
        raise BadParameters("need κ₀ > 0")
    if not 0 < s_max < math.inf:
        raise BadParameters(f"need a finite s_max > 0, got {s_max!r}")
    n_steps = 4096
    k, kp = _integrate(ambient, kappa0, kappa_prime0, s_max, n_steps)
    k2, _ = _integrate(ambient, kappa0, kappa_prime0, s_max, 2 * n_steps)
    halving = float(np.max(np.abs(k - k2[::2])))
    s = np.linspace(0.0, s_max, n_steps + 1)
    sol = IIMinimalSolution(s=s, kappa=k, kappa_prime=kp, halving_error=halving)
    if ambient == "planar":
        phi = 1.0 / k
        c2, c1, c0 = np.polyfit(s, phi, 2)
        A = c2
        if A > 1e-12:
            Q = c1 / (2 * A)
            dev = np.max(np.abs(catenary_family_kappa(A, Q, s) - k))
            sol.family_A, sol.family_Q, sol.family_max_dev = float(A), float(Q), float(dev)
        # third difference on a coarse stride: at the integrator's raw step
        # width, roundoff divided by h³ would swamp the (exactly zero) signal
        stride = max(1, n_steps // 16)
        ps = phi[::stride]
        h = (s[1] - s[0]) * stride
        phi3 = np.abs(ps[3:] - 3 * ps[2:-1] + 3 * ps[1:-2] - ps[:-3]) / h**3
        sol.phi_third_deriv_max = float(np.max(phi3))
    return sol


# ---------------------------------------------------------------------------
# bundled curves
# ---------------------------------------------------------------------------


def _circle_e2(radius=1.0):
    radius = float(radius)
    if radius <= 0:
        raise BadParameters("radius must be positive")

    def map_fn(u):
        ang = u[0] * (1.0 / radius)
        return [ang.cos() * radius, ang.sin() * radius]

    hi = np.array([2 * math.pi * radius])
    return Immersion(amb.flat_chart(2), 1, map_fn, np.zeros(1), hi, ("per",))


def _latitude_circle_s2(colatitude=math.pi / 4):
    return _latitude_circle(colatitude)


def _catenary_e2(half_span=3.0):
    # arclength parametrization of y = cosh x: (asinh s, √(1+s²)),
    # whose curvature is κ(s) = 1/(1+s²)
    half = float(half_span)

    def map_fn(u):
        root = (u[0] * u[0] + 1.0).sqrt()
        return [(u[0] + root).log_abs(), root]

    return Immersion(amb.flat_chart(2), 1, map_fn, np.array([-half]), np.array([half]))


def _line_e2():
    return Immersion(amb.flat_chart(2), 1, lambda u: [u[0], u[0] * 0.0], -np.ones(1), np.ones(1))


# kind -> builder _<kind>, whose keyword parameters are the descriptor's keys
CURVES = {fn.__name__[1:]: fn for fn in (_circle_e2, _latitude_circle_s2, _catenary_e2, _line_e2)}


def standard_curve(kind: str, **params) -> Immersion:
    """Closed-form test curves, one per ``CURVES`` kind."""
    return curve_from_descriptor({"kind": kind, **params})


def curve_from_descriptor(desc: dict) -> Immersion:
    return _lookup(CURVES, "curve", desc)
