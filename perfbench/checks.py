"""Checks of the program's outputs against computations made apart from it.

Closed forms are computed here with numpy from the inputs alone; properties
(Bianchi identities, route agreement, remainder slopes) are identities the
method must satisfy whatever the input.  Every check returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np


def close(label: str, got, want, tol: float) -> list:
    """|got - want| <= tol * (1 + |want|), elementwise."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape and want.shape != ():
        return [f"{label}: shape {got.shape} != {want.shape}"]
    err = np.abs(got - want) / (1.0 + np.abs(want))
    if not np.all(np.isfinite(got)):
        return [f"{label}: non-finite output"]
    worst = float(np.max(err)) if err.size else 0.0
    return [] if worst <= tol else [f"{label}: relative error {worst:.3g} > {tol:.1g}"]


def at_least(label: str, got: float, bound: float) -> list:
    return [] if got >= bound else [f"{label}: {got:.4g} < {bound:.4g}"]


# ---------------------------------------------------------------------------
# ambient curvature
# ---------------------------------------------------------------------------


def _kulkarni(a, b):
    """(a ⊙ b)_ijkl = a_ik b_jl + a_jl b_ik - a_il b_jk - a_jk b_il."""
    return (np.einsum("ik,jl->ijkl", a, b) + np.einsum("jl,ik->ijkl", a, b)
            - np.einsum("il,jk->ijkl", a, b) - np.einsum("jk,il->ijkl", a, b))


def conformal_metric(x, cbar: float):
    """ḡ = δ / (1 + C̄|x|²/4)² (Riemannian space-form chart)."""
    x = np.asarray(x, dtype=float)
    f = 1.0 / (1.0 + cbar * float(x @ x) / 4.0)
    return f * f * np.eye(len(x))


def space_form_riemann(g, cbar: float):
    """R̄_ijkl = C̄(ḡ_ik ḡ_jl - ḡ_il ḡ_jk)."""
    return 0.5 * cbar * _kulkarni(g, g)


def _zero(label, arr, tol):
    return close(label, arr, np.zeros_like(np.asarray(arr, dtype=float)), tol)


def bianchi(jet, tol: float = 1e-8) -> list:
    """First and second Bianchi identities, the contracted Bianchi identity
    and the trace identity ∇_a S̄ = ḡ^bc ∇_a R̄ic_bc on a curvature jet."""
    r = np.asarray(jet.riem)
    scale = 1.0 + float(np.max(np.abs(r)))
    probs = _zero("first Bianchi", (r + np.einsum("jkil->ijkl", r)
                                    + np.einsum("kijl->ijkl", r)) / scale, tol)
    if jet.nabla_riem is not None:
        n = np.asarray(jet.nabla_riem)
        cyc = n + np.einsum("bcakl->abckl", n) + np.einsum("cabkl->abckl", n)
        probs += _zero("second Bianchi", cyc / (1.0 + np.max(np.abs(n))), tol)
        ginv = np.asarray(jet.metric_inv)
        div_ric = np.einsum("ab,abc->c", ginv, jet.nabla_ricci)
        probs += close("contracted Bianchi", div_ric, 0.5 * np.asarray(jet.grad_scalar), tol)
        probs += close("trace of grad Ric", np.einsum("bc,abc->a", ginv, jet.nabla_ricci),
                       jet.grad_scalar, tol)
    if jet.nabla2_riem is not None:
        n2 = np.asarray(jet.nabla2_riem)
        cyc2 = n2 + np.einsum("ebcakl->eabckl", n2) + np.einsum("ecabkl->eabckl", n2)
        probs += _zero("derived second Bianchi", cyc2 / (1.0 + np.max(np.abs(n2))), tol)
    return probs


def _locally_symmetric(jet, tol):
    probs = []
    for name in ("nabla_riem", "nabla_ricci", "grad_scalar", "nabla2_riem", "nabla2_ricci",
                 "hess_scalar", "lap_ricci"):
        value = getattr(jet, name)
        if value is not None:
            probs += _zero(name, value, tol)
    return probs


def check_space_form_jet(jet, x, cbar: float, tol: float = 1e-9) -> list:
    g = conformal_metric(x, cbar)
    d = len(x)
    probs = close("metric", jet.metric, g, tol)
    probs += close("riemann", jet.riem, space_form_riemann(g, cbar), tol)
    probs += close("ricci", jet.ricci, (d - 1) * cbar * g, tol)
    probs += close("scalar", jet.scalar, d * (d - 1) * cbar, tol)
    return probs + _locally_symmetric(jet, tol) + bianchi(jet)


def check_product_jet(jet, x, split: int, cbars, tol: float = 1e-9) -> list:
    """Riemannian product of two space forms, block-diagonal metric."""
    x = np.asarray(x, dtype=float)
    d = len(x)
    g = np.zeros((d, d))
    riem = np.zeros((d,) * 4)
    ric = np.zeros((d, d))
    scal = 0.0
    for sl, c in zip((slice(0, split), slice(split, d)), cbars):
        gb = conformal_metric(x[sl], c)
        k = gb.shape[0]
        g[sl, sl] = gb
        riem[sl, sl, sl, sl] = space_form_riemann(gb, c)
        ric[sl, sl] = (k - 1) * c * gb
        scal += k * (k - 1) * c
    probs = close("metric", jet.metric, g, tol)
    probs += close("riemann", jet.riem, riem, tol)
    probs += close("ricci", jet.ricci, ric, tol)
    probs += close("scalar", jet.scalar, scal, tol)
    return probs + _locally_symmetric(jet, tol) + bianchi(jet)


BUMP_AMPLITUDE = 0.05


def bumpy_e3_curvature(x):
    """Curvature of ḡ = e^{2φ}δ on R³ with φ = 0.05·exp(-|x|²).

    Conformally flat formulas (flat derivatives of φ, n = 3):
      R̄ic = -(n-2)(∇²φ - dφ⊗dφ) - (Δφ + (n-2)|dφ|²) δ,
      S̄ = e^{-2φ} tr R̄ic,
      R̄ = R̄ic ⊙ ḡ - (S̄/4) ḡ ⊙ ḡ   (Weyl tensor vanishes in dimension 3).
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    phi = BUMP_AMPLITUDE * math.exp(-float(x @ x))
    dphi = -2.0 * x * phi
    hess = (4.0 * np.outer(x, x) - 2.0 * np.eye(n)) * phi
    g = math.exp(2.0 * phi) * np.eye(n)
    ric = -(n - 2) * (hess - np.outer(dphi, dphi)) - (np.trace(hess) + (n - 2) * float(dphi @ dphi)) * np.eye(n)
    scal = math.exp(-2.0 * phi) * float(np.trace(ric))
    riem = _kulkarni(ric, g) - 0.25 * scal * _kulkarni(g, g)
    return g, riem, ric, scal


def check_bumpy_jet(jet, x, tol: float = 1e-9) -> list:
    g, riem, ric, scal = bumpy_e3_curvature(x)
    probs = close("metric", jet.metric, g, tol)
    probs += close("riemann", jet.riem, riem, tol)
    probs += close("ricci", jet.ricci, ric, tol)
    probs += close("scalar", jet.scalar, scal, tol)
    return probs + bianchi(jet)


# Orthonormal-frame invariants: (S̄, |R̄|², |R̄ic|², |W̄|²).
FLATNESS_EXPECTED = {
    "e4": (0.0, 0.0, 0.0, 0.0),
    "s4": (12.0, 24.0, 36.0, 0.0),
    "s2xs2": (4.0, 8.0, 4.0, 16.0 / 3.0),
}


def check_flatness(name: str, diag: dict, tol: float = 1e-9) -> list:
    s, r2, ric2, w2 = FLATNESS_EXPECTED[name]
    probs = close(f"{name} Sbar", diag["Sbar"], s, tol)
    probs += close(f"{name} |R|^2", diag["riem_norm2"], r2, tol)
    probs += close(f"{name} |Ric|^2", diag["ricci_norm2"], ric2, tol)
    probs += close(f"{name} |W|^2", diag["weyl_norm2"], w2, tol)
    probs += close(f"{name} Weyl identity", diag["weyl_identity_gap"], 0.0, tol)
    probs += close(f"{name} residuals", diag["condition_residuals"], (abs(s), abs(r2 - ric2)), tol)
    return probs


def unit_s3_framed_parts():
    """Framed curvature data of the unit 3-sphere, from the closed form."""
    d = 3
    delta = np.eye(d)
    return {
        "dim": d, "riem": space_form_riemann(delta, 1.0), "ric": 2.0 * delta, "scal": 6.0,
        "grad_scal": np.zeros(d), "nabla_ric": np.zeros((d,) * 3),
        "nabla_riem": np.zeros((d,) * 5), "hess_scal": np.zeros((d, d)),
        "nabla2_ric": np.zeros((d,) * 4), "nabla2_riem": np.zeros((d,) * 6),
        "lap_ric": np.zeros((d, d)),
    }


def check_series(out: dict, r: float) -> list:
    """Recombination of the printed blocks, and the S³ series against the
    closed forms: the truncations must leave remainders O(r⁴) or smaller."""
    probs = []
    worst = max(out["recombination"])
    if not worst <= 1e-9:
        probs.append(f"recombination error {worst:.3g} > 1e-9")
    exact = {"H": 1.0 / math.tan(r), "H_II": 2.0 / math.tan(2 * r),
             "Area_II": 2 * math.pi * math.sin(2 * r)}
    for q, want in exact.items():
        rem = abs(out["s3_series"][q] - want)
        if not rem <= r**4:
            probs.append(f"S3 series {q}: remainder {rem:.3g} > r^4 = {r**4:.3g}")
    return probs


# ---------------------------------------------------------------------------
# geodesic spheres
# ---------------------------------------------------------------------------


def routes_agree(label: str, out: dict, tol: float = 1e-8) -> list:
    routes = list(out["H_II_routes"].values())
    return close(f"{label} H_II routes", routes, np.full(len(routes), routes[0]), tol)


def check_s3_sphere(out: dict, r: float, tol: float = 1e-8) -> list:
    """Geodesic sphere of radius r in the unit S³ (m = 2)."""
    cot = 1.0 / math.tan(r)
    probs = close("H = cot r", out["H"], cot, tol)
    probs += close("log det A = 2 log cot r", out["log_detA"], 2.0 * math.log(cot), tol)
    probs += close("H_II = 2 cot 2r", out["H_II"], 2.0 / math.tan(2 * r), tol)
    probs += routes_agree("S3", out, tol)
    if "Area_II" in out:
        probs += close("Area_II = 2 pi sin 2r", out["Area_II"], 2 * math.pi * math.sin(2 * r), tol)
        probs += close("Area = 4 pi sin^2 r", out["Area"], 4 * math.pi * math.sin(r) ** 2, tol)
    return probs


# Minimum log-log slope of |numeric - series| when the radius halves,
# per quantity (the truncation orders of the printed series).
SLOPE_MIN = {"H": 3.5, "log_detA": 4.5, "H_II": 3.5}


def remainder_slopes(rem_r: dict, rem_half: dict) -> dict:
    return {q: math.log2(abs(rem_r[q]) / abs(rem_half[q])) for q in SLOPE_MIN}


def check_slopes(rem_r: dict, rem_half: dict) -> list:
    probs = []
    for q, slope in remainder_slopes(rem_r, rem_half).items():
        probs += at_least(f"remainder slope {q}", slope, SLOPE_MIN[q])
    return probs


def check_area_derivative(out: dict, r: float, tol: float = 1e-7) -> list:
    """∂_r Area_II = 4π cos 2r on S³, and the H_II integral equals it."""
    want = 4 * math.pi * math.cos(2 * r)
    probs = close("dArea_II/dr = 4 pi cos 2r", out["d_area_ii_dr"], want, tol)
    probs += close("int H_II dOmega_II = 4 pi cos 2r", out["h_ii_integral"], want, tol)
    probs += close("relative gap", out["relative_gap"], 0.0, tol)
    return probs


def check_first_variation(res, r: float, tol: float = 1e-7) -> list:
    """Unit amplitude on the geodesic sphere of radius r in S³:
    -m∫H dΩ = -4π sin 2r and -∫H_II dΩ_II = -4π cos 2r."""
    probs = close("rhs Area", res.rhs_area, -4 * math.pi * math.sin(2 * r), tol)
    probs += close("rhs Area_II", res.rhs_area_ii, -4 * math.pi * math.cos(2 * r), tol)
    probs += close("lhs Area", res.lhs_area, res.rhs_area, tol)
    probs += close("lhs Area_II", res.lhs_area_ii, res.rhs_area_ii, tol)
    return probs


# ---------------------------------------------------------------------------
# scenario outputs (CSV and JSON written by cli.run_scenario)
# ---------------------------------------------------------------------------


def read_outputs(out_dir: Path, name: str):
    with open(out_dir / f"{name}.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    summary = json.loads((out_dir / f"{name}.json").read_text())
    return rows, summary


def _col(rows, key):
    return np.array([float(r[key]) if r[key] != "" else math.nan for r in rows])


def check_summary(summary: dict) -> list:
    probs = []
    if not summary.get("passed"):
        probs.append("scenario summary reports a failed check")
    for c in summary.get("checks", []):  # every benchmark check is an upper bound
        if not c["value"] <= c["tolerance"]:
            probs.append(f"{c['check']}: {c['value']:.3g} > {c['tolerance']:.3g}")
    return probs


def check_immersion_rows(rows: list, n_rows: int, allowed=("ok",), tol: float = 1e-6) -> list:
    """Row count, every point valid (status in `allowed`), and the
    variational and contracted-Gauss H_II routes agree point by point."""
    if len(rows) != n_rows:
        return [f"{len(rows)} CSV rows, expected {n_rows}"]
    probs = []
    bad = sum(r["status"] not in allowed for r in rows)
    if bad:
        probs.append(f"{bad} rows with a status outside {allowed}")
    probs += close("H_II variational vs gauss", _col(rows, "H_II_var"), _col(rows, "H_II_gauss"), tol)
    return probs


def check_ii_minimal(rows: list, mean: float, det_a: float, tol: float = 1e-6) -> list:
    probs = close("H_II = 0", _col(rows, "H_II_var"), 0.0, tol)
    probs += close("H", _col(rows, "H"), mean, 1e-9)
    probs += close("det A", _col(rows, "detA"), det_a, 1e-9)
    return probs


def check_positive_mean(rows: list) -> list:
    h = _col(rows, "H")
    return [] if np.all(h > 0) else ["ovaloid with nonpositive mean curvature"]


def check_round_sphere_variation(rows: list, radius: float, tol: float = 1e-8) -> list:
    """Unit sphere scaled to radius R in E³, chart-linear normal deformation:
    Area = 4π(R-s)², Area_II = 4π(R-s), so for amplitude 1 every difference
    quotient equals -8πR and -4π; the other two amplitudes integrate to 0."""
    want = {"one": (-8 * math.pi * radius, -4 * math.pi)}
    probs = []
    seen = set()
    for row in rows:
        amp = row["amplitude"]
        seen.add(amp)
        a, aii = want.get(amp, (0.0, 0.0))
        scale = 8 * math.pi * radius
        for key, target in (("diff_area", a), ("rhs_area", a), ("diff_area_ii", aii),
                            ("rhs_area_ii", aii)):
            probs += close(f"{amp} {key}", float(row[key]) / scale, target / scale, tol)
    if seen != {"one", "cos_theta", "harmonic22"}:
        probs.append(f"amplitudes {sorted(seen)}")
    return probs
