"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s` or on failure).
The oracles are closed forms: 2·cot(2r) and 2π·sin(2r) for geodesic spheres
in the unit 3-sphere, m/(2r) and r^{m/2}·α_m in flat space, the catenary
curvature family for the planar curve ODE.
"""

import math
import time

import numpy as np
from ladder_oracle import ladder

from secondform.ambient import curvature_jet, flat_chart, product_chart, space_form
from secondform.curves import (
    catenary_family_kappa,
    h_ii_curve,
    integrate_ii_minimal,
    ode_residual,
    standard_curve,
)
from secondform.hypersurface import gauss_codazzi_residual, standard_immersion
from secondform.iigeom import ii_geometry, transport_holonomy_probe
from secondform.spheres import (
    area_derivative_check,
    flatness_diagnostic,
    h_ii_recombination_error,
    numeric_sphere_quantities,
    sphere_remainder_studies,
    synthetic_framed_jet,
)
from secondform.variation import first_variation_check, grid_for_immersion


def report(criterion, passed, detail=""):
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def grid_points(imm, shape):
    return grid_for_immersion(imm, shape).nodes


def test_criterion_01_ii_minimal_examples():
    cases = [
        ("S2(1/sqrt2) in S3", standard_immersion(
            "small_sphere_in_sphere", geodesic_radius=math.pi / 4, m=2), (64, 128)),
        ("S3(1/sqrt2) in S4", standard_immersion(
            "small_sphere_in_sphere", geodesic_radius=math.pi / 4, m=3), (16, 16, 32)),
        ("Clifford torus in S3", standard_immersion("clifford"), (64, 128)),
    ]
    for name, imm, shape in cases:
        t0 = time.time()
        geo = ii_geometry(imm, grid_points(imm, shape))
        worst = float(np.max(np.abs(geo.h_ii["variational"])))
        elapsed = time.time() - t0
        report(
            f"criterion 1 ({name})",
            worst < 1e-6 and elapsed < 10.0,
            f"max|H_II| = {worst:.2e}, {elapsed:.1f}s",
        )


def test_criterion_02_three_route_agreement():
    worst = 0.0
    for seed in range(20):
        imm = standard_immersion("perturbed_ovaloid", seed=seed, amplitude=0.03)
        geo = ii_geometry(imm, grid_points(imm, (9, 17)))
        worst = max(worst, float(np.max(geo.h_ii_spread[geo.valid])))
    for cbar, radius, seed in [(1.0, 0.6, 1), (1.0, 0.8, 2), (1.0, 0.5, 3),
                               (-1.0, 0.6, 4), (-1.0, 0.7, 5)]:
        imm = standard_immersion(
            "perturbed_sphere_in_space_form", Cbar=cbar, m=3, base_radius=radius,
            amplitude=0.02, seed=seed,
        )
        geo = ii_geometry(imm, grid_points(imm, (5, 5, 9)))
        worst = max(worst, float(np.max(geo.h_ii_spread[geo.valid])))
    report("criterion 2 (three-route agreement)", worst < 1e-6, f"max spread = {worst:.2e}")


def test_criterion_03_first_variation():
    from secondform.spheres import geodesic_sphere

    amplitudes = {
        "f=1": lambda u: u[0] * 0.0 + 1.0,
        # shifted so the right-hand side is nonzero and the s-slope measurable
        "f=cos(theta)+1.3": lambda u: u[0].cos() + 1.3,
        "f=sin^2 cos(2phi)": lambda u: (u[0].sin() * u[0].sin()) * (u[1] * 2.0).cos(),
    }
    subjects = [
        ("unit sphere in E3", standard_immersion("round_sphere", radius=1.0), (20, 40)),
        ("geodesic sphere in S3",
         geodesic_sphere(space_form(3, 1.0), np.zeros(3), 0.5), (16, 32)),
    ]
    for sname, imm, shape in subjects:
        grid = grid_for_immersion(imm, shape)
        for fname, f in amplitudes.items():
            # the gaps of the exact route, the s-slopes of the ladder oracle
            res = first_variation_check(imm, f, grid)
            slope_area, slope_area_ii = ladder(imm, f, grid).slopes((res.rhs_area, res.rhs_area_ii))
            ok = (
                res.gaps["area"] < 1e-3
                and res.gaps["area_ii"] < 1e-3
                and slope_area >= 1.8
                and slope_area_ii >= 1.8
            )
            report(
                f"criterion 3 ({sname}, {fname})",
                ok,
                f"gaps = ({res.gaps['area']:.1e}, {res.gaps['area_ii']:.1e}), "
                f"slopes = ({slope_area:.2f}, {slope_area_ii:.2f})",
            )


def test_criterion_04_curve_odes():
    worst = 0.0
    for a_par, q_par in ((1.0, 0.0), (2.0, -0.4), (0.5, 1.3)):
        for s in (0.0, 0.5, 2.0):
            w = a_par**2 * (s + q_par) ** 2 + 1.0
            k = a_par / w
            kp = -2 * a_par**3 * (s + q_par) / w**2
            kpp = -2 * a_par**3 / w**2 + 8 * a_par**5 * (s + q_par) ** 2 / w**3
            worst = max(worst, abs(ode_residual(k, kp, kpp, "planar")))
    report("criterion 4 (catenary family residual)", worst < 1e-12, f"{worst:.2e}")

    sol = integrate_ii_minimal("planar", 1.0, 0.0, 3.0)
    dev = float(np.max(np.abs(sol.kappa - catenary_family_kappa(1.0, 0.0, sol.s))))
    report("criterion 4 (planar integration vs 1/(1+s^2))", dev < 1e-8, f"{dev:.2e}")

    sol = integrate_ii_minimal("unit_sphere", 1.0, 0.0, 2 * math.pi)
    dev = float(np.max(np.abs(sol.kappa - 1.0)))
    report("criterion 4 (spherical constant solution)", dev < 1e-9, f"{dev:.2e}")

    curve = standard_curve("latitude_circle_s2", colatitude=math.pi / 4)
    h = h_ii_curve(curve, np.linspace(curve.param_lo[0], curve.param_hi[0], 33))
    worst = float(np.max(np.abs(h)))
    report("criterion 4 (S1(1/sqrt2) curve H_II)", worst < 1e-10, f"{worst:.2e}")


def test_criterion_05_geodesic_sphere_exactness():
    chart = space_form(3, 1.0)
    e0 = np.array([1.0, 0.0, 0.0])
    worst_h, worst_a = 0.0, 0.0
    for r in (0.1, 0.2, 0.3):
        vals = numeric_sphere_quantities(chart, np.zeros(3), e0, r)
        worst_h = max(worst_h, abs(vals["H_II"] - 2.0 / math.tan(2 * r)))
        worst_a = max(worst_a, abs(vals["Area_II"] - 2 * math.pi * math.sin(2 * r)))
    report("criterion 5 (H_II vs m cot(2r))", worst_h < 1e-5, f"{worst_h:.2e}")
    report("criterion 5 (Area_II vs 2 pi sin(2r))", worst_a < 1e-5, f"{worst_a:.2e}")


def test_criterion_06_series_truncations():
    e0 = np.array([1.0, 0.0, 0.0])
    studies = sphere_remainder_studies(
        space_form(3, 1.0), np.zeros(3), e0,
        ["H", "log_detA", "H_II", "Area_II"], (0.05, 0.1, 0.2),
    )
    for quantity, minimum in (("H", 3.5), ("log_detA", 4.5), ("H_II", 3.5), ("Area_II", 4.5)):
        slope = studies[quantity].slope
        report(f"criterion 6 (S3 {quantity} slope)", slope >= minimum, f"slope = {slope:.2f}")
    for dim in (3, 4):
        chart = flat_chart(dim)
        e0f = np.zeros(dim)
        e0f[0] = 1.0
        flat = sphere_remainder_studies(
            chart, np.zeros(dim), e0f, ["H_II", "Area_II"], (0.1, 0.2, 0.4)
        )
        worst = max(float(np.max(np.abs(flat[q].remainder))) for q in ("H_II", "Area_II"))
        report(f"criterion 6 (E{dim} series exact)", worst < 1e-7, f"{worst:.2e}")


def test_criterion_07_series_recombination():
    rng = np.random.default_rng(42)
    worst = 0.0
    for i in range(50):
        worst = max(worst, h_ii_recombination_error(synthetic_framed_jet(3 + (i % 3), rng)))
    report("criterion 7 (series recombination, 50 jets)", worst < 1e-12, f"{worst:.2e}")


def test_criterion_08_flatness_diagnostics():
    euclid = flatness_diagnostic(curvature_jet(flat_chart(4), np.zeros(4), order=0))
    ok = max(euclid["condition_residuals"]) < 1e-10
    report("criterion 8 (Euclidean residuals zero)", ok,
           f"{max(euclid['condition_residuals']):.2e}")

    s4 = flatness_diagnostic(curvature_jet(space_form(4, 1.0), np.zeros(4), order=0))
    prod = flatness_diagnostic(
        curvature_jet(product_chart(space_form(2, 1.0), space_form(2, 1.0)),
                      np.zeros(4), order=0)
    )
    report(
        "criterion 8 (S4 and S2xS2 nonzero)",
        max(s4["condition_residuals"]) > 1.0 and max(prod["condition_residuals"]) > 1.0,
        f"S4: {max(s4['condition_residuals']):.2g}, S2xS2: {max(prod['condition_residuals']):.2g}",
    )
    worst = max(d["weyl_identity_gap"] for d in (euclid, s4, prod))
    report("criterion 8 (Weyl-norm identity)", worst < 1e-8, f"{worst:.2e}")
    # m <= 4 implication: under the conditions, ‖W‖² = (m−5)/(m−1)·‖R‖² forces R = 0
    for diag, m in ((euclid, 3),):
        if max(diag["condition_residuals"]) < 1e-10:
            lhs, rhs = diag["weyl_norm2"], (m - 5) / (m - 1) * diag["riem_norm2"]
            report(
                "criterion 8 (m<=4 implication)",
                abs(lhs - rhs) < 1e-8 and diag["riem_norm2"] < 1e-10,
                f"|W|^2 = {lhs:.2e}, |R|^2 = {diag['riem_norm2']:.2e}",
            )


def test_criterion_09_area_derivative_identity():
    for name, chart in (("E3", flat_chart(3)), ("S3", space_form(3, 1.0))):
        for r in (0.3, 0.6):
            res = area_derivative_check(chart, np.zeros(3), r)
            report(
                f"criterion 9 ({name}, r={r})",
                res["relative_gap"] < 1e-4,
                f"gap = {res['relative_gap']:.2e}",
            )


def test_criterion_10_structural_identities():
    catalog = [
        ("round sphere", standard_immersion("round_sphere", radius=1.0)),
        ("ellipsoid", standard_immersion("ellipsoid", axes=[1.0, 1.0, 1.3])),
        ("Clifford torus", standard_immersion("clifford")),
        ("geodesic sphere in S3",
         standard_immersion("small_sphere_in_sphere", geodesic_radius=0.9, m=2)),
        ("perturbed ovaloid", standard_immersion("perturbed_ovaloid", seed=11, amplitude=0.04)),
        ("catenoid", standard_immersion("rotational")),
    ]
    worst_gc, worst_met = 0.0, 0.0
    for name, imm in catalog:
        pts = grid_points(imm, (5, 9))
        g, c = gauss_codazzi_residual(imm, pts)
        worst_gc = max(worst_gc, g, c)
        try:
            geo = ii_geometry(imm, pts, on_error="mask")
            worst_met = max(worst_met, float(np.max(geo.metricity_residual)))
        except Exception:
            pass
    report("criterion 10 (Gauss/Codazzi residuals)", worst_gc < 1e-6, f"{worst_gc:.2e}")
    report("criterion 10 (nabla^II II = 0)", worst_met < 1e-8, f"{worst_met:.2e}")

    imm = standard_immersion("ellipsoid", axes=[1.0, 1.1, 1.3])
    u0 = np.array([1.0, 0.8])
    w = np.array([0.7, -0.4])
    v = np.array([0.3, 1.0])
    geo = ii_geometry(imm, u0)
    expect = np.einsum("kij,i,j->k", geo.L, v, w)

    def curve(t):
        return [t * w[0] + u0[0], t * w[1] + u0[1]]

    probes = [transport_holonomy_probe(imm, curve, v, e) for e in (2e-2, 1e-2, 5e-3)]
    rich1 = 2 * probes[1] - probes[0]
    rich2 = 2 * probes[2] - probes[1]
    best = 2 * rich2 - rich1
    err = float(np.max(np.abs(best - expect)) / (1 + np.max(np.abs(expect))))
    report("criterion 10 (transport probe vs L)", err < 1e-4, f"{err:.2e}")
