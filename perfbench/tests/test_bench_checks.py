"""Each independent check passes a right output and rejects a corrupted one."""

import csv
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

import checks
from secondform import ambient


def _space_form_jet(x, cbar):
    g = checks.conformal_metric(x, cbar)
    d = len(x)
    z = lambda *shape: np.zeros(shape)  # noqa: E731
    return SimpleNamespace(
        metric=g, metric_inv=np.linalg.inv(g), riem=checks.space_form_riemann(g, cbar),
        ricci=(d - 1) * cbar * g, scalar=d * (d - 1) * cbar,
        nabla_riem=z(*(d,) * 5), nabla_ricci=z(d, d, d), grad_scalar=z(d),
        nabla2_riem=z(*(d,) * 6), nabla2_ricci=z(*(d,) * 4), hess_scalar=z(d, d),
        lap_ricci=z(d, d))


def test_space_form_check_rejects_corruption():
    x = np.array([0.1, -0.2, 0.3])
    jet = _space_form_jet(x, 1.0)
    assert checks.check_space_form_jet(jet, x, 1.0) == []
    jet.riem = jet.riem * (1 + 1e-6)
    assert checks.check_space_form_jet(jet, x, 1.0)
    jet = _space_form_jet(x, 1.0)
    jet.nabla_riem = jet.nabla_riem + 1e-6
    assert checks.check_space_form_jet(jet, x, 1.0)


def test_space_form_check_on_program_output():
    x = np.array([0.2, 0.1, -0.3])
    jet = ambient.curvature_jet(ambient.space_form(3, -1.0), x, order=1)
    assert checks.check_space_form_jet(jet, x, -1.0) == []
    assert checks.check_space_form_jet(jet, x, 1.0)  # wrong curvature sign


def test_product_check_rejects_corruption():
    x = np.array([0.1, 0.2, -0.1, 0.3])
    parts = [_space_form_jet(x[:2], 1.0), _space_form_jet(x[2:], 1.0)]
    d = 4
    jet = _space_form_jet(x, 0.0)
    jet.metric = np.zeros((d, d))
    jet.riem = np.zeros((d,) * 4)
    jet.ricci = np.zeros((d, d))
    for sl, p in zip((slice(0, 2), slice(2, 4)), parts):
        jet.metric[sl, sl] = p.metric
        jet.riem[sl, sl, sl, sl] = p.riem
        jet.ricci[sl, sl] = p.ricci
    jet.metric_inv = np.linalg.inv(jet.metric)
    jet.scalar = 4.0
    assert checks.check_product_jet(jet, x, 2, (1.0, 1.0)) == []
    jet.riem[0, 2, 0, 2] = 0.1  # a mixed plane must be flat
    assert checks.check_product_jet(jet, x, 2, (1.0, 1.0))


def test_bumpy_check_on_program_output_and_corruption():
    x = np.array([0.3, -0.1, 0.2])
    jet = ambient.curvature_jet(ambient.registry_chart("bumpy_e3"), x, order=1)
    assert checks.check_bumpy_jet(jet, x) == []
    jet.ricci = jet.ricci + 1e-6
    assert checks.check_bumpy_jet(jet, x)


def test_bianchi_rejects_broken_symmetry():
    x = np.array([0.3, -0.1, 0.2])
    jet = ambient.curvature_jet(ambient.registry_chart("bumpy_e3"), x, order=1)
    assert checks.bianchi(jet) == []
    jet.nabla_riem = jet.nabla_riem.copy()
    jet.nabla_riem[0, 1, 2, 0, 1] += 1e-5
    assert checks.bianchi(jet)


def test_flatness_check_rejects_corruption():
    good = {"Sbar": 4.0, "riem_norm2": 8.0, "ricci_norm2": 4.0, "weyl_norm2": 16 / 3,
            "weyl_identity_gap": 0.0, "condition_residuals": (4.0, 4.0)}
    assert checks.check_flatness("s2xs2", good) == []
    assert checks.check_flatness("s2xs2", dict(good, weyl_norm2=5.0))
    assert checks.check_flatness("s4", good)


def test_series_check_rejects_corruption():
    r = 0.1
    good = {"recombination": [1e-14, 3e-15],
            "s3_series": {"H": 1 / math.tan(r), "H_II": 2 / math.tan(2 * r),
                          "Area_II": 2 * math.pi * math.sin(2 * r)}}
    assert checks.check_series(good, r) == []
    assert checks.check_series(dict(good, recombination=[1e-14, 1e-6]), r)
    bad = dict(good, s3_series=dict(good["s3_series"], H=1 / math.tan(r) + 10 * r**4))
    assert checks.check_series(bad, r)


def _s3_sphere(r):
    cot = 1 / math.tan(r)
    h_ii = 2 / math.tan(2 * r)
    return {"H": cot, "log_detA": 2 * math.log(cot), "H_II": h_ii,
            "H_II_routes": {"variational": h_ii, "principal": h_ii, "gauss": h_ii},
            "Area_II": 2 * math.pi * math.sin(2 * r), "Area": 4 * math.pi * math.sin(r) ** 2}


def test_s3_sphere_check_rejects_corruption():
    r = 0.3
    assert checks.check_s3_sphere(_s3_sphere(r), r) == []
    assert checks.check_s3_sphere(dict(_s3_sphere(r), Area_II=3.0), r)
    bad = _s3_sphere(r)
    bad["H_II_routes"]["gauss"] += 1e-5
    assert checks.check_s3_sphere(bad, r)


def test_slope_check_rejects_too_shallow_remainders():
    rem = lambda r, p: {q: r**p for q in checks.SLOPE_MIN}  # noqa: E731
    assert checks.check_slopes(rem(0.2, 5), rem(0.1, 5)) == []
    assert checks.check_slopes(rem(0.2, 3), rem(0.1, 3))


def test_area_derivative_and_first_variation_checks():
    r = 0.4
    want = 4 * math.pi * math.cos(2 * r)
    good = {"d_area_ii_dr": want, "h_ii_integral": want, "relative_gap": 0.0}
    assert checks.check_area_derivative(good, r) == []
    assert checks.check_area_derivative(dict(good, d_area_ii_dr=want * 1.001), r)
    rhs_a, rhs_aii = -4 * math.pi * math.sin(2 * r), -4 * math.pi * math.cos(2 * r)
    res = SimpleNamespace(rhs_area=rhs_a, rhs_area_ii=rhs_aii, lhs_area=rhs_a, lhs_area_ii=rhs_aii)
    assert checks.check_first_variation(res, r) == []
    res.lhs_area_ii = rhs_aii * 1.001
    assert checks.check_first_variation(res, r)


def _write(tmp_path, name, header, rows, summary):
    with open(tmp_path / f"{name}.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    (tmp_path / f"{name}.json").write_text(json.dumps(summary))


HEADER = ["member", "u0", "u1", "H", "detA", "H_II_var", "H_II_gauss", "S_II", "status"]


def test_immersion_csv_checks_reject_corruption(tmp_path):
    rows = [["0", "0.1", "0.2", "0", "-1", "1e-12", "2e-12", "0", "ok"] for _ in range(4)]
    summary = {"passed": True, "checks": [{"check": "max_abs_h_ii", "value": 1e-12,
                                           "tolerance": 1e-6, "passed": True}]}
    _write(tmp_path, "c", HEADER, rows, summary)
    got_rows, got_summary = checks.read_outputs(tmp_path, "c")
    assert checks.check_summary(got_summary) == []
    assert checks.check_immersion_rows(got_rows, 4) == []
    assert checks.check_ii_minimal(got_rows, mean=0.0, det_a=-1.0) == []
    assert checks.check_immersion_rows(got_rows, 5)  # row count
    assert checks.check_ii_minimal(got_rows, mean=1.0, det_a=1.0)

    rows[2][6] = "0.01"  # contracted-Gauss route disagrees
    rows[3][8] = "degenerate"
    summary["checks"][0]["value"] = 1e-3
    _write(tmp_path, "c", HEADER, rows, summary)
    got_rows, got_summary = checks.read_outputs(tmp_path, "c")
    assert checks.check_summary(got_summary)
    probs = checks.check_immersion_rows(got_rows, 4)
    assert any("routes" in p or "gauss" in p for p in probs)
    assert any("status" in p for p in probs)
    assert checks.check_positive_mean(got_rows)


def test_round_sphere_variation_check(tmp_path):
    R = 1.1
    a, aii = -8 * math.pi * R, -4 * math.pi
    header = ["amplitude", "s", "diff_area", "diff_area_ii", "rhs_area", "rhs_area_ii"]
    rows = [["one", "0.01", a, aii, a, aii], ["cos_theta", "0.01", 0, 0, 0, 0],
            ["harmonic22", "0.01", 0, 0, 0, 0]]
    _write(tmp_path, "fv", header, rows, {"passed": True, "checks": []})
    got, _ = checks.read_outputs(tmp_path, "fv")
    assert checks.check_round_sphere_variation(got, R) == []
    rows[1][3] = 1e-3
    _write(tmp_path, "fv", header, rows, {"passed": True, "checks": []})
    got, _ = checks.read_outputs(tmp_path, "fv")
    assert checks.check_round_sphere_variation(got, R)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_close_rejects_non_finite(bad):
    assert checks.close("x", [1.0, bad], [1.0, 1.0], 1e-3)
