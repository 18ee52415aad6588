"""Scenario runner behavior: exit codes, determinism, listings."""

import contextlib
import csv
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import secondform
from secondform import ambient, cli, curves, hypersurface, iigeom, spheres, variation
from secondform.cli import (
    CHECKS, SCENARIO_DIR, Context, _csv_columns, bundled_scenarios, main, run_scenario,
)
from secondform.errors import BadParameters, OutOfDomain, SingularShapeOperator
from secondform.hypersurface import IMMERSIONS, STANDARD_KINDS, Immersion, standard_immersion


def run_cli(args):
    src = str(Path(secondform.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "secondform.cli", *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_list_has_all_bundled(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    names = [line.split()[0] for line in out.strip().splitlines()]
    assert len(names) >= 10
    assert "clifford_ii_minimal" in names


def test_list_json(capsys):
    assert main(["list", "--json"]) == 0
    entries = json.loads(capsys.readouterr().out)
    assert all({"name", "path", "description"} <= set(e) for e in entries)


def test_malformed_json_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert run_scenario(bad, out_dir=tmp_path) == 2


def test_unknown_check_exit_2(tmp_path):
    scen = {
        "schema": 1,
        "name": "x",
        "subject": {"type": "ode", "ambient": "planar", "kappa0": 1.0, "s_max": 1.0},
        "checks": [{"check": "no_such_check", "tolerance": 1.0}],
    }
    p = tmp_path / "x.json"
    p.write_text(json.dumps(scen))
    assert run_scenario(p, out_dir=tmp_path) == 2


def test_wrong_schema_version_exit_2(tmp_path):
    scen = {"schema": 99, "name": "x", "subject": {"type": "ode"}, "checks": []}
    p = tmp_path / "x.json"
    p.write_text(json.dumps(scen))
    assert run_scenario(p, out_dir=tmp_path) == 2


def test_check_failure_exit_1(tmp_path):
    scen = {
        "schema": 1,
        "name": "circle_is_not_ii_minimal",
        "subject": {"type": "curve", "curve": {"kind": "circle_e2", "radius": 1.0},
                    "samples": 16},
        "checks": [{"check": "curve_h_ii_max", "tolerance": 1e-10}],
    }
    p = tmp_path / "fail.json"
    p.write_text(json.dumps(scen))
    assert run_scenario(p, out_dir=tmp_path) == 1


def test_numerical_error_exit_3_and_expected(tmp_path):
    scen = {
        "schema": 1,
        "name": "flat_graph_singular",
        "subject": {"type": "immersion",
                    "immersion": {"kind": "graph", "quadratic": [[0.0, 0.0], [0.0, 0.0]]},
                    "grid": [3, 3]},
        "checks": [{"check": "max_abs_h_ii", "tolerance": 1.0}],
    }
    p = tmp_path / "err.json"
    p.write_text(json.dumps(scen))
    assert run_scenario(p, out_dir=tmp_path) == 3
    scen["expect_error"] = "SingularShapeOperator"
    p.write_text(json.dumps(scen))
    assert run_scenario(p, out_dir=tmp_path) == 0


@pytest.mark.parametrize("orientation, code", [(0, 3), (1, 0)])
def test_first_variation_with_flipping_auto_orientation_exits_3(tmp_path, capsys, orientation, code):
    # on the saddle the auto rule flips the normal at half the grid points
    scen = {
        "schema": 1,
        "name": "saddle_first_variation",
        "subject": {"type": "first_variation",
                    "immersion": {"kind": "graph", "quadratic": [[0, 1], [1, 0]], "half_width": 0.4,
                                  "orientation": orientation},
                    "grid": [8, 8], "amplitudes": ["one"]},
        "checks": [{"check": "first_variation_gap", "amplitude": "one", "which": "area_ii",
                    "tolerance": 1e9}],
    }
    p = tmp_path / "saddle.json"
    p.write_text(json.dumps(scen))
    assert run_scenario(p, out_dir=tmp_path) == code
    assert ("pass orientation +1 or -1" in capsys.readouterr().err) == (code == 3)


def test_deterministic_csv(tmp_path):
    scenario = SCENARIO_DIR / "s1_sqrt2_curve.json"
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_scenario(scenario, out_dir=out_a, seed=7) == 0
    assert run_scenario(scenario, out_dir=out_b, seed=7) == 0
    csv_a = (out_a / "s1_sqrt2_curve.csv").read_bytes()
    csv_b = (out_b / "s1_sqrt2_curve.csv").read_bytes()
    assert csv_a == csv_b


def test_tolerance_scale(tmp_path):
    scen = {
        "schema": 1,
        "name": "loosened",
        "subject": {"type": "curve", "curve": {"kind": "circle_e2", "radius": 1.0},
                    "samples": 8},
        "checks": [{"check": "curve_h_ii_max", "tolerance": 1e-10}],
    }
    p = tmp_path / "loose.json"
    p.write_text(json.dumps(scen))
    assert run_scenario(p, out_dir=tmp_path) == 1  # H_II = 1/2 on the circle
    assert run_scenario(p, out_dir=tmp_path, tolerance_scale=1e10) == 0


def test_surface_csv_style(tmp_path):
    scen = {
        "schema": 1,
        "name": "sphere_rows",
        "subject": {"type": "immersion",
                    "immersion": {"kind": "round_sphere", "radius": 2.0},
                    "grid": [3, 5], "csv_style": "surface"},
        "checks": [{"check": "max_abs_h_ii", "tolerance": 1.0}],
    }
    p = tmp_path / "rows.json"
    p.write_text(json.dumps(scen))
    assert run_scenario(p, out_dir=tmp_path) == 0
    header = (tmp_path / "sphere_rows.csv").read_text().splitlines()[0]
    assert header == "member,u0,u1,x0,x1,x2,H,detA,lambda0,lambda1"


def test_report_csv_columns(tmp_path):
    scenario = SCENARIO_DIR / "clifford_area_ii.json"
    assert run_scenario(scenario, out_dir=tmp_path) == 0
    lines = (tmp_path / "clifford_area_ii.csv").read_text().splitlines()
    assert lines[0].split(",")[-1] == "status"
    assert "H_II_var" in lines[0]
    # NaN never appears in the CSV (empty fields + status codes instead)
    assert "nan" not in "".join(lines).lower()


def test_bundled_scenarios_parse():
    for p in bundled_scenarios():
        data = json.loads(p.read_text())
        assert data["schema"] == 1
        assert data["checks"]


@pytest.mark.parametrize("path", bundled_scenarios(), ids=lambda p: p.stem)
def test_bundled_scenario_passes(path, tmp_path, capsys):
    assert run_scenario(path, out_dir=tmp_path) == 0, capsys.readouterr().err


def test_run_by_name_from_subprocess(tmp_path):
    r = run_cli(["run", "catenary_ode", "--out-dir", str(tmp_path)])
    assert r.returncode == 0
    assert "[PASS]" in r.stdout
    summary = json.loads((tmp_path / "catenary_ode.json").read_text())
    assert summary["passed"] is True


def test_masked_rows_nan_free_with_status(tmp_path):
    import json as _json

    scen = {
        "schema": 1,
        "name": "masked_rows",
        "subject": {"type": "immersion",
                    "immersion": {"kind": "graph", "quadratic": [[0.0, 0.0], [0.0, 0.0]]},
                    "grid": [3, 3], "allow_invalid": True},
        "checks": [{"check": "all_points_valid", "tolerance": 100.0}],
    }
    p = tmp_path / "masked.json"
    p.write_text(_json.dumps(scen))
    from secondform.cli import run_scenario

    assert run_scenario(p, out_dir=tmp_path) == 0
    text = (tmp_path / "masked_rows.csv").read_text()
    assert "nan" not in text.lower()
    assert "degenerate" in text  # status codes mark the masked rows


def test_first_variation_scenario_integrates_its_grid_once(tmp_path, exp_map_batches):
    # every amplitude's check reuses the sphere's one order-4 grid integration
    path = SCENARIO_DIR / "first_variation_geodesic_sphere_s3.json"
    assert len(json.loads(path.read_text())["subject"]["amplitudes"]) >= 2
    assert run_scenario(path, out_dir=tmp_path) == 0
    assert exp_map_batches == [(16 * 32,)]


def test_non_numeric_tolerance_exit_2(tmp_path):
    scen = json.loads((SCENARIO_DIR / "clifford_area_ii.json").read_text())
    for tolerance in ("abc", None):
        scen["checks"][0]["tolerance"] = tolerance
        p = tmp_path / "x.json"
        p.write_text(json.dumps(scen))
        assert run_scenario(p, out_dir=tmp_path) == 2


def test_scenario_error_while_running_exit_2(tmp_path, capsys):
    # malformed input found after _validate is still a scenario error, not numerics
    clifford = json.loads((SCENARIO_DIR / "clifford_area_ii.json").read_text())
    clifford["subject"]["type"] = "nonsense"
    sphere = json.loads((SCENARIO_DIR / "first_variation_sphere_e3.json").read_text())
    sphere["subject"]["amplitudes"][0] = "nope"
    for scen in (clifford, sphere):
        p = tmp_path / "x.json"
        p.write_text(json.dumps(scen))
        assert run_scenario(p, out_dir=tmp_path) == 2
        assert "scenario error:" in capsys.readouterr().err


def _fmt(x):
    """The reference field: empty for None and NaN, str of an int, %.17g of
    a float, a string as it is (csv.writer quotes it)."""
    if x is None or isinstance(x, str):
        return x or ""
    if isinstance(x, int):
        return str(x)
    return "" if math.isnan(x) else format(float(x), ".17g")


def _writer_bytes(n, cols):
    """csv.writer text of n rows of _fmt'd fields, a column being a scalar
    (the same on every row) or n values."""
    def at(col, k):
        return col if col is None or isinstance(col, (str, int, float)) else col[k]

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [[_fmt(at(col, k)) for col in cols] for k in range(n)]
    )
    return buf.getvalue()


def _report_cols(rep):
    geo = rep.geo
    return [
        *rep.u.T, geo.base.mean, geo.base.detA, geo.h_ii["variational"], geo.h_ii["gauss"],
        geo.s_ii, rep.lemma51, rep.thm52, rep.thm61, rep.thm71, rep.cor7,
    ]


def test_csv_columns_are_the_csv_writer_bytes():
    # masked NaN rows: z = x²/2 + y³/6 has a singular shape operator on y = 0
    def map_fn(u):
        x, y = u
        return [x, y, x * x * 0.5 + y * y * y * (1.0 / 6.0)]

    imm = Immersion(ambient.flat_chart(3), 2, map_fn, -np.ones(2), np.ones(2))
    u = np.array([[0.2, -0.5], [0.2, 0.0], [-0.3, 0.0], [0.1, 0.4], [0.5, 0.3]])
    rep = iigeom.sphere_inequality_report(imm, u)
    cols = _report_cols(rep)
    assert rep.thm61 is None and rep.status[1:3] == ["degenerate"] * 2
    assert np.all(np.isnan(rep.geo.s_ii[1:3])) and not np.any(np.isnan(rep.geo.s_ii[[0, 3, 4]]))
    edge = np.array([np.inf, -0.0, 1e-300, -np.inf, 2.0 / 3.0])  # NaN-free: the %.17g path
    nan_edge = [np.nan, -0.0, np.inf, 1e-300, -np.inf]  # with NaN: the per-row path
    nan_plain = [0.1, np.nan, -12.566370614358569, 2.0 / 3.0, np.nan]
    text = ["ok", "a,b", 'say "hi"', "line\nbreak", "100%"]  # fields csv.writer quotes, a %
    for columns in (
        [0, *cols, rep.status],
        [3, *cols, edge, nan_edge, nan_plain, None, text, rep.status],
        ["x,y", 12345678901234567890, np.nan, -0.0, 2.5, "50%", *cols, text],
    ):
        assert _csv_columns(len(u), columns) == _writer_bytes(len(u), columns)

    # the Clifford torus of clifford_area_ii, every column NaN-free
    scen = json.loads((SCENARIO_DIR / "clifford_area_ii.json").read_text())
    scen["subject"].update(grid=[6, 8], allow_invalid=True)
    rep = Context(scenario=scen, seed=0, cache={}).get_report()
    cols = [1, *_report_cols(rep), rep.status]
    assert rep.thm61 is None and rep.status == ["ok"] * 48
    assert _csv_columns(48, cols) == _writer_bytes(48, cols)


def test_csv_rows_are_the_csv_writer_bytes():
    # a multi-member ensemble under its header, and the recombination row,
    # whose dims field needs quoting
    scen = _bundled("gauss_codazzi_residuals")
    scen["subject"]["grid"] = [3, 5]
    ctx = Context(scenario=scen, seed=0, cache={})
    header, body = cli._csv_rows(ctx)
    reps = [ctx.get_report(i) for i in range(5)]
    want = "".join(_writer_bytes(15, [i, *_report_cols(r), r.status]) for i, r in enumerate(reps))
    assert (header[0], body) == ("member", want)
    assert _csv_columns(1, header) == _writer_bytes(1, header)
    ctx = Context(scenario=_bundled("series_recombination"), seed=0, cache={})
    header, body = cli._csv_rows(ctx)
    assert _csv_columns(1, header) == _writer_bytes(1, header)
    assert body == _writer_bytes(1, [50, "[3, 4, 5]", 42]) == '50,"[3, 4, 5]",42\n'


def test_subject_without_grid_or_immersion_exit_2(tmp_path, capsys):
    for name in ("clifford_area_ii", "three_route_ovaloids", "first_variation_sphere_e3"):
        scen = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
        del scen["subject"]["grid"]
        p = tmp_path / "x.json"
        p.write_text(json.dumps(scen))
        assert run_scenario(p, out_dir=tmp_path) == 2
        assert "missing 1 required positional argument: 'grid'" in capsys.readouterr().err
    scen = json.loads((SCENARIO_DIR / "clifford_area_ii.json").read_text())
    del scen["subject"]["immersion"]
    p.write_text(json.dumps(scen))
    assert run_scenario(p, out_dir=tmp_path) == 2
    assert "missing 1 required positional argument: 'immersion'" in capsys.readouterr().err


def test_unknown_immersion_kind_exit_2(tmp_path, capsys):
    one = json.loads((SCENARIO_DIR / "clifford_area_ii.json").read_text())
    one["subject"]["immersion"]["kind"] = "no_such_immersion"
    ensemble = json.loads((SCENARIO_DIR / "three_route_ovaloids.json").read_text())
    ensemble["subject"]["immersions"][3] = {"kind": "no_such_immersion"}
    for scen in (one, ensemble):
        p = tmp_path / "x.json"
        p.write_text(json.dumps(scen))
        assert run_scenario(p, out_dir=tmp_path) == 2
        assert "unknown immersion kind 'no_such_immersion'" in capsys.readouterr().err


def test_standard_kinds_are_the_catalog():
    assert STANDARD_KINDS == tuple(IMMERSIONS)
    for kind in STANDARD_KINDS:  # built, or a required parameter reported missing
        try:
            assert isinstance(standard_immersion(kind), Immersion)
        except BadParameters as exc:
            assert f"immersion {kind!r}" in str(exc) and "missing" in str(exc)
    with pytest.raises(BadParameters, match="unknown immersion kind"):
        standard_immersion("no_such_immersion")


def _bundled(name):
    return json.loads((SCENARIO_DIR / f"{name}.json").read_text())


# probe: (bundled scenario, edit, rejected before any numerics)
PROBES = {
    "unknown_immersion_parameter": (
        "clifford_area_ii", lambda s: s["subject"]["immersion"].update(bogus=3), True),
    "seed_on_clifford": (
        "clifford_area_ii", lambda s: s["subject"]["immersion"].update(seed="x"), True),
    "ellipsoid_without_axes": (
        "clifford_area_ii", lambda s: s["subject"].update(immersion={"kind": "ellipsoid"}), True),
    "grid_not_a_list": ("clifford_area_ii", lambda s: s["subject"].update(grid="abc"), True),
    "grid_negative": ("clifford_area_ii", lambda s: s["subject"].update(grid=[-3, 4]), True),
    "grid_zero": ("clifford_area_ii", lambda s: s["subject"].update(grid=[0, 4]), True),
    "checks_not_a_list": ("clifford_area_ii", lambda s: s.update(checks={"a": 1}), True),
    "tolerance_infinite": (
        "clifford_area_ii", lambda s: s["checks"][0].update(tolerance=math.inf), True),
    "orientation_out_of_range": (
        "clifford_area_ii", lambda s: s["subject"]["immersion"].update(orientation=2), True),
    "small_sphere_without_radius": (
        "ii_minimal_s2_in_s3", lambda s: s["subject"]["immersion"].pop("geodesic_radius"), True),
    "ode_without_kappa0": ("catenary_ode", lambda s: s["subject"].pop("kappa0"), True),
    "ode_matches_family_without_A": ("catenary_ode", lambda s: s["checks"][1].pop("A"), True),
    "check_unknown_parameter": (
        "clifford_ii_minimal", lambda s: s["checks"][0].update(bogus=1), True),
    "curve_unknown_key": ("s1_sqrt2_curve", lambda s: s["subject"]["curve"].update(bogus=1), True),
    "chart_unknown_key": (
        "area_derivative_s3", lambda s: s["subject"]["chart"].update(bogus=1), True),
    "geodesic_sphere_chart_unknown_key": (
        "first_variation_geodesic_sphere_s3",
        lambda s: s["subject"]["immersion"]["chart"].update(bogus=1), True),
    "product_factor_unknown_key": (
        "flatness_diagnostics", lambda s: s["subject"]["charts"][2]["factors"][0].update(bogus=1),
        True),
    "first_variation_gap_unknown_which": (
        "first_variation_sphere_e3", lambda s: s["checks"][0].update(which="nope"), True),
    "first_variation_gap_unknown_which_s3": (
        "first_variation_geodesic_sphere_s3", lambda s: s["checks"][1].update(which="nope"), True),
    "check_unknown_amplitude": (
        "first_variation_sphere_e3", lambda s: s["checks"][0].update(amplitude="nope"), True),
    "check_unknown_quantity": (
        "series_exact_flat_e3", lambda s: s["checks"][0].update(quantity="nope"), True),
    "check_samples_not_a_number": (
        "s1_sqrt2_curve", lambda s: s["checks"][0].update(samples="abc"), True),
    "check_samples_zero": ("s1_sqrt2_curve", lambda s: s["checks"][0].update(samples=0), True),
    "check_max_points_zero": (
        "gauss_codazzi_residuals", lambda s: s["checks"][0].update(max_points=0), True),
    "subject_samples_negative": ("s1_sqrt2_curve", lambda s: s["subject"].update(samples=-1), True),
    "subject_n_jets_zero": ("series_recombination", lambda s: s["subject"].update(n_jets=0), True),
    "check_expected_is_bool": (
        "clifford_area_ii", lambda s: s["checks"][0].update(expected=True), True),
    "subject_unknown_key": ("clifford_area_ii", lambda s: s["subject"].update(grdi=[4, 4]), True),
    "subject_unknown_csv_style": (
        "clifford_area_ii", lambda s: s["subject"].update(csv_style="surfaces"), True),
    "subject_allow_invalid_not_a_bool": (
        "clifford_area_ii", lambda s: s["subject"].update(allow_invalid="no"), True),
    "subject_unknown_amplitude": (
        "first_variation_sphere_e3", lambda s: s["subject"]["amplitudes"].append("nope"), True),
    "subject_unknown_quantity": (
        "series_exact_flat_e3", lambda s: s["subject"]["quantities"].append("nope"), True),
    "subject_radii_not_a_list": (
        "area_derivative_s3", lambda s: s["subject"].update(radii="abc"), True),
    "scenario_output_key": (
        "clifford_area_ii", lambda s: s.update(output={"csv": "elsewhere.csv"}), True),
    "subject_unknown_type": (
        "clifford_area_ii", lambda s: s["subject"].update(type="nonsense"), True),
    "name_escapes_out_dir": ("clifford_area_ii", lambda s: s.update(name="../escaped"), True),
    "name_not_a_string": ("clifford_area_ii", lambda s: s.update(name=["a"]), True),
    "name_empty": ("clifford_area_ii", lambda s: s.update(name=""), True),
    "area_matches_unknown_functional": (
        "clifford_area_ii", lambda s: s["checks"][0].update(functional="nope"), True),
    "catenary_family_not_pairs": (
        "catenary_ode", lambda s: s["checks"][0].update(family="abc"), False),
    "transport_base_point_not_numbers": (
        "transport_probe_ellipsoid", lambda s: s["checks"][0].update(base_point="abc"), False),
    "geodesic_sphere_center_not_a_point": (
        "first_variation_geodesic_sphere_s3",
        lambda s: s["subject"]["immersion"].update(center=True), True),
    "sphere_study_center_wrong_length": (
        "geodesic_sphere_s3_exact", lambda s: s["subject"].update(center=[0.0, 0.0]), True),
    "recombination_dims_zero": (
        "series_recombination", lambda s: s["subject"].update(dims=[0]), True),
    "sphere_study_radius_zero": (
        "geodesic_sphere_s3_exact", lambda s: s["subject"].update(radii=[0]), True),
    "area_derivative_radius_zero": (
        "area_derivative_s3", lambda s: s["subject"].update(radii=[0.3, 0]), True),
    "geodesic_sphere_radius_negative": (
        "first_variation_geodesic_sphere_s3", lambda s: s["subject"]["immersion"].update(r=-1), True),
    "chart_index_negative": (
        "area_derivative_s3", lambda s: s["subject"]["chart"].update(index=-1), True),
    "chart_index_two": (
        "first_variation_geodesic_sphere_s3",
        lambda s: s["subject"]["immersion"]["chart"].update(index=2), True),
    "ode_s_max_zero": ("catenary_ode", lambda s: s["subject"].update(s_max=0), True),
    "graph_half_width_negative": (
        "ii_saddle_e3", lambda s: s["subject"]["immersion"].update(half_width=-1), True),
    "chart_index_is_bool": (
        "area_derivative_s3", lambda s: s["subject"]["chart"].update(index=True), True),
    "chart_dim_is_bool": ("area_derivative_e3", lambda s: s["subject"]["chart"].update(dim=True), True),
    "chart_dim_not_an_integer": (
        "area_derivative_s3", lambda s: s["subject"]["chart"].update(dim=3.5), True),
    "chart_cbar_is_bool": (
        "area_derivative_s3", lambda s: s["subject"]["chart"].update(Cbar=True), True),
    "product_factor_index_is_bool": (
        "flatness_diagnostics", lambda s: s["subject"]["charts"][2]["factors"][0].update(index=True),
        True),
    "recombination_seed_negative": (
        "series_recombination", lambda s: s["subject"].update(seed=-1), True),
    "recombination_seed_is_bool": (
        "series_recombination", lambda s: s["subject"].update(seed=True), True),
    "recombination_scenario_seed_negative": (
        "series_recombination", lambda s: (s["subject"].pop("seed"), s.update(seed=-1)), True),
    "area_derivative_chart_dim_1": (
        "area_derivative_e3", lambda s: s["subject"]["chart"].update(dim=1), True),
    "area_derivative_chart_dim_5": (
        "area_derivative_s3", lambda s: s["subject"]["chart"].update(dim=5), True),
    "sphere_study_area_ii_chart_dim_5": (
        "series_remainders_s3",
        lambda s: (s["subject"]["chart"].update(dim=5), s["subject"].update(center=[0.0] * 5)), True),
    "area_derivative_chart_lorentzian": (
        "area_derivative_s3", lambda s: s["subject"]["chart"].update(index=1), True),
    "sphere_study_chart_lorentzian": (
        "series_remainders_s3", lambda s: s["subject"]["chart"].update(index=1), True),
    "geodesic_sphere_chart_lorentzian": (
        "first_variation_geodesic_sphere_s3",
        lambda s: s["subject"]["immersion"]["chart"].update(index=1), True),
    "chart_dim_1_lorentzian": (
        "area_derivative_e3", lambda s: s["subject"]["chart"].update(dim=1, index=1), True),
    "flatness_chart_dim_2": (
        "flatness_diagnostics", lambda s: s["subject"]["charts"][0].update(dim=2), True),
    "perturbed_sphere_base_radius_zero": (
        "three_route_s4_h4", lambda s: s["subject"]["immersions"][0].update(base_radius=0), True),
    "perturbed_sphere_m_negative": (
        "three_route_s4_h4", lambda s: s["subject"]["immersions"][0].update(m=-1), True),
    "graph_quadratic_null": (
        "ii_saddle_e3",
        lambda s: s["subject"]["immersion"].update(quadratic=[[None, 1.0], [1.0, 0.0]]), True),
    "graph_quadratic_infinite": (
        "ii_saddle_e3",
        lambda s: s["subject"]["immersion"].update(quadratic=[[0.0, 1.0], [math.inf, 0.0]]), True),
}


def test_first_variation_csv_has_one_row_per_amplitude(tmp_path):
    path = SCENARIO_DIR / "first_variation_sphere_e3.json"
    assert run_scenario(path, out_dir=tmp_path) == 0
    with open(tmp_path / "first_variation_sphere_e3.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    amplitudes = json.loads(path.read_text())["subject"]["amplitudes"]
    assert [r["amplitude"] for r in rows] == amplitudes
    assert list(rows[0]) == ["amplitude", "diff_area", "diff_area_ii", "rhs_area", "rhs_area_ii"]
    # amplitude one on the unit sphere: d/ds (Area, Area_II) = (−8π, −4π)
    assert_allclose([float(rows[0]["diff_area"]), float(rows[0]["diff_area_ii"])],
                    [-8 * math.pi, -4 * math.pi], rtol=1e-14)


def test_area_derivative_at_a_tiny_radius_exits_0(tmp_path):
    # the radius is a jet, so no radius below a difference step is malformed
    scen = _bundled("area_derivative_e3")
    scen["subject"]["radii"] = [0.001]
    p = tmp_path / "x.json"
    p.write_text(json.dumps(scen))
    assert run_scenario(p, out_dir=tmp_path) == 0


def _no_frame(*args, **kwargs):
    raise AssertionError("frame_jets ran on a malformed scenario")


def _patch_frame_jets():
    """Make every module binding ``frame_jets`` or the array-level frame
    ``_frame`` (which ``frame_jets`` calls) fail when it is called."""
    stack = contextlib.ExitStack()
    for mod in (hypersurface, iigeom):
        stack.enter_context(mock.patch.object(mod, "frame_jets", _no_frame))
    for mod in (hypersurface, variation, spheres):
        stack.enter_context(mock.patch.object(mod, "_frame", _no_frame))
    return stack


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_malformed_probe_exit_2(probe, tmp_path, capsys):
    name, edit, before_numerics = PROBES[probe]
    scen = _bundled(name)
    edit(scen)
    p = tmp_path / "x.json"
    p.write_text(json.dumps(scen))
    if before_numerics:
        with _patch_frame_jets():
            code = run_scenario(p, out_dir=tmp_path)
    else:
        code = run_scenario(p, out_dir=tmp_path)
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("scenario error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


def _descriptors(scen):
    """Every object of a scenario whose keys are checked: the scenario, its
    subject, the subject's immersions, curves and charts (nested ones too),
    and its checks."""
    sub = scen["subject"]
    out = [scen, sub, *scen["checks"]]
    for desc in sub.get("immersions", [sub["immersion"]] if "immersion" in sub else []):
        out += [desc] + ([desc["chart"]] if "chart" in desc else [])
    charts = ([sub["chart"]] if "chart" in sub else []) + sub.get("charts", [])
    for chart in charts:
        out += [chart] + chart.get("factors", [])
    return out + ([sub["curve"]] if "curve" in sub else [])


@given(
    st.sampled_from([p.stem for p in bundled_scenarios()]),
    st.integers(min_value=0, max_value=10**6),
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8),
    st.one_of(st.integers(), st.floats(allow_nan=False), st.text(max_size=4), st.none()),
)
@settings(max_examples=25, deadline=None)
def test_unknown_key_in_any_descriptor_exit_2(tmp_path_factory, name, pick, key, value):
    scen = _bundled(name)
    descs = _descriptors(scen)
    descs[pick % len(descs)]["unknown_" + key] = value
    out = tmp_path_factory.mktemp("probe")
    (out / "x.json").write_text(json.dumps(scen))
    with _patch_frame_jets(), mock.patch("sys.stderr", new_callable=io.StringIO) as err:
        assert run_scenario(out / "x.json", out_dir=out) == 2
    assert err.getvalue().count("\n") == 1 and "unknown_" + key in err.getvalue()


def _leaves(value, path=()):
    """The paths to every leaf of a JSON value, list items included."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            yield from _leaves(item, path + (key,))
    else:
        yield path


def _set_leaf(scen, path, value):
    for key in path[:-1]:
        scen = scen[key]
    scen[path[-1]] = value


# valid but extreme values whose runs meet a fault numpy raises (LinAlgError,
# or a RuntimeWarning, which the runner turns into an error) rather than a
# GeometryError, or end in a check value that is not finite
EXTREME_VALUES = [
    ("catenary_ode", ("subject", "s_max"), 1e-300),
    ("three_route_s4_h4", ("subject", "immersions", 1, "Cbar"), -1e9),
    ("three_route_s4_h4", ("subject", "immersions", 4, "amplitude"), -1e9),
    ("transport_probe_ellipsoid", ("checks", 0, "curve_velocity", 0), -1e9),
    ("s1_sqrt2_curve", ("subject", "curve", "colatitude"), 1e-300),
]


# the suite's own filter would turn the warnings into errors: here the
# runner must do it itself, as it does when run from the command line
@pytest.mark.filterwarnings("default::RuntimeWarning")
@pytest.mark.parametrize("name, path, value", EXTREME_VALUES)
def test_extreme_value_exits_3_in_one_line(name, path, value, tmp_path, capsys):
    scen = _bundled(name)
    _set_leaf(scen, path, value)
    p = tmp_path / "x.json"
    p.write_text(json.dumps(scen))
    assert run_scenario(p, out_dir=tmp_path) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and err.count("\n") == 1, err


def test_geodesic_sweeps_that_do_not_settle_exit_3_in_one_line(monkeypatch, tmp_path, capsys):
    # a sphere study on bumpy_e3 reaches exp_map's sweeps; with one sweep a
    # segment none settles, and StepFailure is a numerical error
    scen = _bundled("series_remainders_s3")
    scen["subject"].update(chart={"kind": "custom", "name": "bumpy_e3"}, quantities=["H"])
    scen["checks"] = scen["checks"][:1]
    p = tmp_path / "x.json"
    p.write_text(json.dumps(scen))
    monkeypatch.setattr(ambient, "PICARD_SWEEPS", 1)
    assert run_scenario(p, out_dir=tmp_path) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: StepFailure: ") and err.count("\n") == 1, err


LEAF_VALUES = [True, -1, 0, "abc", [], {}, None, 0.5, 2, [1e-3], 1e-300, -1e9]


@given(
    st.sampled_from([p.stem for p in bundled_scenarios()]),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(LEAF_VALUES),
)
@settings(max_examples=60, deadline=None)
def test_any_leaf_mutation_exits_with_a_contract_code(tmp_path_factory, name, pick, value):
    scen = _bundled(name)
    paths = list(_leaves(scen))
    _set_leaf(scen, paths[pick % len(paths)], value)
    out = tmp_path_factory.mktemp("leaf")
    (out / "x.json").write_text(json.dumps(scen))
    with mock.patch("sys.stdout", new_callable=io.StringIO), \
            mock.patch("sys.stderr", new_callable=io.StringIO) as err:
        code = run_scenario(out / "x.json", out_dir=out)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code in (2, 3):
        assert err.getvalue().count("\n") == 1, err.getvalue()


def test_no_builder_or_check_swallows_unknown_keys():
    tables = [cli.SUBJECTS, cli.IMMERSIONS, curves.CURVES, ambient.CHARTS, ambient.CHART_REGISTRY,
              {name: fn for name, (fn, _) in CHECKS.items()}]
    assert set(hypersurface.IMMERSIONS) < set(cli.IMMERSIONS)
    for table in tables:
        for kind, fn in table.items():
            kinds = [p.kind for p in inspect.signature(fn).parameters.values()]
            assert inspect.Parameter.VAR_KEYWORD not in kinds, kind


def test_recombination_csv_writes_the_seed_its_check_used(tmp_path):
    scen = _bundled("series_recombination")
    scen["subject"].update(n_jets=6)
    del scen["subject"]["seed"]
    explicit = json.loads(json.dumps(scen))
    explicit["subject"]["seed"] = 7
    values = []
    for name, s, flag in (("flag", scen, 7), ("explicit", explicit, None)):
        s["name"] = name
        (tmp_path / f"{name}.in").write_text(json.dumps(s))
        assert run_scenario(tmp_path / f"{name}.in", out_dir=tmp_path, seed=flag) == 0
        assert (tmp_path / f"{name}.csv").read_text().splitlines()[1] == '6,"[3, 4, 5]",7'
        values.append(json.loads((tmp_path / f"{name}.json").read_text())["checks"][0]["value"])
    assert values[0] == values[1]


def test_non_finite_check_value_exits_3_in_one_line(tmp_path, capsys):
    scen = _bundled("s1_sqrt2_curve")
    p = tmp_path / "x.json"
    p.write_text(json.dumps(scen))
    for value in (math.nan, math.inf):
        with mock.patch.dict(CHECKS, {"curve_h_ii_max": (lambda ctx: value, "max")}):
            assert run_scenario(p, out_dir=tmp_path) == 3
        assert capsys.readouterr().err == f"numerical error: check curve_h_ii_max gave {value}\n"
    assert not list(tmp_path.glob("*.csv"))


def test_area_checks_read_the_masked_geometry_frame():
    # the values of variation.area, off the frame the CSV rows use, with no
    # frame pass of their own; only Area_II raises on a singular shape operator
    for immersion in (None, {"kind": "graph", "quadratic": [[1.0, 0.0], [0.0, 0.0]]}):
        scen = _bundled("clifford_area_ii")
        if immersion is not None:
            scen["subject"].update(immersion=immersion, grid=[4, 5])
        ctx, _ = cli._validate(scen)
        imm, grid = ctx.built["immersions"][0], ctx.built["grids"][0]
        with mock.patch.object(variation, "surface_point", _no_frame):
            first = cli.check_area_matches(ctx, 1.0, "first_form")
        assert first == abs(variation.area(imm, grid, "first_form") - 1.0)
        if immersion is None:
            second = cli.check_area_matches(ctx, 1.0, "second_form")
            assert second == abs(variation.area(imm, grid, "second_form") - 1.0)
        else:
            for fn in (cli.check_area_matches, lambda c, e, w: variation.area(imm, grid, w)):
                with pytest.raises(SingularShapeOperator, match="quadrature node"):
                    fn(ctx, 1.0, "second_form")


def _scenario_peak_mib(path, out_dir):
    """tracemalloc peak, in MiB, of one run of the scenario at `path`."""
    tracemalloc.start()
    try:
        with mock.patch("sys.stdout", new_callable=io.StringIO):
            assert run_scenario(path, out_dir=out_dir) == 0
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_clifford_grid_scenario_peak_memory(tmp_path):
    # the 64 × 128 Clifford scenario of the benchmark's grid workload: R̄ is
    # never built along the grid, Γ̄ is kept as values only, and ii_geometry
    # runs its 8,192 points in four blocks (peak 24.5 MiB; 47.1 MiB in one
    # frame)
    path = SCENARIO_DIR / "clifford_ii_minimal.json"
    assert json.loads(path.read_text())["subject"]["grid"] == [64, 128]
    peak = _scenario_peak_mib(path, tmp_path)
    assert peak <= 30.0, f"{peak:.1f} MiB"


def test_s3_in_s4_grid_scenario_peak_memory(tmp_path):
    # the 16 × 16 × 32 grid of S³(1/√2) ⊂ S⁴ in four blocks of ii_geometry
    # (peak 64.9–65.7 MiB; 153.6 MiB in one frame)
    path = SCENARIO_DIR / "ii_minimal_s3_in_s4.json"
    assert json.loads(path.read_text())["subject"]["grid"] == [16, 16, 32]
    peak = _scenario_peak_mib(path, tmp_path)
    assert peak <= 82.0, f"{peak:.1f} MiB"


MIXED_ENSEMBLE = [  # two in E³, two in S³: two frames
    {"kind": "perturbed_ovaloid", "seed": 1, "amplitude": 0.03},
    {"kind": "clifford"},
    {"kind": "ellipsoid", "axes": [1.0, 1.2, 0.9]},
    {"kind": "perturbed_sphere_in_space_form", "Cbar": 1.0, "m": 2, "seed": 2},
]


def _run_rows(tmp_path, name, subject, checks):
    """(exit code, CSV rows after the header, check values) of one run."""
    scen = {"schema": 1, "name": name, "subject": subject, "checks": checks}
    p = tmp_path / f"{name}.scenario.json"
    p.write_text(json.dumps(scen))
    with mock.patch("sys.stdout", new_callable=io.StringIO):
        code = run_scenario(p, out_dir=tmp_path)
    if code != 0:
        return code, None, None
    rows = list(csv.reader((tmp_path / f"{name}.csv").read_text().splitlines()))[1:]
    values = [c["value"] for c in json.loads((tmp_path / f"{name}.json").read_text())["checks"]]
    return code, rows, values


def _assert_rows_close(got, want):
    # numbers to 1e-12 relative (to 1 where a value is at rounding level), the rest exactly
    assert len(got) == len(want)
    for g_row, w_row in zip(got, want):
        for g, w in zip(g_row[1:], w_row[1:]):  # the member column differs
            try:
                x, y = float(g), float(w)
            except ValueError:
                assert g == w
                continue
            assert abs(x - y) <= 1e-12 * max(1.0, abs(x), abs(y)), (g, w)


@pytest.mark.parametrize("max_points, frames", [
    (cli.STACK_MAX_POINTS, [80, 80]),  # one frame per ambient chart, each over two members' 40 points
    (40, [40, 40, 40, 40]),  # a batch holds one member: one frame each
])
def test_stacked_ensemble_matches_one_member_runs(tmp_path, max_points, frames):
    checks = [{"check": "h_ii_route_spread", "tolerance": 1e-6},
              {"check": "all_points_valid", "tolerance": 0.5}]
    calls = []
    real = iigeom.ii_geometry

    def counting(imm, u, on_error="raise"):
        calls.append(len(u))
        return real(imm, u, on_error)

    with mock.patch.object(iigeom, "ii_geometry", counting), \
            mock.patch.object(cli, "STACK_MAX_POINTS", max_points):
        code, rows, values = _run_rows(
            tmp_path, "mixed", {"type": "ensemble", "immersions": MIXED_ENSEMBLE, "grid": [5, 8]},
            checks)
    assert code == 0
    assert calls == frames
    alone = [_run_rows(tmp_path, f"alone{i}", {"type": "immersion", "immersion": desc, "grid": [5, 8]},
                       checks) for i, desc in enumerate(MIXED_ENSEMBLE)]
    for i, (one_code, one_rows, _) in enumerate(alone):
        assert one_code == 0
        _assert_rows_close([r for r in rows if r[0] == str(i)], one_rows)
    assert values[1] == 0.0 and all(v[1] == 0.0 for _, _, v in alone)
    assert abs(values[0] - max(v[0] for _, _, v in alone)) <= 1e-12


def test_large_ensemble_members_run_alone_in_blocks(tmp_path):
    # 4,096 points a member: each runs on its own immersion, in two blocks,
    # and its rows are those of its one-member run, byte for byte
    checks = [{"check": "h_ii_route_spread", "tolerance": 1e-6}]
    members = MIXED_ENSEMBLE[:2]
    calls, frames = [], []
    real_geo, real_point = iigeom.ii_geometry, iigeom.surface_point

    def geo_counting(imm, u, on_error="raise"):
        calls.append(len(u))
        return real_geo(imm, u, on_error)

    def point_counting(imm, u, order=4):
        frames.append(len(u))
        return real_point(imm, u, order)

    with mock.patch.object(iigeom, "ii_geometry", geo_counting), \
            mock.patch.object(iigeom, "surface_point", point_counting):
        code, rows, values = _run_rows(
            tmp_path, "large", {"type": "ensemble", "immersions": members, "grid": [64, 64]}, checks)
    assert code == 0
    assert calls == [4096, 4096] and frames == [2048] * 4
    spreads = []
    for i, desc in enumerate(members):
        code, one_rows, one_values = _run_rows(
            tmp_path, f"large{i}", {"type": "immersion", "immersion": desc, "grid": [64, 64]}, checks)
        assert code == 0
        assert [r[1:] for r in rows if r[0] == str(i)] == [r[1:] for r in one_rows]
        spreads.append(one_values[0])
    assert values[0] == max(spreads)


def test_stacked_ensemble_member_with_a_degenerate_point(tmp_path):
    # a cylinder graph, z = x²/2, has det A = 0 at every point: in one frame
    # with an ovaloid it exits 3 as it did alone, or masks its rows only
    members = [MIXED_ENSEMBLE[0], {"kind": "graph", "quadratic": [[1.0, 0.0], [0.0, 0.0]]}]
    checks = [{"check": "h_ii_route_spread", "tolerance": 1e-6}]
    subject = {"type": "ensemble", "immersions": members, "grid": [5, 8]}
    assert _run_rows(tmp_path, "degenerate", subject, checks)[0] == 3
    code, rows, _ = _run_rows(tmp_path, "masked", {**subject, "allow_invalid": True}, checks)
    assert code == 0
    assert {r[-1] for r in rows if r[0] == "1"} == {"degenerate"}
    one = _run_rows(tmp_path, "ovaloid", {"type": "immersion", "immersion": members[0], "grid": [5, 8]},
                    checks)[1]
    _assert_rows_close([r for r in rows if r[0] == "0"], one)


def test_stacked_members_keep_their_own_domains():
    # the stacked immersion's box is the union of its members': each member's
    # points are still checked against its own
    imm = standard_immersion("perturbed_ovaloid", seed=1, amplitude=0.03)
    small = Immersion(imm.ambient, 2, imm.map_fn, imm.param_lo, 0.5 * (imm.param_lo + imm.param_hi))
    nodes = variation.grid_for_immersion(imm, (5, 8)).nodes
    _, joined, slices = hypersurface.stacked_immersion([imm, imm], [nodes, nodes])
    assert joined.shape == (80, 2) and slices == [slice(0, 40), slice(40, 80)]
    with pytest.raises(OutOfDomain):
        hypersurface.stacked_immersion([imm, small], [nodes, nodes])
