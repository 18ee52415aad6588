"""Scenario runner behavior: exit codes, determinism, listings."""

import json
import subprocess
import sys

import numpy as np

from secondform.cli import SCENARIO_DIR, _fmt, _fmt_col, bundled_scenarios, main, run_scenario


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "secondform.cli", *args], capture_output=True, text=True
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


def test_column_formatting_matches_fmt():
    col = np.array([0.1, -0.0, np.nan, np.inf, -np.inf, 1e-300, 2.0 / 3.0, -12.566370614358569])
    assert _fmt_col(col, len(col)) == [_fmt(v) for v in col]
    assert _fmt_col(None, 3) == ["", "", ""]


def test_first_variation_scenario_integrates_its_grid_once(tmp_path, exp_map_batches):
    # every amplitude's check reuses the sphere's one order-4 grid integration
    path = SCENARIO_DIR / "first_variation_geodesic_sphere_s3.json"
    assert len(json.loads(path.read_text())["subject"]["amplitudes"]) >= 2
    assert run_scenario(path, out_dir=tmp_path) == 0
    assert sorted(exp_map_batches) == [(), (16 * 32,)]


def test_non_numeric_tolerance_exit_2(tmp_path):
    scen = json.loads((SCENARIO_DIR / "clifford_area_ii.json").read_text())
    for tolerance in ("abc", None):
        scen["checks"][0]["tolerance"] = tolerance
        p = tmp_path / "x.json"
        p.write_text(json.dumps(scen))
        assert run_scenario(p, out_dir=tmp_path) == 2
