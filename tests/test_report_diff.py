"""``tests/report_diff.py``: its exit status, with and without ``--rtol``."""

import json

import pytest

import report_diff


def _reports(directory, rows, value, status="ok"):
    directory.mkdir()
    body = "".join(f"{u},{h!r},{status}\n" for u, h in rows)
    (directory / "s.csv").write_text("u0,H_II_var,status\n" + body)
    checks = [{"check": "h_ii_route_spread", "value": value, "tolerance": 1e-6, "passed": True}]
    (directory / "s.json").write_text(json.dumps({"name": "s", "checks": checks}))
    return str(directory)


@pytest.mark.parametrize("rtol, code", [(None, 1), (1e-12, 0), (1e-14, 1)])
def test_rtol_accepts_numeric_columns_within_it(tmp_path, capsys, rtol, code):
    old = _reports(tmp_path / "old", [(0.5, 1.0), (1.5, 2.0)], 1e-15)
    new = _reports(tmp_path / "new", [(0.5, 1.0 + 1e-13), (1.5, 2.0)], 1e-15 * (1 + 1e-13))
    args = [old, new] if rtol is None else ["--rtol", str(rtol), old, new]
    assert report_diff.main(args) == code
    assert "| s | H_II_var | differ |" in capsys.readouterr().out


def test_rtol_never_accepts_a_text_change_or_a_missing_report(tmp_path):
    old = _reports(tmp_path / "old", [(0.5, 1.0)], 1e-15)
    new = _reports(tmp_path / "new", [(0.5, 1.0)], 1e-15, status="degenerate")
    assert report_diff.main(["--rtol", "1", old, new]) == 1
    (tmp_path / "new" / "s.csv").unlink()
    (tmp_path / "new" / "s.json").unlink()
    assert report_diff.main(["--rtol", "1", old, new]) == 1
    assert report_diff.main(["--rtol", "1", old, old]) == 0


def test_scenario_files_beside_the_reports_are_skipped(tmp_path, capsys):
    # a scenario file's checks carry no "value": read as a report it raised KeyError
    scenario = {"schema": 1, "name": "s", "checks": [{"check": "h_ii_route_spread", "tolerance": 1e-6}]}
    old = _reports(tmp_path / "old", [(0.5, 1.0)], 1e-15)
    new = _reports(tmp_path / "new", [(0.5, 1.0)], 1e-15)
    for side in (old, new):
        (tmp_path / side / "s.scenario.json").write_text(json.dumps(scenario))
    assert report_diff.main([old, new]) == 0
    out = capsys.readouterr().out
    assert "| s.scenario |" not in out and "| s | 4 columns | match | 0 | 0 |" in out
