"""Compare two directories of scenario reports, column by column.

    python tests/report_diff.py [--rtol R] OLD_DIR NEW_DIR

Each scenario writes ``<name>.csv`` (one header row) and ``<name>.json``
(the check values); scenario files, ``<name>.scenario.json``, that sit
beside the reports (as in a benchmark's work directory) are not reports
and are skipped.  For every scenario found in either directory this
prints one Markdown table row per CSV column and per check value that
differs: whether its bytes match, and the largest absolute and relative
difference over the rows where both fields are numbers
(|a − b| / max(|a|, |b|)).  The columns of a scenario whose bytes match
are counted in one row.  A report present on one side only is listed as
missing.  Exit status: 0 when every report is byte-identical, else 1; with
``--rtol R``, 0 also when the reports differ only in numeric fields, each
within R relative (a column of different length, a missing report or
column, or a differing field that is not a number on both sides still
gives 1).
"""

import argparse
import csv
import json
import math
import sys
from pathlib import Path


def _number(field):
    try:
        return float(field)
    except ValueError:
        return None


def _column_diff(old: list, new: list):
    """(bytes match, largest absolute difference, largest relative difference,
    whether every differing field is a number on both sides) of two columns
    of fields; the differences are None where no row has a number on both
    sides, and inf where the columns differ in length."""
    if len(old) != len(new):
        return False, math.inf, math.inf, False
    worst_abs = worst_rel = None
    numeric = True
    for a, b in zip(old, new):
        x, y = _number(a), _number(b)
        if x is None or y is None:
            numeric = numeric and a == b
            continue
        if x == y or (math.isnan(x) and math.isnan(y)):
            gap = rel = 0.0
        else:
            gap = abs(x - y)
            rel = gap / max(abs(x), abs(y))
        worst_abs = gap if worst_abs is None else max(worst_abs, gap)
        worst_rel = rel if worst_rel is None else max(worst_rel, rel)
    return old == new, worst_abs, worst_rel, numeric


def _columns(directory: Path, name: str):
    """{column: [fields]} of one scenario's reports, or None if it has none:
    the CSV's columns by header, and each check value as "check:<name>"."""
    csv_path, json_path = directory / f"{name}.csv", directory / f"{name}.json"
    if not csv_path.exists() and not json_path.exists():
        return None
    cols = {}
    if csv_path.exists():
        with csv_path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        header = rows[0] if rows else []
        for k, title in enumerate(header):
            cols[title] = [row[k] if k < len(row) else "" for row in rows[1:]]
    if json_path.exists():
        for check in json.loads(json_path.read_text()).get("checks", []):
            cols[f"check:{check['check']}"] = [repr(check["value"])]
    return cols


def _fmt(value):
    return "–" if value is None else f"{value:.3g}"


def report_diff(old_dir: Path, new_dir: Path, rtol=None) -> tuple:
    """(Markdown table lines, whether every report is byte-identical, or with
    `rtol` whether they differ only in numbers within `rtol` relative)."""
    names = sorted({p.stem for d in (old_dir, new_dir) for p in d.glob("*.csv")}
                   | {p.stem for d in (old_dir, new_dir) for p in d.glob("*.json")
                      if not p.name.endswith(".scenario.json")})
    lines = ["| scenario | column | bytes | max abs | max rel |", "|---|---|---|---|---|"]
    agree = True
    for name in names:
        files = [d / f"{name}{ext}" for d in (old_dir, new_dir) for ext in (".csv", ".json")]
        old, new = _columns(old_dir, name), _columns(new_dir, name)
        if old is None or new is None:
            side = "old" if old is None else "new"
            lines.append(f"| {name} | (all) | missing in {side} | – | – |")
            agree = False
            continue
        same_files = all(
            a.exists() == b.exists() and (not a.exists() or a.read_bytes() == b.read_bytes())
            for a, b in zip(files[:2], files[2:])
        )
        close = True  # with `rtol`: every differing column numeric and within it
        matching = differing = 0
        for column in sorted(set(old) | set(new), key=lambda c: (c.startswith("check:"), c)):
            if column not in old or column not in new:
                side = "old" if column not in old else "new"
                lines.append(f"| {name} | {column} | missing in {side} | – | – |")
                differing += 1
                close = False
                continue
            same, worst_abs, worst_rel, numeric = _column_diff(old[column], new[column])
            if same:
                matching += 1
            else:
                differing += 1
                close = close and numeric and (worst_rel or 0.0) <= (rtol or 0.0)
                lines.append(f"| {name} | {column} | differ | {_fmt(worst_abs)} | {_fmt(worst_rel)} |")
        agree = agree and (same_files or (rtol is not None and differing > 0 and close))
        if matching:
            note = "match" if same_files or differing else "match (the files differ elsewhere)"
            lines.append(f"| {name} | {matching} columns | {note} | 0 | 0 |")
    return lines, agree


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python tests/report_diff.py")
    parser.add_argument("--rtol", type=float, default=None)
    parser.add_argument("old_dir", type=Path)
    parser.add_argument("new_dir", type=Path)
    args = parser.parse_args(argv)
    if not (args.old_dir.is_dir() and args.new_dir.is_dir()):
        parser.print_usage(sys.stderr)
        return 2
    lines, agree = report_diff(args.old_dir, args.new_dir, args.rtol)
    print("\n".join(lines))
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
