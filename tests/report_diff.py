"""Compare two directories of scenario reports, column by column.

    python tests/report_diff.py OLD_DIR NEW_DIR

Each scenario writes ``<name>.csv`` (one header row) and ``<name>.json``
(the check values).  For every scenario found in either directory this
prints one Markdown table row per CSV column and per check value that
differs: whether its bytes match, and the largest absolute and relative
difference over the rows where both fields are numbers
(|a − b| / max(|a|, |b|)).  The columns of a scenario whose bytes match
are counted in one row.  A report present on one side only is listed as
missing.  Exit status: 0 when every report is byte-identical, else 1.
"""

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
    """(bytes match, largest absolute difference, largest relative difference)
    of two columns of fields; the differences are None where no row has a
    number on both sides, and inf where the columns differ in length."""
    if len(old) != len(new):
        return False, math.inf, math.inf
    worst_abs = worst_rel = None
    for a, b in zip(old, new):
        x, y = _number(a), _number(b)
        if x is None or y is None:
            continue
        if x == y or (math.isnan(x) and math.isnan(y)):
            gap = rel = 0.0
        else:
            gap = abs(x - y)
            rel = gap / max(abs(x), abs(y))
        worst_abs = gap if worst_abs is None else max(worst_abs, gap)
        worst_rel = rel if worst_rel is None else max(worst_rel, rel)
    return old == new, worst_abs, worst_rel


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


def report_diff(old_dir: Path, new_dir: Path) -> tuple:
    """(Markdown table lines, whether every report is byte-identical)."""
    names = sorted({p.stem for d in (old_dir, new_dir) for p in d.glob("*.csv")}
                   | {p.stem for d in (old_dir, new_dir) for p in d.glob("*.json")})
    lines = ["| scenario | column | bytes | max abs | max rel |", "|---|---|---|---|---|"]
    identical = True
    for name in names:
        files = [d / f"{name}{ext}" for d in (old_dir, new_dir) for ext in (".csv", ".json")]
        old, new = _columns(old_dir, name), _columns(new_dir, name)
        if old is None or new is None:
            side = "old" if old is None else "new"
            lines.append(f"| {name} | (all) | missing in {side} | – | – |")
            identical = False
            continue
        same_files = all(
            a.exists() == b.exists() and (not a.exists() or a.read_bytes() == b.read_bytes())
            for a, b in zip(files[:2], files[2:])
        )
        identical = identical and same_files
        matching = differing = 0
        for column in sorted(set(old) | set(new), key=lambda c: (c.startswith("check:"), c)):
            if column not in old or column not in new:
                side = "old" if column not in old else "new"
                lines.append(f"| {name} | {column} | missing in {side} | – | – |")
                differing += 1
                continue
            same, worst_abs, worst_rel = _column_diff(old[column], new[column])
            if same:
                matching += 1
            else:
                differing += 1
                lines.append(f"| {name} | {column} | differ | {_fmt(worst_abs)} | {_fmt(worst_rel)} |")
        if matching:
            note = "match" if same_files or differing else "match (the files differ elsewhere)"
            lines.append(f"| {name} | {matching} columns | {note} | 0 | 0 |")
    return lines, identical


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(Path(a).is_dir() for a in args):
        print("usage: python tests/report_diff.py OLD_DIR NEW_DIR", file=sys.stderr)
        return 2
    lines, identical = report_diff(Path(args[0]), Path(args[1]))
    print("\n".join(lines))
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
