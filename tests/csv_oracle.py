"""Reference form of the CSV rows: one ``%`` on a template per row.

This is the writer the package used before its numeric fields came from the
vectorised ``%.17g`` kernel (``cli._g17``).  The tests compare
``cli._csv_columns`` and ``cli._csv_rows`` against it byte for byte.
"""

import numpy as np

from secondform.cli import _SPECIAL, _field


def template_columns(n: int, cols) -> str:
    """CSV text of n rows whose k-th fields come from ``cols[k]``: a column
    is None, a str or a number (the same field on every row), a list of n
    strings, or n numbers.  Each row is one ``%`` on a template: ``%.17g``
    for a NaN-free numeric column, ``%s`` over the per-row fields
    otherwise."""
    fields, args = [], []
    for col in cols:
        if col is None or isinstance(col, (str, int, float)):
            fields.append(_field(col).replace("%", "%%"))
        elif isinstance(col, list) and col and isinstance(col[0], str):
            fields.append("%s")
            args.append([_field(v) for v in col] if _SPECIAL.search("".join(col)) else col)
        else:
            vals = np.asarray(col, dtype=float)
            nan_free = not np.isnan(vals).any()
            fields.append("%.17g" if nan_free else "%s")
            args.append(vals.tolist() if nan_free else [_field(v) for v in vals.tolist()])
    template = ",".join(fields) + "\n"
    return "".join(template % row for row in (zip(*args) if args else [()] * n))
