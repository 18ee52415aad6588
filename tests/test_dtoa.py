"""The vectorised ``%.17g`` kernel against ``format(v, ".17g")``, byte for byte."""

import io
import warnings
from unittest import mock

import numpy as np

from secondform import cli, dtoa
from secondform.cli import bundled_scenarios, run_scenario


def _fields(x):
    """The fields `dtoa.g17` writes for the floats x, its NUL padding deleted."""
    raw = dtoa.g17(np.asarray(x, dtype=float)).T.astype(dtoa.LE64).tobytes()
    return [raw[k:k + 32].replace(b"\0", b"").decode() for k in range(0, len(raw), 32)]


def test_g17_is_format_17g_byte_for_byte(monkeypatch):
    rng = np.random.default_rng(32)
    bits = rng.integers(0, 2**64, 100_000, dtype=np.uint64, endpoint=False)
    bits[:2000] |= np.uint64(0x7FF0000000000000)  # NaN payloads and ±inf
    bits[2000:4000] &= np.uint64(0x800FFFFFFFFFFFFF)  # subnormals and ±0
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    k = rng.integers(-2**52, 2**52, 20_000)
    # 18 significant digits ending in 5: halfway between two 17-digit decimals
    ties = np.concatenate([sign * (1e14 + np.arange(500) + f) for sign, f in
                           ((1, 0.125), (-1, 0.375), (1, 0.625), (-1, 0.875))])
    x = np.concatenate([
        bits.view(np.float64), [np.inf, -np.inf, 0.0, -0.0],
        tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf),
        2.0**53 + np.arange(-300, 300), 2.0**63 + 2.0**11 * np.arange(-300, 300),
        k / 2.0 ** rng.integers(0, 80, len(k)), rng.standard_normal(20_000), ties,
    ])
    calls = []
    monkeypatch.setattr(dtoa, "format", lambda v, spec: calls.append(v) or format(v, spec),
                        raising=False)
    with warnings.catch_warnings():  # the CLI maps a RuntimeWarning in the CSV rows to exit 3
        warnings.simplefilter("error")
        got = _fields(x)
    assert got == ["" if v != v else format(v, ".17g") for v in x.tolist()]
    assert np.isin(ties, calls).all()  # the format fallback decides every tie


def test_g17_fallback_takes_under_a_thousandth_of_the_bundled_report_values(tmp_path, monkeypatch):
    values, fallback, real = [], [], cli.g17
    monkeypatch.setattr(cli, "g17", lambda x: values.append(len(x)) or real(x))
    monkeypatch.setattr(dtoa, "format", lambda v, spec: fallback.append(v) or format(v, spec),
                        raising=False)
    with mock.patch("sys.stdout", new_callable=io.StringIO):
        for path in bundled_scenarios():
            assert run_scenario(path, out_dir=tmp_path) == 0
    assert sum(values) > 100_000 and len(fallback) < 1e-3 * sum(values)
