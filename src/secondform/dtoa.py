"""Byte-exact ``%.17g`` of whole float arrays, as fixed words of bytes.

``g17(x)`` gives, for every float v of x, the bytes of ``format(v, ".17g")``
(empty for NaN), NUL-padded in four 64-bit words whose byte i is their bits
8i..8i+7: the sign and ``0.000`` prefix, then the digits and the point, then
the ``e±dd[d]`` suffix after the last two digit bytes.  Deleting the NULs
from the words' little-endian bytes (``bytes.translate(None, b"\\0")``)
leaves the fields; ``cli._csv_columns`` writes the report rows this way.

It replaces CPython's correctly rounded dtoa (Gay, "Correctly rounded
binary-decimal and decimal-binary conversions", 1990), one call per value,
by a handful of numpy passes over the whole array.  The 17-digit integer is
the product |v|·10**(16−e) taken as a double-double by Dekker's exact
product (Dekker, "A floating-point technique for extending the available
precision", Numer. Math. 18, 1971), against powers of ten built from Python
ints.  A value whose product lies within 1e-9 of a rounding tie, or whose
magnitude is outside the powers' range, goes to ``format`` one at a time.
"""

import functools

import numpy as np

__all__ = ["LE64", "g17", "le64"]

LE64 = np.dtype("<u8")  # the words as bytes: byte i of a word is its bits 8i..8i+7
_P0 = 300  # index of 10**0 in the tables of 10**k, -300 ≤ k ≤ 300
_CERTAIN = (1e-280, 1e290)  # magnitudes `g17` formats itself: no over- or underflow
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant


def le64(b: bytes) -> np.ndarray:
    """The uint64 words of b, 8 bytes to a word, byte i in bits 8i..8i+7."""
    return np.frombuffer(b, LE64).astype(np.uint64)


@functools.cache
def _tables():
    """Tables of `g17`, built on first use.  By k + `_P0`: the least double
    ≥ 10**k and, with 10**k = hi + lo to about 2**-106 relative (from Python
    ints), lo and hi split in two 26-bit halves.  By 4-digit group: its
    trailing zeros and its ASCII word.  By 18·q + kept (q the digits before
    the point, 24 for none; kept the digits written): the masks of the digit
    bytes before the point and after it, and the point.  By −2e + sign (e = 0
    outside −4 ≤ e < 0): the sign and ``0.000`` prefix.  By e + 331: the
    ``e±dd[d]`` suffix, after the last two digit bytes."""
    pw = []
    for k in range(-_P0, _P0 + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        h_num, h_den = (num / den).as_integer_ratio()  # int / int: correctly rounded
        pw.append((h_num / h_den, (num * h_den - h_num * den) / (den * h_den)))
    hi, lo = np.array(pw).T
    hh = hi * _SPLIT - (hi * _SPLIT - hi)
    b, q, kept = np.arange(24), np.arange(25)[:, None, None], np.arange(18)[:, None]
    masks = np.concatenate(np.broadcast_arrays(
        255 * (b < np.minimum(q, kept)), 255 * ((q < b) & (b <= kept)), 46 * (b == q)), axis=2)
    return (np.array([np.where(lo > 0, np.nextafter(hi, np.inf), hi), lo, hh, hi - hh]),
            sum(np.arange(10000) % 10**i == 0 for i in range(1, 5)),
            le64(masks.astype(np.uint8).tobytes()).reshape(450, 9).T.copy(),
            *(le64(b"".join(t.ljust(8, b"\0") for t in ts)) for ts in (
                [b"%04d" % g for g in range(10000)],
                [(b"\0", b"-")[s] + b"0.000"[: p and p + 1] for p in range(5) for s in (0, 1)],
                [b""] + [b"\0\0e%+03d" % e for e in range(-330, 331)])))


def g17(x: np.ndarray) -> np.ndarray:
    """(4, n) words of ``format(v, ".17g")`` for the n floats v of x.

    For |v| in `_CERTAIN`: the decimal exponent e is ⌊log10 |v|⌋ set right by
    exact comparisons with 10**e and 10**(e+1); the 17-digit integer is
    |v|·10**(16−e), a double-double (error below 1e-14), rounded to nearest;
    its digits come in 4-digit groups, and the point, the ``0.000`` prefix
    and the ``e±dd`` suffix are masked, shifted and looked up into fixed
    bytes.  0, ±inf and NaN are written here too.  The rest go to
    ``format`` one at a time: magnitudes outside `_CERTAIN`, and products
    within 1e-9 of a rounding tie.  Nothing here warns, NaN and inf
    included.
    """
    pw, tz4, masks, quad, head, tail = _tables()
    a = np.abs(x)
    certain = (a >= _CERTAIN[0]) & (a < _CERTAIN[1])
    a = np.where(certain, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)  # may be one off near 10**e, either way
    e -= a < pw[0, e + _P0]
    e += a >= pw[0, e + _P0 + 1]
    lo, bh, bl = pw[1:, 16 + _P0 - e]
    p = a * (bh + bl)
    ah = a * _SPLIT - (a * _SPLIT - a)
    al = a - ah
    lo = ((ah * bh - p) + ah * bl + al * bh) + al * bl + a * lo
    r = np.floor(lo + 0.5)
    by_format = np.abs(np.abs(lo - r) - 0.5) < 1e-9
    n17 = p.astype(np.int64) + r.astype(np.int64)  # p ≥ 2**53 is an integer
    top = n17 == 10**17  # rounded up to 18 digits
    n17 -= top * (9 * 10**16)
    e += top
    g = [n17 // 10**k % 10**4 for k in (12, 8, 4, 0)]
    tz = tz4[g[0]]
    for gk in g[1:]:
        tz = np.where(gk, tz4[gk], tz + 4)
    fixed = (e >= -4) & (e < 17)
    before = 1 + e * fixed  # digits before the point; ≤ 0 after ``0.``
    kept = np.maximum(17 - tz, before)
    m = masks[:, 18 * (24 + (before - 24) * ((kept > before) & (before > 0))) + kept]
    w1, w2 = (quad[g[k]] | quad[g[k + 1]] << 32 for k in (0, 2))
    area = [(n17 // 10**16 + 48).astype(np.uint64) | w1 << 8, w1 >> 56 | w2 << 8, w2 >> 56]
    out = np.array([head[-2 * e * ((e < 0) & fixed) + np.signbit(x)]] + [
        w & m[k] | (w << 8 | (area[k - 1] >> 56 if k else 0)) & m[k + 3] | m[k + 6]
        for k, w in enumerate(area)])
    out[3] |= tail[(e + 331) * ~fixed]
    odd = ~certain  # 0, ±inf and NaN are written here, the rest by `format`
    out[1:, odd] = 0
    out[1, odd] = np.where(x[odd] == 0, ord("0"), int.from_bytes(b"inf", "little"))
    out[:, np.isnan(x)] = 0
    for i in np.flatnonzero(np.where(odd, np.isfinite(x) & (x != 0), by_format)):
        out[:, i] = le64(format(x[i], ".17g").encode().ljust(32, b"\0"))
    return out
