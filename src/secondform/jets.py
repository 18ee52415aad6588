"""Truncated multivariate Taylor-polynomial ("jet") arithmetic.

A :class:`Jet` stores the Taylor coefficients of a smooth function at a base
point, truncated at a fixed total degree.  Arithmetic on jets propagates
derivatives exactly (to roundoff), which is what the curvature pipelines need:
finite differences cannot deliver trustworthy third and fourth derivatives of
metric components at the tolerances used here.

Coefficients are stored as a numpy array of shape ``(n_monomials, *batch)``,
so a single jet can carry a whole grid of evaluation points at once.  All
operations broadcast over the batch axes; this is the main reason grid-sized
computations stay fast in pure Python.

Products
--------
A jet product is a Cauchy product over the space's multiplication table
(all monomial pairs whose sum stays within the order).  It takes one of two
paths, chosen by the number of output entries it builds, the tensor entries
times the batch points (one rule, shared by ``_cauchy`` and
:func:`jeinsum`):

* up to ``ONE_CALL_MAX_POINTS`` (512) entries, one gathered multiply over
  the whole table followed by ``np.add.reduceat`` per output monomial; at
  one point this is 9 µs against 0.9 ms for the row loop (4 variables,
  order 4);
* above that, a Python loop over the table rows, ``out[k] += a[i] * b[j]``,
  whose temporaries stay one output wide.  The gathered path builds
  (table rows × entries) temporaries, which are slower than the loop from a
  few hundred entries on, whatever the table size (measurements at
  ``ONE_CALL_MAX_POINTS``).

The product lives in one module function, ``_cauchy(space, a, b)``, on
coefficient arrays; ``Jet.__mul__`` wraps it.  Likewise the analytic
functions (reciprocal, sqrt, exp, ...) share one lift,
``_lift(space, c, scaled_derivs, ...)`` = Σ_k d_k·e^k over the nilpotent
part e of ``c`` (at order 0, d_0 alone), one sum per derivative sequence on
one set of powers of e, so ``Jet.cos_sin`` and ``Jet.cosh_sinh`` cost the
products of one lift.  On the row loop each power eᵏ⁺¹ = eᵏ·e skips the
table rows whose left factor is below degree k or whose right factor is
the constant term, where eᵏ and e are zero by construction
(``_power_rows``): at 2 variables and order 4 the three powers take 72
rows instead of 210, bit for bit the same sums on finite input.
Code that keeps a stack of jets as one array, such as the geodesic
integrator with its ``(n_mono, dim, *batch)`` state, calls these two
directly: the tensor axes after the monomial axis broadcast like batch axes
and count as entries for the path choice.

:func:`jeinsum` is the Cauchy product for coefficient arrays with tensor
axes, contracted by ``np.einsum``; every tensor-valued jet in the package
(chart metrics and Christoffel symbols, the curvature chain, the
fundamental-form frame) is such an array.  Its tensor axes are contracted
inside each einsum call; the output's tensor and batch axes count as
entries; a contraction to few entries whose gathered operands would exceed
``GATHER_MAX_ELEMENTS`` (table rows × the larger operand's entries) takes
the row loop too.  On such arrays ``_inv`` inverts a matrix by the finite
Neumann series on its nilpotent part, ``_wedge`` takes the exterior product
of vectors over sorted index sets and applies the Levi-Civita symbol to it
(normal covectors, determinants), both branch-free, and :func:`compose`
evaluates a Taylor expansion with tensor axes on jet-valued displacements.
Small matrices of values, such as ``_inv``'s M₀ and the fundamental forms
whose determinants the frame checks and the area densities read, get their
cofactors and determinant from ``_cofactors``: one gather from a Leibniz
table per matrix size, with the batch axes last, so a whole grid costs a
few numpy calls and no per-point LAPACK call.  The same holds for the
principal curvatures on definite g, from ``_pencil_eigh`` (Cholesky by
columns, forward substitution, Jacobi rotations over whole batch rows),
and for the frame's rank check, which bounds the Jacobian's smallest
singular value by its normal covector's length (Cauchy–Binet) and runs an
SVD only where that bound cannot decide.
:func:`jinv` and :func:`jdet`, on object arrays of jets, are the adjugate
and Laplace-expansion reference forms the tests hold ``_inv`` and
``_wedge`` to.

Conventions
-----------
* Coefficients are monomial coefficients (the 1/k! is absorbed), so the
  partial derivative ``∂^α f`` equals ``coeff[α] * α!``.
* Jets of different variable counts never mix.  Jets of different truncation
  orders combine at the lower of the two orders.
"""

from __future__ import annotations

import copy
import math
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations

import numpy as np

__all__ = [
    "JetSpace",
    "Jet",
    "jet_space",
    "seed_jets",
    "compose",
    "jdet",
    "jinv",
    "jeinsum",
]

# Largest product, in output entries (tensor entries × batch points), that
# takes the gathered path, in ``_cauchy`` and ``jeinsum`` alike (see the
# module docstring).  The gather costs a few ns per (table row, entry)
# element, the loop a few µs per row plus its work, so the crossover sits at
# a few hundred entries for every table size T: at 256–512 entries for
# scalar Cauchy products, at 500–1000 for jeinsum.  Row-loop / gathered µs
# per product, best of 5 (2-core x86_64 VM, Python 3.11, numpy 2.4):
#
#   _cauchy, scalar jets (entries = points)
#   T (vars, order)   1        64       256      512       1024      8192
#   5   (2, 1)        10/5     12/13    8/15     10/24     14/42     46/492
#   70  (2, 4)        128/9    88/23    100/70   126/314   137/635   661/6254
#   210 (3, 4)        620/13   489/98   473/227  656/517   735/1384  2355/16528
#   495 (4, 4)        884/9    606/100  659/380  776/1317  989/3275  6388/81760
#
#   jeinsum "ia...,ab...->ib...", (3, 4) by (4, 4): 12 entries per point
#   T (vars, order)   12       252      516      1020      2052      8196
#   7   (3, 1)        30/14    40/30    45/46    53/76     73/137    219/547
#   28  (3, 2)        101/21   137/70   158/114  184/189   261/390   793/1738
#   84  (3, 3)        286/34   380/153  444/271  551/534   805/1145  2630/4774
ONE_CALL_MAX_POINTS = 512

# Largest gathered operand, in elements (table rows × the larger operand's
# entries), of a ``jeinsum`` that takes the gathered path: a contraction to
# few output entries can still gather large operands, 6 MB each in the last
# row below.  Every shape of the tables above keeps its path.  Row-loop /
# gathered µs, best of 40, same machine:
#
#   jeinsum contracting to one entry per point   elements   loop/gathered
#   "ij...,ij...->...", (2, 4), 3×3, 91 points     57,330    177/56
#   "ij...,ij...->...", (2, 4), 3×3, 153 points    96,390    191/106
#   "a...,a...->...",   (3, 3), 4, 450 points     151,200    226/247
#   "ij...,ij...->...", (3, 4), 4×4, 225 points   756,000    728/2269
GATHER_MAX_ELEMENTS = 1 << 17


def _monomials(nvars: int, order: int):
    """All exponent tuples with total degree <= order, sorted by (degree, lex).

    The sort guarantees that the monomial list of a lower-order space is a
    prefix of every higher-order space with the same nvars, which makes
    truncation a plain slice.
    """
    monos = []
    for deg in range(order + 1):
        degree_monos = set()
        for combo in combinations_with_replacement(range(nvars), deg):
            alpha = [0] * nvars
            for i in combo:
                alpha[i] += 1
            degree_monos.add(tuple(alpha))
        monos.extend(sorted(degree_monos))
    return monos


@lru_cache(maxsize=None)
def jet_space(nvars: int, order: int) -> "JetSpace":
    return JetSpace(nvars, order)


class JetSpace:
    """Precomputed index tables for one (nvars, order) truncation."""

    def __init__(self, nvars: int, order: int):
        if nvars < 0 or order < 0:
            raise ValueError("nvars and order must be nonnegative")
        self.nvars = nvars
        self.order = order
        self.monomials = _monomials(nvars, order)
        self.n = len(self.monomials)
        self.index = {m: k for k, m in enumerate(self.monomials)}
        self.degrees = np.array([sum(m) for m in self.monomials])
        # Multiplication table: all (i, j, k) with monomial_i + monomial_j = monomial_k.
        triples = []
        for i, mi in enumerate(self.monomials):
            di = sum(mi)
            for j, mj in enumerate(self.monomials):
                if di + sum(mj) > order:
                    continue
                mk = tuple(a + b for a, b in zip(mi, mj))
                triples.append((i, j, self.index[mk]))
        self._mult_triples = triples
        # The same table sorted by output monomial (stable, so each segment
        # keeps the order above), for the one-call Cauchy product.
        by_k = sorted(triples, key=lambda t: t[2])
        self._mul_i = np.array([t[0] for t in by_k], dtype=np.intp)
        self._mul_j = np.array([t[1] for t in by_k], dtype=np.intp)
        # every k has the triple (0, k, k), so there are exactly n segments
        self._mul_starts = np.searchsorted([t[2] for t in by_k], np.arange(self.n))
        # Partial-derivative maps into the space one order down.
        self._diff_maps = []
        if order >= 1:
            lower = jet_space(nvars, order - 1)
            for v in range(nvars):
                src = np.empty(lower.n, dtype=np.intp)
                fac = np.empty(lower.n)
                for k, m in enumerate(lower.monomials):
                    bumped = tuple(a + (1 if i == v else 0) for i, a in enumerate(m))
                    src[k] = self.index[bumped]
                    fac[k] = m[v] + 1
                self._diff_maps.append((src, fac))
        self._factorials = np.array(
            [math.prod(math.factorial(a) for a in m) for m in self.monomials]
        )

    def __repr__(self):
        return f"JetSpace(nvars={self.nvars}, order={self.order})"


def _pad(c: np.ndarray, ndim: int) -> np.ndarray:
    """Append singleton batch axes so trailing batch dims line up."""
    return c.reshape(c.shape + (1,) * (ndim - c.ndim)) if c.ndim < ndim else c


def _pad_pair(a: np.ndarray, b: np.ndarray):
    ndim = max(a.ndim, b.ndim)
    return _pad(a, ndim), _pad(b, ndim)


def _lead(c: np.ndarray, nbatch: int) -> np.ndarray:
    """Insert singleton batch axes after the monomial axis, so that batch
    shapes line up from the right as in ``ac[i] * bc[j]``."""
    return c.reshape(c.shape[:1] + (1,) * (nbatch + 1 - c.ndim) + c.shape[1:])


def _gathers(entries: int) -> bool:
    """The path rule shared by every product: gather the whole table for at
    most ``ONE_CALL_MAX_POINTS`` output entries, loop over its rows above
    that."""
    return entries <= ONE_CALL_MAX_POINTS


@lru_cache(maxsize=None)
def _parse(spec: str):
    """(tensor ranks of the two operands, (operand, axis) of each tensor axis
    of the output, the spec with the monomial axis Z) of a ``jeinsum`` spec."""
    ins, out = spec.split("->")
    sa, sb = ins.split(",")
    ta, tb = sa[:-3], sb[:-3]
    out_axes = tuple((0, 1 + ta.index(c)) if c in ta else (1, 1 + tb.index(c)) for c in out[:-3])
    return (len(ta), len(tb)), out_axes, f"Z{sa},Z{sb}->Z{out}"


def jeinsum(space: JetSpace, spec: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cauchy product of two coefficient arrays, contracted by einsum.

    `a` and `b` carry the monomial axis first; `spec` is an einsum spec over
    the remaining axes, tensor axes in lowercase letters and the batch axes
    as a trailing ``...``, e.g. ``"sai...,ijk...->sajk..."``.
    Either array may come from a higher order than `space`: the lower-order
    monomials are a prefix, so the product is truncated to `space`.  The
    output's tensor entries times its batch points choose the path.
    """
    ranks, out_axes, full = _parse(spec)
    ba, bb = a.shape[ranks[0] + 1 :], b.shape[ranks[1] + 1 :]
    batch = ba if ba == bb else np.broadcast_shapes(ba, bb)
    shapes = (a.shape, b.shape)
    if (_gathers(math.prod(batch) * math.prod(shapes[o][k] for o, k in out_axes))
            and len(space._mul_i) * max(a[0].size, b[0].size) <= GATHER_MAX_ELEMENTS):
        prods = np.einsum(full, a[space._mul_i], b[space._mul_j])
        return np.add.reduceat(prods, space._mul_starts, axis=0)
    acc = None
    for i, j, k in space._mult_triples:  # starts with (0, 0, 0)
        term = np.einsum(spec, a[i], b[j])
        if acc is None:
            acc = np.zeros((space.n,) + term.shape)
        acc[k] += term
    return acc


def _cauchy(space: JetSpace, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cauchy product of two coefficient arrays, truncated to `space`.

    Batch (and tensor) axes after the monomial axis broadcast from the
    right, and all of them count as entries for the path rule.  Either array
    may come from a higher order than `space`.
    """
    sa, sb = a.shape[1:], b.shape[1:]
    out_shape = sa if sa == sb else np.broadcast_shapes(sa, sb)  # ~3 µs saved per product
    if _gathers(math.prod(out_shape)):
        nb = len(out_shape)
        ac, bc = _lead(a, nb), _lead(b, nb)
        return np.add.reduceat(ac[space._mul_i] * bc[space._mul_j], space._mul_starts, axis=0)
    out = np.zeros((space.n,) + out_shape)
    for i, j, k in space._mult_triples:
        out[k] += a[i] * b[j]
    return out


def _inv(space: JetSpace, c: np.ndarray, v=None) -> np.ndarray:
    """Inverse of a matrix-valued coefficient array M (n_mono, p, p, *batch),
    or M⁻¹v for a vector-valued v (n_mono, p, *batch).

    With M = M₀ + E (E the nilpotent part), M⁻¹ = Σ_{k ≤ order} (−M₀⁻¹E)^k M₀⁻¹,
    a finite series, and M₀⁻¹ = Cᵀ/det M₀ from ``_cofactors``.  Points where
    M₀ is exactly singular (det M₀ = 0 or NaN) come back NaN, without a
    warning, like the adjugate formula's division by zero.
    """
    c = c[: space.n]
    cof, det = _cofactors(c[0])
    rdet = 1.0 / np.where(det != 0.0, det, np.nan)  # NaN counts as singular
    # C-ordered: einsum keeps its operands' memory order, and strided
    # operands slow every later product several times over
    inv0 = np.multiply(np.swapaxes(cof, 0, 1), rdet, order="C")
    step = -np.einsum("ik...,Zkj...->Zij...", inv0, c)
    step[0] = 0.0
    if v is None:
        spec = "ik...,kj...->ij..."
        term = np.zeros(step.shape)
        term[0] = inv0
    else:
        spec = "ik...,k...->i..."
        term = np.einsum("ik...,Zk...->Zi...", inv0, v[: space.n])
    out = term.copy()
    for _ in range(space.order):
        term = jeinsum(space, spec, step, term)
        out += term
    return out


@lru_cache(maxsize=None)
def _levi_civita(d: int) -> np.ndarray:
    eps = np.zeros((d,) * d)
    for perm in permutations(range(d)):
        inversions = sum(p > q for i, p in enumerate(perm) for q in perm[i + 1 :])
        eps[perm] = (-1.0) ** inversions
    return eps


@lru_cache(maxsize=None)
def _leibniz(p: int):
    """Gather table of the Leibniz cofactor sums of a p×p matrix M,

        C_ij = Σ_{σ ∈ S_p, σ(i) = j} sgn σ · Π_{k ≠ i} M_{k σ(k)}:

    flat indices k·p + σ(k) of shape (p − 1, p, p, (p − 1)!), factor axis
    first, and the signs sgn σ of shape (p, p, (p − 1)!)."""
    eps = _levi_civita(p)
    idx = np.empty((p - 1, p, p, math.factorial(p - 1)), dtype=np.intp)
    sign = np.empty((p, p, math.factorial(p - 1)))
    fill = np.zeros((p, p), dtype=np.intp)
    for perm in permutations(range(p)):
        for i, j in enumerate(perm):
            n = fill[i, j]
            fill[i, j] += 1
            idx[:, i, j, n] = [k * p + perm[k] for k in range(p) if k != i]
            sign[i, j, n] = eps[perm]
    idx.flags.writeable = sign.flags.writeable = False  # shared by every caller
    return idx, sign


def _cofactors(m: np.ndarray):
    """(C, det M) for values M of shape (p, p, *batch), batch axes last:
    the cofactor matrix C_ij = (−1)^{i+j} det M^{(ij)} and det M = Σ_j M_0j C_0j.

    One gather from the ``_leibniz`` table, one product over its p − 1
    factors and one signed sum, for every p and batch shape: no per-point
    library call.  NaN entries propagate, without a warning.
    """
    p = m.shape[0]
    idx, sign = _leibniz(p)
    terms = m.reshape((p * p,) + m.shape[2:])[idx].prod(axis=0)
    cof = np.einsum("ijs,ijs...->ij...", sign, terms)
    return cof, np.einsum("j...,j...->...", m[0], cof[0])


# Cap on the cyclic Jacobi sweeps of ``_pencil_eigh``, a safeguard: on
# batches of 2,000 random 3×3 and 4×4 pencils, with or without repeated and
# clustered eigenvalues, the sweeps reach rounding level in 2–5.
JACOBI_MAX_SWEEPS = 12


def _pencil_eigh(g: np.ndarray, b: np.ndarray):
    """(σ, μ, V, definite) of the symmetric pencil b v = μ σg v, for values g
    and b of shape (m, m, *batch), batch axes last: σ = ±1 the sign of g₀₀,
    μ (m, *batch) unsorted, V (m, m, *batch) whose column i solves the pencil
    for μ_i with σg(v, v) = 1, and `definite` the points where σg is
    positive definite (elsewhere μ and V mean nothing).

    σ·g = L Lᵀ by Cholesky's column recursion, whose pivots are all positive
    exactly where σ·g is positive definite; L⁻¹ by forward substitution;
    then cyclic Jacobi rotations (Golub & Van Loan §8.5) on M = L⁻¹ b L⁻ᵀ,
    each also applied to the columns of L⁻ᵀ.  At m = 2 the one rotation is
    exact; at m ≥ 3 the sweeps run until the squares of the off-diagonal
    entries sum below (ε‖M‖_F)² at every point.  Every step is a few numpy calls on whole batch
    rows: no per-point library call.  A rotation on an off-diagonal entry
    that is exactly zero (an umbilic point) is the identity, without a
    warning.
    """
    m, batch = g.shape[0], g.shape[2:]
    sign = np.where(g[0, 0] < 0, -1.0, 1.0)
    sg = g * sign
    low = [[None] * m for _ in range(m)]  # L, by columns
    definite = True
    for j in range(m):
        piv = sg[j, j] - sum(low[j][k] * low[j][k] for k in range(j))
        definite = definite & (piv > 0)
        low[j][j] = np.sqrt(np.where(piv > 0, piv, 1.0))
        for i in range(j + 1, m):
            low[i][j] = (sg[i, j] - sum(low[i][k] * low[j][k] for k in range(j))) / low[j][j]
    x = np.zeros(g.shape)  # L⁻¹
    for j in range(m):
        x[j, j] = 1.0 / low[j][j]
        for i in range(j + 1, m):
            x[i, j] = -sum(low[i][k] * x[k, j] for k in range(j, i)) / low[i][i]
    mat = np.einsum("ai...,ij...,cj...->ac...", x, b, x)
    a = [[mat[p, q] for q in range(m)] for p in range(m)]
    vecs = np.ascontiguousarray(np.swapaxes(x, 0, 1))  # L⁻ᵀ
    pairs = list(combinations(range(m), 2))
    tol = np.finfo(float).eps ** 2 * np.einsum("ac...,ac...->...", mat, mat)
    zero = np.zeros(batch)
    for _ in range(1 if m < 3 else JACOBI_MAX_SWEEPS):
        if m > 2 and not np.any(sum(a[p][q] * a[p][q] for p, q in pairs) > tol):
            break
        for p, q in pairs:
            apq = a[p][q]
            delta, twice = a[q][q] - a[p][p], apq + apq
            den = delta + np.copysign(np.hypot(delta, twice), delta)
            t = np.divide(twice, den, out=np.zeros(batch), where=den != 0)  # tan θ
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            a[p][p], a[q][q] = a[p][p] - t * apq, a[q][q] + t * apq
            a[p][q] = a[q][p] = zero
            for r in range(m):
                if r != p and r != q:
                    arp, arq = a[r][p], a[r][q]
                    a[r][p] = a[p][r] = c * arp - s * arq
                    a[r][q] = a[q][r] = s * arp + c * arq
            vp, vq = vecs[:, p], vecs[:, q]
            vecs[:, p], vecs[:, q] = c * vp - s * vq, s * vp + c * vq
    return sign, np.stack([a[i][i] for i in range(m)]), vecs, definite


@lru_cache(maxsize=None)
def _laplace(d: int, j: int):
    """Gather table of one exterior-product level: the j-forms on d indices,
    one component per sorted j-subset J (lexicographic order), from a vector
    and a (j − 1)-form by the Laplace expansion

        (v ∧ w)_J = Σ_p (−1)^p v^{J_p} w_{J ∖ J_p}:

    for each J and position p, J_p, the index of J ∖ J_p among the sorted
    (j − 1)-subsets, and (−1)^p, each of shape (C(d, j)·j,), J major."""
    lower = {s: k for k, s in enumerate(combinations(range(d), j - 1))}
    rows = [(a, lower[sub[:p] + sub[p + 1 :]], (-1.0) ** p)
            for sub in combinations(range(d), j) for p, a in enumerate(sub)]
    vi, wi, sign = (np.array(col) for col in zip(*rows))
    for arr in (vi, wi, sign):
        arr.flags.writeable = False  # shared by every caller
    return vi, wi, sign


def _wedge(space: JetSpace, vecs) -> np.ndarray:
    """ε_{a… b₁…b_k} v₁^{b₁}⋯v_k^{b_k} for coefficient arrays v_i of shape
    (n_mono, d, *batch) and the d-index Levi-Civita symbol ε; the d − k free
    indices a… come first.  With k = d this is the determinant of the matrix
    whose columns are the v_i; with k = d − 1 it is the normal covector
    n(w) = det[w, v₁, …, v_k]; only these two are taken.

    Built by the exterior-algebra recursion over sorted index sets,
    v_s ∧ (v_{s+1} ∧ ⋯ ∧ v_k) from the last vector on, each level one
    stacked ``_cauchy`` over a ``_laplace`` table: 70 scalar products for
    k = 4 at d = 5, against 775 through the dense ε.
    """
    d, k = vecs[0].shape[1], len(vecs)
    if k < d - 1:
        raise ValueError(f"_wedge takes d − 1 or d vectors, got {k} for d = {d}")
    w = vecs[-1][: space.n]
    for j, v in zip(range(2, k + 1), vecs[-2::-1]):
        vi, wi, sign = _laplace(d, j)
        terms = _cauchy(space, v[: space.n, vi] * _col(sign, v), w[:, wi])
        w = terms.reshape((space.n, -1, j) + terms.shape[2:]).sum(axis=2)
    if k == d:
        return w[:, 0]
    # ε_{a J} w_J for J = [d] ∖ {a}: sorted subset d − 1 − a, sign (−1)^a
    return w[:, ::-1] * _col((-1.0) ** np.arange(d), w)


def _col(vec, c):
    """A factor along axis 1 of `c`, shaped to broadcast over its later axes."""
    return vec.reshape((-1,) + (1,) * (c.ndim - 2))


@lru_cache(maxsize=None)
def _power_rows(space: JetSpace, k: int) -> JetSpace:
    """`space` with the row loop of the product eᵏ·e restricted to the table
    rows whose factors can be nonzero: left degree ≥ k (eᵏ vanishes below
    degree k) and right degree ≥ 1 (e has no constant term).  Every other
    row adds a ±0 to its output, so the product is bit for bit the whole
    table's on finite input; the gathered path keeps the whole table."""
    rows = copy.copy(space)
    deg = space.degrees
    rows._mult_triples = [(i, j, o) for i, j, o in space._mult_triples if deg[i] >= k and deg[j] >= 1]
    return rows


def _lift(space: JetSpace, c: np.ndarray, *derivs_per_fn) -> list:
    """[Σ_k d_k · e^k for each sequence d of scaled derivatives] for the
    coefficient array `c` at `space`, with e its nilpotent part and
    d_k = f^(k)(c[0])/k! broadcastable to c[0]; at order 0, d_0 alone.  The
    functions share the powers of e, and each sum is bit for bit the one
    lifted alone."""
    e = c.copy()
    e[0] = 0.0
    powers = [e]
    for k in range(1, space.order):
        powers.append(_cauchy(_power_rows(space, k), powers[-1], e))
    outs = []
    for derivs in derivs_per_fn:
        out = np.zeros(e.shape)
        out[0] = derivs[0]
        for power, d in zip(powers, derivs[1:]):
            out = out + power * d
        outs.append(out)
    return outs


class Jet:
    """Truncated Taylor polynomial with (optionally batched) coefficients."""

    __slots__ = ("space", "coeffs")
    __array_priority__ = 100  # make ndarray defer to Jet in mixed ops

    def __init__(self, space: JetSpace, coeffs: np.ndarray):
        self.space = space
        self.coeffs = coeffs

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(space: JetSpace, value) -> "Jet":
        value = np.asarray(value, dtype=float)
        coeffs = np.zeros((space.n,) + value.shape)
        coeffs[0] = value
        return Jet(space, coeffs)

    @staticmethod
    def variable(space: JetSpace, i: int, value) -> "Jet":
        jet = Jet.constant(space, value)
        if space.order >= 1:
            e_i = tuple(1 if k == i else 0 for k in range(space.nvars))
            jet.coeffs[space.index[e_i]] = 1.0
        return jet

    # -- inspection --------------------------------------------------------

    @property
    def value(self):
        return self.coeffs[0]

    @property
    def batch_shape(self):
        return self.coeffs.shape[1:]

    def deriv(self, alpha) -> np.ndarray:
        """Partial derivative ∂^α at the base point (alpha an exponent tuple)."""
        alpha = tuple(alpha)
        if sum(alpha) > self.space.order:
            raise ValueError(f"derivative {alpha} exceeds jet order {self.space.order}")
        k = self.space.index[alpha]
        return self.coeffs[k] * self.space._factorials[k]

    def truncate(self, order: int) -> "Jet":
        if order >= self.space.order:
            return self
        target = jet_space(self.space.nvars, order)
        return Jet(target, self.coeffs[: target.n])

    def partial(self, v: int) -> "Jet":
        """∂/∂x_v, landing in the space one order down."""
        if self.space.order == 0:
            raise ValueError("cannot differentiate an order-0 jet")
        lower = jet_space(self.space.nvars, self.space.order - 1)
        src, fac = self.space._diff_maps[v]
        coeffs = self.coeffs[src] * fac.reshape((-1,) + (1,) * len(self.batch_shape))
        return Jet(lower, coeffs)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        """Return (a, b) as same-space jets, or None if not coercible."""
        if isinstance(other, Jet):
            if other.space.nvars != self.space.nvars:
                raise ValueError("cannot mix jets over different variable sets")
            order = min(self.space.order, other.space.order)
            return self.truncate(order), other.truncate(order)
        if isinstance(other, (int, float, np.floating, np.integer, np.ndarray)):
            return self, Jet.constant(self.space, other)
        return None

    def __add__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        ac, bc = _pad_pair(a.coeffs, b.coeffs)
        return Jet(a.space, ac + bc)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.space, -self.coeffs)

    def __sub__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        ac, bc = _pad_pair(a.coeffs, b.coeffs)
        return Jet(a.space, ac - bc)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer, np.ndarray)) and not isinstance(
            other, Jet
        ):
            arr = np.asarray(other, dtype=float)
            return Jet(self.space, _pad(self.coeffs, max(self.coeffs.ndim, arr.ndim + 1)) * arr)
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return Jet(a.space, _cauchy(a.space, a.coeffs, b.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer, np.ndarray)) and not isinstance(
            other, Jet
        ):
            arr = np.asarray(other, dtype=float)
            return Jet(self.space, _pad(self.coeffs, max(self.coeffs.ndim, arr.ndim + 1)) / arr)
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return NotImplemented

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, n):
        # square-and-multiply from the lowest set bit, so j**2 is one product
        # and j**3 two; no product with a constant one
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        if n == 0:
            return Jet.constant(self.space, np.ones(self.batch_shape))
        result, base = None, self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return Jet(self.space, self.coeffs.copy()) if result is self else result
            base = base * base

    # -- analytic functions --------------------------------------------------

    def _lift(self, scaled_derivs) -> "Jet":
        return Jet(self.space, _lift(self.space, self.coeffs, scaled_derivs)[0])

    # Where a lift's derivatives blow up (a₀ = 0, and a₀ < 0 for sqrt) it is
    # NaN, without a warning, as ``_inv`` is at a singular M₀.
    def reciprocal(self) -> "Jet":
        a0 = np.where(self.coeffs[0] != 0.0, self.coeffs[0], np.nan)
        derivs = [(-1.0) ** k / a0 ** (k + 1) for k in range(self.space.order + 1)]
        return self._lift(derivs)

    def sqrt(self) -> "Jet":
        a0 = np.where(self.coeffs[0] > 0.0, self.coeffs[0], np.nan)
        derivs, c = [], 1.0
        for k in range(self.space.order + 1):
            derivs.append(c * a0 ** (0.5 - k))
            c *= (0.5 - k) / (k + 1)
        return self._lift(derivs)

    def sqrt_abs(self) -> "Jet":
        """√|f|, valid where f does not cross zero on the batch."""
        return (self * np.sign(self.coeffs[0])).sqrt()

    def log_abs(self) -> "Jet":
        a0 = np.where(self.coeffs[0] != 0.0, self.coeffs[0], np.nan)
        derivs = [np.log(np.abs(a0))]
        for k in range(1, self.space.order + 1):
            derivs.append((-1.0) ** (k - 1) / (k * a0**k))
        return self._lift(derivs)

    def exp(self) -> "Jet":
        e0 = np.exp(self.coeffs[0])
        derivs = [e0 / math.factorial(k) for k in range(self.space.order + 1)]
        return self._lift(derivs)

    def cos_sin(self):
        """(cos, sin) of the jet, both lifted on one set of powers."""
        s0, c0 = np.sin(self.coeffs[0]), np.cos(self.coeffs[0])
        cycle = [c0, -s0, -c0, s0]  # cos^(k); sin^(k) is cycle[k − 1]
        ks = range(self.space.order + 1)
        cos = [cycle[k % 4] / math.factorial(k) for k in ks]
        sin = [cycle[(k - 1) % 4] / math.factorial(k) for k in ks]
        return tuple(Jet(self.space, c) for c in _lift(self.space, self.coeffs, cos, sin))

    def sin(self) -> "Jet":
        return self.cos_sin()[1]

    def cos(self) -> "Jet":
        return self.cos_sin()[0]

    def cosh_sinh(self):
        """(cosh, sinh) of the jet, both lifted on one set of powers."""
        s0, c0 = np.sinh(self.coeffs[0]), np.cosh(self.coeffs[0])
        ks = range(self.space.order + 1)
        cosh = [(c0 if k % 2 == 0 else s0) / math.factorial(k) for k in ks]
        sinh = [(s0 if k % 2 == 0 else c0) / math.factorial(k) for k in ks]
        return tuple(Jet(self.space, c) for c in _lift(self.space, self.coeffs, cosh, sinh))

    def sinh(self) -> "Jet":
        return self.cosh_sinh()[1]

    def cosh(self) -> "Jet":
        return self.cosh_sinh()[0]

    def __repr__(self):
        return f"Jet(order={self.space.order}, nvars={self.space.nvars}, value={self.value!r})"


# -- helpers ---------------------------------------------------------------


def seed_jets(x, nvars: int, order: int):
    """Coordinate jets at base point(s) x of shape (..., nvars)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != nvars:
        raise ValueError(f"expected trailing dimension {nvars}, got {x.shape}")
    space = jet_space(nvars, order)
    return [Jet.variable(space, i, x[..., i]) for i in range(nvars)]


def compose(space: JetSpace, outer: np.ndarray, disp: np.ndarray) -> np.ndarray:
    """Evaluate Taylor polynomials on jet-valued displacements.

    `outer` holds the monomial coefficients of polynomials in
    ``disp.shape[1]`` variables, shape (n_outer, *tensor, *batch), at any
    order; `disp` is a coefficient array (space.n, nvars, *batch) with zero
    constant term, whose batch axes `outer` shares.  Returns the composed
    jets (space.n, *tensor, *batch), exact to the order of `space`.  The
    displacement power products are built once, one gathered product per
    degree, and shared by every tensor entry.
    """
    nvars = disp.shape[1]
    monos = jet_space(nvars, space.order).monomials[: outer.shape[0]]
    index = {mono: k for k, mono in enumerate(monos)}
    disp = disp[: space.n]
    batch = disp.shape[2:]
    powers = np.zeros((space.n, len(monos)) + batch)  # powers[:, k] = disp^monos[k]
    powers[0, 0] = 1.0
    for deg in range(1, space.order + 1):
        ks = [k for k, mono in enumerate(monos) if sum(mono) == deg]
        if not ks:
            break
        vs = [next(i for i, a in enumerate(monos[k]) if a > 0) for k in ks]
        if deg == 1:
            powers[:, ks] = disp[:, vs]
            continue
        parents = [index[tuple(a - (i == v) for i, a in enumerate(monos[k]))] for k, v in zip(ks, vs)]
        powers[:, ks] = _cauchy(space, powers[:, parents], disp[:, vs])
    outer = outer[: len(monos)]
    tensor = outer.shape[1 : outer.ndim - len(batch)]
    flat = outer.reshape((len(monos), math.prod(tensor)) + outer.shape[outer.ndim - len(batch) :])
    out = np.einsum("Zk...,kt...->Zt...", powers, flat)
    return out.reshape((space.n,) + tensor + out.shape[2:])


# -- reference forms on object arrays of jets --------------------------------


def jdet(a):
    """Determinant by Laplace expansion; fine for the dims used here (<= 5)."""
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    if n == 2:
        return a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    acc = None
    cols = list(range(n))
    for j in range(n):
        minor = a[np.ix_(range(1, n), [c for c in cols if c != j])]
        term = a[0, j] * jdet(minor)
        if j % 2 == 1:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def jinv(a):
    """Inverse via the adjugate (branch-free, jet-safe)."""
    n = a.shape[0]
    det = jdet(a)
    inv_det = det.reciprocal() if isinstance(det, Jet) else 1.0 / det
    out = np.empty((n, n), dtype=object)
    if n == 1:
        out[0, 0] = inv_det
        return out
    rows = list(range(n))
    for i in range(n):
        for j in range(n):
            minor = a[np.ix_([r for r in rows if r != j], [c for c in rows if c != i])]
            cof = jdet(minor)
            if (i + j) % 2 == 1:
                cof = -cof
            out[i, j] = cof * inv_det
    return out
