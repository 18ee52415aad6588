"""Entry-by-entry reference forms of the tensor-jet layer.

These are the object-array routes the package computed with before every
tensor of jets became one coefficient array: one `Jet` per tensor entry and
hand-written index loops.  The tests compare the array code against them.
"""

import math
from itertools import combinations_with_replacement

import numpy as np

from secondform import ambient as amb
from secondform.ambient import _stack_list, geodesic_rhs
from secondform.jets import Jet, _levi_civita, compose, jeinsum, jet_space, jinv
from secondform.spheres import _SYNTHETIC_FIELDS, _TRAILING_AXES, FramedJet, _symmetric_basis


def views(space, c, ntensor):
    """Object array of Jet views over the first `ntensor` tensor axes of `c`."""
    tshape = c.shape[1 : 1 + ntensor]
    out = np.empty(tshape, dtype=object)
    for idx in np.ndindex(*tshape):
        out[idx] = Jet(space, c[(slice(None),) + idx])
    return out


def coeffs(obj):
    """Coefficient array (n_mono, *tensor, *batch) of an object array of jets
    (or of one jet), at the entries' lowest order, batch shapes broadcast."""
    arr = np.asarray(obj, dtype=object)
    n = min(e.coeffs.shape[0] for e in arr.ravel())
    flat = [e.coeffs[:n] for e in arr.ravel()]
    batch = np.broadcast_shapes(*(c.shape[1:] for c in flat))
    flat = [np.broadcast_to(c.reshape(c.shape[:1] + (1,) * (len(batch) + 1 - c.ndim) + c.shape[1:]),
                            c.shape[:1] + batch) for c in flat]
    return np.stack(flat, axis=1).reshape((n,) + arr.shape + batch)


def values(obj):
    """Value parts of an object array of jets, batch axes last."""
    return coeffs(obj)[0]


def metric_obj(chart, x_jets):
    """The chart metric at jet coordinates, as a (dim, dim) object array."""
    space, x = _stack_list(x_jets)
    return views(space, chart.metric_fn(space, x), 2)


def jdot(g, v, w):
    """Σ g[a][b] v[a] w[b] for an object matrix g and jet vectors v, w."""
    d = len(v)
    total = None
    for a in range(d):
        for b in range(d):
            term = g[a, b] * v[a] * w[b]
            total = term if total is None else total + term
    return total


def jmatvec(mat, v):
    d0, d1 = mat.shape
    out = np.empty(d0, dtype=object)
    for i in range(d0):
        acc = None
        for j in range(d1):
            term = mat[i, j] * v[j]
            acc = term if acc is None else acc + term
        out[i] = acc
    return out


def jmatmul(a, b):
    n, k = a.shape
    _, m = b.shape
    out = np.empty((n, m), dtype=object)
    for i in range(n):
        for j in range(m):
            acc = None
            for s in range(k):
                term = a[i, s] * b[s, j]
                acc = term if acc is None else acc + term
            out[i, j] = acc
    return out


def christoffel_oracle(g, ginv=None):
    """Levi-Civita coefficients Γ^k_{ij} as jets, one order below the metric."""
    d = g.shape[0]
    if ginv is None:
        ginv = jinv(g)
    dg = [[[g[i, j].partial(k) for j in range(d)] for i in range(d)] for k in range(d)]
    gamma = np.empty((d, d, d), dtype=object)
    for k in range(d):
        for i in range(d):
            for j in range(i, d):
                acc = None
                for l in range(d):
                    term = ginv[k, l] * (dg[i][l][j] + dg[j][l][i] - dg[l][i][j])
                    acc = term if acc is None else acc + term
                gamma[k, i, j] = acc * 0.5
                gamma[k, j, i] = gamma[k, i, j]
    return gamma


def riemann_oracle(g, gamma):
    """R_{ijkl} jets in the package's sign convention."""
    d = g.shape[0]
    dgamma = [
        [[[gamma[l, j, k].partial(i) for k in range(d)] for j in range(d)] for l in range(d)]
        for i in range(d)
    ]
    r_up = np.empty((d, d, d, d), dtype=object)  # R^l_{ijk}
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(d):
                for l in range(d):
                    acc = dgamma[j][l][i][k] - dgamma[i][l][j][k]
                    for s in range(d):
                        acc = acc - gamma[l, i, s] * gamma[s, j, k] + gamma[l, j, s] * gamma[s, i, k]
                    r_up[i, j, k, l] = acc
    lower = np.empty((d, d, d, d), dtype=object)
    zero = Jet.constant(g[0, 0].space, np.zeros(g[0, 0].batch_shape))
    for i in range(d):
        lower[i, i, :, :] = zero
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(d):
                for l in range(d):
                    acc = None
                    for s in range(d):
                        term = r_up[i, j, k, s] * g[s, l]
                        acc = term if acc is None else acc + term
                    lower[i, j, k, l] = acc
                    lower[j, i, k, l] = -acc
    return lower


def ricci_oracle(ginv, riem):
    d = riem.shape[0]
    ric = np.empty((d, d), dtype=object)
    for j in range(d):
        for l in range(j, d):
            acc = None
            for i in range(d):
                for k in range(d):
                    term = ginv[i, k] * riem[i, j, k, l]
                    acc = term if acc is None else acc + term
            ric[j, l] = acc
            ric[l, j] = acc
    return ric


def trace_oracle(ginv, ric):
    d = ric.shape[0]
    return sum((ginv[j, l] * ric[j, l] for j in range(d) for l in range(d) if (j, l) != (0, 0)),
               ginv[0, 0] * ric[0, 0])


def chain_oracle(g, ginv=None):
    """(g⁻¹, Γ, R, Ric, S) of an object matrix of jets, entry by entry."""
    ginv = jinv(g) if ginv is None else ginv
    gamma = christoffel_oracle(g, ginv)
    riem = riemann_oracle(g, gamma)
    ric = ricci_oracle(ginv, riem)
    return ginv, gamma, riem, ric, trace_oracle(ginv, ric)


def compose_oracle(outer, displacements):
    """`outer` (a Jet) evaluated on jet-valued displacements with zero
    constant term, one power product per monomial."""
    space = outer.space
    target = displacements[0].space
    prods = {0: None}  # monomial index -> jet of the power product (None = 1)
    out = Jet.constant(target, 0.0)
    for k, mono in enumerate(space.monomials):
        if k == 0:
            prod = None
        else:
            v = next(i for i, a in enumerate(mono) if a > 0)
            parent = tuple(a - (1 if i == v else 0) for i, a in enumerate(mono))
            pprod = prods[space.index[parent]]
            prod = displacements[v] if pprod is None else pprod * displacements[v]
            prods[k] = prod
        c = outer.coeffs[k]
        if np.all(c == 0.0):
            continue
        out = out + c if prod is None else out + prod * c
    return out


def wedge_oracle(space, vecs):
    """ε_{a… b₁…b_k} v₁^{b₁}⋯v_k^{b_k} through the dense d-index Levi-Civita
    symbol, one ``jeinsum`` per vector: the form ``jets._wedge`` had before
    the exterior-algebra recursion."""
    d, k = vecs[0].shape[1], len(vecs)
    free = d - k
    idx = "abcdefgh"[:d]
    out = np.einsum(f"{idx},Z{idx[-1]}...->Z{idx[:-1]}...", _levi_civita(d), vecs[-1][: space.n])
    for s in range(k - 2, -1, -1):
        lead = idx[: free + s]
        out = jeinsum(space, f"{lead}{idx[free + s]}...,{idx[free + s]}...->{lead}...", out, vecs[s])
    return out


def christoffel_on_jets_oracle(chart, x_jets):
    """Γ^k_ab at jet-valued coordinates as an object array, on every chart
    from its metric: the metric-derived Γ of the ambient Taylor expansion,
    composed with the displacement."""
    space, x = _stack_list(x_jets)
    order = space.order
    x0 = np.moveaxis(x[0], 0, -1)
    amb = [Jet.variable(jet_space(chart.dim, order + 1), i, x0[..., i]) for i in range(chart.dim)]
    gamma_amb = christoffel_oracle(metric_obj(chart, amb))
    disp = [x_jets[k] - x0[..., k] for k in range(chart.dim)]
    d = chart.dim
    out = np.empty((d, d, d), dtype=object)
    for k in range(d):
        for a in range(d):
            for b in range(a, d):
                out[k, a, b] = compose_oracle(gamma_amb[k, a, b].truncate(order), disp)
                out[k, b, a] = out[k, a, b]
    return out


def rk4_exp_oracle(chart, space, x, v, n_steps, stops=None):
    """The fixed-step RK4 that ``exp_map`` ran on charts without a closed-form
    flow, on coefficient arrays: classical RK4 on the geodesic right-hand
    side with step 1/n_steps, whatever the stops; a stop inside a step is
    reached by one shorter step taken off the path.  Returns (x, v) at t = 1,
    or one pair per stop; no domain checks."""
    ts = (1.0,) if stops is None else tuple(stops)

    def rk4(x, v, h):
        k1 = geodesic_rhs(chart, space, x, v)
        x2, v2 = x + v * (h / 2), v + k1 * (h / 2)
        k2 = geodesic_rhs(chart, space, x2, v2)
        x3, v3 = x + v2 * (h / 2), v + k2 * (h / 2)
        k3 = geodesic_rhs(chart, space, x3, v3)
        x4, v4 = x + v3 * h, v + k3 * h
        k4 = geodesic_rhs(chart, space, x4, v4)
        return x + (v + (v2 + v3) * 2.0 + v4) * (h / 6), v + (k1 + (k2 + k3) * 2.0 + k4) * (h / 6)

    h = 1.0 / n_steps
    xt, vt, done, ends = x[: space.n], v[: space.n], 0, []
    for t in ts:
        nodes = int(t * n_steps)  # main-path steps before t
        while done < nodes:
            xt, vt = rk4(xt, vt, h)
            done += 1
        ends.append((xt, vt) if nodes == t * n_steps else rk4(xt, vt, t - nodes * h))
    return ends[0] if stops is None else ends


def ambient_curvature_oracle(chart, x_jets):
    """R̄, Ric̄, S̄ along jet-valued coordinates as object arrays, on every
    chart from its metric: the ambient Taylor expansion of the curvature,
    entry by entry, composed with the displacement."""
    d = chart.dim
    order = x_jets[0].space.order
    x0 = np.stack([np.asarray(j.value, dtype=float) for j in x_jets], axis=-1)
    amb_x = [Jet.variable(jet_space(d, order + 2), i, x0[..., i]) for i in range(d)]
    _, _, riem_amb, ric_amb, scal_amb = chain_oracle(metric_obj(chart, amb_x))
    disp = [x_jets[k] - x0[..., k] for k in range(d)]

    def comp(jet):
        return compose_oracle(jet.truncate(order), disp)

    riem = np.empty((d, d, d, d), dtype=object)
    for idx in np.ndindex(*riem.shape):
        riem[idx] = comp(riem_amb[idx])
    ric = np.empty((d, d), dtype=object)
    for idx in np.ndindex(*ric.shape):
        ric[idx] = comp(ric_amb[idx])
    return riem, ric, comp(scal_amb)


# ---------------------------------------------------------------------------
# the metric-derived connection and curvature along coordinate jets, on
# coefficient arrays: the routes ``ambient`` and ``hypersurface`` took on
# charts without a σ-gradient or a closed-form curvature
# ---------------------------------------------------------------------------


def compose_along(chart, space, x, extra, field):
    """A field of the ambient metric along coordinates x (n_mono, dim, *batch)
    at `space` (or above).  `field(amb_space, ḡ)` maps the metric's Taylor
    expansion at the base points x[0], `extra` orders above `space`, to a
    coefficient array (n_mono, *tensor, *batch) at `space`'s order or above;
    that expansion is composed with the displacement x − x[0]."""
    amb_space, g = amb._seeded(chart, np.moveaxis(x[0], 0, -1), space.order + extra)
    disp = x[: space.n].copy()
    disp[0] = 0.0
    return compose(space, field(amb_space, g), disp)


def christoffel_along(chart, space, x):
    """Γ^k_ab along x from the metric, as ``ambient.christoffel_on_jets``
    lays it out."""
    return compose_along(chart, space, x, 1, lambda amb_space, g: amb._levi_civita(amb_space, g)[1])


def christoffel_u_along(chart, space, x, u):
    """Γ^k_ab u_k along x from the metric."""
    return jeinsum(space, "kab...,k...->ab...", christoffel_along(chart, space, x), u)


def geodesic_rhs_along(chart, space, x, v):
    """−Γ^k_ab v^a v^b along x from the metric."""
    vv = jeinsum(space, "a...,b...->ab...", v, v)
    return -jeinsum(space, "kab...,ab...->k...", christoffel_along(chart, space, x), vv)


def curvature_along(chart, space, x):
    """(R̄, Ric̄, S̄) along x from the metric: one expansion two orders above
    `space`, with the three side by side on one tensor axis, composed once."""
    d, batch = chart.dim, x.shape[2:]

    def stacked(amb_space, g):
        curv = amb._curvature_chain(amb_space, g)
        n = curv.riem.shape[0]
        return np.concatenate(
            [curv.riem.reshape((n, d**4) + batch), curv.ric.reshape((n, d * d) + batch), curv.scal[:, None]],
            axis=1,
        )

    out = compose_along(chart, space, x, 2, stacked)
    return (
        out[:, : d**4].reshape((space.n,) + (d,) * 4 + batch),
        out[:, d**4 : -1].reshape((space.n, d, d) + batch),
        out[:, -1],
    )


def lapack_inv_oracle(space, c):
    """``jets._inv`` with M₀⁻¹ from ``np.linalg.inv``, the route the
    cofactor table replaced: the same finite Neumann series on the
    nilpotent part."""
    c = c[: space.n]
    inv0 = np.moveaxis(np.linalg.inv(np.moveaxis(c[0], (0, 1), (-2, -1))), (-2, -1), (0, 1))
    step = -np.einsum("ik...,Zkj...->Zij...", inv0, c)
    step[0] = 0.0
    term = np.zeros(step.shape)
    term[0] = inv0
    out = term.copy()
    for _ in range(space.order):
        term = jeinsum(space, "ik...,kj...->ij...", step, term)
        out += term
    return out


def quartic_terms(nvars, rng, amplitude):
    """``hypersurface._random_quartic`` term by term, the form it replaced:
    q(ω) = Σ c·ω_iω_jω_kω_l over the sorted index tuples, three jet
    products per term, drawing c from `rng` the same way."""
    terms = list(combinations_with_replacement(range(nvars), 4))
    cs = rng.normal(size=len(terms))
    cs *= amplitude / np.sum(np.abs(cs))

    def q(omega):
        acc = None
        for c, term in zip(cs, terms):
            prod = None
            for i in term:
                prod = omega[i] if prod is None else prod * omega[i]
            prod = prod * c
            acc = prod if acc is None else acc + prod
        return acc

    return q


def synthetic_jet_oracle(dim, rng):
    """``spheres.synthetic_framed_jet`` as one eager scatter, the form that
    builds ∇R̄ and ∇²R̄ on first read replaced: every field of the jet,
    concatenated flat, as z[index]·scale of the n coordinates z drawn."""
    indices, scales, shapes, n = [], [], [], 0
    for symmetry, lead in _SYNTHETIC_FIELDS.values():
        index, scale, k = _symmetric_basis(dim, symmetry)
        copies = dim**lead
        indices.append((n + k * np.arange(copies)[:, None] + index).ravel())
        scales.append(np.tile(scale, copies))
        shapes.append((dim,) * (lead + _TRAILING_AXES[symmetry]))
        n += k * copies
    flat = rng.normal(size=n)[np.concatenate(indices)] * np.concatenate(scales)
    fields, start = {}, 0
    for name, shape in zip(_SYNTHETIC_FIELDS, shapes):
        size = math.prod(shape)
        fields[name] = flat[start:start + size].reshape(shape)
        start += size
    fields["scal"] = float(fields["scal"])
    return FramedJet(dim=dim, **fields)
