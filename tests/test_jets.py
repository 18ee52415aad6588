"""Checks for the truncated Taylor arithmetic against finite differences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from secondform import jets
from secondform.jets import Jet, compose, jdet, jeinsum, jet_space, jinv, seed_jets

from jet_oracles import jmatmul, wedge_oracle


def central_diff(f, x, i, h=1e-5):
    xp, xm = np.array(x, dtype=float), np.array(x, dtype=float)
    xp[i] += h
    xm[i] -= h
    return (f(xp) - f(xm)) / (2 * h)


def sample_fn_jet(u):
    x, y = u
    return (x * y + (x * x * 0.5).sin()) * (1.0 + y * y).reciprocal() + (x + 2.0).log_abs()


def sample_fn_np(u):
    x, y = u
    return (x * y + np.sin(0.5 * x * x)) / (1.0 + y * y) + np.log(np.abs(x + 2.0))


def test_first_derivatives_match_finite_differences():
    base = np.array([0.3, -0.7])
    jets = seed_jets(base, 2, 4)
    out = sample_fn_jet(jets)
    for i in range(2):
        fd = central_diff(sample_fn_np, base, i)
        alpha = tuple(1 if k == i else 0 for k in range(2))
        assert_allclose(out.deriv(alpha), fd, rtol=1e-8)


def test_fourth_derivative_single_variable():
    # f(t) = exp(sin t): d4 at t0 via nested central differences (Richardson-free,
    # large-ish h keeps roundoff at bay; jet value is exact so 1e-4 is plenty).
    t0 = 0.4

    def f(t):
        return np.exp(np.sin(t))

    h = 2e-2
    stencil = sum(
        c * f(t0 + k * h)
        for c, k in [(1, -2), (-4, -1), (6, 0), (-4, 1), (1, 2)]
    ) / h**4
    (t,) = seed_jets(np.array([t0]), 1, 4)
    out = t.sin().exp()
    assert_allclose(out.deriv((4,)), stencil, rtol=5e-3)


def test_batched_matches_scalar():
    pts = np.array([[0.1, 0.2], [0.5, -0.3], [1.2, 0.8]])
    batch = sample_fn_jet(seed_jets(pts, 2, 3))
    for row in range(3):
        single = sample_fn_jet(seed_jets(pts[row], 2, 3))
        assert_allclose(batch.coeffs[:, row], single.coeffs, atol=1e-15)


@given(
    st.floats(min_value=-1.5, max_value=1.5),
    st.floats(min_value=-1.5, max_value=1.5),
    st.floats(min_value=0.2, max_value=2.0),
)
@settings(max_examples=60, deadline=None)
def test_field_axioms_and_inverses(a, b, c):
    jets = seed_jets(np.array([a, b]), 2, 4)
    x, y = jets
    p = x * y + c
    q = x + y * y - 0.5
    assert_allclose(((p * q) * x).coeffs, (p * (q * x)).coeffs, atol=1e-10)
    assert_allclose((p * (q + x)).coeffs, (p * q + p * x).coeffs, atol=1e-10)
    w = p * p + 1.0  # strictly positive value
    assert_allclose((w.log_abs().exp()).coeffs, w.coeffs, atol=1e-8)
    assert_allclose((w.sqrt() * w.sqrt()).coeffs, w.coeffs, atol=1e-8)
    assert_allclose((w * w.reciprocal()).coeffs, Jet.constant(w.space, 1.0).coeffs, atol=1e-8)


def test_trig_identity():
    x, y = seed_jets(np.array([0.7, -0.2]), 2, 4)
    s, co = (x * y).sin(), (x * y).cos()
    one = s * s + co * co
    assert_allclose(one.coeffs, Jet.constant(one.space, 1.0).coeffs, atol=1e-12)


def test_partial_shifts_coefficients():
    x, y = seed_jets(np.array([0.0, 0.0]), 2, 3)
    f = x * x * y  # ∂x = 2xy, ∂x∂y = 2x, ∂x∂x∂y = 2
    fx = f.partial(0)
    assert_allclose(fx.deriv((1, 1)), 2.0)
    assert_allclose(fx.deriv((0, 1)), 0.0)


def test_compose_matches_direct_evaluation():
    # outer polynomial g(v) at v0=0 composed with displacement jets of (u1,u2)
    space_o = jet_space(2, 3)
    rng = np.random.default_rng(0)
    outer = Jet(space_o, rng.normal(size=space_o.n))
    u = seed_jets(np.array([0.4, -0.1]), 2, 3)
    d0 = u[0] * u[0] - 0.16  # zero constant term
    d1 = u[0] * u[1] + 0.04
    space = u[0].space
    composed = Jet(space, compose(space, outer.coeffs, np.stack([d0.coeffs, d1.coeffs], axis=1)))

    def direct(uv):
        a, b = uv
        v0 = a * a - 0.16
        v1 = a * b + 0.04
        total = 0.0
        for k, mono in enumerate(space_o.monomials):
            total += outer.coeffs[k] * v0 ** mono[0] * v1 ** mono[1]
        return total

    for i in range(2):
        assert_allclose(
            composed.deriv(tuple(1 if k == i else 0 for k in range(2))),
            central_diff(direct, [0.4, -0.1], i),
            rtol=1e-7,
        )


def test_jet_matrix_inverse():
    u = seed_jets(np.array([0.2, 0.3]), 2, 3)
    m = np.empty((3, 3), dtype=object)
    vals = [[2.0, 0.1, 0.0], [0.1, 1.5, 0.2], [0.0, 0.2, 1.0]]
    for i in range(3):
        for j in range(3):
            m[i, j] = vals[i][j] + u[0] * u[1] * (0.1 * (i + 1) * (j + 1))
    inv = jinv(m)
    ident = jmatmul(m, inv)
    for i in range(3):
        for j in range(3):
            expect = 1.0 if i == j else 0.0
            assert_allclose(ident[i, j].coeffs, Jet.constant(u[0].space, expect).coeffs, atol=1e-12)
    det = jdet(m)
    numeric = np.linalg.det(np.array([[m[i, j].value for j in range(3)] for i in range(3)]))
    assert_allclose(det.value, numeric, rtol=1e-12)


def test_order_mixing_truncates():
    x, y = seed_jets(np.array([0.1, 0.2]), 2, 4)
    low = (x * y).truncate(2)
    mixed = low * x
    assert mixed.space.order == 2


def test_deriv_out_of_order_raises():
    (x,) = seed_jets(np.array([0.0]), 1, 2)
    with pytest.raises(ValueError):
        x.deriv((3,))


def naive_product(a, b):
    """Cauchy product by exponent addition over all monomial pairs."""
    space = a.space if a.space.order <= b.space.order else b.space
    ac, bc = a.coeffs[: space.n], b.coeffs[: space.n]
    out = np.zeros((space.n,) + np.broadcast_shapes(ac.shape[1:], bc.shape[1:]))
    for i, mi in enumerate(space.monomials):
        for j, mj in enumerate(space.monomials):
            mk = tuple(x + y for x, y in zip(mi, mj))
            if sum(mk) <= space.order:
                out[space.index[mk]] += ac[i] * bc[j]
    return out


@pytest.mark.parametrize(
    "nvars, orders, batch_a, batch_b",
    [
        (2, (4, 4), (), ()),
        (3, (4, 4), (1,), (1,)),
        (2, (4, 4), (256,), (256,)),
        (2, (4, 4), (257,), (257,)),
        (3, (3, 3), (3, 1), (1, 4)),
        (2, (4, 4), (), (5,)),
        (4, (4, 2), (7,), (7,)),
        (2, (1, 3), (2, 3), (3,)),
    ],
)
@pytest.mark.parametrize("cutoff", [0, 10**9, None], ids=["row_loop", "one_call", "default"])
def test_product_paths_match_naive(monkeypatch, nvars, orders, batch_a, batch_b, cutoff):
    if cutoff is not None:
        monkeypatch.setattr(jets, "ONE_CALL_MAX_POINTS", cutoff)
    rng = np.random.default_rng(sum(orders) + len(batch_a))
    # positive coefficients: no cancellation, so a relative bound is meaningful
    a = Jet(jet_space(nvars, orders[0]), rng.uniform(0.5, 1.5, (jet_space(nvars, orders[0]).n,) + batch_a))
    b = Jet(jet_space(nvars, orders[1]), rng.uniform(0.5, 1.5, (jet_space(nvars, orders[1]).n,) + batch_b))
    expect = naive_product(a, b)
    for prod in (a * b, b * a):
        assert prod.space.order == min(orders)
        assert_allclose(prod.coeffs, expect, rtol=1e-14, atol=0)


def test_jeinsum_matches_jet_products():
    space = jet_space(3, 2)
    rng = np.random.default_rng(4)
    a = rng.normal(size=(jet_space(3, 4).n, 3, 2, 5))  # higher order: truncated to `space`
    b = rng.normal(size=(space.n, 2, 4, 5))
    out = jeinsum(space, "ij...,jk...->ik...", a, b)
    assert out.shape == (space.n, 3, 4, 5)
    for i in range(3):
        for k in range(4):
            acc = sum(Jet(space, a[: space.n, i, j]) * Jet(space, b[:, j, k]) for j in range(2))
            assert_allclose(out[:, i, k], acc.coeffs, rtol=1e-13, atol=1e-14)


@pytest.mark.parametrize("cutoff", [0, 10**9], ids=["row_loop", "one_call"])
def test_jeinsum_paths_match(monkeypatch, cutoff):
    space = jet_space(2, 3)
    rng = np.random.default_rng(9)
    a = rng.normal(size=(jet_space(2, 4).n, 3, 3, 7))  # batch broadcast against ()
    b = rng.normal(size=(space.n, 3))
    expect = jeinsum(space, "ab...,b...->a...", a, b)  # 21 entries: one call by default
    monkeypatch.setattr(jets, "ONE_CALL_MAX_POINTS", cutoff)
    assert_allclose(jeinsum(space, "ab...,b...->a...", a, b), expect, rtol=1e-14, atol=1e-14)
    seen = []
    monkeypatch.setattr(jets, "_gathers", lambda points: seen.append(points) or True)
    jeinsum(space, "ab...,b...->a...", a, b)
    jeinsum(space, "ab...,cd...->abcd...", a, a)
    # what the product builds counts, as in `_cauchy`: the output's tensor
    # entries times its batch points (3 × 7; 3⁴ × 7), not the contracted axis
    assert seen == [21, 567]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("free", [0, 1])
@pytest.mark.parametrize("batch", [(), (7,), (300,)])
@pytest.mark.parametrize("cutoff", [0, 10**9], ids=["row_loop", "one_call"])
def test_exterior_wedge_matches_dense_levi_civita(monkeypatch, d, free, batch, cutoff):
    monkeypatch.setattr(jets, "ONE_CALL_MAX_POINTS", cutoff)
    space = jet_space(2, 3)
    rng = np.random.default_rng(10 * d + free + len(batch))
    # one order above `space`: the product truncates, as on the frame's arrays
    vecs = [rng.normal(size=(jet_space(2, 4).n, d) + batch) for _ in range(d - free)]
    got = jets._wedge(space, vecs)
    want = wedge_oracle(space, vecs)
    assert got.shape == want.shape == (space.n,) + (d,) * free + batch
    assert_allclose(got, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))


def _shifted_normal(rng, p, batch):
    eye = np.eye(p).reshape((p, p) + (1,) * len(batch))
    return rng.normal(size=(p, p) + batch) + 3.0 * eye


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("batch", [(), (1,), (300,), (3, 4)])
def test_cofactors_match_lapack(p, batch):
    m = _shifted_normal(np.random.default_rng(p + len(batch)), p, batch)
    cof, det = jets._cofactors(m)
    lap = np.moveaxis(m, (0, 1), (-2, -1))
    assert cof.shape == m.shape and det.shape == batch
    assert_allclose(det, np.linalg.det(lap), rtol=1e-13, atol=0)
    want = np.moveaxis(np.linalg.inv(lap), (-2, -1), (0, 1))
    scale = np.max(np.abs(want))
    assert_allclose(np.swapaxes(cof, 0, 1) / det, want, rtol=0, atol=1e-13 * scale)
    # at jet order 0, _inv is M₀⁻¹ alone
    assert_allclose(jets._inv(jet_space(2, 0), m[None])[0], want, rtol=0, atol=1e-13 * scale)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_inverse_is_nan_at_exactly_the_singular_and_nan_points(p):
    import warnings

    space = jet_space(2, 2)
    rng = np.random.default_rng(11 + p)
    c = rng.normal(size=(space.n, p, p, 6))
    c[0] = _shifted_normal(rng, p, (6,))
    c[0, :, :, 1] = np.ones((p, p)) if p > 1 else 0.0  # det exactly 0
    c[0, 0, 0, 4] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, det = jets._cofactors(c[0])
        inv = jets._inv(space, c)
        inv_v = jets._inv(space, c, c[:, :, 0])
    assert det[1] == 0.0 and np.isnan(det[4])
    for out in (inv, inv_v):
        assert np.all(np.isnan(out[..., [1, 4]]))
        assert np.all(np.isfinite(out[..., [0, 2, 3, 5]]))


@pytest.mark.parametrize("lift", ["reciprocal", "log_abs", "sqrt_abs"])
def test_lifts_are_nan_without_a_warning_where_the_base_value_is_zero(lift):
    # the suite turns RuntimeWarning into an error, so a warning fails here
    x = seed_jets(np.array([[0.0, 1.0], [2.0, 1.0], [-3.0, 0.5]]), 2, 3)[0]
    out = getattr(x, lift)().coeffs
    assert np.all(np.isnan(out[:, 0]))
    rest = getattr(Jet(x.space, x.coeffs[:, 1:]), lift)().coeffs
    assert np.array_equal(out[:, 1:], rest) and np.all(np.isfinite(rest))



@pytest.mark.parametrize("n, products", [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (6, 3), (7, 4)])
def test_power_starts_from_the_lowest_set_bit(monkeypatch, n, products):
    # square-and-multiply with no product by a constant one: j**2 costs one
    # product and j**3 two, and the values are those of repeated products
    x, y = seed_jets(np.array([[0.3, -0.7], [1.1, 0.2]]), 2, 4)
    j = x * y + x + 0.5
    naive = Jet.constant(j.space, np.ones(2))
    for _ in range(n):
        naive = naive * j
    chain = {2: lambda: j * j, 3: lambda: j * (j * j)}.get(n, lambda: None)()
    calls = [0]
    original = jets._cauchy

    def counting(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(jets, "_cauchy", counting)
    got = j**n
    assert calls[0] == products
    assert got.space is j.space and got.coeffs is not j.coeffs
    assert_allclose(got.coeffs, naive.coeffs, rtol=1e-14, atol=0)
    if chain is not None:
        assert np.array_equal(got.coeffs, chain.coeffs)


# pair → (its two base functions at a₀, the k-th derivatives of its two
# members for k mod 4 in terms of those)
PAIRED_LIFTS = {
    "cos_sin": (np.sin, np.cos, lambda s, c: ([c, -s, -c, s], [s, c, -s, -c])),
    "cosh_sinh": (np.sinh, np.cosh, lambda s, c: ([c, s, c, s], [s, c, s, c])),
}


@pytest.mark.parametrize("pair", sorted(PAIRED_LIFTS))
@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("point", [np.array([0.7, -0.2]), np.array([[0.7, -0.2], [2.9, 1.3], [-4.0, 0.1]])])
def test_paired_lift_is_bit_identical_to_separate_lifts(order, point, pair):
    # the reference lifts each member on its own powers of the nilpotent part
    x, y = seed_jets(point, 2, order)
    j = x * y + x * 0.3
    s_fn, c_fn, cycles = PAIRED_LIFTS[pair]

    def lifted(cycle):
        derivs = [cycle[k % 4] / math.factorial(k) for k in range(order + 1)]
        return jets._lift(j.space, j.coeffs, derivs)[0]

    refs = [lifted(cycle) for cycle in cycles(s_fn(j.value), c_fn(j.value))]
    for got, lone, ref in zip(getattr(j, pair)(), pair.split("_"), refs):
        assert np.array_equal(got.coeffs, ref)
        assert np.array_equal(getattr(j, lone)().coeffs, ref)


@pytest.mark.parametrize("nvars", [2, 3])
def test_power_rows_equal_the_whole_table_bit_for_bit(nvars):
    # above the path bound the row loop runs; eᵏ·e on the rows whose factors
    # can be nonzero is the whole table's product, bit for bit
    space = jet_space(nvars, 4)
    e = np.random.default_rng(nvars).normal(size=(space.n, 3, 300))
    e[0] = 0.0
    assert not jets._gathers(e[0].size)
    power = e
    for k in range(1, space.order):
        rows = jets._power_rows(space, k)
        assert len(rows._mult_triples) < len(space._mult_triples)
        whole, cut = jets._cauchy(space, power, e), jets._cauchy(rows, power, e)
        assert whole.tobytes() == cut.tobytes()
        power = whole
