"""Ambient charts: Christoffel symbols, curvature jets, geodesics.

The space-form identity R_{ijkl} = C̄(g_ik g_jl − g_il g_jk) and the
product-metric block structure serve as independent oracles for the whole
curvature stack; Christoffel symbols get a central-difference oracle.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from secondform.ambient import (
    chart_from_descriptor,
    christoffel,
    curvature_jet,
    flat_chart,
    geodesic,
    metric_value,
    orthonormal_frame,
    product_chart,
    registry_chart,
    space_form,
)
from secondform.errors import (
    BadDirection,
    LeftDomain,
    OutOfDomain,
    UnsupportedSignature,
)


def christoffel_fd_oracle(chart, x, h=1e-4):
    """Γ from Richardson-extrapolated central differences of the metric."""
    d = chart.dim

    def dmetric(i, step):
        xp, xm = x.copy(), x.copy()
        xp[i] += step
        xm[i] -= step
        return (metric_value(chart, xp) - metric_value(chart, xm)) / (2 * step)

    dg = np.empty((d, d, d))
    for i in range(d):
        coarse, fine = dmetric(i, h), dmetric(i, h / 2)
        dg[i] = (4 * fine - coarse) / 3
    ginv = np.linalg.inv(metric_value(chart, x))
    gamma = np.empty((d, d, d))
    for k in range(d):
        for i in range(d):
            for j in range(d):
                gamma[k, i, j] = 0.5 * sum(
                    ginv[k, l] * (dg[i][l, j] + dg[j][l, i] - dg[l][i, j]) for l in range(d)
                )
    return gamma


def space_form_riem_oracle(cbar, g):
    return cbar * (np.einsum("ik,jl->ijkl", g, g) - np.einsum("il,jk->ijkl", g, g))


def cov_deriv_oracle(t, gamma, d):
    """Covariant derivative of a covariant tensor given as an object array of jets."""
    rank = t.ndim
    out = np.empty((d,) + t.shape, dtype=object)
    for a in range(d):
        for idx in np.ndindex(*t.shape):
            acc = t[idx].partial(a)
            for slot in range(rank):
                for s in range(d):
                    rep = idx[:slot] + (s,) + idx[slot + 1 :]
                    acc = acc - gamma[s, a, idx[slot]] * t[rep]
            out[(a,) + idx] = acc
    return out


def object_route_derivatives(chart, x):
    """∇R̄, ∇²R̄, ∇Ric̄, ∇²Ric̄ and Hess S̄ at order 2, entry by entry over jets."""
    from jet_oracles import chain_oracle, metric_obj, values

    from secondform.jets import seed_jets

    d = chart.dim
    _, gamma, riem, ric, scal = chain_oracle(metric_obj(chart, seed_jets(x, d, 4)))
    grad_s = np.empty(d, dtype=object)
    for i in range(d):
        grad_s[i] = scal.partial(i)
    nabla_r = cov_deriv_oracle(riem, gamma, d)
    nabla_ric = cov_deriv_oracle(ric, gamma, d)
    return {
        "nabla_riem": values(nabla_r),
        "nabla2_riem": values(cov_deriv_oracle(nabla_r, gamma, d)),
        "nabla_ricci": values(nabla_ric),
        "nabla2_ricci": values(cov_deriv_oracle(nabla_ric, gamma, d)),
        "hess_scalar": values(cov_deriv_oracle(grad_s, gamma, d)),
    }


class TestChristoffel:
    def test_euclidean_vanishes(self):
        chart = flat_chart(3)
        assert_allclose(christoffel(chart, np.array([0.3, -1.0, 2.0])), 0.0, atol=1e-15)

    def test_sphere_chart_origin_vanishes(self):
        chart = space_form(4, 1.0)
        assert_allclose(christoffel(chart, np.zeros(4)), 0.0, atol=1e-14)

    def test_matches_central_differences(self):
        chart = space_form(4, 1.0)
        x = np.array([0.1, 0.0, 0.0, 0.0])
        assert_allclose(christoffel(chart, x), christoffel_fd_oracle(chart, x), atol=1e-7)

    def test_bumpy_chart_matches_central_differences(self):
        chart = registry_chart("bumpy_e3")
        x = np.array([0.2, -0.4, 0.1])
        assert_allclose(christoffel(chart, x), christoffel_fd_oracle(chart, x), atol=1e-7)

    def test_closed_form_gamma_agrees_with_metric_derived(self):
        from secondform.ambient import _stack_list
        from secondform.jets import seed_jets

        for chart in (space_form(3, 1.0), space_form(3, -1.0), registry_chart("bumpy_e3")):
            x = np.array([0.2, -0.1, 0.3])
            space, xc = _stack_list(seed_jets(x, chart.dim, 0))
            closed = chart.christoffel_jets_fn(space, xc)[0]
            assert_allclose(closed, christoffel(chart, x), atol=1e-11)

    def test_out_of_domain(self):
        chart = space_form(3, -1.0)
        with pytest.raises(OutOfDomain):
            christoffel(chart, np.array([5.0, 0.0, 0.0]))


class TestCurvatureJet:
    def test_euclidean_all_zero(self):
        jet = curvature_jet(flat_chart(3), np.array([0.5, 0.5, -0.2]), order=2)
        for fld in (jet.riem, jet.ricci, jet.nabla_riem, jet.nabla2_riem, jet.hess_scalar):
            assert_allclose(fld, 0.0, atol=1e-13)
        assert_allclose(jet.scalar, 0.0, atol=1e-13)

    def test_unit_s3_space_form_values(self):
        chart = space_form(3, 1.0)
        jet = curvature_jet(chart, np.zeros(3), order=2)
        assert_allclose(jet.riem, space_form_riem_oracle(1.0, jet.metric), atol=1e-10)
        assert_allclose(jet.ricci, 2.0 * jet.metric, atol=1e-10)
        assert_allclose(jet.scalar, 6.0, atol=1e-10)
        # orthonormal sectional curvature K = R(e0,e1,e0,e1) = +1
        assert_allclose(jet.riem[0, 1, 0, 1], 1.0, atol=1e-10)

    def test_unit_s4_scalar(self):
        jet = curvature_jet(space_form(4, 1.0), np.zeros(4), order=0)
        assert_allclose(jet.scalar, 12.0, atol=1e-9)

    def test_space_form_identity_random_points(self):
        rng = np.random.default_rng(7)
        for cbar, index in [(1.0, 0), (-1.0, 0), (1.0, 1)]:
            chart = space_form(3, cbar, index)
            for _ in range(10):
                x = rng.uniform(-0.3, 0.3, size=3)
                jet = curvature_jet(chart, x, order=1)
                assert_allclose(jet.riem, space_form_riem_oracle(cbar, jet.metric), atol=1e-8)
                assert np.max(np.abs(jet.nabla_riem)) < 1e-7

    def test_de_sitter_sectional_curvature(self):
        chart = space_form(3, 1.0, index=1)
        jet = curvature_jet(chart, np.array([0.05, 0.1, -0.08]), order=0)
        g = jet.metric
        rng = np.random.default_rng(3)
        for _ in range(5):
            x, y = rng.normal(size=3), rng.normal(size=3)
            denom = (x @ g @ x) * (y @ g @ y) - (x @ g @ y) ** 2
            if abs(denom) < 1e-3:
                continue
            k = np.einsum("ijkl,i,j,k,l->", jet.riem, x, y, x, y) / denom
            assert_allclose(k, 1.0, atol=1e-8)

    def test_product_s2_s2(self):
        s2 = space_form(2, 1.0)
        chart = product_chart(s2, s2)
        jet = curvature_jet(chart, np.array([0.1, 0.05, -0.1, 0.2]), order=0)
        assert_allclose(jet.scalar, 4.0, atol=1e-9)
        # mixed-plane curvature components vanish
        assert_allclose(jet.riem[0, 2], 0.0, atol=1e-10)
        assert_allclose(jet.riem[1, 3], 0.0, atol=1e-10)
        # Ricci eigenvalues relative to the metric are all 1
        evals = np.linalg.eigvals(np.linalg.solve(jet.metric, jet.ricci))
        assert_allclose(np.sort(evals.real), 1.0, atol=1e-9)

    def test_product_s2_e2(self):
        chart = product_chart(space_form(2, 1.0), flat_chart(2))
        jet = curvature_jet(chart, np.array([0.1, 0.0, 3.0, -2.0]), order=0)
        assert_allclose(jet.scalar, 2.0, atol=1e-9)
        s2_jet = curvature_jet(space_form(2, 1.0), np.array([0.1, 0.0]), order=0)
        assert_allclose(np.sum(jet.riem**2), np.sum(s2_jet.riem**2), atol=1e-9)

    def test_curvature_jet_invariants_on_bumpy_chart(self):
        chart = registry_chart("bumpy_e3")
        jet = curvature_jet(chart, np.array([0.3, -0.2, 0.5]), order=2)
        r = jet.riem
        assert_allclose(r, -np.swapaxes(r, 0, 1), atol=1e-9)
        assert_allclose(r, -np.swapaxes(r, 2, 3), atol=1e-9)
        assert_allclose(r, np.einsum("klij->ijkl", r), atol=1e-9)
        bianchi1 = r + np.einsum("jkil->ijkl", r) + np.einsum("kijl->ijkl", r)
        assert np.max(np.abs(bianchi1)) < 1e-9
        assert_allclose(jet.ricci, jet.ricci.T, atol=1e-10)
        assert_allclose(jet.hess_scalar, jet.hess_scalar.T, atol=1e-10)
        assert_allclose(np.einsum("ij,ij->", jet.metric_inv, jet.ricci), jet.scalar, atol=1e-10)
        # contracted second Bianchi: 2 div Ric = ∇S
        div_ric = 2.0 * np.einsum("ab,abj->j", jet.metric_inv, jet.nabla_ricci)
        assert_allclose(div_ric, jet.grad_scalar, atol=1e-8)

    @pytest.mark.parametrize(
        "chart, x",
        [
            (registry_chart("bumpy_e3"), np.array([0.3, -0.2, 0.5])),
            (product_chart(space_form(2, 1.0), space_form(2, 1.0)), np.array([0.1, 0.05, -0.1, 0.2])),
        ],
        ids=["bumpy_e3", "s2xs2"],
    )
    def test_covariant_derivatives_match_object_route(self, chart, x):
        jet = curvature_jet(chart, x, order=2)
        for name, expect in object_route_derivatives(chart, x).items():
            assert_allclose(getattr(jet, name), expect, rtol=1e-12, atol=1e-12, err_msg=name)

    def test_batched_points_match_pointwise(self):
        chart = registry_chart("bumpy_e3")
        rng = np.random.default_rng(11)
        x = rng.uniform(-0.5, 0.5, size=(2, 3, 3))
        batched = curvature_jet(chart, x, order=2)
        fields = [k for k, v in vars(batched).items() if isinstance(v, np.ndarray) and k != "point"]
        for i, j in np.ndindex(2, 3):
            single = curvature_jet(chart, x[i, j], order=2)
            for name in fields:
                assert_allclose(getattr(batched, name)[..., i, j], getattr(single, name),
                                rtol=1e-12, atol=1e-13, err_msg=name)

    def test_s4_order2_jet_multiply_count(self, monkeypatch):
        # a deterministic guard on the tensor-form route: the entry-by-entry
        # covariant derivatives made 103,924 jet multiplies here
        from secondform.jets import Jet

        calls = [0]
        original = Jet.__mul__

        def counting(a, b):
            calls[0] += 1
            return original(a, b)

        monkeypatch.setattr(Jet, "__mul__", counting)
        monkeypatch.setattr(Jet, "__rmul__", counting)
        curvature_jet(space_form(4, 1.0), np.array([0.1, -0.2, 0.05, 0.3]), order=2)
        assert 0 < calls[0] < 5000

    def test_taylor_matches_nested_central_differences(self):
        # second metric derivative of the bumpy chart vs nested differences
        from jet_oracles import metric_obj

        from secondform.jets import seed_jets

        chart = registry_chart("bumpy_e3")
        x = np.array([0.25, -0.15, 0.05])
        jets = seed_jets(x, 3, 4)
        g = metric_obj(chart, jets)
        h = 1e-3

        def g00(pt):
            return metric_value(chart, pt)[0, 0]

        for i in range(3):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd2 = (g00(xp) - 2 * g00(x) + g00(xm)) / h**2
            alpha = tuple(2 if k == i else 0 for k in range(3))
            assert_allclose(g[0, 0].deriv(alpha), fd2, rtol=1e-6, atol=1e-9)


class TestGeodesic:
    def test_euclidean_straight_line(self):
        chart = flat_chart(4)
        end = geodesic(chart, np.zeros(4), np.array([1.0, 0, 0, 0]), 0.7)
        assert_allclose(end, [0.7, 0, 0, 0], atol=1e-15)

    def test_zero_arclength_returns_start(self):
        chart = space_form(3, 1.0)
        n = np.array([0.1, 0.2, 0.0])
        assert_allclose(geodesic(chart, n, _unit(chart, n, [1.0, 0, 0]), 0.0), n)

    def test_great_circle_oracle_unit_s3(self):
        chart = space_form(3, 1.0)
        rng = np.random.default_rng(5)
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)  # metric at origin is identity
        r = 0.5
        end = geodesic(chart, np.zeros(3), v, r, n_steps=256)
        assert_allclose(end, 2 * math.tan(r / 2) * v, atol=1e-10)

    def test_flow_property(self):
        chart = space_form(3, 1.0)
        n = np.array([0.2, -0.1, 0.05])
        v = _unit(chart, n, [0.3, 1.0, -0.2])
        r1, r2 = 0.3, 0.45
        direct = geodesic(chart, n, v, r1 + r2, n_steps=512)
        mid = geodesic(chart, n, v, r1, n_steps=512)
        # restart: velocity at the midpoint via the integrator
        from secondform.ambient import exp_map
        from secondform.jets import Jet, jet_space

        sp = jet_space(1, 0)
        x0 = [Jet.constant(sp, n[i]) for i in range(3)]
        w = [Jet.constant(sp, r1 * v[i]) for i in range(3)]
        xs, vs = exp_map(chart, x0, w, n_steps=512)
        v_mid = np.array([float(j.value) for j in vs]) / r1
        restarted = geodesic(chart, mid, v_mid, r2, n_steps=512)
        assert_allclose(direct, restarted, atol=1e-7)

    def test_non_unit_vector_rejected(self):
        chart = flat_chart(3)
        with pytest.raises(BadDirection):
            geodesic(chart, np.zeros(3), np.array([2.0, 0, 0]), 1.0)

    def test_leaves_domain(self):
        chart = space_form(2, 1.0)
        with pytest.raises(LeftDomain):
            geodesic(chart, np.zeros(2), np.array([1.0, 0.0]), 3.13)


class TestConstructorsAndDescriptors:
    def test_space_form_signature_guard(self):
        with pytest.raises(UnsupportedSignature):
            space_form(4, 1.0, index=2)

    def test_product_requires_riemannian(self):
        with pytest.raises(UnsupportedSignature):
            product_chart(space_form(2, 1.0, index=1), flat_chart(2))

    def test_descriptor_roundtrip(self):
        for chart in (
            space_form(4, 1.0),
            product_chart(space_form(2, 1.0), space_form(2, 1.0)),
            registry_chart("bumpy_e3"),
        ):
            rebuilt = chart_from_descriptor(chart.descriptor)
            x = np.zeros(chart.dim) + 0.05
            assert_allclose(metric_value(rebuilt, x), metric_value(chart, x), atol=1e-15)

    def test_metric_symmetry_and_signature(self):
        rng = np.random.default_rng(11)
        for chart, idx in [(space_form(4, 1.0), 0), (space_form(3, 1.0, 1), 1), (space_form(3, -1.0), 0)]:
            for _ in range(4):
                x = rng.uniform(-0.2, 0.2, size=chart.dim)
                g = metric_value(chart, x)
                assert np.max(np.abs(g - g.T)) < 1e-14
                assert int(np.sum(np.linalg.eigvalsh(g) < 0)) == idx


def _unit(chart, x, v):
    v = np.asarray(v, dtype=float)
    g = metric_value(chart, x)
    return v / math.sqrt(abs(v @ g @ v))


def test_orthonormal_frame_with_prescribed_direction():
    chart = space_form(3, 1.0)
    x = np.array([0.2, 0.1, -0.3])
    g = metric_value(chart, x)
    e0 = _unit(chart, x, [0.3, -1.0, 0.5])
    frame = orthonormal_frame(g, e0)
    gram = frame @ g @ frame.T
    assert_allclose(gram, np.eye(3), atol=1e-12)
    assert_allclose(frame[0], e0)


def test_taylor_derivatives_match_fd_on_all_model_charts():
    # first and second metric derivatives vs central differences, 5 random
    # points per model chart
    from jet_oracles import metric_obj

    from secondform.jets import seed_jets

    rng = np.random.default_rng(123)
    charts = [
        space_form(3, 1.0),
        space_form(3, -1.0),
        space_form(3, 1.0, index=1),
        product_chart(space_form(2, 1.0), flat_chart(2)),
        registry_chart("bumpy_e3"),
    ]
    for chart in charts:
        for _ in range(5):
            x = rng.uniform(-0.25, 0.25, size=chart.dim)
            jets = seed_jets(x, chart.dim, 2)
            g = metric_obj(chart, jets)
            h = 1e-4
            for i in range(chart.dim):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                gp, gm = metric_value(chart, xp), metric_value(chart, xm)
                fd1 = (gp - gm) / (2 * h)
                fd2 = (gp - 2 * metric_value(chart, x) + gm) / h**2
                alpha1 = tuple(1 if k == i else 0 for k in range(chart.dim))
                alpha2 = tuple(2 if k == i else 0 for k in range(chart.dim))
                for a in range(chart.dim):
                    for b in range(chart.dim):
                        assert abs(g[a, b].deriv(alpha1) - fd1[a, b]) < 1e-6 * (1 + abs(fd1[a, b]))
                        assert abs(g[a, b].deriv(alpha2) - fd2[a, b]) < 1e-4 * (1 + abs(fd2[a, b]))


def test_triple_product_chart():
    s2 = space_form(2, 1.0)
    chart = product_chart(product_chart(s2, s2), s2)
    assert chart.dim == 6
    assert len(chart.product_factors) == 3
    jet = curvature_jet(chart, 0.03 * np.ones(6), order=0)
    assert_allclose(jet.scalar, 6.0, atol=1e-9)


def test_hyperbolic_geodesic_closed_form():
    chart = space_form(3, -1.0)
    v = np.array([0.0, 1.0, 0.0])
    r = 0.8
    end = geodesic(chart, np.zeros(3), v, r, n_steps=256)
    assert_allclose(end, 2 * np.tanh(r / 2) * v, atol=1e-10)


def test_geodesic_default_arguments_with_halving_check():
    chart = space_form(3, 1.0)
    v = np.array([0.6, -0.8, 0.0])  # unit at the origin
    end = geodesic(chart, np.zeros(3), v, 0.5)  # default 1024 steps + halving
    assert_allclose(end, 2 * math.tan(0.25) * v, atol=1e-10)


# ---------------------------------------------------------------------------
# exp_map on one coefficient array against the list-of-jets RK4
# ---------------------------------------------------------------------------


def list_rk4_oracle(chart, x0_jets, w_jets, n_steps):
    """The RK4 exp_map ran before it moved to coefficient arrays: lists of d
    separate jets, with the acceleration −Γ^k_ab v^a v^b summed over a ≤ b
    entry by entry from the Christoffel symbols at the jet positions."""
    from jet_oracles import christoffel_on_jets_oracle

    d = chart.dim

    def rhs(x, v):
        gamma = christoffel_on_jets_oracle(chart, x)
        acc = []
        for k in range(d):
            total = None
            for a in range(d):
                for b in range(a, d):
                    term = gamma[k, a, b] * v[a] * v[b]
                    if a != b:
                        term = term * 2.0
                    total = term if total is None else total + term
            acc.append(-total)
        return acc

    x, v = list(x0_jets), list(w_jets)
    h = 1.0 / n_steps
    for _ in range(n_steps):
        k1x, k1v = v, rhs(x, v)
        x2 = [x[i] + k1x[i] * (h / 2) for i in range(d)]
        v2 = [v[i] + k1v[i] * (h / 2) for i in range(d)]
        k2x, k2v = v2, rhs(x2, v2)
        x3 = [x[i] + k2x[i] * (h / 2) for i in range(d)]
        v3 = [v[i] + k2v[i] * (h / 2) for i in range(d)]
        k3x, k3v = v3, rhs(x3, v3)
        x4 = [x[i] + k3x[i] * h for i in range(d)]
        v4 = [v[i] + k3v[i] * h for i in range(d)]
        k4x, k4v = v4, rhs(x4, v4)
        x = [x[i] + (k1x[i] + (k2x[i] + k3x[i]) * 2.0 + k4x[i]) * (h / 6) for i in range(d)]
        v = [v[i] + (k1v[i] + (k2v[i] + k3v[i]) * 2.0 + k4v[i]) * (h / 6) for i in range(d)]
    return x, v


def _exp_inputs(dim, order, batch, x0_batched=True, w_order=None):
    """Position and velocity jets over two parameters, as a sphere map makes them."""
    from secondform.jets import Jet, jet_space, seed_jets

    rng = np.random.default_rng(11)
    u = seed_jets(rng.uniform(-0.3, 0.3, size=batch + (2,)), 2, order)
    base = rng.uniform(-0.15, 0.15, size=dim)
    direction = rng.normal(size=dim)
    direction *= 0.4 / np.linalg.norm(direction)
    if x0_batched:
        x0 = [u[a % 2] * (0.05 * (a + 1)) + base[a] for a in range(dim)]
    else:
        x0 = [Jet.constant(jet_space(2, order), base[a]) for a in range(dim)]
    w = [(u[0] * u[1] * 0.1 + u[a % 2] * 0.2 + 1.0) * direction[a] for a in range(dim)]
    if w_order is not None:
        w = [j.truncate(w_order) for j in w]
    return x0, w


def _rk4(chart):
    """The chart without its closed-form geodesic flow: exp_map runs RK4 on it."""
    import dataclasses

    return dataclasses.replace(chart, geodesic_flow=None)


def _no_rhs(chart, closed_gamma=True):
    import dataclasses

    if closed_gamma:
        return dataclasses.replace(chart, geodesic_rhs=None, geodesic_flow=None)
    return dataclasses.replace(chart, geodesic_rhs=None, christoffel_jets_fn=None, geodesic_flow=None)


EXP_CHARTS = {
    "s3": lambda: space_form(3, 1.0),
    "h3": lambda: space_form(3, -1.0),
    "de_sitter": lambda: space_form(3, 0.5, index=1),
    "bumpy_e3": lambda: registry_chart("bumpy_e3"),
    "s2xs2": lambda: product_chart(space_form(2, 1.0), space_form(2, 1.0)),
    "no_rhs": lambda: _no_rhs(space_form(4, 1.0)),
}


def _assert_exp_matches_oracle(chart, x0, w, n_steps, rel=1e-13):
    from secondform.ambient import exp_map

    xs, vs = exp_map(chart, x0, w, n_steps=n_steps)
    ox, ov = list_rk4_oracle(chart, x0, w, n_steps)
    for got, want in ((xs, ox), (vs, ov)):
        for g_jet, o_jet in zip(got, want):
            assert g_jet.space is o_jet.space
            o = np.broadcast_to(o_jet.coeffs, g_jet.coeffs.shape)
            scale = np.max(np.abs(o))
            assert np.max(np.abs(g_jet.coeffs - o)) <= rel * scale


class TestExpMapArrays:
    @pytest.mark.parametrize("name", sorted(EXP_CHARTS))
    @pytest.mark.parametrize("order", [0, 2, 4])
    @pytest.mark.parametrize("batch", [(), (72,)])
    def test_matches_list_oracle(self, name, order, batch):
        chart = _rk4(EXP_CHARTS[name]())
        x0, w = _exp_inputs(chart.dim, order, batch)
        _assert_exp_matches_oracle(chart, x0, w, n_steps=8)

    @pytest.mark.parametrize("name", ["s3", "bumpy_e3", "s2xs2"])
    def test_unbatched_start_against_batched_velocity(self, name):
        chart = _rk4(EXP_CHARTS[name]())
        x0, w = _exp_inputs(chart.dim, 4, (72,), x0_batched=False)
        assert x0[0].batch_shape == () and w[0].batch_shape == (72,)
        _assert_exp_matches_oracle(chart, x0, w, n_steps=8)

    def test_mixed_input_orders_combine_at_the_lower(self):
        # as in normal_deform: x at order k+1, w at order k
        chart = registry_chart("bumpy_e3")
        x0, w = _exp_inputs(3, 4, (5,), w_order=3)
        from secondform.ambient import exp_map

        xs, vs = exp_map(chart, x0, w, n_steps=8)
        assert all(j.space.order == 3 for j in xs + vs)
        _assert_exp_matches_oracle(chart, x0, w, n_steps=8)

    def test_metric_derived_christoffel_path(self):
        chart = _no_rhs(registry_chart("bumpy_e3"), closed_gamma=False)
        x0, w = _exp_inputs(3, 2, (4,))
        _assert_exp_matches_oracle(chart, x0, w, n_steps=4)

    def test_left_domain_on_batched_jets(self):
        from secondform.ambient import exp_map

        chart = space_form(3, -1.0)
        x0, w = _exp_inputs(3, 2, (6,))
        with pytest.raises(LeftDomain):
            exp_map(chart, x0, [j * 10.0 for j in w], n_steps=32)

    def test_batch_72_makes_few_jet_multiplies(self, monkeypatch):
        # the list-of-jets RK4 made about 40 jet products per stage, 4 stages per step
        from secondform.ambient import exp_map
        from secondform.jets import Jet

        chart = space_form(4, 1.0)
        x0, w = _exp_inputs(4, 4, (72,), x0_batched=False)
        calls = [0]
        original = Jet.__mul__

        def counting(a, b):
            calls[0] += 1
            return original(a, b)

        monkeypatch.setattr(Jet, "__mul__", counting)
        monkeypatch.setattr(Jet, "__rmul__", counting)
        exp_map(chart, x0, w, n_steps=32)
        assert calls[0] < 100


# ---------------------------------------------------------------------------
# exp_map stops: one path read off at several fractions of t
# ---------------------------------------------------------------------------


def fixed_step_rk4_oracle(chart, x0_jets, w_jets, n_steps):
    """exp_map as it was before it took stops: the fixed-step RK4 loop on
    stacked coefficient arrays, endpoint only."""
    import functools

    from secondform.ambient import _christoffel_rhs, _stack_list
    from secondform.jets import Jet

    d = chart.dim
    space, xv = _stack_list(list(x0_jets) + list(w_jets))
    x, v = xv[:, :d], xv[:, d:]
    rhs = chart.geodesic_rhs or functools.partial(_christoffel_rhs, chart)
    h = 1.0 / n_steps
    for _ in range(n_steps):
        k1 = rhs(space, x, v)
        x2, v2 = x + v * (h / 2), v + k1 * (h / 2)
        k2 = rhs(space, x2, v2)
        x3, v3 = x + v2 * (h / 2), v + k2 * (h / 2)
        k3 = rhs(space, x3, v3)
        x4, v4 = x + v3 * h, v + k3 * h
        k4 = rhs(space, x4, v4)
        x = x + (v + (v2 + v3) * 2.0 + v4) * (h / 6)
        v = v + (k1 + (k2 + k3) * 2.0 + k4) * (h / 6)
    return [Jet(space, x[:, a]) for a in range(d)], [Jet(space, v[:, a]) for a in range(d)]


STOP_CHARTS = ("s3", "bumpy_e3", "no_rhs")


def _coeffs(jets):
    return np.stack([j.coeffs for j in jets])


class TestExpMapStops:
    @pytest.mark.parametrize("name", STOP_CHARTS)
    @pytest.mark.parametrize("batch", [(), (72,)])
    def test_endpoint_stop_is_the_fixed_step_endpoint(self, name, batch):
        from secondform.ambient import exp_map

        chart = _rk4(EXP_CHARTS[name]())
        x0, w = _exp_inputs(chart.dim, 4, batch)
        ox, ov = fixed_step_rk4_oracle(chart, x0, w, 40)
        [(sx, sv)] = exp_map(chart, x0, w, n_steps=40, stops=(1.0,))
        dx, dv = exp_map(chart, x0, w, n_steps=40)
        for got in ((sx, sv), (dx, dv)):
            assert np.array_equal(_coeffs(got[0]), _coeffs(ox))
            assert np.array_equal(_coeffs(got[1]), _coeffs(ov))

    @pytest.mark.parametrize("name", STOP_CHARTS)
    def test_stops_agree_with_separate_integrations(self, name):
        # stops at 0.3 and 0.55 fall inside steps of 1/8, 0.75 on a node; each
        # agrees with exp_map(x0, t·w) to within the two halving estimates,
        # and those estimates are at RK4's level (a stop reached by a wrong
        # step converges to the wrong point, with a large estimate)
        from secondform.ambient import exp_map

        chart = EXP_CHARTS[name]()
        x0, w = _exp_inputs(chart.dim, 2, (5,))
        stops = (0.3, 0.55, 0.75, 1.0)
        coarse = exp_map(chart, x0, w, n_steps=8, stops=stops)
        fine = exp_map(chart, x0, w, n_steps=16, stops=stops)
        # the path does not depend on the stops
        for (x, v), (x3, v3) in zip(coarse, exp_map(chart, x0, w, n_steps=8, stops=stops[:3])):
            assert np.array_equal(_coeffs(x), _coeffs(x3))
            assert np.array_equal(_coeffs(v), _coeffs(v3))
        for t, stop, stop2 in zip(stops, coarse, fine):
            # exp(t·w) ends with velocity t·γ'(t), so its velocity is divided by t
            alone = [(_coeffs(x), _coeffs(v) / t) for x, v in
                     (exp_map(chart, x0, [j * t for j in w], n_steps=k) for k in (8, 16))]
            for i in (0, 1):
                got, got2 = _coeffs(stop[i]), _coeffs(stop2[i])
                est = np.abs(got - got2) + np.abs(alone[0][i] - alone[1][i])
                gap = np.abs(got - alone[0][i])
                assert np.all(gap <= 2.0 * est + 1e-14 * np.max(np.abs(got)))
                assert np.max(est) <= 1e-6 * np.max(np.abs(got))
                assert np.max(gap) > 0.0 or t == 1.0  # the paths differ before the end

    def test_stop_outside_the_domain_raises(self):
        # along e0 from the origin of S³ the chart coordinate is 2 tan(t·0.2):
        # 0.30 at the last node before t = 0.9 and 0.36 at the stop
        import dataclasses

        from secondform.ambient import exp_map
        from secondform.jets import Jet, jet_space

        chart = dataclasses.replace(space_form(3, 1.0), domain_hi=np.array([0.33, 5.0, 5.0]))
        sp = jet_space(1, 0)
        x0 = [Jet.constant(sp, 0.0) for _ in range(3)]
        w = [Jet.constant(sp, c) for c in (0.4, 0.0, 0.0)]
        exp_map(chart, x0, w, n_steps=4, stops=(0.5, 0.75))
        with pytest.raises(LeftDomain):
            exp_map(chart, x0, w, n_steps=4, stops=(0.5, 0.9))

    @pytest.mark.parametrize("stops", [(), (0.0, 1.0), (0.5, 1.2), (0.8, 0.4)])
    def test_stops_must_be_sorted_fractions(self, stops):
        from secondform.ambient import exp_map

        x0, w = _exp_inputs(3, 0, ())
        with pytest.raises(ValueError):
            exp_map(space_form(3, 1.0), x0, w, n_steps=4, stops=stops)


# ---------------------------------------------------------------------------
# the closed-form geodesic flow of space forms and their products against RK4
# ---------------------------------------------------------------------------


FLOW_CHARTS = {
    "s3": lambda: space_form(3, 1.0),
    "e3": lambda: space_form(3, 0.0),
    "h3": lambda: space_form(3, -1.0),
    "de_sitter": lambda: space_form(3, 0.5, index=1),
    "minkowski": lambda: space_form(3, 0.0, index=1),
    "anti_de_sitter": lambda: space_form(3, -0.5, index=1),
    "s2xs2": lambda: product_chart(space_form(2, 1.0), space_form(2, 1.0)),
}


def _jets(values):
    from secondform.jets import Jet, jet_space

    return [Jet.constant(jet_space(1, 0), c) for c in values]


class TestGeodesicFlow:
    @pytest.mark.parametrize("name", sorted(FLOW_CHARTS))
    @pytest.mark.parametrize("batch", [(), (72,)])
    def test_matches_rk4_at_512_steps(self, name, batch):
        # one RK4 path at order 4 is the reference for orders 0, 2 and 4: a
        # lower order's coefficients are a prefix of a higher order's
        from secondform.ambient import exp_map
        from secondform.jets import Jet

        chart = FLOW_CHARTS[name]()
        assert chart.geodesic_flow is not None
        x0, w = _exp_inputs(chart.dim, 4, batch)
        if batch:  # a vanishing velocity at every 9th point
            still = np.arange(batch[0]) % 9 == 0
            w = [Jet(j.space, np.where(still, 0.0, j.coeffs)) for j in w]
        stops = (0.3, 0.55, 1.0)
        ref = exp_map(_rk4(chart), x0, w, n_steps=512, stops=stops)
        for order in (0, 2, 4):
            got = exp_map(chart, [j.truncate(order) for j in x0], [j.truncate(order) for j in w],
                          n_steps=512, stops=stops)
            for pair, ref_pair in zip(got, ref):
                for jets, ref_jets in zip(pair, ref_pair):
                    g = _coeffs(jets)
                    r = _coeffs(ref_jets)[:, : g.shape[1]]
                    assert np.max(np.abs(g - r)) <= 1e-12 * np.max(np.abs(r))

    def test_only_charts_with_a_closed_form_have_a_flow(self):
        assert flat_chart(1).geodesic_flow is not None
        assert product_chart(flat_chart(1), space_form(2, -1.0)).geodesic_flow is not None
        assert registry_chart("bumpy_e3").geodesic_flow is None
        assert product_chart(space_form(2, 1.0), registry_chart("bumpy_e3")).geodesic_flow is None

    def test_long_geodesic_falls_back_to_rk4(self):
        # the great circle |x| = 2 of S³ stays in the chart; 11 rad along it
        # is q = 121 > FLOW_MAX_S, so exp_map integrates by RK4
        from secondform.ambient import FLOW_MAX_S, exp_map

        chart = space_form(3, 1.0)
        x0, w = _jets([2.0, 0.0, 0.0]), _jets([0.0, 22.0, 0.0])  # F = 1/2, |w|_ḡ = 11
        assert 11.0**2 > FLOW_MAX_S
        got, want = exp_map(chart, x0, w, n_steps=1024), exp_map(_rk4(chart), x0, w, n_steps=1024)
        for a, b in zip(got, want):
            assert np.array_equal(_coeffs(a), _coeffs(b))
        assert_allclose(_coeffs(got[0])[:, 0], [2 * math.cos(11.0), 2 * math.sin(11.0), 0.0], atol=1e-7)

    def test_through_the_point_at_infinity_leaves_the_domain(self):
        # from the origin of S³ along e0 the chart coordinate is 2 tan(θ/2):
        # 12.6 > 9.46 (the box) at the check node t = 0.75 of 1.2π rad, and
        # the antipode itself (1 + z = 0) at a stop of π rad
        from secondform.ambient import exp_map

        chart = space_form(3, 1.0)
        x0 = _jets([0.0, 0.0, 0.0])
        for c in (chart, _rk4(chart)):
            with pytest.raises(LeftDomain):
                exp_map(c, x0, _jets([1.2 * math.pi, 0.0, 0.0]), n_steps=256)
        with pytest.raises(LeftDomain):
            exp_map(chart, x0, _jets([math.pi, 0.0, 0.0]), n_steps=4)
