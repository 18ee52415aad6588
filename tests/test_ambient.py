"""Ambient charts: Christoffel symbols, curvature jets, geodesics.

The space-form identity R_{ijkl} = C̄(g_ik g_jl − g_il g_jk) and the
product-metric block structure serve as independent oracles for the whole
curvature stack; Christoffel symbols get a central-difference oracle.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from secondform.ambient import (
    chart_from_descriptor,
    christoffel,
    christoffel_on_jets,
    christoffel_u_on_jets,
    curvature_jet,
    exp_map,
    flat_chart,
    geodesic_rhs,
    metric_value,
    orthonormal_frame,
    product_chart,
    registry_chart,
    space_form,
)
from secondform.errors import (
    LeftDomain,
    OutOfDomain,
    UnsupportedSignature,
)
from secondform.jets import jet_space

SP0 = jet_space(1, 0)  # the jet space of plain points and vectors


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
            closed = christoffel_on_jets(chart, space, xc)[0]
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


def _exp_point(chart, n, v, r, n_steps=256):
    """exp_n(r·v): the endpoint of ``exp_map`` from the point n with the
    velocity r·v, on plain points."""
    return exp_map(chart, SP0, _point(n), _point(r * np.asarray(v)), n_steps=n_steps)[0][0]


class TestGeodesic:
    def test_euclidean_straight_line(self):
        chart = flat_chart(4)
        end = _exp_point(chart, np.zeros(4), np.array([1.0, 0, 0, 0]), 0.7)
        assert_allclose(end, [0.7, 0, 0, 0], atol=1e-15)

    def test_zero_arclength_returns_start(self):
        chart = space_form(3, 1.0)
        n = np.array([0.1, 0.2, 0.0])
        assert_allclose(_exp_point(chart, n, _unit(chart, n, [1.0, 0, 0]), 0.0), n)

    def test_great_circle_oracle_unit_s3(self):
        chart = space_form(3, 1.0)
        rng = np.random.default_rng(5)
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)  # metric at origin is identity
        r = 0.5
        end = _exp_point(chart, np.zeros(3), v, r)
        assert_allclose(end, 2 * math.tan(r / 2) * v, atol=1e-10)

    def test_flow_property(self):
        chart = space_form(3, 1.0)
        n = np.array([0.2, -0.1, 0.05])
        v = _unit(chart, n, [0.3, 1.0, -0.2])
        r1, r2 = 0.3, 0.45
        direct = _exp_point(chart, n, v, r1 + r2, n_steps=512)
        # restart: velocity at the midpoint via the integrator
        xs, vs = exp_map(chart, SP0, _point(n), _point(r1 * v), n_steps=512)
        restarted = _exp_point(chart, xs[0], vs[0] / r1, r2, n_steps=512)
        assert_allclose(direct, restarted, atol=1e-7)

    def test_leaves_domain(self):
        chart = space_form(2, 1.0)
        with pytest.raises(LeftDomain):
            _exp_point(chart, np.zeros(2), np.array([1.0, 0.0]), 3.13, n_steps=1024)


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
    end = _exp_point(chart, np.zeros(3), v, r)
    assert_allclose(end, 2 * np.tanh(r / 2) * v, atol=1e-10)


def test_exp_map_default_arguments():
    chart = space_form(3, 1.0)
    v = np.array([0.6, -0.8, 0.0])  # unit at the origin
    end = exp_map(chart, SP0, _point(np.zeros(3)), _point(0.5 * v))[0][0]
    assert_allclose(end, 2 * math.tan(0.25) * v, atol=1e-10)


# ---------------------------------------------------------------------------
# exp_map against the fixed-step RK4 oracle, and that against the list-of-jets RK4
# ---------------------------------------------------------------------------


def list_rk4_oracle(chart, x0_jets, w_jets, n_steps):
    """The RK4 exp_map ran before it moved to coefficient arrays: lists of d
    separate jets, with the acceleration −Γ^k_ab v^a v^b summed over a ≤ b
    entry by entry from the Christoffel symbols at the jet positions (the
    package's d³ Γ, not the contracted form that the RK4 oracle integrates)."""
    from jet_oracles import views

    from secondform.ambient import _stack_list

    d = chart.dim

    def rhs(x, v):
        space, xc = _stack_list(x)
        gamma = views(space, christoffel_on_jets(chart, space, xc), 3)
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


def _arrays(x0_jets, w_jets):
    """(space, x0, w) as exp_map takes them, from lists of jets: stacked at
    their lower order and broadcast batch, as jet arithmetic combines them."""
    from secondform.ambient import _stack_list

    space, xv = _stack_list(list(x0_jets) + list(w_jets))
    return space, xv[:, : len(x0_jets)], xv[:, len(x0_jets) :]


def _no_flow(chart):
    """The chart without its closed-form geodesic flow: exp_map runs its
    Chebyshev–Picard sweeps on it."""
    return dataclasses.replace(chart, geodesic_flow=None)


EXP_CHARTS = {
    "s3": lambda: space_form(3, 1.0),
    "h3": lambda: space_form(3, -1.0),
    "de_sitter": lambda: space_form(3, 0.5, index=1),
    "bumpy_e3": lambda: registry_chart("bumpy_e3"),
    "s2xs2": lambda: product_chart(space_form(2, 1.0), space_form(2, 1.0)),
    "e3": lambda: flat_chart(3),
    "minkowski": lambda: flat_chart(3, index=1),
}


def _count_products(monkeypatch):
    """Live counts of the `_cauchy` calls (jet products) made through `jets`
    (the Jet operators and lifts) and through `ambient`."""
    from secondform import ambient, jets

    calls = {"jets": 0, "ambient": 0}
    original = jets._cauchy
    for name, module in (("jets", jets), ("ambient", ambient)):
        def counting(*args, name=name):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, "_cauchy", counting)
    return calls


def _assert_rk4_matches_list_oracle(chart, x0, w, n_steps, rel=1e-13):
    from jet_oracles import rk4_exp_oracle

    space, x0_arr, w_arr = _arrays(x0, w)
    xs, vs = rk4_exp_oracle(chart, space, x0_arr, w_arr, n_steps)
    ox, ov = list_rk4_oracle(chart, x0, w, n_steps)
    for got, want in ((xs, ox), (vs, ov)):
        for a, o_jet in enumerate(want):
            assert o_jet.space is space
            o = np.broadcast_to(o_jet.coeffs, got[:, a].shape)
            scale = np.max(np.abs(o))
            assert np.max(np.abs(got[:, a] - o)) <= rel * scale


def _assert_close(got, want, rel):
    """Each of (x, v) of `got` within rel·max|want| of `want`'s, on `got`'s
    monomials (a lower order's coefficients are a prefix of a higher's)."""
    for g, r in zip(got, want):
        r = r[: g.shape[0]]
        assert g.shape == r.shape
        assert np.max(np.abs(g - r)) <= rel * np.max(np.abs(r))


STOPS = (0.3, 0.55, 1.0)


def _stops_inputs(dim, batch, x0_batched=True):
    """(space, x0, w) of `_exp_inputs` at order 4, with a vanishing velocity
    at every 9th point of a batch."""
    from secondform.jets import Jet

    x0, w = _exp_inputs(dim, 4, batch, x0_batched)
    if batch:
        still = np.arange(batch[0]) % 9 == 0
        w = [Jet(j.space, np.where(still, 0.0, j.coeffs)) for j in w]
    return _arrays(x0, w)


@functools.lru_cache(maxsize=None)
def _rk4_512(name, batch, x0_batched=True):
    """RK4 at 512 steps, at STOPS, on `_stops_inputs`: one path at order 4
    is the reference for orders 0, 2 and 4, since a lower order's
    coefficients are a prefix of a higher order's."""
    from jet_oracles import rk4_exp_oracle

    chart = {**FLOW_CHARTS, **EXP_CHARTS}[name]()
    return rk4_exp_oracle(chart, *_stops_inputs(chart.dim, batch, x0_batched), 512, STOPS)


def _reference_path(name, batch, x0_batched=True):
    """The path the sweeps are held to, at STOPS on `_stops_inputs` and
    order 4: the chart's closed-form flow where it has one (itself held to
    `_rk4_512` by ``TestGeodesicFlow``), else `_rk4_512`."""
    chart = {**FLOW_CHARTS, **EXP_CHARTS}[name]()
    if chart.geodesic_flow is None:
        return _rk4_512(name, batch, x0_batched)
    ends = chart.geodesic_flow(*_stops_inputs(chart.dim, batch, x0_batched), STOPS)
    assert ends is not None  # the flow did not decline
    return list(zip(*ends))


def _assert_matches(chart, ref, batch, x0_batched=True):
    """exp_map on `chart`, by its flow or its sweeps, at orders 0, 2 and 4,
    within 1e-12 relative of the path `ref` at every stop."""
    space, x0, w = _stops_inputs(chart.dim, batch, x0_batched)
    for order in (0, 2, 4):
        got = exp_map(chart, jet_space(2, order), x0, w, stops=STOPS)
        for pair, r in zip(got, ref):
            _assert_close(pair, r, 1e-12)


class TestExpMapArrays:
    @pytest.mark.parametrize("name", sorted(EXP_CHARTS))
    @pytest.mark.parametrize("order", [0, 2, 4])
    @pytest.mark.parametrize("batch", [(), (72,)])
    def test_matches_list_oracle(self, name, order, batch):
        chart = EXP_CHARTS[name]()
        x0, w = _exp_inputs(chart.dim, order, batch)
        _assert_rk4_matches_list_oracle(chart, x0, w, n_steps=8)

    @pytest.mark.parametrize("name", sorted(EXP_CHARTS))
    @pytest.mark.parametrize("batch", [(), (72,)])
    def test_sweeps_match_the_flow_or_rk4_at_512_steps(self, name, batch):
        _assert_matches(_no_flow(EXP_CHARTS[name]()), _reference_path(name, batch), batch)

    @pytest.mark.parametrize("name", ["s3", "bumpy_e3", "s2xs2"])
    def test_unbatched_start_against_batched_velocity(self, name):
        chart = EXP_CHARTS[name]()
        x0, w = _exp_inputs(chart.dim, 4, (72,), x0_batched=False)
        assert x0[0].batch_shape == () and w[0].batch_shape == (72,)
        _assert_rk4_matches_list_oracle(chart, x0, w, n_steps=8)
        _assert_matches(_no_flow(chart), _reference_path(name, (72,), False), (72,), x0_batched=False)

    def test_mixed_input_orders_combine_at_the_lower(self):
        # as in ladder_oracle.deformed_family: x at order k+1, w at order k
        from jet_oracles import rk4_exp_oracle

        from secondform.ambient import _stack_list

        chart = registry_chart("bumpy_e3")
        x0, w = _exp_inputs(3, 4, (5,), w_order=3)
        (x_space, x), (space, w_arr) = _stack_list(x0), _stack_list(w)
        assert x_space.order == 4 and space.order == 3
        xs, vs = exp_map(chart, space, x, w_arr, n_steps=8)
        assert xs.shape == vs.shape == (space.n, 3, 5)
        assert np.array_equal(xs, exp_map(chart, *_arrays(x0, w), n_steps=8)[0])
        _assert_rk4_matches_list_oracle(chart, x0, w, n_steps=8)
        _assert_close((xs, vs), rk4_exp_oracle(chart, space, x, w_arr, 512), 1e-12)

    def test_metric_derived_christoffel_path(self):
        # the σ form of Γ̄ on bumpy_e3 against the metric-derived Γ̄ composed
        # along the patch, on coefficient arrays and entry by entry
        from jet_oracles import christoffel_along, christoffel_on_jets_oracle, coeffs

        from secondform.ambient import _stack_list

        chart = registry_chart("bumpy_e3")
        x0, _ = _exp_inputs(3, 2, (4,))
        want = coeffs(christoffel_on_jets_oracle(chart, x0))
        for got in (christoffel_on_jets(chart, *_stack_list(x0)), christoffel_along(chart, *_stack_list(x0))):
            assert_allclose(got, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))

    def test_left_domain_on_batched_jets(self):
        chart = space_form(3, -1.0)
        space, x0, w = _arrays(*_exp_inputs(3, 2, (6,)))
        for c in (chart, _no_flow(chart)):
            with pytest.raises(LeftDomain):
                exp_map(c, space, x0, w * 10.0, n_steps=32)

    def test_batch_72_makes_few_jet_multiplies(self, monkeypatch):
        # the sweeps on S⁴ at order 4: one segment of 9 sweeps, each one
        # right-hand side at all 13 nodes of 9 jet products, 5 for F and its
        # gradient (3 of them in the reciprocal's lift), 2 for σ′·v and
        # ⟨v,v⟩_ε and 2 for the scalings; RK4 at 32 steps took 128
        chart = _no_flow(space_form(4, 1.0))
        args = _arrays(*_exp_inputs(4, 4, (72,), x0_batched=False))
        calls = _count_products(monkeypatch)
        exp_map(chart, *args, n_steps=32)
        assert calls == {"jets": 3 * 9, "ambient": 6 * 9}


class TestConformalChartProducts:
    """Jet products of the conformal charts' closed forms at 2 parameters and
    order 4: none where C̄ = 0 makes the conformal factor 1."""

    @pytest.mark.parametrize("name, most", [("bumpy_e3", 9), ("s3", 9), ("e3", 0), ("minkowski", 0)])
    @pytest.mark.parametrize("batch", [(), (5,)])
    def test_right_hand_side(self, monkeypatch, name, most, batch):
        chart = EXP_CHARTS[name]()
        space, x, v = _arrays(*_exp_inputs(3, 4, batch))
        calls = _count_products(monkeypatch)
        acc = geodesic_rhs(chart, space, x, v)
        assert sum(calls.values()) <= most
        assert acc.shape == (space.n, 3) + batch

    @pytest.mark.parametrize("index", [0, 1])
    def test_flat_metric_and_christoffel_take_no_product(self, monkeypatch, index):
        chart = flat_chart(3, index=index)
        space, x, _ = _arrays(*_exp_inputs(3, 4, (5,)))
        calls = _count_products(monkeypatch)
        g, gamma = chart.metric_fn(space, x), christoffel_on_jets(chart, space, x)
        assert calls == {"jets": 0, "ambient": 0}
        eps = np.diag([-1.0] * index + [1.0] * (3 - index))
        assert g.shape == (space.n, 3, 3, 5) and np.array_equal(g[0], np.repeat(eps[..., None], 5, -1))
        assert not np.any(g[1:])
        assert gamma.shape == (space.n, 3, 3, 3, 5) and not np.any(gamma)

    def test_bumpy_metric_squares_the_factor_once(self, monkeypatch):
        # e^σ_bump: |x|², its exp lift (3), the lift of e^σ_bump (3) and one
        # product E·E; no F, whose C̄ is 0, and no gradient
        chart = registry_chart("bumpy_e3")
        space, x, _ = _arrays(*_exp_inputs(3, 4, (5,)))
        calls = _count_products(monkeypatch)
        chart.metric_fn(space, x)
        assert sum(calls.values()) <= 8

    @pytest.mark.parametrize(
        "name", ["s3", "e3", "h3", "de_sitter", "minkowski", "anti_de_sitter", "bumpy_e3"]
    )
    def test_right_hand_side_matches_metric_derived_christoffel(self, name):
        from jet_oracles import geodesic_rhs_along

        chart = {**FLOW_CHARTS, **EXP_CHARTS}[name]()
        space, x, v = _arrays(*_exp_inputs(3, 4, (72,)))
        got = geodesic_rhs(chart, space, x, v)
        want = geodesic_rhs_along(chart, space, x, v)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_derived_forms_on_a_product_with_an_offset_block(order):
    # a σ ≡ 0 block before a bumped one: each block's Γ̄, Γ̄·u and right-hand
    # side land at its own slice, as the metric-derived ones do
    from jet_oracles import christoffel_along, christoffel_u_along, geodesic_rhs_along

    chart = product_chart(flat_chart(1), registry_chart("bumpy_e3"))
    space = jet_space(2, order)
    rng = np.random.default_rng(order)
    x = rng.uniform(-0.3, 0.3, (space.n, 4, 9))
    u, v = rng.normal(size=(2, space.n, 4, 9))
    for fn, oracle, args in ((christoffel_on_jets, christoffel_along, ()),
                             (christoffel_u_on_jets, christoffel_u_along, (u,)),
                             (geodesic_rhs, geodesic_rhs_along, (v,))):
        got, want = fn(chart, space, x, *args), oracle(chart, space, x, *args)
        assert got.shape == want.shape and np.max(np.abs(want)) > 0.0
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), fn.__name__


# ---------------------------------------------------------------------------
# exp_map stops: one path read off at several fractions of t
# ---------------------------------------------------------------------------


def fixed_step_rk4_oracle(chart, space, x, v, n_steps):
    """exp_map as it was before it took stops: the fixed-step RK4 loop on
    coefficient arrays, endpoint only."""
    h = 1.0 / n_steps
    for _ in range(n_steps):
        k1 = geodesic_rhs(chart, space, x, v)
        x2, v2 = x + v * (h / 2), v + k1 * (h / 2)
        k2 = geodesic_rhs(chart, space, x2, v2)
        x3, v3 = x + v2 * (h / 2), v + k2 * (h / 2)
        k3 = geodesic_rhs(chart, space, x3, v3)
        x4, v4 = x + v3 * h, v + k3 * h
        k4 = geodesic_rhs(chart, space, x4, v4)
        x = x + (v + (v2 + v3) * 2.0 + v4) * (h / 6)
        v = v + (k1 + (k2 + k3) * 2.0 + k4) * (h / 6)
    return x, v


STOP_CHARTS = ("s3", "bumpy_e3")


class TestExpMapStops:
    @pytest.mark.parametrize("name", STOP_CHARTS)
    @pytest.mark.parametrize("batch", [(), (72,)])
    def test_endpoint_stop_is_the_fixed_step_endpoint(self, name, batch):
        # the RK4 oracle at stops=(1.0,) and without stops is the plain
        # fixed-step loop; exp_map at stops=(1.0,) is its own endpoint
        from jet_oracles import rk4_exp_oracle

        chart = _no_flow(EXP_CHARTS[name]())
        args = _arrays(*_exp_inputs(chart.dim, 4, batch))
        ox, ov = fixed_step_rk4_oracle(chart, *args, 40)
        [(sx, sv)] = rk4_exp_oracle(chart, *args, 40, stops=(1.0,))
        dx, dv = rk4_exp_oracle(chart, *args, 40)
        for got in ((sx, sv), (dx, dv)):
            assert np.array_equal(got[0], ox)
            assert np.array_equal(got[1], ov)
        [(sx, sv)] = exp_map(chart, *args, n_steps=40, stops=(1.0,))
        dx, dv = exp_map(chart, *args, n_steps=40)
        assert np.array_equal(sx, dx) and np.array_equal(sv, dv)

    @pytest.mark.parametrize("name", STOP_CHARTS)
    def test_stops_agree_with_separate_integrations(self, name):
        # RK4: stops at 0.3 and 0.55 fall inside steps of 1/8, 0.75 on a
        # node; each agrees with exp(x0, t·w) to within the two halving
        # estimates, and those estimates are at RK4's level (a stop reached by
        # a wrong step converges to the wrong point, with a large estimate)
        from jet_oracles import rk4_exp_oracle

        chart = EXP_CHARTS[name]()
        space, x0, w = _arrays(*_exp_inputs(chart.dim, 2, (5,)))
        stops = (0.3, 0.55, 0.75, 1.0)
        coarse = rk4_exp_oracle(chart, space, x0, w, 8, stops)
        fine = rk4_exp_oracle(chart, space, x0, w, 16, stops)
        # the path does not depend on the stops
        for (x, v), (x3, v3) in zip(coarse, rk4_exp_oracle(chart, space, x0, w, 8, stops[:3])):
            assert np.array_equal(x, x3)
            assert np.array_equal(v, v3)
        for t, stop, stop2 in zip(stops, coarse, fine):
            # exp(t·w) ends with velocity t·γ'(t), so its velocity is divided by t
            alone = [(x, v / t) for x, v in
                     (rk4_exp_oracle(chart, space, x0, w * t, k) for k in (8, 16))]
            for i in (0, 1):
                got, got2 = stop[i], stop2[i]
                est = np.abs(got - got2) + np.abs(alone[0][i] - alone[1][i])
                gap = np.abs(got - alone[0][i])
                assert np.all(gap <= 2.0 * est + 1e-14 * np.max(np.abs(got)))
                assert np.max(est) <= 1e-6 * np.max(np.abs(got))
                assert np.max(gap) > 0.0 or t == 1.0  # the paths differ before the end
        # exp_map, by its flow where the chart has one and by its sweeps:
        # each stop is exp_map(x0, t·w) to rounding, whatever the last stop,
        # and the stop at 1 is the plain call's endpoint
        for c in (chart,) if chart.geodesic_flow is None else (chart, _no_flow(chart)):
            for ends in (exp_map(c, space, x0, w, stops=stops), exp_map(c, space, x0, w, stops=stops[:3])):
                for t, (x, v) in zip(stops, ends):
                    xt, vt = exp_map(c, space, x0, w * t)
                    _assert_close((x, v), (xt, vt / t), 1e-13)
                    if t == 1.0:
                        assert np.array_equal(x, xt) and np.array_equal(v, vt)

    def test_stop_outside_the_domain_raises(self):
        # along e0 from the origin of S³ the chart coordinate is 2 tan(t·0.2):
        # 0.30 at the last node before t = 0.9 and 0.36 at the stop
        chart = dataclasses.replace(space_form(3, 1.0), domain_hi=np.array([0.33, 5.0, 5.0]))
        x0, w = _point([0.0, 0.0, 0.0]), _point([0.4, 0.0, 0.0])
        for c in (chart, _no_flow(chart)):
            exp_map(c, SP0, x0, w, n_steps=4, stops=(0.5, 0.75))
            with pytest.raises(LeftDomain):
                exp_map(c, SP0, x0, w, n_steps=4, stops=(0.5, 0.9))

    @pytest.mark.parametrize("stops", [(), (0.0, 1.0), (0.5, 1.2), (0.8, 0.4)])
    def test_stops_must_be_sorted_fractions(self, stops):
        args = _arrays(*_exp_inputs(3, 0, ()))
        with pytest.raises(ValueError):
            exp_map(space_form(3, 1.0), *args, n_steps=4, stops=stops)


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


def _point(values):
    """One point or vector as an order-0 coefficient array (1, dim) at SP0."""
    return np.asarray(values, dtype=float)[None]


class TestGeodesicFlow:
    @pytest.mark.parametrize("name", sorted(FLOW_CHARTS))
    @pytest.mark.parametrize("batch", [(), (72,)])
    def test_matches_rk4_at_512_steps(self, name, batch):
        chart = FLOW_CHARTS[name]()
        assert chart.geodesic_flow is not None
        _assert_matches(chart, _rk4_512(name, batch), batch)

    def test_only_charts_with_a_closed_form_have_a_flow(self):
        assert flat_chart(1).geodesic_flow is not None
        assert product_chart(flat_chart(1), space_form(2, -1.0)).geodesic_flow is not None
        assert registry_chart("bumpy_e3").geodesic_flow is None
        assert product_chart(space_form(2, 1.0), registry_chart("bumpy_e3")).geodesic_flow is None

    def test_long_geodesic_falls_back_to_the_sweeps(self):
        # the great circle |x| = 2 of S³ stays in the chart; 11 rad along it
        # is q = 121 > FLOW_MAX_S, so exp_map runs its sweeps
        from secondform.ambient import FLOW_MAX_S

        chart = space_form(3, 1.0)
        x0, w = _point([2.0, 0.0, 0.0]), _point([0.0, 22.0, 0.0])  # F = 1/2, |w|_ḡ = 11
        assert 11.0**2 > FLOW_MAX_S
        got = exp_map(chart, SP0, x0, w, n_steps=1024)
        want = exp_map(_no_flow(chart), SP0, x0, w, n_steps=1024)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        assert_allclose(got[0][0], [2 * math.cos(11.0), 2 * math.sin(11.0), 0.0], atol=1e-12)

    def test_through_the_point_at_infinity_leaves_the_domain(self):
        # from the origin of S³ along e0 the chart coordinate is 2 tan(θ/2):
        # 12.6 > 9.46 (the box) at the check node t = 0.75 of 1.2π rad, and
        # the antipode itself (1 + z = 0) at a stop of π rad
        chart = space_form(3, 1.0)
        x0 = _point([0.0, 0.0, 0.0])
        for c in (chart, _no_flow(chart)):
            with pytest.raises(LeftDomain):
                exp_map(c, SP0, x0, _point([1.2 * math.pi, 0.0, 0.0]), n_steps=256)
        with pytest.raises(LeftDomain):
            exp_map(chart, SP0, x0, _point([math.pi, 0.0, 0.0]), n_steps=4)


# ---------------------------------------------------------------------------
# the Chebyshev–Picard sweeps of charts without a flow: tables and contract
# ---------------------------------------------------------------------------


class TestPicardSweeps:
    def test_tables_integrate_and_expand_polynomials(self):
        # ∫_{−1}^τ s^k ds at the nodes, and T_k's coefficients the unit vector e_k
        from secondform.ambient import PICARD_N, _lobatto

        tau, coef, integ = _lobatto(PICARD_N)
        assert tau[0] == -1.0 and tau[-1] == 1.0 and np.all(np.diff(tau) > 0)
        for k in range(PICARD_N + 1):
            want = (tau ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
            assert np.max(np.abs(tau**k @ integ - want)) <= 1e-14
            unit = np.zeros(PICARD_N + 1)
            unit[k] = 1.0
            assert np.max(np.abs(coef @ np.cos(k * np.arccos(tau)) - unit)) <= 1e-14

    def test_segment_cap_raises_step_failure(self, monkeypatch):
        # the 11-rad great circle of S³ inside the chart needs more than 4 segments
        from secondform import ambient
        from secondform.errors import StepFailure

        chart = _no_flow(space_form(3, 1.0))
        x0, w = _point([2.0, 0.0, 0.0]), _point([0.0, 22.0, 0.0])
        monkeypatch.setattr(ambient, "PICARD_MAX_SEGMENTS", 4)
        with pytest.raises(StepFailure):
            exp_map(chart, SP0, x0, w)

    def test_a_non_finite_sweep_does_not_settle_and_warns_nothing(self, monkeypatch):
        # from the origin of H³ at speed 4 the straight first guess crosses
        # |x| = 2, where the conformal factor blows up: that sweep is not
        # finite, the path is rerun on more segments and ends at 2 tanh 2
        import warnings

        from secondform import ambient

        chart = dataclasses.replace(_no_flow(space_form(3, -1.0)), domain_lo=np.full(3, -1.99),
                                    domain_hi=np.full(3, 1.99))
        finite = []

        def recording(*args):
            acc = geodesic_rhs(*args)
            finite.append(bool(np.all(np.isfinite(acc))))
            return acc

        monkeypatch.setattr(ambient, "geodesic_rhs", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, _ = exp_map(chart, SP0, _point([0.0, 0.0, 0.0]), _point([4.0, 0.0, 0.0]))
        assert not all(finite)
        assert_allclose(x[0], [2.0 * math.tanh(2.0), 0.0, 0.0], rtol=0, atol=1e-15)

    def test_a_point_in_a_batch_is_the_point_alone(self):
        # the sweeps settle on the whole batch; each point's end is its own to rounding
        chart = registry_chart("bumpy_e3")
        space, x0, w = _arrays(*_exp_inputs(3, 4, (72,)))
        together = exp_map(chart, space, x0, w)
        for i in (0, 17, 71):
            alone = exp_map(chart, space, x0[..., i], w[..., i])
            _assert_close(alone, [end[..., i] for end in together], 1e-14)

    def test_an_empty_batch_comes_back_empty(self):
        space = jet_space(2, 2)
        x, v = exp_map(registry_chart("bumpy_e3"), space, np.zeros((space.n, 3, 0)), np.zeros((space.n, 3, 0)))
        assert x.shape == v.shape == (space.n, 3, 0)
