"""The tensor-jet layer against its entry-by-entry reference forms.

Every tensor of jets in the package is one coefficient array (n_mono,
*tensor, *batch).  `jet_oracles` keeps the object-array routes it replaced;
here the curvature chain, `compose`, the ambient curvature along a patch and
the chart functions must reproduce them to 1e-12 of each quantity's scale
(the ambient curvature to 1e-13).
"""

import dataclasses
import inspect
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from jet_oracles import (
    ambient_curvature_oracle,
    chain_oracle,
    coeffs,
    compose_oracle,
    curvature_along,
    views,
)
from secondform import ambient as amb
from secondform import jets
from secondform.hypersurface import ambient_curvature_on_jets, frame_jets, standard_immersion
from secondform.jets import Jet, compose, jet_space, seed_jets


def assert_close(got, want, name="", floor=1e-300):
    want = np.broadcast_to(want, got.shape)
    scale = max(np.max(np.abs(want)), floor)
    assert_allclose(got, want, rtol=0, atol=1e-12 * scale, err_msg=name)


def assert_chain_matches(space, g, g_obj, ginv=None, ginv_obj=None, floor=1e-300):
    got = amb._curvature_chain(space, g, ginv)
    want = chain_oracle(g_obj, ginv_obj)
    for name, new, old in zip(("ginv", "gamma", "riem", "ric", "scal"), got, want):
        if new is None:
            continue
        new = new[: jet_space(space.nvars, space.order - (1 if name in ("ginv", "gamma") else 2)).n]
        assert_close(new, coeffs(old)[: new.shape[0]], name, floor)


CHAIN_CHARTS = {
    "bumpy_e3": lambda: amb.registry_chart("bumpy_e3"),
    "s2xs2": lambda: amb.product_chart(amb.space_form(2, 1.0), amb.space_form(2, 1.0)),
    "de_sitter": lambda: amb.space_form(3, 1.0, index=1),
    "h4": lambda: amb.space_form(4, -1.0),
}


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(CHAIN_CHARTS))
def test_chain_matches_entry_oracle_at_points(name, order):
    chart = CHAIN_CHARTS[name]()
    x = np.random.default_rng(order).uniform(-0.3, 0.3, size=(3, chart.dim))
    space, g = amb._seeded(chart, x, order + 2)
    assert_chain_matches(space, g, views(space, g, 2))


@pytest.mark.parametrize("order", [4, 5, 6])
@pytest.mark.parametrize("kind", ["clifford", "perturbed_ovaloid"])
def test_chain_matches_entry_oracle_on_8192_point_grid(kind, order):
    # 64 × 128 points, every product takes the row loop.  g and II of the
    # Clifford torus are constant, so their connections and curvatures
    # vanish: there the tolerance is 1e-12 of the O(1) entries of g and II.
    # The ovaloid's colatitudes stay away from the poles, where its metric
    # degenerates like sin²θ.
    imm = standard_immersion(kind)
    s, t = np.meshgrid(np.linspace(0.5, 2.6, 64), np.linspace(0.0, 6.2, 128), indexing="ij")
    u = np.stack([s.ravel(), t.ravel()], axis=-1)
    b = frame_jets(imm, seed_jets(u, 2, order))
    sp_g, sp_ii = b.space(b.g), b.space(b.II)
    assert sp_g.order == order - 2
    floor = 1.0 if kind == "clifford" else 1e-300
    assert_chain_matches(sp_g, b.g, views(sp_g, b.g, 2), b.ginv, views(b.space(b.ginv), b.ginv, 2), floor)
    assert_chain_matches(sp_ii, b.II, views(sp_ii, b.II, 2), floor=floor)


@pytest.mark.parametrize(
    "outer_order, order, batch",
    [(3, 3, (5,)), (2, 3, ()), (4, 2, (300,)), (0, 2, (2,))],
)
def test_stacked_compose_matches_per_entry(outer_order, order, batch):
    rng = np.random.default_rng(outer_order + 10 * order)
    outer_space, space = jet_space(3, outer_order), jet_space(2, order)
    outer = rng.normal(size=(outer_space.n, 2, 3) + batch)
    u = seed_jets(rng.uniform(-0.5, 0.5, size=batch + (2,)), 2, order)
    disp = [u[0] * u[1] * 0.3 + u[0] * 0.7, u[1] * u[1] * 0.2 - u[1], u[0] * u[0] * 0.5 + u[1] * 0.1]
    disp = [d - d.value for d in disp]  # zero constant term
    got = compose(space, outer, np.stack([d.coeffs for d in disp], axis=1))
    for i, j in np.ndindex(2, 3):
        want = compose_oracle(Jet(outer_space, outer[:, i, j]), disp)
        assert_close(got[:, i, j], np.broadcast_to(want.coeffs, got[:, i, j].shape), f"{i}{j}")


def _patch(dim, order, batch=(7,)):
    """Coordinate jets of a curved 2-parameter patch in a dim-dimensional chart."""
    rng = np.random.default_rng(dim + order)
    u = seed_jets(rng.uniform(-0.3, 0.3, size=batch + (2,)), 2, order)
    base = rng.uniform(-0.2, 0.2, size=dim)
    return [u[a % 2] * (0.3 + 0.1 * a) + u[0] * u[1] * (0.05 * a) + base[a] for a in range(dim)]


# the curvature's charts: space forms of both signatures take the C̄ form,
# the rest the Schouten tensor of their blocks
CURVATURE_CHARTS = {
    "s3": lambda: amb.space_form(3, 1.0),
    "h4": CHAIN_CHARTS["h4"],
    "de_sitter": lambda: amb.space_form(4, 1.0, index=1),
    "anti_de_sitter": lambda: amb.space_form(3, -1.0, index=1),
    "minkowski": lambda: amb.flat_chart(3, index=1),
    "s2xs2": CHAIN_CHARTS["s2xs2"],
    "bumpy_e3": CHAIN_CHARTS["bumpy_e3"],
    "e1xbumpy_e3": lambda: amb.product_chart(amb.flat_chart(1), amb.registry_chart("bumpy_e3")),
}


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("name", sorted(CURVATURE_CHARTS))
def test_ambient_curvature_matches_oracle(name, order):
    # against R̄, Ric̄, S̄ derived from the metric entry by entry, composed
    # along the patch; zero on Minkowski space, where the oracle is zero too
    chart = CURVATURE_CHARTS[name]()
    x_jets = _patch(chart.dim, order + 1)
    space, x = amb._stack_list(x_jets)
    target = jet_space(2, order)
    got = ambient_curvature_on_jets(chart, target, x)
    want = ambient_curvature_oracle(chart, [j.truncate(order) for j in x_jets])
    for label, new, old in zip(("riem", "ric", "scal"), got, want):
        old = coeffs(old)
        old = old.reshape(old.shape + (1,) * (new.ndim - old.ndim))  # a constant metric's has no batch axis
        assert np.max(np.abs(new - old)) <= 1e-13 * np.max(np.abs(old)), label


@pytest.mark.parametrize("name", sorted(CURVATURE_CHARTS))
def test_curvature_contracted_with_a_field_matches_the_full_tensor(name):
    # R̄(·,U,·,·) block by block: C̄(ḡ_ac(ḡU)_f − ḡ_af(ḡU)_c) on space
    # forms, P̄_ac(ḡU)_f + ḡ_ac(P̄U)_f − (c ↔ f) elsewhere
    chart = CURVATURE_CHARTS[name]()
    _, x = amb._stack_list(_patch(chart.dim, 2))
    u = np.random.default_rng(chart.dim).normal(size=x.shape)
    target = jet_space(2, 1)
    riem, ric, scal = ambient_curvature_on_jets(chart, target, x)
    r_u, ric_u, scal_u = ambient_curvature_on_jets(chart, target, x, u=u)
    want = jets.jeinsum(target, "abcf...,b...->acf...", riem, u)
    assert r_u.shape == want.shape
    assert np.max(np.abs(r_u - want)) <= 1e-14 * np.max(np.abs(want))
    assert np.array_equal(ric_u, ric) and np.array_equal(scal_u, scal)


@pytest.mark.parametrize("name", ["s3", "h4", "de_sitter"])
@pytest.mark.parametrize("contracted", [False, True])
def test_schouten_form_matches_the_space_form_contraction(name, contracted):
    # P̄ = (C̄/2)ḡ given as an array takes the route of `schouten_fn`
    chart = CURVATURE_CHARTS[name]()
    half = chart.curvature_const / 2

    def schouten(space, x):
        return chart.metric_fn(space, x) * half

    as_array = dataclasses.replace(chart, curvature_const=None, schouten_fn=schouten)
    _, x = amb._stack_list(_patch(chart.dim, 2))
    u = np.random.default_rng(chart.dim).normal(size=x.shape) if contracted else None
    for order in (0, 1):
        target = jet_space(2, order)
        want = ambient_curvature_on_jets(chart, target, x, u=u)
        got = ambient_curvature_on_jets(as_array, target, x, u=u)
        for label, new, old in zip(("riem", "ric", "scal"), got, want):
            assert np.max(np.abs(new - old)) <= 1e-13 * np.max(np.abs(old)), label


@pytest.mark.parametrize("name", ["bumpy_e3", "e1xbumpy_e3"])
@pytest.mark.parametrize("batch", [(1,), (600,)])
def test_schouten_form_matches_the_composed_route(name, batch):
    # the composed Taylor expansion of the metric-derived curvature, the
    # route these charts took before, on coefficient arrays; 600 points
    # take the row loop of every product
    chart = CURVATURE_CHARTS[name]()
    _, x = amb._stack_list(_patch(chart.dim, 2, batch))
    for order in (0, 1):
        target = jet_space(2, order)
        for label, new, old in zip(("riem", "ric", "scal"), ambient_curvature_on_jets(chart, target, x),
                                   curvature_along(chart, target, x)):
            assert np.max(np.abs(new - old)) <= 1e-13 * np.max(np.abs(old)), label


def test_a_chart_needs_its_connection_and_curvature_forms():
    chart = amb.registry_chart("bumpy_e3")
    for missing in ({"sigma_grad_fn": None}, {"schouten_fn": None}):
        with pytest.raises(ValueError, match="σ-gradient"):
            dataclasses.replace(chart, **missing)
    assert dataclasses.replace(amb.space_form(3, 1.0), schouten_fn=None).curvature_const == 1.0


def _conformal_closed_forms(x, eps, cbar, bump):
    """ḡ_ab and Γ^k_ab of ḡ = ε δ e^{2σ}, σ = log F + σ_bump, F = 1/(1 + C̄⟨x,x⟩_ε/4),
    entry by entry in Jet arithmetic."""
    d = len(x)
    q = sum((x[a] * x[a] * eps[a] for a in range(1, d)), x[0] * x[0] * eps[0])
    f = (q * (cbar / 4.0) + 1.0).reciprocal()
    sig = [x[b] * f * (-0.5 * cbar * eps[b]) for b in range(d)]
    conf = f * f
    if bump:
        s = (sum((x[a] * x[a] for a in range(1, d)), x[0] * x[0]) * -1.0).exp() * 0.05
        sig = [sig[b] + x[b] * s * -2.0 for b in range(d)]
        conf = conf * (s * 2.0).exp()
    metric = np.empty((d, d), dtype=object)
    gamma = np.empty((d, d, d), dtype=object)
    for a in range(d):
        for b in range(d):
            metric[a, b] = conf * (eps[a] if a == b else 0.0)
            for k in range(d):
                acc = conf * 0.0
                if k == a:
                    acc = acc + sig[b]
                if k == b:
                    acc = acc + sig[a]
                if a == b:
                    acc = acc - sig[k] * (eps[a] * eps[k])
                gamma[k, a, b] = acc
    return metric, gamma


CLOSED_FORM_CHARTS = {
    "s3": (lambda: amb.space_form(3, 1.0), [((1.0, 1.0, 1.0), 1.0, False)]),
    "h3": (lambda: amb.space_form(3, -1.0), [((1.0, 1.0, 1.0), -1.0, False)]),
    "de_sitter": (lambda: amb.space_form(3, 0.5, index=1), [((-1.0, 1.0, 1.0), 0.5, False)]),
    "s2xe2": (
        lambda: amb.product_chart(amb.space_form(2, 1.0), amb.flat_chart(2)),
        [((1.0, 1.0), 1.0, False), ((1.0, 1.0), 0.0, False)],
    ),
    "bumpy_e3": (lambda: amb.registry_chart("bumpy_e3"), [((1.0, 1.0, 1.0), 0.0, True)]),
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_CHARTS))
def test_chart_functions_match_closed_forms(name):
    make, blocks = CLOSED_FORM_CHARTS[name]
    chart = make()
    x_jets = _patch(chart.dim, 3)
    space, x = amb._stack_list(x_jets)
    d = chart.dim
    metric = np.zeros((space.n, d, d, 7))
    gamma = np.zeros((space.n, d, d, d, 7))
    start = 0
    for eps, cbar, bump in blocks:
        sl = slice(start, start + len(eps))
        m_obj, g_obj = _conformal_closed_forms(x_jets[sl], eps, cbar, bump)
        metric[:, sl, sl] = coeffs(m_obj)
        gamma[:, sl, sl, sl] = coeffs(g_obj)
        start = sl.stop
    assert_close(chart.metric_fn(space, x), metric, "metric")
    assert_close(amb.christoffel_on_jets(chart, space, x), gamma, "christoffel")


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(CLOSED_FORM_CHARTS))
def test_closed_form_christoffel_matches_metric_derived(name, order):
    chart = CLOSED_FORM_CHARTS[name][0]()
    pts = np.random.default_rng(order).uniform(-0.3, 0.3, size=(4, chart.dim))
    space, g = amb._seeded(chart, pts, order + 1)
    low, x = amb._stack_list(seed_jets(pts, chart.dim, order))
    assert_close(amb.christoffel_on_jets(chart, low, x), amb._levi_civita(space, g)[1], name)


def test_curvature_jet_s4_makes_at_most_20_jet_multiplies(monkeypatch):
    # every tensor of the chain is one coefficient array; only scalar jet
    # arithmetic inside the chart function multiplies Jet objects
    calls = [0]
    original = Jet.__mul__

    def counting(a, b):
        calls[0] += 1
        return original(a, b)

    monkeypatch.setattr(Jet, "__mul__", counting)
    monkeypatch.setattr(Jet, "__rmul__", counting)
    amb.curvature_jet(amb.space_form(4, 1.0), np.array([0.1, -0.2, 0.05, 0.3]), order=2)
    assert calls[0] <= 20


def test_no_object_arrays_outside_the_reference_forms():
    src = Path(jets.__file__).parent
    for module in ("ambient", "hypersurface", "iigeom", "curves", "variation", "spheres"):
        assert "dtype=object" not in (src / f"{module}.py").read_text(), module
    in_refs = sum(inspect.getsource(fn).count("dtype=object") for fn in (jets.jinv, jets.jdet))
    assert (src / "jets.py").read_text().count("dtype=object") == in_refs
