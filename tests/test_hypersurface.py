"""Fundamental forms and shape operators against closed-form oracles."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from jet_oracles import quartic_terms
from secondform.errors import BadParameters
from secondform.hypersurface import (
    _random_quartic,
    _unit_sphere_map,
    flipped,
    gauss_codazzi_residual,
    immersion_from_descriptor,
    reparametrized,
    standard_immersion,
    surface_point,
    validate_immersion,
)
from secondform.jets import seed_jets


def mid(imm, frac=None):
    frac = frac if frac is not None else np.full(imm.param_dim, 0.37)
    return imm.param_lo + frac * (imm.param_hi - imm.param_lo)


class TestRoundSphere:
    def test_radius_two_inward(self):
        imm = standard_immersion("round_sphere", radius=2.0)
        data = surface_point(imm, np.array([1.1, 0.7]))
        assert_allclose(data.shape, 0.5 * np.eye(2), atol=1e-12)
        assert_allclose(data.mean, 0.5, atol=1e-12)
        assert_allclose(data.detA, 0.25, atol=1e-12)
        assert_allclose(data.third, 0.25 * data.first, atol=1e-12)
        assert_allclose(data.lam, [0.5, 0.5], atol=1e-12)

    def test_umbilic_detection(self):
        imm = standard_immersion("round_sphere", radius=1.7)
        data = surface_point(imm, np.array([[0.5, 0.1], [2.0, 3.0], [1.2, 5.5]]))
        assert np.max(np.abs(data.lam - data.lam[:, :1])) < 1e-8

    def test_alpha_is_plus_one(self):
        imm = standard_immersion("round_sphere", radius=1.0)
        data = surface_point(imm, np.array([0.9, 4.0]))
        assert data.alpha == 1.0


class TestClifford:
    def test_principal_curvatures_and_mean(self):
        imm = standard_immersion("clifford")
        pts = np.array([[0.3, 1.2], [2.0, 4.4], [5.1, 0.2]])
        data = surface_point(imm, pts)
        assert_allclose(np.abs(data.mean), 0.0, atol=1e-10)
        assert_allclose(data.detA, -1.0, atol=1e-9)
        assert_allclose(np.sort(data.lam, axis=-1), np.tile([-1.0, 1.0], (3, 1)), atol=1e-9)

    def test_second_form_indefinite(self):
        imm = standard_immersion("clifford")
        data = surface_point(imm, np.array([1.0, 2.0]))
        evs = np.linalg.eigvalsh(data.second)
        assert evs[0] < -1e-6 < 1e-6 < evs[1]


class TestGraph:
    def test_paraboloid_at_critical_point(self):
        imm = standard_immersion("graph", quadratic=np.eye(2))
        data = surface_point(imm, np.zeros(2))
        assert_allclose(data.shape, np.eye(2), atol=1e-12)
        assert_allclose(data.mean, 1.0, atol=1e-12)
        assert_allclose(data.detA, 1.0, atol=1e-12)

    def test_hessian_oracle_off_center(self):
        # graph z = f(u): A has det = det Hess / (1+|∇f|²)² and tr related by
        # the standard graph formulas; check K = det Hess/(1+|∇f|²)² via detA.
        q = np.array([[1.0, 0.3], [0.3, 0.7]])
        imm = standard_immersion("graph", quadratic=q)
        u = np.array([0.2, -0.4])
        data = surface_point(imm, u)
        grad = q @ u
        k_oracle = np.linalg.det(q) / (1 + grad @ grad) ** 2
        assert_allclose(data.detA, k_oracle, rtol=1e-10)


class TestSphereInSphere:
    def test_small_sphere_lambda_cot(self):
        imm = standard_immersion("small_sphere_in_sphere", geodesic_radius=math.pi / 4, m=2)
        data = surface_point(imm, np.array([[1.0, 2.0], [0.4, 5.0]]))
        assert_allclose(data.lam, 1.0, atol=1e-9)

    def test_various_radii_m3(self):
        rho = 0.6
        imm = standard_immersion("small_sphere_in_sphere", geodesic_radius=rho, m=3)
        data = surface_point(imm, np.array([1.0, 1.3, 2.0]))
        assert_allclose(data.lam, 1 / math.tan(rho), rtol=1e-9)

    def test_hyperbolic_sphere(self):
        rho = 0.5
        imm = standard_immersion("small_sphere_in_sphere", geodesic_radius=rho, m=2, Cbar=-1.0)
        data = surface_point(imm, np.array([1.0, 1.0]))
        assert_allclose(data.lam, 1 / math.tanh(rho), rtol=1e-9)

    def test_conjugate_radius_guard(self):
        with pytest.raises(BadParameters):
            standard_immersion("small_sphere_in_sphere", geodesic_radius=3.5, m=2)


class TestCatenoid:
    def test_minimal_and_saddle(self):
        imm = standard_immersion("rotational")
        pts = np.array([[0.0, 1.0], [0.5, 2.0], [-0.7, 4.0]])
        data = surface_point(imm, pts)
        assert_allclose(data.mean, 0.0, atol=1e-10)
        assert np.all(data.detA < 0)


class TestInvariances:
    def test_reparametrization_invariance(self):
        imm = standard_immersion("perturbed_ovaloid", seed=3, amplitude=0.03)
        u0 = np.array([1.1, 2.3])
        rng = np.random.default_rng(0)
        mat = rng.normal(size=(2, 2)) + 2 * np.eye(2)
        shift = u0 - mat @ np.array([0.1, 0.2])
        rep = reparametrized(imm, mat, shift, [-0.5, -0.5], [0.5, 0.5])
        d_orig = surface_point(imm, u0)
        d_rep = surface_point(rep, np.array([0.1, 0.2]))
        assert_allclose(d_rep.mean, d_orig.mean, atol=1e-8)
        assert_allclose(d_rep.detA, d_orig.detA, atol=1e-8)
        assert_allclose(np.sort(d_rep.lam), np.sort(d_orig.lam), atol=1e-8)
        g0, c0 = gauss_codazzi_residual(imm, u0)
        g1, c1 = gauss_codazzi_residual(rep, np.array([0.1, 0.2]))
        assert max(g0, c0, g1, c1) < 1e-6

    def test_normal_flip_identities(self):
        imm = standard_immersion("perturbed_ovaloid", seed=5, amplitude=0.02)
        u = np.array([[1.4, 0.8], [0.9, 3.0]])
        base = surface_point(imm, u)
        flip = surface_point(flipped(imm), u)
        assert_allclose(flip.normal, -base.normal, atol=1e-10)
        assert_allclose(flip.shape, -base.shape, atol=1e-10)
        assert_allclose(flip.second, -base.second, atol=1e-10)
        assert_allclose(flip.mean, -base.mean, atol=1e-10)
        assert_allclose(flip.third, base.third, atol=1e-10)
        assert_allclose(flip.first, base.first, atol=1e-12)
        assert_allclose(flip.detA, base.detA, atol=1e-10)  # m even


class TestGaussCodazzi:
    def test_round_sphere(self):
        imm = standard_immersion("round_sphere", radius=1.0)
        g, c = gauss_codazzi_residual(imm, np.array([0.8, 1.0]))
        assert g < 1e-8 and c < 1e-8

    def test_perturbed_ovaloid(self):
        imm = standard_immersion("perturbed_ovaloid", seed=11, amplitude=0.04)
        pts = np.array([[0.7, 1.0], [1.5, 2.2], [2.4, 5.8]])
        g, c = gauss_codazzi_residual(imm, pts)
        assert g < 1e-6 and c < 1e-6

    def test_clifford(self):
        imm = standard_immersion("clifford")
        g, c = gauss_codazzi_residual(imm, np.array([[1.0, 0.5], [3.0, 2.0]]))
        assert g < 1e-7 and c < 1e-7

    def test_hypersurface_in_s4(self):
        imm = standard_immersion(
            "perturbed_sphere_in_space_form", m=3, base_radius=0.7, amplitude=0.02, seed=2
        )
        g, c = gauss_codazzi_residual(imm, np.array([1.2, 1.7, 2.0]))
        assert g < 1e-6 and c < 1e-6


def test_validate_catalog():
    catalog = [
        standard_immersion("round_sphere", radius=2.0),
        standard_immersion("ellipsoid", axes=[1.0, 1.0, 1.3]),
        standard_immersion("clifford"),
        standard_immersion("small_sphere_in_sphere", geodesic_radius=0.9, m=2),
        standard_immersion("rotational"),
        standard_immersion("graph", quadratic=np.eye(2)),
        standard_immersion("perturbed_ovaloid", seed=1),
    ]
    for imm in catalog:
        validate_immersion(imm)


def test_descriptor_roundtrip():
    imm = immersion_from_descriptor({"kind": "small_sphere_in_sphere", "geodesic_radius": 0.5, "m": 2})
    data = surface_point(imm, np.array([0.9, 0.9]))
    assert_allclose(data.lam, 1 / math.tan(0.5), rtol=1e-9)


def test_latitude_circle_is_one_dim_immersion():
    imm = standard_immersion("latitude_circle", colatitude=math.pi / 4)
    data = surface_point(imm, np.array([0.3]))
    # small circle at colatitude θ has geodesic curvature cot θ = 1
    assert_allclose(np.abs(data.lam), 1.0, rtol=1e-9)
    assert_allclose(np.abs(data.mean), 1.0, rtol=1e-9)


def test_null_normal_in_minkowski():
    # A lightlike plane has a null normal, which for a hypersurface is the
    # same condition as a degenerate induced metric; either guard may fire.
    import pytest as _pytest

    from secondform.ambient import flat_chart
    from secondform.errors import DegenerateInducedMetric, NullNormal
    from secondform.hypersurface import Immersion

    chart = flat_chart(3, index=1)  # metric diag(-1, 1, 1)

    def map_fn(u):
        s, t = u
        return [s, t, s]

    imm = Immersion(chart, 2, map_fn, np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    with _pytest.raises((NullNormal, DegenerateInducedMetric)):
        surface_point(imm, np.array([0.1, 0.2]), order=2)


def test_spacelike_surface_in_minkowski():
    from secondform.ambient import flat_chart
    from secondform.hypersurface import Immersion

    chart = flat_chart(3, index=1)

    def map_fn(u):
        s, t = u
        return [(s * s + t * t) * 0.1, s, t]  # spacelike graph over the t=0 plane

    imm = Immersion(chart, 2, map_fn, np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    data = surface_point(imm, np.array([0.2, -0.3]), order=2)
    assert data.alpha == -1.0  # timelike normal
    assert np.all(np.linalg.eigvalsh(data.first) > 0)


class TestPropertyBased:
    """Invariance properties over drawn parameters (kept small: each example
    runs a full jet pipeline)."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        st.integers(min_value=0, max_value=50),
        st.floats(min_value=0.6, max_value=2.4),
        st.floats(min_value=0.3, max_value=5.9),
    )
    @settings(max_examples=10, deadline=None)
    def test_normal_flip_is_involutive_on_curvatures(self, seed, u0, u1):
        imm = standard_immersion("perturbed_ovaloid", seed=seed, amplitude=0.02)
        u = np.array([u0, u1])
        base = surface_point(imm, u, order=2)
        flip = surface_point(flipped(imm), u, order=2)
        assert_allclose(flip.mean, -base.mean, atol=1e-10)
        assert_allclose(flip.third, base.third, atol=1e-10)
        assert_allclose(np.sort(flip.lam), np.sort(-base.lam), atol=1e-9)

    @given(
        st.floats(min_value=-0.8, max_value=0.8),
        st.floats(min_value=-0.8, max_value=0.8),
        st.floats(min_value=0.5, max_value=2.0),
        st.floats(min_value=0.5, max_value=2.0),
    )
    @settings(max_examples=10, deadline=None)
    def test_reparametrization_invariance_drawn_affine(self, b01, b10, d0, d1):
        imm = standard_immersion("ellipsoid", axes=[1.0, 1.05, 1.2])
        mat = np.array([[d0, b01], [b10, d1]])
        if abs(np.linalg.det(mat)) < 0.2:
            return  # nearly singular parameter maps are out of scope
        u_target = np.array([1.3, 2.1])
        probe = np.array([0.05, -0.03])
        shift = u_target - mat @ probe
        rep = reparametrized(imm, mat, shift, [-0.2, -0.2], [0.2, 0.2])
        a = surface_point(imm, u_target, order=2)
        b = surface_point(rep, probe, order=2)
        assert_allclose(b.mean, a.mean, atol=1e-9)
        assert_allclose(b.detA, a.detA, atol=1e-9)
        assert_allclose(np.sort(b.lam), np.sort(a.lam), atol=1e-9)


def test_timelike_surface_principal_curvatures_nan_exactly_at_complex_pairs():
    # z = h(t, y) in Minkowski 3-space: g ≈ diag(−1, 1) and II ≈ Hess h, so
    # h = c·t·y gives A ≈ [[0, −c], [c, 0]] (a complex pair) and h = a·t² + b·y²
    # a real spectrum
    from secondform.ambient import flat_chart
    from secondform.hypersurface import Immersion, principal_curvatures

    chart = flat_chart(3, index=1)
    box = (np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    u = np.array([[0.1, 0.2], [-0.2, 0.05]])
    twisted = Immersion(chart, 2, lambda v: [v[0], v[1], v[0] * v[1] * 0.5], *box)
    data = surface_point(twisted, u, order=2)
    ev = np.linalg.eigvalsh(data.first)
    assert np.all(ev[:, 0] < 0) and np.all(ev[:, 1] > 0)  # indefinite g
    assert np.all(np.isnan(data.lam))
    lam, _, _, valid = principal_curvatures(data.first, data.second, data.alpha)
    assert not np.any(valid) and np.all(np.isnan(lam))

    bowl = Immersion(chart, 2, lambda v: [v[0], v[1], v[0] * v[0] * 0.3 + v[1] * v[1] * 0.2], *box)
    data = surface_point(bowl, u, order=2)
    assert np.all(np.isfinite(data.lam))
    lam, E, eps, valid = principal_curvatures(data.first, data.second, data.alpha)
    assert np.all(valid)
    assert_allclose(lam, data.lam, rtol=0, atol=0)
    # g-orthonormal eigenvectors of A with g(E_i, E_i) = eps_i
    assert_allclose(np.einsum("nia,nab,njb->nij", E, data.first, E), eps[:, :, None] * np.eye(2)[None], atol=1e-12)
    assert_allclose(np.einsum("nab,nib->nia", data.shape, E), lam[:, :, None] * E, atol=1e-12)


def test_resolved_orientation_reads_one_raw_frame(monkeypatch):
    # the auto rule flips the raw normal exactly where tr A < −ORIENTATION_TIE
    from secondform import hypersurface
    from secondform.hypersurface import resolved_orientation

    calls = []
    original = hypersurface.frame_jets

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(hypersurface, "frame_jets", counting)
    imm = standard_immersion("round_sphere", radius=1.0)
    assert resolved_orientation(imm) == -1
    assert len(calls) == 1
    swapped = reparametrized(imm, [[0.0, 1.0], [1.0, 0.0]], [0.0, 0.0], [0.0, 0.0], [2 * math.pi, math.pi])
    assert resolved_orientation(swapped) == 1
    assert len(calls) == 2


def test_auto_rule_on_a_saddle_flips_half_the_grid_and_flipped_keeps_those():
    # tr A changes sign across the saddle z = u₀u₁: the rule, read at the
    # midpoint (tr A = 0 there, so +1), is not the sign at every point, and
    # flipped(imm) (orientation −1) keeps the auto normal where it flipped
    from secondform.hypersurface import flipped, resolved_orientation
    from secondform.variation import grid_for_immersion

    imm = standard_immersion("graph", quadratic=[[0, 1], [1, 0]], half_width=0.4)
    nodes = grid_for_immersion(imm, (16, 16)).nodes
    auto = surface_point(imm, nodes, order=2)
    assert resolved_orientation(imm) == 1 and flipped(imm).orientation == -1
    assert int(np.sum(auto.flips)) == 128
    other = surface_point(flipped(imm), nodes, order=2)
    assert np.all(other.flips)  # orientation −1 flips the cofactor normal everywhere
    assert np.array_equal(other.normal[auto.flips], auto.normal[auto.flips])
    assert np.array_equal(other.normal[~auto.flips], -auto.normal[~auto.flips])


@pytest.mark.parametrize("m", [2, 3])
def test_quartic_contraction_matches_term_by_term_sum(m):
    # W : (C : W) against Σ c·ω_iω_jω_kω_l, both on the unit-sphere map of
    # order-4 parameter jets over a batch of points
    u = seed_jets(np.random.default_rng(m).uniform(0.2, 2.9, size=(5, m)), m, 4)
    omega = _unit_sphere_map(m, u)
    got = _random_quartic(m + 1, np.random.default_rng(7), 0.03)(omega).coeffs
    want = quartic_terms(m + 1, np.random.default_rng(7), 0.03)(omega).coeffs
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
