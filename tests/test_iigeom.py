"""II-geometry: the three H_II routes, Z field, II-operators, diagnostics."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from secondform import iigeom
from secondform.ambient import _grad, _stack_list, flat_chart, product_chart, space_form
from secondform.curves import h_ii_curve, standard_curve
from secondform.errors import SingularShapeOperator, StepFailure
from secondform.hypersurface import (
    Immersion, frame_jets, intrinsic_curvature_jets, standard_immersion, surface_point,
)
from secondform.iigeom import (
    STACK_MAX_POINTS,
    _divergence_form,
    _ii_geometry_from,
    _ii_machine,
    ii_geometry,
    sphere_inequality_report,
    transport_holonomy_probe,
)
from secondform.jets import jeinsum, seed_jets
from secondform.variation import first_variation_check, grid_for_immersion
from surface_oracles import brioschi_gauss_curvature, z_field_surface_alt


def sphere_grid(n_theta=5, n_phi=9):
    th = np.linspace(0.4, math.pi - 0.4, n_theta)
    ph = np.linspace(0.1, 2 * math.pi - 0.1, n_phi)
    tt, pp = np.meshgrid(th, ph, indexing="ij")
    return np.stack([tt.ravel(), pp.ravel()], axis=-1)


class TestIIMinimalExamples:
    def test_s2_over_sqrt2_in_s3(self):
        imm = standard_immersion("small_sphere_in_sphere", geodesic_radius=math.pi / 4, m=2)
        geo = ii_geometry(imm, sphere_grid())
        for route in ("variational", "principal", "gauss"):
            assert np.max(np.abs(geo.h_ii[route])) < 1e-8

    def test_clifford_torus(self):
        imm = standard_immersion("clifford")
        pts = np.stack(np.meshgrid(np.linspace(0.2, 6.0, 6), np.linspace(0.1, 6.1, 6),
                                   indexing="ij"), axis=-1).reshape(-1, 2)
        geo = ii_geometry(imm, pts)
        assert np.max(np.abs(geo.h_ii["variational"])) < 1e-8
        assert np.max(np.abs(geo.h_ii["gauss"])) < 1e-8
        # II is Lorentzian here: one negative and one positive eigenvalue, and the II metric is flat
        eig = np.linalg.eigvalsh(geo.base.second)
        assert np.all(eig[:, 0] < 0) and np.all(eig[:, 1] > 0)
        assert np.max(np.abs(geo.s_ii)) < 1e-7

    def test_round_sphere_h_ii_m_over_2r(self):
        for radius in (1.0, 2.0):
            imm = standard_immersion("round_sphere", radius=radius)
            geo = ii_geometry(imm, np.array([[0.9, 1.1], [1.7, 4.0]]))
            for route in ("variational", "principal", "gauss"):
                assert_allclose(geo.h_ii[route], 2 / (2 * radius), atol=1e-9)

    def test_geodesic_sphere_in_s3_cot2r(self):
        for r in (0.3, 0.6, 1.0):
            imm = standard_immersion("small_sphere_in_sphere", geodesic_radius=r, m=2)
            geo = ii_geometry(imm, np.array([[1.0, 2.0]]))
            expect = 2.0 / math.tan(2 * r)
            for route in ("variational", "principal", "gauss"):
                assert_allclose(geo.h_ii[route], expect, atol=1e-8)

    def test_s3_over_sqrt2_in_s4(self):
        imm = standard_immersion("small_sphere_in_sphere", geodesic_radius=math.pi / 4, m=3)
        pts = np.array([[1.0, 1.2, 2.0], [0.7, 2.0, 4.0], [1.9, 0.8, 1.0]])
        geo = ii_geometry(imm, pts)
        for route in ("variational", "principal", "gauss"):
            assert np.max(np.abs(geo.h_ii[route])) < 1e-8


class TestRouteAgreement:
    def test_perturbed_ovaloids(self):
        for seed in range(4):
            imm = standard_immersion("perturbed_ovaloid", seed=seed, amplitude=0.03)
            geo = ii_geometry(imm, sphere_grid())
            assert np.max(geo.h_ii_spread) < 1e-8

    def test_hypersurface_in_s4_and_h4(self):
        for cbar in (1.0, -1.0):
            imm = standard_immersion(
                "perturbed_sphere_in_space_form", Cbar=cbar, m=3, base_radius=0.6,
                amplitude=0.02, seed=7,
            )
            pts = np.stack(
                np.meshgrid(
                    np.linspace(0.5, 2.5, 3), np.linspace(0.6, 2.6, 3), np.linspace(0.3, 5.9, 4),
                    indexing="ij",
                ),
                axis=-1,
            ).reshape(-1, 3)
            geo = ii_geometry(imm, pts)
            assert np.max(geo.h_ii_spread) < 1e-8

    def test_curve_embedding_matches_curve_formula(self):
        # m=1 specialization: latitude circle on the unit sphere; closed form
        # H_II = ½(−K̄/κ + κ) for constant κ, with κ = cot θ.
        theta = 1.1
        imm = standard_immersion("latitude_circle", colatitude=theta)
        geo = ii_geometry(imm, np.array([[0.2], [1.5]]))
        kappa = 1 / math.tan(theta)
        expect = 0.5 * (-1.0 / kappa + kappa)
        for route in ("variational", "principal", "gauss"):
            assert_allclose(geo.h_ii[route], expect, atol=1e-8)
        # the closed curve formula is H_II at m = 1, also where κ varies (the
        # catenary: Δ_II log|det A| ≠ 0 cancels the head, H_II ≡ 0)
        cases = [("circle_e2", {"radius": 2.0}), ("catenary_e2", {})] + [
            ("latitude_circle_s2", {"colatitude": th}) for th in (math.pi / 4, 1.1, 2.0)
        ]
        for kind, params in cases:
            curve = standard_curve(kind, **params)
            s = np.linspace(curve.param_lo[0], curve.param_hi[0], 7)[1:-1]
            geo = ii_geometry(curve, s[:, None])
            for route in ("variational", "principal", "gauss"):
                assert_allclose(geo.h_ii[route], h_ii_curve(curve, s), rtol=0, atol=1e-12)


class TestZField:
    def test_vanishes_in_space_forms(self):
        imm = standard_immersion("perturbed_sphere_in_space_form", m=2, Cbar=1.0,
                                 base_radius=0.7, amplitude=0.03, seed=4)
        z = ii_geometry(imm, sphere_grid(4, 7)).Z
        assert np.max(np.abs(z)) < 1e-9

    def test_vanishes_in_flat_ambient(self):
        imm = standard_immersion("graph", quadratic=np.array([[1.0, 0.2], [0.2, 0.8]]))
        z = ii_geometry(imm, np.array([[0.1, -0.2], [0.3, 0.4]])).Z
        assert np.max(np.abs(z)) < 1e-12

    def test_surface_alternate_formula_in_product_ambient(self):
        # surface in S²×E¹ (3-dim, non-constant curvature): the two stated
        # definitions of Z must coincide.
        chart = product_chart(space_form(2, 1.0), flat_chart(1))

        def map_fn(u):
            s, t = u
            return [s * 0.9, t * 0.8 + s * s * 0.1, s * 0.3 + t + (s * t) * 0.2]

        imm = Immersion(chart, 2, map_fn, np.array([-0.5, -0.5]), np.array([0.5, 0.5]))
        pts = np.array([[0.1, 0.2], [-0.2, 0.3], [0.25, -0.15]])
        z_main = ii_geometry(imm, pts).Z
        z_alt = z_field_surface_alt(imm, pts)
        assert np.max(np.abs(z_main)) > 1e-4  # non-trivial field
        assert_allclose(z_main, z_alt, atol=1e-7)


def ii_laplacian(imm, f, u, grad=None):
    """Δ_II f = (1/W) ∂_i(W II^{ij} ∂_j f), W = √|det II|, at u, on the II
    machinery of ``ii_geometry`` (``_ii_machine`` and ``_divergence_form``);
    the sign convention makes Δf = f″ on the real line.  `f` maps the list
    of parameter jets to a jet.  With `grad`, a map from the parameter jets
    to a list of jets, the result is div_II of that field instead of the
    field II⁻¹df."""
    u_jets = seed_jets(np.asarray(u, dtype=float), imm.param_dim, 4)
    space, ii_inv, w = _ii_machine(frame_jets(imm, u_jets))
    if grad is None:
        fj = f(u_jets)
        comps = jeinsum(space, "ij...,j...->i...", ii_inv, _grad(fj.coeffs, fj.space))
    else:
        comps = _stack_list(grad(u_jets))[1]
    return _divergence_form(w, comps)


class TestIIOperators:
    def test_constant_field_laplacian_zero(self):
        imm = standard_immersion("round_sphere", radius=1.3)
        val = ii_laplacian(imm, lambda u: u[0] * 0.0 + 4.2, np.array([0.8, 0.8]))
        assert abs(val) < 1e-12

    def test_round_sphere_log_det_a_constant(self):
        imm = standard_immersion("round_sphere", radius=2.0)
        geo = ii_geometry(imm, np.array([[1.2, 0.4]]))
        assert np.max(np.abs(geo.lap_ii_log_det_a)) < 1e-10

    def test_spherical_harmonic_oracle(self):
        # unit sphere in E³: II = g, so Δ_II z = Δ_{S²} z = −2z
        imm = standard_immersion("round_sphere", radius=1.0)
        u = np.array([[0.7, 1.1], [1.9, 3.0]])

        def f(uj):
            return uj[0].cos()  # z-coordinate in colatitude parametrization

        val = ii_laplacian(imm, f, u)
        assert_allclose(val, -2.0 * np.cos(u[:, 0]), atol=1e-8)

    def test_div_of_ii_gradient_matches_laplacian(self):
        imm = standard_immersion("perturbed_ovaloid", seed=2, amplitude=0.02)
        u = np.array([[1.0, 2.0]])

        def f(uj):
            return uj[0].sin() * uj[1].cos()

        # hand-build the II-gradient field and take its II-divergence
        from jet_oracles import views

        from secondform.jets import jinv

        def grad_f(uj):
            b = frame_jets(imm, uj)
            ii_inv = jinv(views(b.space(b.II), b.II, 2))
            fj = f(uj)
            return [
                sum_jets([ii_inv[i, j] * fj.partial(j) for j in range(2)]) for i in range(2)
            ]

        lhs = ii_laplacian(imm, f, u, grad=grad_f)
        rhs = ii_laplacian(imm, f, u)
        assert_allclose(lhs, rhs, atol=1e-9)


def sum_jets(jets):
    acc = jets[0]
    for j in jets[1:]:
        acc = acc + j
    return acc


class TestTransportProbe:
    def test_round_sphere_probe_vanishes(self):
        imm = standard_immersion("round_sphere", radius=1.0)
        u0 = np.array([1.2, 0.7])

        def curve(t):
            return [t * 0.6 + u0[0], t * (-0.8) + u0[1]]

        probe = transport_holonomy_probe(imm, curve, np.array([1.0, 0.5]), 1e-3)
        assert np.max(np.abs(probe)) < 1e-6

    def test_matches_difference_tensor_on_ellipsoid(self):
        imm = standard_immersion("ellipsoid", axes=[1.0, 1.1, 1.3])
        u0 = np.array([1.0, 0.8])
        w = np.array([0.7, -0.4])
        v = np.array([0.3, 1.0])

        def curve(t):
            return [t * w[0] + u0[0], t * w[1] + u0[1]]

        geo = ii_geometry(imm, u0)
        expect = np.einsum("kij,i,j->k", geo.L, v, w)
        probes = [transport_holonomy_probe(imm, curve, v, e) for e in (2e-2, 1e-2, 5e-3)]
        rich = 2 * probes[1] - probes[0]
        rich2 = 2 * probes[2] - probes[1]
        best = 2 * rich2 - rich
        assert np.max(np.abs(best - expect)) < 1e-4 * (1 + np.max(np.abs(expect)))

    def test_zero_step_rejected(self):
        imm = standard_immersion("round_sphere", radius=1.0)
        with pytest.raises(StepFailure):
            transport_holonomy_probe(imm, lambda t: [t, t], np.array([1.0, 0.0]), 0.0)


class TestConnectionCoincidence:
    def test_extrinsic_sphere_L_zero(self):
        imm = standard_immersion("small_sphere_in_sphere", geodesic_radius=0.8, m=2)
        geo = ii_geometry(imm, sphere_grid(4, 7))
        assert np.max(np.abs(geo.L)) < 1e-9
        assert np.max(np.abs(geo.lap_ii_log_det_a)) < 1e-9

    def test_metricity_residual(self):
        imm = standard_immersion("perturbed_ovaloid", seed=9, amplitude=0.03)
        geo = ii_geometry(imm, sphere_grid(4, 7))
        assert np.max(geo.metricity_residual) < 1e-9

    def test_ii_ll_nonnegative_positive_definite(self):
        imm = standard_immersion("perturbed_ovaloid", seed=1, amplitude=0.04)
        geo = ii_geometry(imm, sphere_grid(4, 7))
        assert np.all(geo.ii_LL >= -1e-14)
        assert np.max(geo.ii_LL) > 1e-6  # genuinely non-parallel


class TestScalarCurvatureII:
    def test_s_ii_equals_twice_brioschi_k_ii(self):
        imm = standard_immersion("perturbed_ovaloid", seed=6, amplitude=0.03)
        pts = sphere_grid(3, 5)
        geo = ii_geometry(imm, pts)
        k_ii = brioschi_gauss_curvature(imm, pts, which="second")
        assert_allclose(geo.s_ii, 2.0 * k_ii, atol=1e-6 * (1 + np.max(np.abs(k_ii))))

    def test_space_form_closed_form_cross_check(self):
        # Lemma-style S_II on a geodesic sphere in unit S³: A = cot(r) id, L=0
        r = 0.7
        imm = standard_immersion("small_sphere_in_sphere", geodesic_radius=r, m=2)
        geo = ii_geometry(imm, np.array([[1.0, 1.0]]))
        lam = 1 / math.tan(r)
        expect = (2 - 1) * (2 * lam + 1.0 * 2 / lam)  # α(m−1)(α trA + C̄ trA^{←})
        assert_allclose(geo.s_ii, expect, atol=1e-8)


    def test_intrinsic_gauss_curvature_matches_brioschi(self):
        imm = standard_immersion("perturbed_sphere_in_space_form", Cbar=1.0, m=2, seed=4)
        pts = sphere_grid(3, 5)
        geo = ii_geometry(imm, pts)
        k_first = brioschi_gauss_curvature(imm, pts, which="first")
        assert_allclose(0.5 * geo.scal_g, k_first, atol=1e-8 * (1 + np.max(np.abs(k_first))))


class TestSingularGuards:
    def test_flat_graph_raises_singular(self):
        imm = standard_immersion("graph", quadratic=np.zeros((2, 2)))
        with pytest.raises(SingularShapeOperator):
            ii_geometry(imm, np.array([0.1, 0.1]))

    def test_mask_mode_flags_invalid(self):
        imm = standard_immersion("graph", quadratic=np.zeros((2, 2)))
        geo = ii_geometry(imm, np.array([[0.1, 0.1]]), on_error="mask")
        assert not geo.valid[0]
        assert np.isnan(geo.h_ii["variational"][0])


class TestInequalityReport:
    def test_round_sphere_equalities(self):
        imm = standard_immersion("round_sphere", radius=1.0)
        rep = sphere_inequality_report(imm, sphere_grid(4, 7))
        assert np.max(np.abs(rep.lemma51)) < 1e-7
        assert np.max(np.abs(rep.thm71)) < 1e-7

    @pytest.mark.parametrize("cbar", [1.0, -1.0])
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("rho", [math.pi / 6, 0.4])
    def test_umbilic_spheres_in_curved_space_forms_are_lemma51_equalities(self, cbar, m, rho):
        # with C̄ ≠ 0 the term C̄·tr A⁻¹ must cancel, which the E³ case above
        # cannot see: its sign flipped reads 4(m − 1)·C̄·tr A⁻¹ ≠ 0 here
        imm = standard_immersion("small_sphere_in_sphere", geodesic_radius=rho, m=m, Cbar=cbar)
        rng = np.random.default_rng(m)
        u = imm.param_lo + (imm.param_hi - imm.param_lo) * (0.15 + 0.7 * rng.random((6, m)))
        rep = sphere_inequality_report(imm, u)
        assert np.all(rep.geo.valid)
        assert np.max(np.abs(rep.lemma51)) <= 1e-9

    def test_ellipsoid_violates_lemma51_somewhere(self):
        imm = standard_immersion("ellipsoid", axes=[1.0, 1.0, 1.3])
        rep = sphere_inequality_report(imm, sphere_grid(6, 11))
        assert rep.summary["lemma51"]["max"] > 1e-4

    def test_einstein_equality_case_in_s4(self):
        # Extrinsic hypersphere with A = √3·id in unit S⁴ (geodesic radius π/6):
        # the Einstein quantity vanishes and H_II = √3 there.
        imm = standard_immersion("small_sphere_in_sphere", geodesic_radius=math.pi / 6, m=3)
        pts = np.array([[1.0, 1.2, 2.0], [0.8, 1.9, 0.5]])
        rep = sphere_inequality_report(imm, pts)
        geo = rep.geo
        assert_allclose(geo.h_ii["variational"], math.sqrt(3.0), atol=1e-8)
        assert np.max(np.abs(rep.thm61)) < 1e-8

    def test_clifford_cor7_finite_everywhere(self):
        # flat torus: K = 0 from ½ g^{jl} Ric_jl, not tr_II Ric / tr_II g = 0/0
        th = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
        ph = np.linspace(0.0, 2 * math.pi, 128, endpoint=False)
        tt, pp = np.meshgrid(th, ph, indexing="ij")
        rep = sphere_inequality_report(
            standard_immersion("clifford"), np.stack([tt.ravel(), pp.ravel()], axis=-1)
        )
        assert set(rep.status) == {"ok"}
        assert np.all(np.isfinite(rep.cor7))
        assert np.max(np.abs(rep.cor7)) < 1e-12

    def test_reuses_ambient_scalar_curvature(self, monkeypatch):
        from secondform import iigeom

        imm = standard_immersion("small_sphere_in_sphere", geodesic_radius=math.pi / 6, m=3)
        pts = np.array([[1.0, 1.2, 2.0], [0.8, 1.9, 0.5]])
        geo = ii_geometry(imm, pts, on_error="mask")
        assert_allclose(geo.sbar, 12.0, rtol=1e-12)  # unit S⁴: S̄ = d(d−1)
        calls = []
        real = iigeom.ambient_curvature_on_jets
        monkeypatch.setattr(
            iigeom, "ambient_curvature_on_jets", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        rep = sphere_inequality_report(imm, pts, geo=geo)
        assert calls == [] and np.all(np.isfinite(rep.thm61))

    def test_cor7_sign_constant_on_sphere(self):
        imm = standard_immersion("small_sphere_in_sphere", geodesic_radius=0.5, m=2)
        rep = sphere_inequality_report(imm, sphere_grid(3, 5))
        assert np.max(np.abs(rep.cor7)) < 1e-7


def test_catenary_embedded_as_hypersurface_is_ii_minimal():
    # the arclength catenary in E² as a 1-dim immersion: the general H_II
    # pipeline (with its Δ_II log|det A| term live, κ non-constant) must
    # reproduce the closed curve formula, which vanishes identically here
    from secondform.ambient import flat_chart

    chart = flat_chart(2)

    def map_fn(u):
        (s,) = u
        root = (s * s + 1.0).sqrt()
        return [(s + root).log_abs(), root]

    imm = Immersion(chart, 1, map_fn, np.array([-2.5]), np.array([2.5]))
    geo = ii_geometry(imm, np.array([[-1.2], [0.0], [0.4], [1.7]]))
    for route in ("variational", "principal", "gauss"):
        assert np.max(np.abs(geo.h_ii[route])) < 1e-9


def test_spacelike_slice_in_de_sitter():
    # umbilic spacelike slice x0 = c of the conformal de Sitter chart:
    # timelike normal (alpha = -1), A = rho id, and the closed space-form
    # expression H_II = (alpha tr A - C tr A^{-1})/2 as oracle
    from secondform.ambient import space_form

    chart = space_form(3, 1.0, index=1)
    c = 0.3

    def map_fn(u):
        s, t = u
        return [s * 0.0 + c, s, t]

    imm = Immersion(chart, 2, map_fn, np.array([-0.4, -0.4]), np.array([0.4, 0.4]))
    geo = ii_geometry(imm, np.array([[0.1, -0.2], [0.05, 0.2], [0.0, 0.0]]))
    data = geo.base
    assert np.all(data.alpha == -1.0)
    rho = data.lam[0, 0]
    assert_allclose(data.lam, rho, atol=1e-10)  # umbilic
    oracle = 0.5 * (-2 * rho - 2.0 / rho)
    for route in ("variational", "principal", "gauss"):
        assert_allclose(geo.h_ii[route], oracle, atol=1e-9)
    assert np.max(np.abs(geo.Z)) < 1e-9  # constant-curvature ambient


def test_saddle_with_indefinite_ii_is_valid_everywhere():
    # z = u₀u₁: II is indefinite and both coordinate directions are II-null at every point
    imm = standard_immersion("graph", quadratic=[[0, 1], [1, 0]], half_width=0.4, orientation=1)
    grid = grid_for_immersion(imm, [16, 16])
    geo = ii_geometry(imm, grid.nodes, on_error="mask")
    assert np.all(np.linalg.det(geo.base.second) < 0)
    assert np.all(geo.valid)
    assert np.max(geo.h_ii_spread) <= 1e-12

    def f(u):  # compactly supported; the u₀u₁ term keeps both sides from vanishing by symmetry
        bump = ((u[0] * u[0] * -1.0 + 0.16) * (u[1] * u[1] * -1.0 + 0.16) * 40.0) ** 3
        return bump * (u[0] * u[1] * 2.0 + 1.0)

    res = first_variation_check(imm, f, grid, geo=geo)
    assert abs(res.rhs_area_ii) > 1e-4
    assert res.gaps["area"] <= 1e-9 and res.gaps["area_ii"] <= 1e-9


def test_frame_and_difference_tensor_invariants():
    imm = standard_immersion("perturbed_ovaloid", seed=13, amplitude=0.03)
    pts = sphere_grid(3, 5)
    geo = ii_geometry(imm, pts)
    # L symmetric in its lower indices
    assert np.max(np.abs(geo.L - np.swapaxes(geo.L, -1, -2))) < 1e-10
    # tr_II L agrees with the contraction by np.linalg.inv of II
    tr_via_inverse = np.einsum("...ij,...kij->...k", np.linalg.inv(geo.base.second), geo.L)
    assert_allclose(geo.tr_ii_L, tr_via_inverse, atol=1e-9)
    # II(L, L) is Σ (II(L(V_i, V_j), V_k))² over the II-orthonormal frame V = C⁻ᵀ, II = CCᵀ
    second = geo.base.second
    assert np.all(np.linalg.eigvalsh(second) > 0)
    V = np.linalg.inv(np.swapaxes(np.linalg.cholesky(second), -1, -2))  # columns V_i
    l_vv = np.einsum("...kab,...ai,...bj->...ijk", geo.L, V, V)
    frame_sum = np.sum(np.einsum("...ijk,...kl,...ln->...ijn", l_vv, second, V) ** 2, axis=(-1, -2, -3))
    assert_allclose(geo.ii_LL, frame_sum, rtol=1e-12, atol=1e-15)


def test_principal_spectrum_is_computed_once_on_first_read(monkeypatch):
    # ii_geometry reads the frame's one cached spectrum; area passes never read it
    from secondform import hypersurface, iigeom
    from secondform.hypersurface import principal_curvatures, surface_point
    from secondform.variation import area, areas, grid_for_immersion

    calls = []

    def counting(*args):
        calls.append(1)
        return principal_curvatures(*args)

    for module in (hypersurface, iigeom):
        monkeypatch.setattr(module, "principal_curvatures", counting, raising=False)
    imm = standard_immersion("perturbed_ovaloid", seed=3, amplitude=0.05)
    grid = grid_for_immersion(imm, (5, 9))
    geo = ii_geometry(imm, grid.nodes)
    assert len(calls) == 1
    for run in (
        lambda: surface_point(imm, grid.nodes, order=2),
        lambda: area(imm, grid, "second_form"),
        lambda: areas(imm, grid),
    ):
        calls.clear()
        run()
        assert calls == []
    base = geo.base
    assert np.array_equal(base.lam, principal_curvatures(base.first, base.second, base.alpha)[0])
    third = np.einsum("...si,...tj,...st->...ij", base.shape, base.shape, base.first)
    assert np.array_equal(base.third, third)


def _blocked_and_whole(monkeypatch, imm, nodes):
    """(ii_geometry in blocks, the points of its frames; one unblocked frame)."""
    calls = []

    def counting(imm, u, order=4):
        calls.append(len(u))
        return surface_point(imm, u, order)

    with monkeypatch.context() as mp:
        mp.setattr(iigeom, "surface_point", counting)
        geo = ii_geometry(imm, nodes)
    return geo, calls, _ii_geometry_from(surface_point(imm, nodes, order=4), "raise")


@pytest.mark.parametrize("kind, grid, n_points, blocks", [
    ("clifford", (64, 128), 8192, [2048] * 4),
    ("perturbed_ovaloid", (64, 65), 4097, [2049, 2048]),  # two blocks of uneven size
])
def test_blocks_equal_one_frame_bit_for_bit(monkeypatch, kind, grid, n_points, blocks):
    imm = standard_immersion(kind, **({"seed": 1, "amplitude": 0.03} if kind == "perturbed_ovaloid" else {}))
    nodes = grid_for_immersion(imm, list(grid)).nodes[:n_points]
    geo, calls, whole = _blocked_and_whole(monkeypatch, imm, nodes)
    assert calls == blocks and n_points >= 2 * STACK_MAX_POINTS
    assert "principal" in geo.base.__dict__ and "principal" in whole.base.__dict__
    compared = []

    def same(a, b, last):
        assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
        compared.append(a.shape)

    geo.batch_map(same, whole)
    # every array of IIGeometryPoint, the three routes, the frame's (x and U
    # as jets, the rest as values, u) and the five of the spectrum
    assert len(compared) == 17 + 3 + 13 + 5
    assert geo.base.xc.shape[0] == 10 and geo.base.U.shape[0] == 6  # order 3 and 2 in 2 variables
    assert (geo.base.order, geo.base.nvars, geo.base.batched) == (whole.base.order, whole.base.nvars, True)


def test_blocks_raise_as_one_frame_does():
    # a cylinder graph has det A = 0 everywhere: the count covers all blocks
    imm = standard_immersion("graph", quadratic=[[1.0, 0.0], [0.0, 0.0]])
    nodes = grid_for_immersion(imm, [64, 65]).nodes[:4097]
    with pytest.raises(SingularShapeOperator, match="at 4097 point"):
        ii_geometry(imm, nodes)
    with pytest.raises(SingularShapeOperator, match="at 4097 point"):
        _ii_geometry_from(surface_point(imm, nodes, order=4), "raise")
    masked = ii_geometry(imm, nodes, on_error="mask")
    assert not np.any(masked.valid) and np.all(np.isnan(masked.h_ii["gauss"]))


@pytest.mark.parametrize("n_points", [40, 4097])
def test_reading_a_dropped_jet_raises(n_points):
    imm = standard_immersion("perturbed_ovaloid", seed=1, amplitude=0.03)
    geo = ii_geometry(imm, grid_for_immersion(imm, [64, 65]).nodes[:n_points])
    base = geo.base
    for name in ("t", "gbar", "g", "ginv", "II", "A", "detAc", "H"):
        arr = getattr(base, name)
        assert arr.shape[0] == 1 and type(arr[0]) is np.ndarray
        for key in (1, slice(0, 3), (slice(None), 0), [0, 1]):
            with pytest.raises(LookupError, match="jet was dropped"):
                arr[key]
    with pytest.raises(LookupError):
        intrinsic_curvature_jets(base)
    # the values stay readable, and batch slices keep them values-only
    assert base.first.shape == (n_points, 2, 2) and base.mean.shape == (n_points,)
    part = geo.take(imm, slice(1, 3)).base
    assert np.array_equal(part.first, base.first[1:3])
    with pytest.raises(LookupError):
        part.II[1]
