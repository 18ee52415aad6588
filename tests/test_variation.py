"""Quadrature, deformations, and the first-variation identities."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from secondform.errors import LeftEpsilonClass
from secondform.hypersurface import standard_immersion, surface_point
from secondform.variation import (
    Deformation,
    area,
    area_with_refinement,
    first_variation_check,
    grid_for_immersion,
    lat_long_sphere,
    normal_deform,
    refine,
    second_form_variation_check,
    tensor_gauss_legendre,
)


class TestQuadrature:
    def test_weights_sum_to_box_volume(self):
        g = lat_long_sphere(8, 16)
        assert_allclose(np.sum(g.weights), 2 * math.pi**2, atol=1e-12)
        assert np.all(g.weights > 0)
        g2 = tensor_gauss_legendre([0, 0], [1, 2], (5, 7), periodic=(False, True))
        assert_allclose(np.sum(g2.weights), 2.0, atol=1e-13)

    def test_unit_sphere_areas(self):
        imm = standard_immersion("round_sphere", radius=1.0)
        g = lat_long_sphere(24, 48)
        assert_allclose(area(imm, g), 4 * math.pi, atol=1e-10)
        assert_allclose(area(imm, g, "second_form"), 4 * math.pi, atol=1e-10)

    def test_clifford_areas(self):
        imm = standard_immersion("clifford")
        g = grid_for_immersion(imm, (24, 24))
        # torus of radii 1/√2: classical area (2π/√2)² = 2π²; √|det A| = 1
        assert_allclose(area(imm, g), 2 * math.pi**2, rtol=1e-10)
        assert_allclose(area(imm, g, "second_form"), 2 * math.pi**2, rtol=1e-10)

    def test_geodesic_sphere_area_ii_closed_form(self):
        r = 0.3
        imm = standard_immersion("small_sphere_in_sphere", geodesic_radius=r, m=2)
        g = grid_for_immersion(imm, (24, 48))
        assert_allclose(area(imm, g, "second_form"), 2 * math.pi * math.sin(2 * r), atol=1e-9)

    def test_refinement_converges(self):
        imm = standard_immersion("perturbed_ovaloid", seed=3, amplitude=0.05)
        coarse = grid_for_immersion(imm, (6, 12))
        fine = refine(coarse)
        finest, est = area_with_refinement(imm, fine, "second_form")
        err_coarse = abs(area(imm, coarse, "second_form") - finest)
        err_fine = abs(area(imm, fine, "second_form") - finest)
        assert err_fine < err_coarse / 4 or err_fine < 1e-12
        assert est >= 0


class TestNormalDeform:
    def test_concentric_spheres_exact(self):
        imm = standard_immersion("round_sphere", radius=1.0)
        s = 0.125
        deformed = normal_deform(Deformation(imm, lambda u: u[0] * 0.0 + 1.0, s))
        data = surface_point(deformed, np.array([[0.9, 1.0], [1.8, 4.0]]))
        # inward normal: radius shrinks to 1 − s
        assert_allclose(np.linalg.norm(data.x, axis=-1), 1.0 - s, atol=1e-12)
        assert_allclose(data.mean, 1.0 / (1.0 - s), atol=1e-10)

    @pytest.mark.parametrize("mode", ["chart_linear", "ambient_exponential"])
    def test_s_zero_identity(self, mode):
        imm = standard_immersion("round_sphere", radius=1.0)
        deformed = normal_deform(Deformation(imm, lambda u: u[0].sin(), 0.0, mode))
        u = np.array([[1.0, 2.0]])
        assert_allclose(surface_point(deformed, u).x, surface_point(imm, u).x, atol=1e-15)

    def test_harmonic_bump_stays_in_class(self):
        imm = standard_immersion("round_sphere", radius=1.0)
        grid = lat_long_sphere(10, 20)

        def f(u):
            return u[0].sin() * u[1].cos() * u[0].cos()

        normal_deform(Deformation(imm, f, 1e-3), check_grid=grid)

    def test_large_deformation_leaves_class(self):
        imm = standard_immersion("round_sphere", radius=1.0)
        grid = lat_long_sphere(10, 20)
        with pytest.raises(LeftEpsilonClass):
            normal_deform(Deformation(imm, lambda u: u[0] * 0.0 + 1.0, 1.0), check_grid=grid)

    def test_modes_agree_to_second_order(self):
        imm = standard_immersion("small_sphere_in_sphere", geodesic_radius=0.8, m=2)

        def f(u):
            return u[0].cos()

        u = np.array([[1.1, 0.7]])
        gaps = []
        for s in (2e-2, 1e-2):
            lin = surface_point(normal_deform(Deformation(imm, f, s, "chart_linear")), u).x
            expo = surface_point(
                normal_deform(Deformation(imm, f, s, "ambient_exponential")), u
            ).x
            gaps.append(np.max(np.abs(lin - expo)))
        assert gaps[1] < gaps[0] / 3.2  # O(s²) agreement
        assert gaps[0] < 1e-3


class TestFirstVariation:
    def test_unit_sphere_constant_amplitude(self):
        imm = standard_immersion("round_sphere", radius=1.0)
        grid = lat_long_sphere(20, 40)
        res = first_variation_check(imm, lambda u: u[0] * 0.0 + 1.0, grid)
        assert_allclose(res.rhs_area, -8 * math.pi, atol=1e-8)
        assert_allclose(res.rhs_area_ii, -4 * math.pi, atol=1e-8)
        assert res.gaps["area"] < 1e-6
        assert res.gaps["area_ii"] < 1e-6
        # concentric spheres are exactly polynomial in s: slope degenerates to inf
        assert res.slope_area > 1.8 and res.slope_area_ii > 1.8

    def test_slope_measurable_for_nonconstant_f(self):
        imm = standard_immersion("round_sphere", radius=1.0)
        grid = lat_long_sphere(16, 32)

        def f(u):
            return u[0].cos() + 1.2

        res = first_variation_check(imm, f, grid)
        assert res.gaps["area"] < 1e-4 and res.gaps["area_ii"] < 1e-4
        assert 1.8 <= res.slope_area < 10
        assert 1.8 <= res.slope_area_ii < 10

    def test_ii_minimal_sphere_in_s3(self):
        imm = standard_immersion("small_sphere_in_sphere", geodesic_radius=math.pi / 4, m=2)
        grid = grid_for_immersion(imm, (16, 32))

        def f(u):
            return u[0].cos() + 1.3  # ∫ f dΩ_II ≠ 0

        res = first_variation_check(imm, f, grid)
        assert abs(res.rhs_area_ii) < 1e-9
        assert abs(res.lhs_area_ii) < 2e-4

    def test_modes_give_same_first_variation(self):
        imm = standard_immersion("small_sphere_in_sphere", geodesic_radius=0.6, m=2)
        grid = grid_for_immersion(imm, (12, 24))

        def f(u):
            return u[0].cos() * 0.5 + 1.0

        lin = first_variation_check(imm, f, grid, mode="chart_linear")
        expo = first_variation_check(imm, f, grid, mode="ambient_exponential")
        assert abs(lin.lhs_area_ii - expo.lhs_area_ii) < 1e-5 * (1 + abs(lin.lhs_area_ii))
        assert abs(lin.lhs_area - expo.lhs_area) < 1e-5 * (1 + abs(lin.lhs_area))


class TestSecondFormVariation:
    def test_unit_sphere_constant_f(self):
        imm = standard_immersion("round_sphere", radius=1.0)
        u = np.array([1.0, 2.0])
        base = surface_point(imm, u)
        for i, j in ((0, 0), (0, 1), (1, 1)):
            numeric, formula, gap = second_form_variation_check(
                imm, lambda w: w[0] * 0.0 + 1.0, u, i, j
            )
            assert_allclose(formula, -base.first[i, j], atol=1e-10)
            assert gap < 1e-6

    def test_zero_amplitude(self):
        imm = standard_immersion("round_sphere", radius=1.0)
        numeric, formula, gap = second_form_variation_check(
            imm, lambda w: w[0] * 0.0, np.array([0.9, 0.9]), 0, 1
        )
        assert abs(numeric) < 1e-12 and abs(formula) < 1e-12

    def test_flat_plane_hessian(self):
        # flat graph: A = 0 kills all but the Hessian term, d/ds II = Hess q
        imm = standard_immersion("graph", quadratic=np.zeros((2, 2)))

        def f(u):
            return u[0] * u[0] * 0.5 + u[0] * u[1] * 0.25

        u = np.array([0.2, -0.1])
        hess = np.array([[1.0, 0.25], [0.25, 0.0]])
        for i, j in ((0, 0), (0, 1), (1, 1)):
            numeric, formula, gap = second_form_variation_check(imm, f, u, i, j)
            assert_allclose(formula, hess[i, j], atol=1e-12)
            assert abs(numeric - hess[i, j]) < 1e-7


class TestDeformationFamilies:
    """A ±s ladder is one exponential family: one base frame per node set and,
    in ambient_exponential mode, one exp_map path per sign of s."""

    @staticmethod
    def amplitude(u):
        return u[0].cos() * 0.5 + 1.0

    def test_exponential_ladder_integrates_once_per_sign(self, exp_map_batches):
        imm = standard_immersion("small_sphere_in_sphere", geodesic_radius=0.6, m=2)
        grid = grid_for_immersion(imm, (12, 24))
        res = first_variation_check(imm, self.amplitude, grid, mode="ambient_exponential")
        assert exp_map_batches == [(288,), (288,)]
        assert max(res.gaps.values()) < 1e-6

    @pytest.mark.parametrize("mode", ["chart_linear", "ambient_exponential"])
    def test_ladder_members_match_one_member_families(self, mode):
        from secondform.jets import seed_jets
        from secondform.variation import DEFAULT_S_LADDER, _deformed_family

        imm = standard_immersion("small_sphere_in_sphere", geodesic_radius=0.6, m=2)
        u = seed_jets(np.array([[0.4, 1.0], [1.5, 2.5], [2.7, 5.9]]), 2, 2)
        scales = [t for s in DEFAULT_S_LADDER for t in (s, -s)]
        family = _deformed_family(imm, self.amplitude, mode, scales)
        for member, s in zip(family, scales):
            alone = normal_deform(Deformation(imm, self.amplitude, s, mode))
            got = np.stack([j.coeffs for j in member.map_fn(u)])
            want = np.stack([j.coeffs for j in alone.map_fn(u)])
            if mode == "chart_linear":
                assert np.array_equal(got, want)
            else:  # the ladder's step is s_max/64, a one-member family's s/64
                assert np.max(np.abs(got - want)) <= 1e-13

    def test_chart_linear_members_are_the_chart_line(self):
        # x + (f·s)·U with s applied to the amplitude, bit for bit
        from secondform.hypersurface import frame_jets
        from secondform.jets import Jet, seed_jets
        from secondform.variation import _deformed_family

        imm = standard_immersion("small_sphere_in_sphere", geodesic_radius=0.6, m=2)
        nodes = np.array([[0.4, 1.0], [1.5, 2.5], [2.7, 5.9]])
        scales = (0.3, -0.1, 0.0)
        family = _deformed_family(imm, self.amplitude, "chart_linear", scales)
        b = frame_jets(imm, seed_jets(nodes, 2, 3))
        amp = self.amplitude(seed_jets(nodes, 2, 3))
        for member, s in zip(family, scales):
            got = member.map_fn(seed_jets(nodes, 2, 2))
            for a in range(3):
                line = Jet(b.space(b.x), b.x[:, a]) + (amp * s) * Jet(b.space(b.U), b.U[:, a])
                assert np.array_equal(got[a].coeffs, line.coeffs)

    def test_second_form_variation_evaluates_the_base_once(self, monkeypatch):
        from secondform import variation

        calls = []
        original = variation.frame_jets

        def counting(imm, *args, **kwargs):
            calls.append(imm)
            return original(imm, *args, **kwargs)

        monkeypatch.setattr(variation, "frame_jets", counting)
        imm = standard_immersion("round_sphere", radius=1.0)
        _, _, gap = second_form_variation_check(imm, self.amplitude, np.array([1.0, 2.0]), 0, 1)
        assert calls == [imm]
        assert gap < 1e-6
