"""Quadrature, deformations, and the first-variation identities."""

import dataclasses
import math

import numpy as np
import pytest
from ladder_oracle import LADDER, ladder
from numpy.testing import assert_allclose

from secondform.ambient import space_form
from secondform.errors import GeometryError
from secondform.hypersurface import Immersion, standard_immersion, surface_point
from secondform.variation import (
    area,
    first_variation_check,
    grid_for_immersion,
    lat_long_sphere,
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
        coarse, fine, finest = (grid_for_immersion(imm, (6 * k, 12 * k)) for k in (1, 2, 4))
        best = area(imm, finest, "second_form")
        err_coarse = abs(area(imm, coarse, "second_form") - best)
        err_fine = abs(area(imm, fine, "second_form") - best)
        assert err_fine < err_coarse / 4 or err_fine < 1e-12


def _exact_and_ladder(imm, f, grid, s_ladder=LADDER, mode="chart_linear"):
    res = first_variation_check(imm, f, grid)
    return res, ladder(imm, f, grid, s_ladder, mode)


def _within_ladder_error(res, lad):
    exact = np.array([res.lhs_area, res.lhs_area_ii])
    return np.all(np.abs(exact - lad.value) <= lad.error)


class TestFirstVariation:
    def test_unit_sphere_constant_amplitude(self):
        imm = standard_immersion("round_sphere", radius=1.0)
        grid = lat_long_sphere(20, 40)
        res, lad = _exact_and_ladder(imm, lambda u: u[0] * 0.0 + 1.0, grid)
        assert_allclose(res.rhs_area, -8 * math.pi, atol=1e-8)
        assert_allclose(res.rhs_area_ii, -4 * math.pi, atol=1e-8)
        assert res.gaps["area"] < 1e-6
        assert res.gaps["area_ii"] < 1e-6
        # concentric spheres are exactly polynomial in s: the ladder's slope degenerates to inf
        slope_area, slope_area_ii = lad.slopes((res.rhs_area, res.rhs_area_ii))
        assert slope_area > 1.8 and slope_area_ii > 1.8
        assert _within_ladder_error(res, lad)

    def test_slope_measurable_for_nonconstant_f(self):
        imm = standard_immersion("round_sphere", radius=1.0)
        grid = lat_long_sphere(16, 32)

        def f(u):
            return u[0].cos() + 1.2

        res, lad = _exact_and_ladder(imm, f, grid)
        assert res.gaps["area"] < 1e-4 and res.gaps["area_ii"] < 1e-4
        slope_area, slope_area_ii = lad.slopes((res.rhs_area, res.rhs_area_ii))
        assert 1.8 <= slope_area < 10
        assert 1.8 <= slope_area_ii < 10
        assert _within_ladder_error(res, lad)

    def test_ii_minimal_sphere_in_s3(self):
        imm = standard_immersion("small_sphere_in_sphere", geodesic_radius=math.pi / 4, m=2)
        grid = grid_for_immersion(imm, (16, 32))

        def f(u):
            return u[0].cos() + 1.3  # ∫ f dΩ_II ≠ 0

        res = first_variation_check(imm, f, grid)
        assert abs(res.rhs_area_ii) < 1e-9
        assert abs(res.lhs_area_ii) < 2e-4

    def test_modes_give_same_first_variation(self):
        # the two deformation modes share the variation field f·U, so both
        # ladders tend to the one exact d/ds
        imm = standard_immersion("small_sphere_in_sphere", geodesic_radius=0.6, m=2)
        grid = grid_for_immersion(imm, (12, 24))

        def f(u):
            return u[0].cos() * 0.5 + 1.0

        res = first_variation_check(imm, f, grid)
        lin = ladder(imm, f, grid, mode="chart_linear")
        expo = ladder(imm, f, grid, mode="ambient_exponential")
        assert np.all(np.abs(lin.value - expo.value) < 1e-5 * (1 + np.abs(lin.value)))
        assert _within_ladder_error(res, lin) and _within_ladder_error(res, expo)


def _bump(u):
    """(40(0.16 − u₀²)(0.16 − u₁²))³: compactly supported on |u_i| ≤ 0.4."""
    return ((u[0] * u[0] * -1.0 + 0.16) * (u[1] * u[1] * -1.0 + 0.16) * 40.0) ** 3


def _lorentzian_graph(cbar, character):
    """h = 0.5u₀² + 0.4u₁² + 0.3 over |u_i| ≤ 0.4 in the Lorentzian space form
    of curvature C̄, as x⁰ = h (spacelike, α = −1) or x¹ = h (timelike,
    α = +1), with the normal pinned by orientation +1."""
    def map_fn(u):
        h = u[0] * u[0] * 0.5 + u[1] * u[1] * 0.4 + 0.3
        return [h, u[0], u[1]] if character == "spacelike" else [u[0], h, u[1]]

    box = np.full(2, 0.4)
    return Immersion(space_form(3, cbar, index=1), 2, map_fn, -box, box, ("gl", "gl"), 1)


FINE = (4e-5, 2e-5, 1e-5)
GRAPH = {"kind": "graph", "quadratic": [[0.6, 0.05], [0.05, 0.2]], "half_width": 0.4}
SADDLE = {"kind": "graph", "quadratic": [[0, 1], [1, 0]], "half_width": 0.4, "orientation": 1}
# name: (immersion, grid shape, amplitude, ladder, bound on the exact gaps)
EXACT_CASES = {
    "sphere_r1.1_one": (lambda: standard_immersion("round_sphere", radius=1.1), (20, 40),
                        lambda u: u[0] * 0.0 + 1.0, LADDER, 1e-14),
    "sphere_r1.1_cos": (lambda: standard_immersion("round_sphere", radius=1.1), (20, 40),
                        lambda u: u[0].cos(), LADDER, 1e-13),
    "sphere_r1.1_harmonic22": (lambda: standard_immersion("round_sphere", radius=1.1), (20, 40),
                               lambda u: (u[0].sin() * u[0].sin()) * (u[1] * 2.0).cos(), LADDER,
                               1e-13),
    # the graph whose coarse ladder looks converged at a gap of 9e-2
    "graph_coarse_ladder": (lambda: standard_immersion(**GRAPH), (16, 16), _bump, LADDER, 1e-13),
    "graph": (lambda: standard_immersion(**GRAPH), (16, 16), _bump, FINE, 1e-13),
    "saddle": (lambda: standard_immersion(**SADDLE), (16, 16),
               lambda u: _bump(u) * (u[0] * u[1] * 2.0 + 1.0), LADDER, 1e-13),
    "minkowski_spacelike": (lambda: _lorentzian_graph(0.0, "spacelike"), (12, 12), _bump, FINE,
                            1e-12),
    "de_sitter_spacelike": (lambda: _lorentzian_graph(1.0, "spacelike"), (12, 12), _bump, FINE,
                            1e-12),
    "de_sitter_timelike": (lambda: _lorentzian_graph(1.0, "timelike"), (16, 16), _bump, FINE,
                           1e-12),
}


class TestExactFirstVariation:
    """The exact route against the ±s ladder, in both deformation modes."""

    @pytest.mark.parametrize("mode", ["chart_linear", "ambient_exponential"])
    @pytest.mark.parametrize("case", sorted(EXACT_CASES))
    def test_agrees_with_the_ladder_within_its_error(self, case, mode):
        build, shape, f, s_ladder, bound = EXACT_CASES[case]
        imm = build()
        res, lad = _exact_and_ladder(imm, f, grid_for_immersion(imm, shape), s_ladder, mode)
        assert max(res.gaps.values()) <= bound
        assert _within_ladder_error(res, lad)

    def test_coarse_ladder_looks_converged_where_the_exact_gap_is_rounding(self):
        build, shape, f, s_ladder, _ = EXACT_CASES["graph_coarse_ladder"]
        imm = build()
        res, lad = _exact_and_ladder(imm, f, grid_for_immersion(imm, shape), s_ladder)
        ladder_gap = abs(lad.value[1] - res.rhs_area_ii) / (1 + abs(res.rhs_area_ii))
        assert ladder_gap > 1e-2 and lad.slopes((res.rhs_area, res.rhs_area_ii))[1] > 1.8
        assert res.gaps["area_ii"] <= 1e-10

    @pytest.mark.parametrize("case, flips", [("saddle", 128), ("de_sitter_timelike", 48)])
    def test_auto_orientation_that_flips_between_points_raises(self, case, flips):
        # orientation 0 flips the normal where tr A < 0: on the saddle at 128
        # of 256 points, on the timelike de Sitter graph at 48, and the
        # first-variation identities do not hold for a field that jumps
        # between f·U and −f·U (Area_II gaps of 4.5); one sign is exact
        build, shape, _, _, bound = EXACT_CASES[case]
        imm = build()
        grid = grid_for_immersion(imm, shape)
        with pytest.raises(GeometryError, match=f"flipped the normal at {flips} .*pass orientation"):
            first_variation_check(dataclasses.replace(imm, orientation=0), _bump, grid)
        for sign in (1, -1):
            res = first_variation_check(dataclasses.replace(imm, orientation=sign), _bump, grid)
            assert max(res.gaps.values()) <= bound

    @pytest.mark.parametrize("case", ["graph", "minkowski_spacelike", "de_sitter_spacelike"])
    def test_auto_orientation_of_one_sign_is_accepted(self, case):
        build, shape, f, _, bound = EXACT_CASES[case]
        imm = dataclasses.replace(build(), orientation=0)
        res = first_variation_check(imm, f, grid_for_immersion(imm, shape))
        assert max(res.gaps.values()) <= bound

    def test_lhs_is_the_derivative_of_the_areas(self):
        # d/ds of (Area, Area_II)(μ_s) for the concentric spheres μ_s of
        # radius R − s: (−8πR, −4π), with no step to take
        imm = standard_immersion("round_sphere", radius=1.1)
        res = first_variation_check(imm, lambda u: u[0] * 0.0 + 1.0, lat_long_sphere(20, 40))
        assert_allclose([res.lhs_area, res.lhs_area_ii], [-8.8 * math.pi, -4 * math.pi],
                        rtol=1e-14)


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


    @pytest.mark.parametrize("mode", ["chart_linear", "ambient_exponential"])
    def test_agrees_with_a_difference_of_the_deformed_forms(self, mode):
        from ladder_oracle import deformed_family, richardson

        imm = standard_immersion("perturbed_ovaloid", seed=7, amplitude=0.02)

        def f(w):
            return w[0].cos() * 0.5 + 1.0

        u = np.array([1.1, 0.7])
        steps = (1e-3, 5e-4)
        family = deformed_family(imm, f, mode, [t for s in steps for t in (s, -s)])
        ii = [surface_point(member, u, order=2).second for member in family]
        diffs = [(ii[2 * k] - ii[2 * k + 1]) / (2 * s) for k, s in enumerate(steps)]
        value = richardson(diffs)
        error = np.abs(value - diffs[-1]) + 1e-9
        for i, j in ((0, 0), (0, 1), (1, 1)):
            numeric, formula, gap = second_form_variation_check(imm, f, u, i, j)
            assert abs(numeric - value[i, j]) <= error[i, j]
            assert gap < 1e-12

    def test_second_form_variation_evaluates_the_base_once(self, monkeypatch):
        # one frame at u over the parameters, then one over them and ε
        from secondform import hypersurface, variation

        calls = []
        original = hypersurface._frame

        def counting(imm, space, xc):
            calls.append((imm, space.nvars, space.order))
            return original(imm, space, xc)

        for module in (hypersurface, variation):
            monkeypatch.setattr(module, "_frame", counting)
        imm = standard_immersion("round_sphere", radius=1.0)
        _, _, gap = second_form_variation_check(
            imm, lambda w: w[0].cos() * 0.5 + 1.0, np.array([1.0, 2.0]), 0, 1
        )
        assert calls == [(imm, 2, 3), (imm, 3, 3)]
        assert gap < 1e-6
