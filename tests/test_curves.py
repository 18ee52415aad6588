"""Curve specialization: Frenet data, H_II formula, Length_II, the ODEs."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from secondform.curves import (
    catenary_family_kappa,
    curve_from_descriptor,
    frenet,
    h_ii_curve,
    integrate_ii_minimal,
    length_ii,
    ode_residual,
    standard_curve,
)
from secondform.errors import BadParameters, BlowUp, NotFrenet


class TestFrenet:
    def test_circle_curvature(self):
        curve = standard_curve("circle_e2", radius=2.0)
        data = frenet(curve, np.array([0.0, 1.0, 3.5]))
        assert_allclose(data.kappa, 0.5, atol=1e-12)
        assert data.alpha == 1.0 and data.beta == 1.0
        assert np.max(data.frenet_residual) < 1e-10

    def test_latitude_circle_kappa_cot(self):
        curve = standard_curve("latitude_circle_s2", colatitude=math.pi / 4)
        data = frenet(curve, np.array([0.2, 1.9]))
        assert_allclose(data.kappa, 1.0, atol=1e-10)

    def test_straight_line_not_frenet(self):
        curve = standard_curve("line_e2")
        with pytest.raises(NotFrenet):
            frenet(curve, np.array([0.3]))

    def test_catenary_curvature_profile(self):
        curve = standard_curve("catenary_e2")
        s = np.array([-1.0, 0.0, 0.7, 2.0])
        data = frenet(curve, s)
        assert_allclose(data.kappa, 1.0 / (1.0 + s**2), atol=1e-10)


class TestHIICurve:
    def test_circle_h_ii(self):
        for radius in (0.5, 1.0, 3.0):
            curve = standard_curve("circle_e2", radius=radius)
            assert_allclose(h_ii_curve(curve, np.array([0.4])), 1 / (2 * radius), atol=1e-10)

    def test_s1_over_sqrt2_ii_minimal(self):
        curve = standard_curve("latitude_circle_s2", colatitude=math.pi / 4)
        vals = h_ii_curve(curve, np.array([0.0, 0.9, 2.2]))
        assert np.max(np.abs(vals)) < 1e-10

    def test_catenary_ii_minimal_everywhere(self):
        curve = standard_curve("catenary_e2")
        vals = h_ii_curve(curve, np.array([-1.5, 0.0, 0.4, 1.0, 2.5]))
        assert np.max(np.abs(vals)) < 1e-9


class TestLengthII:
    def test_full_circle_closed_form(self):
        for radius in (1.0, 4.0):
            curve = standard_curve("circle_e2", radius=radius)
            val = length_ii(curve, 0.0, 2 * math.pi * radius)
            assert_allclose(val, 2 * math.pi * math.sqrt(radius), rtol=1e-12)

    def test_arc_length_ii_decreases_with_radius(self):
        # chord of length d = 1: arc between fixed endpoints on circles of
        # growing radius; Length_II → 0 as R → ∞
        d = 1.0
        vals = []
        for radius in (1.0, 10.0, 100.0):
            curve = standard_curve("circle_e2", radius=radius)
            arc = 2 * radius * math.asin(d / (2 * radius))
            vals.append(length_ii(curve, 0.0, arc))
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 0.11  # ≈ d/√R = 0.1

    def test_zero_interval(self):
        curve = standard_curve("circle_e2", radius=1.0)
        assert length_ii(curve, 0.3, 0.3) == 0.0


class TestODEResidual:
    def test_catenary_family_residual(self):
        # exact derivatives of κ = A/w, w = A²(s+Q)²+1
        for a_par, q_par in ((1.0, 0.0), (2.0, -0.4), (0.5, 1.3)):
            for s in (0.0, 0.5, 2.0):
                w = a_par**2 * (s + q_par) ** 2 + 1.0
                k = a_par / w
                kp = -2 * a_par**3 * (s + q_par) / w**2
                kpp = -2 * a_par**3 / w**2 + 8 * a_par**5 * (s + q_par) ** 2 / w**3
                assert abs(ode_residual(k, kp, kpp, "planar")) < 1e-12

    def test_catenary_family_residual_exact_derivatives(self):
        # at (A,Q) = (1,0): κ = 1/(1+s²), κ' = −2s/(1+s²)², κ'' = (6s²−2)/(1+s²)³
        for s in (0.0, 0.5, 2.0):
            k = 1 / (1 + s**2)
            kp = -2 * s / (1 + s**2) ** 2
            kpp = (6 * s**2 - 2) / (1 + s**2) ** 3
            assert abs(ode_residual(k, kp, kpp, "planar")) < 1e-12

    def test_spherical_constant_one(self):
        assert ode_residual(1.0, 0.0, 0.0, "unit_sphere") == 0.0

    def test_planar_circle_not_minimal(self):
        assert ode_residual(1.0, 0.0, 0.0, "planar") == 4.0


class TestIntegrate:
    def test_planar_matches_closed_form(self):
        sol = integrate_ii_minimal("planar", 1.0, 0.0, 3.0)
        assert np.max(np.abs(sol.kappa - 1.0 / (1.0 + sol.s**2))) < 1e-12
        assert sol.family_max_dev < 1e-12
        assert_allclose([sol.family_A, sol.family_Q], [1.0, 0.0], atol=1e-12)

    def test_planar_kappa0_two(self):
        sol = integrate_ii_minimal("planar", 2.0, 0.0, 2.0)
        assert np.max(np.abs(sol.kappa - 2.0 / (4.0 * sol.s**2 + 1.0))) < 1e-12

    def test_spherical_constant_solution(self):
        sol = integrate_ii_minimal("unit_sphere", 1.0, 0.0, 2 * math.pi)
        assert np.max(np.abs(sol.kappa - 1.0)) < 1e-12

    def test_phi_third_derivative_vanishes(self):
        sol = integrate_ii_minimal("planar", 1.3, -0.2, 2.0)
        assert sol.phi_third_deriv_max < 1e-10

    def test_family_shift_property(self):
        s = np.linspace(0, 2, 40)
        shifted = catenary_family_kappa(1.7, 0.0, s + 0.6)
        direct = catenary_family_kappa(1.7, 0.6, s)
        assert_allclose(shifted, direct, rtol=1e-15)

    @pytest.mark.parametrize("kappa0, kappa_prime0, s_max", [(1.2, 0.3, 3.0), (0.7, -0.2, 2 * math.pi)])
    def test_sweeps_match_rk4_at_16384_steps(self, kappa0, kappa_prime0, s_max):
        # non-constant unit-sphere solutions, which have no closed form here
        from jet_oracles import rk4_ii_minimal_oracle

        sol = integrate_ii_minimal("unit_sphere", kappa0, kappa_prime0, s_max)
        ref = rk4_ii_minimal_oracle("unit_sphere", kappa0, kappa_prime0, s_max, 16384)[:, ::4]
        assert np.array_equal(sol.s, np.linspace(0.0, s_max, 4097))
        assert np.ptp(sol.kappa) > 0.1
        assert np.max(np.abs(sol.kappa - ref[0])) <= 1e-12
        assert np.max(np.abs(sol.kappa_prime - ref[1])) <= 1e-12

    def test_a_long_interval_settles(self):
        # one path to s = 180 would need more than PICARD_MAX_SEGMENTS; the
        # first 256 intervals are the whole grid of a run to 180/16
        long = integrate_ii_minimal("unit_sphere", 0.7, -0.2, 180.0)
        short = integrate_ii_minimal("unit_sphere", 0.7, -0.2, 180.0 / 16)
        assert long.s[256] == short.s[-1]
        assert abs(long.kappa[256] - short.kappa[-1]) <= 1e-14
        assert abs(long.kappa_prime[256] - short.kappa_prime[-1]) <= 1e-14
        assert 0.6 < np.min(long.kappa) and np.max(long.kappa) < 1.5

    def test_blow_up_guard(self):
        with pytest.raises(BlowUp):
            integrate_ii_minimal("planar", 1e-6, -10.0, 5.0)

    def test_bad_parameters(self):
        with pytest.raises(BadParameters):
            integrate_ii_minimal("planar", -1.0, 0.0, 1.0)
        with pytest.raises(BadParameters):
            integrate_ii_minimal("weird", 1.0, 0.0, 1.0)


def test_descriptor_roundtrip():
    curve = curve_from_descriptor({"kind": "circle_e2", "radius": 2.0})
    assert_allclose(frenet(curve, np.array([0.1])).kappa, 0.5, atol=1e-12)
