"""Geodesic spheres, the series catalog, remainders, flatness diagnostics."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from secondform.ambient import curvature_jet, flat_chart, product_chart, space_form
from secondform.errors import ConjugatePoint, DimensionTooSmall, JetTooShallow
from secondform.hypersurface import surface_point
from secondform.spheres import (
    FramedJet,
    area_derivative_check,
    flatness_diagnostic,
    geodesic_sphere,
    geodesic_sphere_patch,
    h_ii_recombination_error,
    matrix_series,
    numeric_sphere_quantities,
    series_eval,
    series_vs_numeric,
    sphere_remainder_studies,
    synthetic_framed_jet,
    unit_sphere_area,
)

E0_3 = np.array([1.0, 0.0, 0.0])


def framed_s3():
    return FramedJet.from_curvature_jet(
        curvature_jet(space_form(3, 1.0), np.zeros(3), order=2), E0_3
    )


class TestGeodesicSphereImmersion:
    def test_flat_sphere(self):
        sphere = geodesic_sphere(flat_chart(3), np.zeros(3), 0.5)
        data = surface_point(sphere, np.array([[1.0, 2.0]]))
        assert_allclose(data.shape[0], 2.0 * np.eye(2), atol=1e-12)
        assert_allclose(data.mean, 2.0, atol=1e-12)

    def test_s3_sphere_lambda_cot(self):
        sphere = geodesic_sphere(space_form(3, 1.0), np.zeros(3), 0.4)
        data = surface_point(sphere, np.array([[0.9, 1.5], [1.9, 4.0]]))
        assert_allclose(data.lam, 1 / math.tan(0.4), atol=1e-6)

    def test_conjugate_point(self):
        with pytest.raises(ConjugatePoint):
            geodesic_sphere(space_form(3, 1.0), np.zeros(3), math.pi)

    def test_patch_hits_gamma_r(self):
        chart = space_form(3, 1.0)
        patch = geodesic_sphere_patch(chart, np.zeros(3), 0.5, E0_3)
        data = surface_point(patch, np.zeros((1, 2)), order=2)
        assert_allclose(data.x[0], [2 * math.tan(0.25), 0, 0], atol=1e-10)

    def test_offcenter_sphere(self):
        chart = space_form(3, 1.0)
        center = np.array([0.15, -0.1, 0.2])
        sphere = geodesic_sphere(chart, center, 0.3)
        data = surface_point(sphere, np.array([[1.0, 1.0]]))
        assert_allclose(data.lam, 1 / math.tan(0.3), atol=1e-6)


class TestSeriesEval:
    def test_euclidean_series_exact(self):
        jet = curvature_jet(flat_chart(4), np.zeros(4), order=2)
        e0 = np.array([0.0, 1.0, 0.0, 0.0])
        for r in (0.1, 0.7):
            assert_allclose(series_eval(jet, e0, r, "H_II"), 3 / (2 * r), atol=1e-14)
            assert_allclose(
                series_eval(jet, e0, r, "Area_II"), r**1.5 * unit_sphere_area(3), atol=1e-12
            )

    def test_s3_h_ii_series_matches_2cot2r_truncation(self):
        f = framed_s3()
        for r in (0.05, 0.2):
            truth = 1 / r - 4 * r / 3 - 16 * r**3 / 45
            assert_allclose(series_eval(f, E0_3, r, "H_II"), truth, atol=1e-13)

    def test_s3_area_series_matches_sin_truncation(self):
        f = framed_s3()
        r = 0.15
        truth = 4 * math.pi * r * (1 - 2 * r**2 / 3 + 2 * r**4 / 15)
        assert_allclose(series_eval(f, E0_3, r, "Area_II"), truth, rtol=1e-13)

    def test_matrix_series_isotropy_on_s3(self):
        f = framed_s3()
        r = 0.2
        a_mat = matrix_series(f, "shape_A", r)
        # space form: A series = (1/r − r/3 − r³/45)·id (cot truncation)
        assert_allclose(a_mat, (1 / r - r / 3 - r**3 / 45) * np.eye(2), atol=1e-13)
        g_mat = matrix_series(f, "metric_g", r)
        # ḡ_ii(γ(r)) = (sin r / r)² truncation: 1 − r²/3 + 2r⁴/45... here to r⁴:
        # −6∇²R + (16/3)ΣRR = (16/3)δ at C̄=1: coefficient (16/3)/120 = 2/45
        assert_allclose(g_mat, (1 - r**2 / 3 + 2 * r**4 / 45) * np.eye(2), atol=1e-13)
        ii_mat = matrix_series(f, "second_form_II", r)
        # II = cot(r)·(sin r)²-metric on coordinates: sin r cos r / r² ·δ to r³:
        # 1/r − 2r/3 + 2r³/15 matches the printed coefficients at C̄=1
        assert_allclose(ii_mat, (1 / r - 2 * r / 3 + 2 * r**3 / 15) * np.eye(2), atol=1e-13)
        gam = matrix_series(f, "christoffel_II", r)
        assert_allclose(gam, 0.0, atol=1e-14)  # isotropic: leading Γ_II vanishes

    def test_direction_independence_space_forms(self):
        chart = space_form(4, 1.0)
        jet = curvature_jet(chart, np.zeros(4), order=2)
        rng = np.random.default_rng(1)
        vals = []
        g = jet.metric
        for _ in range(5):
            v = rng.normal(size=4)
            v = v / math.sqrt(v @ g @ v)
            vals.append(series_eval(jet, v, 0.2, "H_II"))
        assert np.max(np.abs(np.diff(vals))) < 1e-12

    def test_jet_too_shallow(self):
        jet = curvature_jet(space_form(3, 1.0), np.zeros(3), order=0)
        with pytest.raises(JetTooShallow):
            series_eval(jet, E0_3, 0.1, "H_II")


class TestRecombination:
    def test_fifty_random_jets(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for i in range(50):
            f = synthetic_framed_jet(3 + (i % 3), rng)
            worst = max(worst, h_ii_recombination_error(f))
        assert worst < 1e-12

    def test_honest_jets_also_recombine(self):
        for chart in (space_form(3, 1.0), space_form(4, -1.0)):
            jet = curvature_jet(chart, 0.05 * np.ones(chart.dim), order=2)
            e0 = np.zeros(chart.dim)
            g = jet.metric
            e0[0] = 1 / math.sqrt(g[0, 0])
            f = FramedJet.from_curvature_jet(jet, e0)
            assert h_ii_recombination_error(f) < 1e-12

    def test_invariants_computed_once_per_jet(self, monkeypatch):
        from secondform import spheres

        calls = [0]
        original = spheres._invariants

        def counting(f):
            calls[0] += 1
            return original(f)

        monkeypatch.setattr(spheres, "_invariants", counting)
        h_ii_recombination_error(synthetic_framed_jet(4, np.random.default_rng(3)))
        assert calls[0] == 1


class TestNumericVsSeries:
    def test_areas_share_one_sphere_integration(self, exp_map_batches):
        # one exp_map call for the patch, one for the whole sphere (both areas)
        from secondform.variation import area, grid_for_immersion

        chart, r = space_form(4, 1.0), 0.3
        e0 = np.array([1.0, 0.0, 0.0, 0.0])
        vals = numeric_sphere_quantities(chart, np.zeros(4), e0, r, n_steps=16, grid_shape=(3, 4, 6))
        assert len(exp_map_batches) == 2
        sphere = geodesic_sphere(chart, np.zeros(4), r, n_steps=16)
        grid = grid_for_immersion(sphere, (3, 4, 6))
        assert vals["Area"] == area(sphere, grid, "first_form")
        assert vals["Area_II"] == area(sphere, grid, "second_form")

    def test_flat_pipeline_exact(self):
        vals = numeric_sphere_quantities(flat_chart(3), np.zeros(3), E0_3, 0.25)
        assert abs(vals["H_II"] - 2 / (2 * 0.25)) < 1e-10
        assert abs(vals["Area_II"] - unit_sphere_area(2) * 0.25) < 1e-10

    def test_s3_remainder_slopes(self):
        radii = (0.05, 0.1, 0.2)
        studies = sphere_remainder_studies(
            space_form(3, 1.0), np.zeros(3), E0_3,
            ["H", "log_detA", "H_II", "Area_II"], radii,
        )
        assert studies["H"].slope >= 3.5
        assert studies["log_detA"].slope >= 4.5
        assert studies["H_II"].slope >= 3.5
        assert studies["Area_II"].slope >= 4.5

    def test_bumpy_chart_h_series_consistency(self):
        # a non-symmetric metric exercises the odd-order series terms
        from secondform.ambient import registry_chart

        chart = registry_chart("bumpy_e3")
        n = np.array([0.2, -0.1, 0.15])
        g = curvature_jet(chart, n, order=0).metric
        e0 = np.array([0.6, 0.5, -0.4])
        e0 = e0 / math.sqrt(e0 @ g @ e0)
        study = series_vs_numeric(chart, n, e0, "H", (0.08, 0.12, 0.18), n_steps=96)
        assert study.slope >= 3.5
        assert np.max(np.abs(study.remainder)) < 1e-4


class TestFlatness:
    def test_euclidean_zeros(self):
        diag = flatness_diagnostic(curvature_jet(flat_chart(4), np.zeros(4), order=0))
        assert diag["condition_residuals"] == (0.0, 0.0)
        assert diag["weyl_identity_gap"] < 1e-14

    def test_s4_fails_condition(self):
        diag = flatness_diagnostic(curvature_jet(space_form(4, 1.0), np.zeros(4), order=0))
        assert_allclose(diag["Sbar"], 12.0, atol=1e-9)
        assert diag["condition_residuals"][0] > 1.0
        assert diag["weyl_identity_gap"] < 1e-8

    def test_s2xs2_condition_and_weyl(self):
        chart = product_chart(space_form(2, 1.0), space_form(2, 1.0))
        diag = flatness_diagnostic(curvature_jet(chart, 0.05 * np.ones(4), order=0))
        assert_allclose(diag["Sbar"], 4.0, atol=1e-9)
        assert diag["condition_residuals"][0] > 1.0
        assert diag["weyl_identity_gap"] < 1e-8

    def test_implication_for_low_dimension(self):
        # if the condition held with m ≤ 4, the Weyl identity forces ‖R̄‖ = 0:
        # verified numerically by checking ‖W̄‖² = (m−5)/(m−1)·‖R̄‖² under it
        for chart in (flat_chart(4), space_form(4, 1.0)):
            diag = flatness_diagnostic(curvature_jet(chart, np.zeros(chart.dim), order=0))
            m = chart.dim - 1
            s_res, norm_res = diag["condition_residuals"]
            if s_res < 1e-10 and norm_res < 1e-10:
                lhs = diag["weyl_norm2"]
                rhs = (m - 5) / (m - 1) * diag["riem_norm2"]
                assert abs(lhs - rhs) < 1e-8
                assert diag["riem_norm2"] < 1e-10  # flat follows

    def test_dimension_guard(self):
        with pytest.raises(DimensionTooSmall):
            flatness_diagnostic(curvature_jet(flat_chart(2), np.zeros(2), order=0))


class TestAreaDerivative:
    def test_flat_space(self):
        res = area_derivative_check(flat_chart(3), np.zeros(3), 1.0)
        assert_allclose(res["h_ii_integral"], 4 * math.pi, atol=1e-8)
        assert res["relative_gap"] < 1e-6

    def test_s3(self):
        res = area_derivative_check(space_form(3, 1.0), np.zeros(3), 0.3)
        truth = 4 * math.pi * math.cos(0.6)
        assert_allclose(res["h_ii_integral"], truth, atol=1e-6)
        assert_allclose(res["d_area_ii_dr"], truth, atol=1e-6)
        assert res["relative_gap"] < 1e-5


def test_area_derivative_tiny_radius():
    # leading-behavior regime: both sides ~ (m/2) alpha_m r^{m/2-1}
    res = area_derivative_check(flat_chart(3), np.zeros(3), 0.02, dr=0.004)
    assert res["relative_gap"] < 1e-3
    res_s3 = area_derivative_check(space_form(3, 1.0), np.zeros(3), 0.02, dr=0.004)
    assert res_s3["relative_gap"] < 1e-3


def test_all_scalar_series_blocks_on_generic_metric():
    # every printed series block individually vs the numeric pipeline on a
    # metric with no symmetry (nonzero Z field, nonzero curvature gradients):
    # the mutual-consistency recombination check cannot see a transcription
    # error that cancels in the H_II combination, this can
    import math

    from secondform.ambient import registry_chart

    chart = registry_chart("bumpy_e3")
    n = np.array([0.2, -0.1, 0.15])
    g = curvature_jet(chart, n, order=0).metric
    e0 = np.array([0.6, 0.5, -0.4])
    e0 = e0 / math.sqrt(e0 @ g @ e0)
    quantities = ["lap_ii_log_detA", "div_ii_Z", "tr_ii_ricbar", "tr_ii_ric", "H_II"]
    studies = sphere_remainder_studies(chart, n, e0, quantities, (0.08, 0.12, 0.18), n_steps=96)
    for q in quantities:
        assert studies[q].slope >= 3.5, f"{q}: slope {studies[q].slope}"
    # the Z field is genuinely nonzero here, so div_II Z is a live check
    assert abs(studies["div_ii_Z"].numeric[-1]) > 1e-4


# ---------------------------------------------------------------------------
# sphere families: one integration per family of radii and per node set
# ---------------------------------------------------------------------------


def _map_coeffs(imm, u_jets):
    return np.stack([j.coeffs for j in imm.map_fn(u_jets)])


class TestSphereFamilies:
    # (6, 12) is 72 nodes, whose products take the gathered path; (20, 40)
    # is 800 nodes, which take the row loop
    @pytest.mark.parametrize("shape", [(6, 12), (20, 40)])
    def test_truncated_map_equals_a_fresh_lower_order(self, shape, exp_map_batches):
        from secondform.jets import seed_jets
        from secondform.variation import grid_for_immersion

        chart = space_form(3, 1.0)
        sphere = geodesic_sphere(chart, np.zeros(3), 0.3, n_steps=16)
        nodes = grid_for_immersion(sphere, shape).nodes
        _map_coeffs(sphere, seed_jets(nodes, 2, 4))
        served = {k: _map_coeffs(sphere, seed_jets(nodes, 2, k)) for k in (3, 2)}
        assert len(exp_map_batches) == 1
        for k, got in served.items():
            fresh = geodesic_sphere(chart, np.zeros(3), 0.3, n_steps=16)
            assert np.array_equal(got, _map_coeffs(fresh, seed_jets(nodes, 2, k)))
        assert len(exp_map_batches) == 3

    def test_other_jets_are_integrated_afresh(self, exp_map_batches):
        from secondform.jets import seed_jets
        from secondform.variation import grid_for_immersion

        chart = space_form(3, 1.0)
        sphere = geodesic_sphere(chart, np.zeros(3), 0.3, n_steps=16)
        nodes = grid_for_immersion(sphere, (4, 8)).nodes
        u = seed_jets(nodes, 2, 4)
        _map_coeffs(sphere, u)
        doubled = [j * 2.0 for j in u]  # other nodes
        steeper = [j * 2.0 - nodes[:, i] for i, j in enumerate(u)]  # same nodes, other slopes
        for jets in ([j.truncate(2) for j in steeper], doubled, steeper):
            got = _map_coeffs(sphere, jets)
            fresh = geodesic_sphere(chart, np.zeros(3), 0.3, n_steps=16)
            assert np.array_equal(got, _map_coeffs(fresh, jets))
        assert len(exp_map_batches) == 1 + 2 * 3

    def test_cached_arrays_are_read_only(self):
        from secondform.jets import seed_jets

        sphere = geodesic_sphere(space_form(3, 1.0), np.zeros(3), 0.3, n_steps=8)
        u = np.array([[1.0, 2.0], [0.5, 1.0]])
        for order in (4, 2):
            x = sphere.map_fn(seed_jets(u, 2, order))
            with pytest.raises(ValueError):
                x[0].coeffs[0, 0] = 1.0

    def test_area_derivative_check_integrates_once(self, exp_map_batches):
        res = area_derivative_check(space_form(3, 1.0), np.zeros(3), 0.3, n_steps=32,
                                    grid_shape=(6, 12))
        assert exp_map_batches == [(72,)]
        assert res["relative_gap"] < 1e-6

    def test_area_derivative_check_validates_every_radius_first(self, exp_map_batches):
        from secondform.errors import BadDirection

        chart = space_form(3, 1.0)
        with pytest.raises(BadDirection):
            area_derivative_check(chart, np.zeros(3), 0.004, dr=0.005, n_steps=8)
        with pytest.raises(ConjugatePoint):
            area_derivative_check(chart, np.zeros(3), math.pi - 0.003, dr=0.005, n_steps=8)
        assert exp_map_batches == []

    def test_first_variation_integrates_the_grid_once(self, exp_map_batches):
        from secondform.variation import first_variation_check, grid_for_immersion

        sphere = geodesic_sphere(space_form(3, 1.0), np.zeros(3), 0.45, n_steps=32)
        grid = grid_for_immersion(sphere, (6, 12))
        for f in (lambda u: u[0] * 0.0 + 1.0, lambda u: u[0].cos() + 1.3):
            res = first_variation_check(sphere, f, grid)
            assert max(res.gaps.values()) < 1e-3
        # the grid at order 4 (ii_geometry, then the deformed family's order-3
        # base by truncation) and the midpoint for the orientation, once each
        assert sorted(exp_map_batches) == [(), (72,)]

    def test_remainder_studies_integrate_once_per_family(self, exp_map_batches):
        chart, radii = space_form(3, 1.0), (0.1, 0.15, 0.2)
        studies = sphere_remainder_studies(chart, np.zeros(3), E0_3, ["H", "Area_II"], radii,
                                           n_steps=16, grid_shape=(4, 8))
        assert len(exp_map_batches) == 2
        # the largest radius is the family's endpoint: the one-radius result, bit for bit
        alone = numeric_sphere_quantities(chart, np.zeros(3), E0_3, 0.2, n_steps=16,
                                          grid_shape=(4, 8))
        assert studies["H"].numeric[-1] == alone["H"]
        assert studies["Area_II"].numeric[-1] == alone["Area_II"]
        del exp_map_batches[:]
        sphere_remainder_studies(chart, np.zeros(3), E0_3, ["H"], radii, n_steps=16)
        assert len(exp_map_batches) == 1
