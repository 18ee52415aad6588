"""The stacked fundamental-form frame against the object-array frame it replaced.

`frame_oracle` is the former `hypersurface.frame_jets`, one `Jet` per tensor
entry, with inverses by the adjugate and determinants by Laplace expansion;
the stacked frame must reproduce it on the common jet orders.
"""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from secondform import ambient as amb
from secondform import hypersurface, jets
from secondform import variation
from secondform.errors import DegenerateImmersion, GeometryError
from secondform.hypersurface import Immersion, _raised, frame_jets, standard_immersion
from secondform.iigeom import ii_geometry, sphere_inequality_report
from secondform.jets import Jet, jdet, jinv, seed_jets

from jet_oracles import christoffel_on_jets_oracle, coeffs, jdot, jmatvec, lapack_inv_oracle, metric_obj


def _generalized_cross(t, d):
    m = t.shape[0]
    n = np.empty(d, dtype=object)
    for a in range(d):
        rest = [c for c in range(d) if c != a]
        minor = np.empty((m, m), dtype=object)
        for i in range(m):
            for j, c in enumerate(rest):
                minor[i, j] = t[i, c]
        det = jdet(minor)
        n[a] = det if a % 2 == 0 else -det
    return n


def _shape_from_ii(ginv, ii, alpha, m):
    a = np.empty((m, m), dtype=object)
    for i in range(m):
        for j in range(m):
            acc = None
            for k in range(m):
                term = ginv[i, k] * ii[k, j]
                acc = term if acc is None else acc + term
            a[i, j] = acc * alpha
    return a


def frame_oracle(imm, u_jets):
    """dict of the frame's jets, entry by entry, at the former orders."""
    m, d = imm.param_dim, imm.ambient.dim
    space = u_jets[0].space
    x = [xi if isinstance(xi, Jet) else Jet.constant(space, xi) for xi in imm.map_fn(u_jets)]
    t = np.empty((m, d), dtype=object)
    for i in range(m):
        for a in range(d):
            t[i, a] = x[a].partial(i)
    order = space.order
    gbar = metric_obj(imm.ambient, [xa.truncate(order - 1) for xa in x])
    gbar_inv = jinv(gbar)
    g = np.empty((m, m), dtype=object)
    for i in range(m):
        for j in range(m):
            g[i, j] = jdot(gbar, t[i], t[j])
    ginv = jinv(g)
    n_cov = _generalized_cross(t, d)
    N = jmatvec(gbar_inv, n_cov)
    nn = jdot(gbar, N, N)
    alpha = np.sign(np.asarray(nn.value))
    inv_len = nn.sqrt_abs().reciprocal()
    U = np.array([N[a] * inv_len for a in range(d)], dtype=object)
    gamma_bar = christoffel_on_jets_oracle(imm.ambient, [xa.truncate(order - 2) for xa in x])
    ii = np.empty((m, m), dtype=object)
    for i in range(m):
        for j in range(m):
            ddx = []
            for k in range(d):
                acc = t[j, k].partial(i)
                for a in range(d):
                    for b in range(d):
                        acc = acc + gamma_bar[k, a, b] * t[i, a] * t[j, b]
                ddx.append(acc)
            ii[i, j] = jdot(gbar, ddx, U) * alpha
    A = _shape_from_ii(ginv, ii, alpha, m)
    tr_a = sum((A[i, i] for i in range(1, m)), A[0, 0])
    if imm.orientation == 0:
        flip = np.asarray(tr_a.value) < -1e-9
    else:
        flip = np.broadcast_to(imm.orientation < 0, np.shape(np.asarray(tr_a.value)))
    sgn = np.where(flip, -1.0, 1.0)
    U = np.array([ua * sgn for ua in U], dtype=object)
    ii = np.array([[e * sgn for e in row] for row in ii], dtype=object)
    A = _shape_from_ii(ginv, ii, alpha, m)
    tr_a = sum((A[i, i] for i in range(1, m)), A[0, 0])
    return {
        "t": t, "g": g, "ginv": ginv, "U": U, "II": ii, "A": A,
        "detA": jdet(A), "H": tr_a * (alpha / m), "alpha": alpha,
    }


def _s2xs2_graph():
    chart = amb.chart_from_descriptor(
        {"kind": "product", "factors": [{"kind": "space_form", "dim": 2, "Cbar": 1.0}] * 2}
    )

    def map_fn(u):
        a, b, c = u
        return [a, b * 0.9 + a * 0.1, c, (a * a) * 0.3 + (b * c) * 0.2 + a * 0.1 + 0.2]

    return Immersion(chart, 3, map_fn, -0.6 * np.ones(3), 0.6 * np.ones(3))


CASES = {
    "ovaloid_e3": lambda: standard_immersion("perturbed_ovaloid", seed=3, amplitude=0.05),
    "perturbed_s4": lambda: standard_immersion("perturbed_sphere_in_space_form", Cbar=1.0, m=3, seed=1),
    "perturbed_h4": lambda: standard_immersion(
        "perturbed_sphere_in_space_form", Cbar=-1.0, m=3, base_radius=0.5, seed=2
    ),
    # the σ form of Γ̄·U against the oracle's metric-derived Γ̄
    "bumpy_e3": lambda: replace(standard_immersion("round_sphere", radius=0.6), ambient=amb.registry_chart("bumpy_e3")),
    "s2xs2": _s2xs2_graph,
}


def _points(imm, n, seed):
    # well-conditioned: away from the poles and the box edges
    rng = np.random.default_rng(seed)
    lo, hi = imm.param_lo, imm.param_hi
    frac = rng.uniform(0.15, 0.85, (max(n, 1), imm.param_dim))
    u = lo + frac * (hi - lo)
    return u[0] if n == 0 else u


# batch () is one point; 153 points take the gathered products, 600 the row
# loop; one order-4 wide-batch case keeps the suite short
ORACLE_RUNS = [
    (case, order, n)
    for case in sorted(CASES)
    for order in (2, 3, 4)
    for n in (0, 153, 600)
    if not (n == 600 and order == 4 and case != "ovaloid_e3")
]


@pytest.mark.parametrize("case, order, n_points", ORACLE_RUNS)
def test_stacked_frame_matches_object_oracle(case, order, n_points):
    imm = CASES[case]()
    u_jets = seed_jets(_points(imm, n_points, seed=order), imm.param_dim, order)
    new = frame_jets(imm, u_jets)
    old = frame_oracle(imm, u_jets)
    assert_allclose(new.alpha, old["alpha"], rtol=0, atol=0)
    for name in ("t", "g", "ginv", "U", "II", "A", "detA", "H"):
        got = getattr(new, "detAc" if name == "detA" else name)
        want = coeffs(old[name])[: got.shape[0]]  # the stacked frame may keep fewer orders
        scale = np.max(np.abs(want))
        assert_allclose(got, want, rtol=0, atol=1e-12 * scale, err_msg=name)


def test_frame_orders_follow_their_readers():
    imm = CASES["ovaloid_e3"]()
    b = frame_jets(imm, seed_jets(_points(imm, 5, 0), 2, 4))
    assert b.space(b.t).order == 3 and b.space(b.U).order == 3
    assert b.space(b.g).order == 2 and b.space(b.ginv).order == 2
    assert b.space(b.II).order == 2 and b.space(b.detAc).order == 2
    # at order 3 (Gauss–Codazzi) g keeps the two derivatives its curvature reads
    b3 = frame_jets(imm, seed_jets(_points(imm, 5, 0), 2, 3))
    assert b3.space(b3.g).order == 2


def count_jet_multiplies(monkeypatch):
    calls = {"n": 0}
    mul = Jet.__mul__

    def counting(self, other):
        calls["n"] += 1
        return mul(self, other)

    monkeypatch.setattr(Jet, "__mul__", counting)
    monkeypatch.setattr(Jet, "__rmul__", counting)
    return calls


def test_ovaloid_ii_geometry_makes_few_jet_multiplies(monkeypatch):
    imm = standard_immersion("perturbed_ovaloid", seed=1, amplitude=0.03)
    th, ph = np.meshgrid(np.linspace(0.3, np.pi - 0.3, 9), np.linspace(0.0, 2 * np.pi, 17), indexing="ij")
    u = np.stack([th.ravel(), ph.ravel()], axis=-1)
    calls = count_jet_multiplies(monkeypatch)
    geo = ii_geometry(imm, u, on_error="mask")
    assert np.all(geo.valid)
    assert calls["n"] <= 400


def test_masked_singular_shape_operator_point_does_not_raise():
    # z = x²/2 + y³/6: II = diag(1, y)/√(1 + |∇z|²), exactly singular on y = 0
    def map_fn(u):
        x, y = u
        return [x, y, x * x * 0.5 + y * y * y * (1.0 / 6.0)]

    imm = Immersion(amb.flat_chart(3), 2, map_fn, -np.ones(2), np.ones(2))
    u = np.array([[0.2, -0.5], [0.2, 0.0], [-0.3, 0.0], [0.1, 0.4]])
    geo = ii_geometry(imm, u, on_error="mask")
    assert geo.valid.tolist() == [True, False, False, True]
    assert list(geo.invalid_reason[1:3]) == ["singular_shape"] * 2
    for key in ("variational", "principal", "gauss"):
        assert np.all(np.isnan(geo.h_ii[key][1:3]))
    # the valid points are what they are without the singular ones
    alone = ii_geometry(imm, u[[0, 3]])
    for key in ("variational", "gauss"):
        assert_allclose(geo.h_ii[key][[0, 3]], alone.h_ii[key], rtol=1e-12)
    rep = sphere_inequality_report(imm, u, geo=geo)
    assert rep.status == ["ok", "degenerate", "degenerate", "ok"]


def test_shape_operator_routes_still_guard():
    # a σ-gradient that is not the metric's gives both routes one connection
    # that is not ḡ's: through U ⊥ t_i it breaks A = −∇̄U against II via ∇̄∂∂
    chart = amb.space_form(3, 1.0)

    def sigma_grad(space, x):
        out = chart.sigma_grad_fn(space, x)
        out[0, 0] += 0.1
        return out

    imm = replace(standard_immersion("small_sphere_in_sphere", geodesic_radius=0.7),
                  ambient=replace(chart, sigma_grad_fn=sigma_grad))
    with pytest.raises(GeometryError, match="shape-operator routes disagree"):
        frame_jets(imm, seed_jets(np.array([1.0, 2.0]), 2, 2))


def test_shape_operator_bound_is_taken_per_point():
    # E³, t = identity, U = e₃: at point 0 |A| = 1e6, at point 1 A = 0 and
    # ∂U off by 1e-8, inside the bound of point 0's scale but not its own
    t = np.broadcast_to(np.eye(2, 3)[..., None], (2, 3, 2))
    u = np.broadcast_to(np.array([0.0, 0.0, 1.0])[:, None], (3, 2))
    a = np.zeros((2, 2, 2))
    a[0, 0, 0] = 1e6
    du = -np.einsum("ji...,jk...->ik...", a, t)
    gamma = np.zeros((3, 3, 3, 2))
    hypersurface._check_shape_operator_two_routes(a, t, u, du, gamma)
    du[0, 0, 1] += 1e-8
    with pytest.raises(GeometryError, match="shape-operator routes disagree by 1.000e-08"):
        hypersurface._check_shape_operator_two_routes(a, t, u, du, gamma)
    a[0, 0, 1] = 1e6  # at its own scale the same residual passes
    du = -np.einsum("ji...,jk...->ik...", a, t)
    du[0, 0, 1] += 1e-8
    hypersurface._check_shape_operator_two_routes(a, t, u, du, gamma)


CHART_KINDS = {
    "e3": lambda: amb.space_form(3, 0.0),
    "s4": lambda: amb.space_form(4, 1.0),
    "h4": lambda: amb.space_form(4, -1.0),
    "de_sitter": lambda: amb.space_form(3, 1.0, index=1),
    "anti_de_sitter": lambda: amb.space_form(3, -1.0, index=1),
    "minkowski": lambda: amb.space_form(3, 0.0, index=1),
    "s2xs2": lambda: amb.chart_from_descriptor(
        {"kind": "product", "factors": [{"kind": "space_form", "dim": 2, "Cbar": 1.0}] * 2}),
    "bumpy_e3": lambda: amb.registry_chart("bumpy_e3"),
}


@pytest.mark.parametrize("kind", sorted(CHART_KINDS))
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_closed_form_gamma_u_and_raised_normal_match_d3_contraction_and_inverse(kind, order):
    # the frame's Γ̄^k_ab u_k (d² entries) and ḡ⁻¹n off the diagonal, against
    # the d³ Γ̄ contracted with u and the Neumann-series inverse
    chart = CHART_KINDS[kind]()
    space = jets.jet_space(2, order)
    rng = np.random.default_rng(order)
    x = rng.uniform(-0.3, 0.3, (space.n, chart.dim, 9))  # inside every chart's domain
    u, n = rng.normal(size=(2, space.n, chart.dim, 9))
    gamma_u = amb.christoffel_u_on_jets(chart, space, x, u)
    want = jets.jeinsum(space, "kab...,k...->ab...", amb.christoffel_on_jets(chart, space, x), u)
    assert gamma_u.shape == want.shape == (space.n, chart.dim, chart.dim, 9)
    assert_allclose(gamma_u, want, rtol=0, atol=1e-13 * max(np.max(np.abs(want)), 1.0))
    gbar = chart.metric_fn(space, x)
    want = jets._inv(space, gbar, n)
    assert_allclose(_raised(space, gbar, n), want, rtol=0, atol=1e-13 * np.max(np.abs(want)))


def test_stacked_inverse_and_determinant_match_object_forms():
    rng = np.random.default_rng(7)
    for p, batch, order in [(1, (3,), 2), (2, (), 4), (3, (300,), 2), (4, (5,), 3)]:
        space = jets.jet_space(2, order)
        c = rng.normal(size=(space.n, p, p) + batch)
        c[0] += 3 * np.eye(p).reshape((p, p) + (1,) * len(batch))
        obj = np.empty((p, p), dtype=object)
        for i in range(p):
            for j in range(p):
                obj[i, j] = Jet(space, c[:, i, j])
        inv = jets._inv(space, c)
        want = coeffs(jinv(obj))
        assert_allclose(inv, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))
        v = rng.normal(size=(space.n, p) + batch)
        assert_allclose(
            jets._inv(space, c, v), jets.jeinsum(space, "ik...,k...->i...", inv, v), rtol=0, atol=1e-12 * np.max(np.abs(want))
        )
        det = jets._wedge(space, [c[:, :, j] for j in range(p)])
        want_det = coeffs(np.array([jdet(obj)], dtype=object))[:, 0] if p > 1 else c[:, 0, 0]
        assert_allclose(det, want_det, rtol=0, atol=1e-13 * np.max(np.abs(want_det)))


def test_stacked_inverse_masks_exactly_singular_points():
    space = jets.jet_space(2, 2)
    c = np.random.default_rng(3).normal(size=(space.n, 2, 2, 3))
    c[0, :, :, 1] = [[1.0, 2.0], [2.0, 4.0]]
    inv = jets._inv(space, c)
    assert np.all(np.isnan(inv[..., 1]))
    assert np.all(np.isfinite(inv[..., [0, 2]]))


@pytest.mark.parametrize("case", sorted(CASES))
def test_inverse_matches_lapack_reference_on_frames(case):
    imm = CASES[case]()
    for n_points in (0, 153):
        b = frame_jets(imm, seed_jets(_points(imm, n_points, seed=5), imm.param_dim, 4))
        for name in ("g", "gbar", "II"):
            mat = getattr(b, name)
            space = b.space(mat)
            want = lapack_inv_oracle(space, mat)
            got = jets._inv(space, mat)
            assert_allclose(got, want, rtol=0, atol=1e-13 * np.max(np.abs(want)), err_msg=name)


NO_LAPACK_CASES = {
    "ovaloid_e3": (CASES["ovaloid_e3"], (9, 17)),
    "clifford": (lambda: standard_immersion("clifford"), (8, 16)),
    "perturbed_s4": (CASES["perturbed_s4"], (3, 4, 6)),
    "perturbed_h4": (CASES["perturbed_h4"], (3, 4, 6)),
}


@pytest.mark.parametrize("case", sorted(NO_LAPACK_CASES))
def test_frame_path_makes_no_lapack_call(case, monkeypatch):
    """On definite g the frame, II-geometry, both areas and the first
    variation make no per-point library call: the rank check reads the
    normal covector, the spectrum comes from ``jets._pencil_eigh``."""
    def refuse(*args, **kwargs):
        raise AssertionError("per-point LAPACK call on the frame path")

    make, shape = NO_LAPACK_CASES[case]
    imm = make()
    grid = variation.grid_for_immersion(imm, shape)
    for name in ("svd", "eigh", "eigvalsh", "cholesky", "solve", "eig", "eigvals", "inv", "det"):
        monkeypatch.setattr(np.linalg, name, refuse)
    b = frame_jets(imm, seed_jets(grid.nodes, imm.param_dim, 4))
    assert np.all(np.isfinite(b.ginv)) and np.all(b.principal[3])
    geo = ii_geometry(imm, grid.nodes)
    assert geo.valid.shape == (grid.nodes.shape[0],) and np.all(geo.valid) and np.all(geo.principal_valid)
    area, area_ii = variation.areas(imm, grid)
    assert area > 0 and area_ii > 0 and variation.area(imm, grid, "second_form") == area_ii
    res = variation.first_variation_check(imm, lambda u: u[0] * 0.1 + 1.0, grid, geo=geo)
    assert np.all(np.isfinite(list(res.gaps.values())))


def _jacobian(sv, d, seed):
    """Values t (m, d) with singular values `sv`, and its normal covector."""
    rng = np.random.default_rng(seed)
    m = len(sv)
    left = np.linalg.qr(rng.normal(size=(m, m)))[0]
    right = np.linalg.qr(rng.normal(size=(d, d)))[0][:m]
    t = left @ (np.asarray(sv)[:, None] * right)
    return t, jets._wedge(jets.jet_space(m, 0), [t[None, i] for i in range(m)])[0]


# (singular values, d, whether the Cauchy–Binet bound certifies the point)
RANK_CASES = [
    ((1.0, 0.5 * hypersurface.RANK_FLOOR), 3, False),
    ((1.0, 2.0 * hypersurface.RANK_FLOOR), 3, True),
    ((1.0, 1.0, 0.5 * hypersurface.RANK_FLOOR), 4, False),
    # at m = 3, |n|/‖t‖_F² ≤ σ_min/2: at 2× the floor the SVD decides
    ((1.0, 1.0, 2.0 * hypersurface.RANK_FLOOR), 4, False),
    ((1.0, 1.0, 3.0 * hypersurface.RANK_FLOOR), 4, True),
]


@pytest.mark.parametrize("sv, d, certified", RANK_CASES)
def test_rank_check_raises_where_the_svd_rule_does(sv, d, certified, monkeypatch):
    t, n = _jacobian(sv, d, seed=len(sv) + d)
    svd_rule = np.linalg.svd(t.T, compute_uv=False)[-1] <= hypersurface.RANK_FLOOR
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    # alone, and as one point of a batch of well-conditioned ones
    good, n_good = _jacobian([1.0] * len(sv), d, seed=7)
    for tt, nn in ((t, n), (np.stack([good, t, good], -1), np.stack([n_good, n, n_good], -1))):
        if svd_rule:
            with pytest.raises(DegenerateImmersion):
                hypersurface._check_rank(tt, nn)
        else:
            hypersurface._check_rank(tt, nn)
    assert bool(calls) == (not certified)


def test_uniformly_small_jacobian_trips_the_rank_check_in_the_frame():
    def plane(scale):
        return Immersion(amb.flat_chart(3), 2, lambda u: [u[0] * scale, u[1] * scale, u[0] * 0.0],
                         -np.ones(2), np.ones(2))

    u = np.zeros((3, 2))
    with pytest.raises(DegenerateImmersion):
        hypersurface.surface_point(plane(0.5 * hypersurface.RANK_FLOOR), u, order=2)
    data = hypersurface.surface_point(plane(2.0 * hypersurface.RANK_FLOOR), u, order=2)
    assert_allclose(data.normal, np.broadcast_to([0.0, 0.0, 1.0], (3, 3)), atol=1e-15)
