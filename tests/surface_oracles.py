"""Independent surface formulas the II-geometry is held to (m = 2).

Brioschi's determinant formula gives the Gauss curvature of the first or
second fundamental form from E, F, G and their derivatives alone, with no
connection or curvature chain; the surface formula Z = A(Z₀)/det A with
II(Z₀, ·) = R̄ic(U, ·) reads the ambient Ricci tensor instead of the
II-trace of R̄(·, U)·.  ``ii_geometry``'s S_II, scalar curvature of g and Z
are checked against them in ``test_iigeom.py``.
"""

import numpy as np

from secondform.hypersurface import _cvals, ambient_curvature_on_jets, frame_jets, surface_point
from secondform.jets import Jet, jet_space, seed_jets


def brioschi_gauss_curvature(imm, u, which="second"):
    """Gauss curvature of the first or second fundamental form (m = 2) by the
    Brioschi determinant formula."""
    assert imm.param_dim == 2, "Brioschi formula is for surfaces"
    u = np.asarray(u, dtype=float)
    b = frame_jets(imm, seed_jets(u, 2, 4))
    form = b.II if which == "second" else b.g
    E, F, G = (Jet(b.space(form), form[:, i, j]) for i, j in ((0, 0), (0, 1), (1, 1)))

    def d(jet, *vs):
        for v_ in vs:
            jet = jet.partial(v_)
        return np.asarray(jet.value)

    e, f_, g_ = np.asarray(E.value), np.asarray(F.value), np.asarray(G.value)
    m1 = np.array(
        [
            [-0.5 * d(E, 1, 1) + d(F, 0, 1) - 0.5 * d(G, 0, 0), 0.5 * d(E, 0), d(F, 0) - 0.5 * d(E, 1)],
            [d(F, 1) - 0.5 * d(G, 0), e, f_],
            [0.5 * d(G, 1), f_, g_],
        ]
    )
    m2 = np.array(
        [
            [np.zeros_like(e), 0.5 * d(E, 1), 0.5 * d(G, 0)],
            [0.5 * d(E, 1), e, f_],
            [0.5 * d(G, 0), f_, g_],
        ]
    )
    if m1.ndim == 3:
        det1 = np.linalg.det(np.moveaxis(m1, -1, 0))
        det2 = np.linalg.det(np.moveaxis(m2, -1, 0))
    else:
        det1, det2 = np.linalg.det(m1), np.linalg.det(m2)
    return (det1 - det2) / (e * g_ - f_**2) ** 2


def z_field_surface_alt(imm, u):
    """For surfaces in 3-dim ambients: Z = A(Z₀)/det A with II(Z₀,·) = R̄ic(U,·)."""
    assert imm.param_dim == 2 and imm.ambient.dim == 3, "needs a surface in a 3-dim ambient"
    data = surface_point(imm, u, order=2)
    _, ric_bar, _ = ambient_curvature_on_jets(imm.ambient, jet_space(2, 0), data.xc, data.gbar)
    ric_val = _cvals(ric_bar, data.batched)
    rhs = np.einsum("...ab,...a,...ib->...i", ric_val, data.normal, data.tangent)
    z0 = np.linalg.solve(data.second, rhs[..., None])[..., 0]
    az0 = np.einsum("...kj,...j->...k", data.shape, z0)
    return az0 / data.detA[..., None]
