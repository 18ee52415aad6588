"""Numerical engine for the extrinsic geometry of the second fundamental form.

For hypersurfaces whose second fundamental form II is a semi-Riemannian
metric, this package computes the geometry measured in II: the mean
curvature H_II of the second fundamental form (three independent routes),
Area_II and Length_II, the II-metric connection and difference tensor. It also
verifies, at desk scale, the first-variation identities, the II-minimal curve
ODEs, and the geodesic-hypersphere power-series expansions.

Everything numerical runs on truncated multivariate Taylor (jet) arithmetic,
so curvature formulas that need third and fourth derivatives evaluate exactly
to roundoff, batched over grids of parameter points.
"""

from . import errors
from .ambient import (
    CurvatureJet,
    MetricChart,
    chart_from_descriptor,
    christoffel,
    curvature_jet,
    exp_map,
    flat_chart,
    metric_value,
    orthonormal_frame,
    product_chart,
    registry_chart,
    space_form,
)
from .curves import (
    catenary_family_kappa,
    curve_from_descriptor,
    frenet,
    h_ii_curve,
    integrate_ii_minimal,
    length_ii,
    ode_residual,
    standard_curve,
)
from .hypersurface import (
    Immersion,
    SurfacePointData,
    flipped,
    gauss_codazzi_residual,
    immersion_from_descriptor,
    standard_immersion,
    surface_point,
    validate_immersion,
)
from .iigeom import (
    IIGeometryPoint,
    ii_geometry,
    sphere_inequality_report,
    transport_holonomy_probe,
)
from .jets import Jet, JetSpace, seed_jets
from .spheres import (
    FramedJet,
    SeriesCoefficients,
    area_derivative_check,
    flatness_diagnostic,
    geodesic_sphere,
    geodesic_sphere_patch,
    h_ii_recombination_error,
    numeric_sphere_quantities,
    series_eval,
    sphere_remainder_studies,
    synthetic_framed_jet,
    unit_sphere_area,
)
from .variation import (
    QuadratureGrid,
    area,
    first_variation_check,
    grid_for_immersion,
    lat_long_sphere,
    second_form_variation_check,
    tensor_gauss_legendre,
)

__version__ = "0.1.0"
