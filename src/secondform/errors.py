"""Exception hierarchy for the geometry engine.

Every failure mode raised by the numerical pipelines derives from
:class:`GeometryError`, so callers (and the scenario runner) can distinguish
"the input is outside the class this operation handles" from genuine bugs.
`_lookup`, the one descriptor-to-object lookup of the immersion, curve,
chart and scenario-subject catalogs, turns a bad descriptor into
:class:`BadParameters`.
"""


class GeometryError(Exception):
    """Base class for all geometric/numerical failures."""


class DegenerateMetric(GeometryError):
    """Ambient metric determinant below the nondegeneracy floor."""


class OutOfDomain(GeometryError):
    """Requested point lies outside the chart's domain box."""


class UnsupportedSignature(GeometryError):
    """Metric signature outside the supported index set."""


class LeftDomain(GeometryError):
    """An integrated path exited the chart domain."""


class StepFailure(GeometryError):
    """Step-size control of an integrator or limit probe failed."""


class DegenerateImmersion(GeometryError):
    """Immersion Jacobian lost rank at a sampled parameter point."""


class NullNormal(GeometryError):
    """Normal direction is null with respect to the ambient metric."""


class DegenerateInducedMetric(GeometryError):
    """Induced first fundamental form is degenerate."""


class BadParameters(GeometryError):
    """Parameters of a standard immersion outside their validity range."""


class SingularShapeOperator(GeometryError):
    """Shape operator not invertible (some principal curvature ~ 0)."""


class DegenerateII(GeometryError):
    """Second fundamental form fails to be a semi-Riemannian metric."""


class ConjugatePoint(GeometryError):
    """Exponential map is not a diffeomorphism at the requested radius."""


class BadDirection(GeometryError):
    """Direction vector is not a unit vector for the metric at hand."""


class JetTooShallow(GeometryError):
    """Curvature jet lacks the derivative order a series needs."""


class DimensionTooSmall(GeometryError):
    """Operation undefined below a minimal dimension."""


class NotFrenet(GeometryError):
    """Curve acceleration is null or zero, so no Frenet frame exists."""


class NotUnitSpeed(GeometryError):
    """Curve is not parametrized by arclength."""


class BlowUp(GeometryError):
    """ODE solution left the admissible range."""


class ScenarioError(GeometryError):
    """Scenario file is malformed or references unknown checks."""


def _lookup(table: dict, what: str, desc, key: str = "kind"):
    """``table[kind](**params)`` for the descriptor ``{key: kind, **params}``.

    A builder's keyword parameters are the keys its descriptor may carry.
    An unknown kind, and a TypeError or ValueError from the builder (an
    unknown or missing key, a value of the wrong type), raise BadParameters
    naming the kind.  Builders only construct objects (their maps are lazy),
    so no numerical fault is turned into BadParameters here.
    """
    if not isinstance(desc, dict):
        raise BadParameters(f"{what} descriptor must be an object, got {desc!r}")
    params = dict(desc)
    kind = params.pop(key, None)
    if not isinstance(kind, str) or kind not in table:
        raise BadParameters(f"unknown {what} {key} {kind!r}")
    try:
        return table[kind](**params)
    except (TypeError, ValueError) as exc:
        raise BadParameters(f"{what} {kind!r}: {exc}") from None
