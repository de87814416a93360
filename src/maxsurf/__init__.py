"""Maximal surfaces in Lorentz-Minkowski 3-space from Weierstrass data.

The package evaluates surface patches given by a pair of complex-analytic
functions (f, g), verifies the defining identities numerically, and extends
a patch across a planar boundary met at a constant angle by Schwarz
reflection, for spacelike, timelike and lightlike planes.
"""

__version__ = "0.1.0"

from .expr import (
    EvalError,
    Expr,
    ParseError,
    differentiate,
    evaluate,
    format_expr,
    parse,
    sconj,
    substitute,
)
from .minkowski import (
    CausalClass,
    LVector,
    Plane,
    causal_class,
    causal_class_tol,
    lnorm,
    lorentz_cross,
    lorentz_inner,
    plane_class,
)
from .weierstrass import (
    DegenerateMetricError,
    Domain,
    DomainKind,
    PathError,
    PhiTriple,
    QuadratureConfig,
    ToleranceError,
    WeierstrassData,
    conformal_factor,
    evaluate_surface,
    gauss_from_g,
    gauss_map,
    loop_periods,
    phi,
    phi_exprs,
    stereo_inverse,
    surface_path,
)
from .extension import (
    CASES,
    CircleOrLine,
    ContactData,
    DegenerateContactWarning,
    ExtendedSurface,
    ExtensionError,
    GeometryMismatchError,
    HypothesisViolationError,
    SingularReconstructionError,
    extend,
    measure_contact,
    reflect_g,
)
from .verify import (
    CheckRecord,
    DiagnosticsReport,
    GridSpec,
    catenoid_data,
    catenoid_reference,
    full_diagnostics,
)
