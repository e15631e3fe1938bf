"""Exact computation of piecewise-linear knot concordance invariants from
sl_n cochain complexes: full pipeline from planar diagrams for n = 2, and
from equivariant complex fixtures for any n."""

from .complexes import (
    ComplexReport,
    GradedFreeComplex,
    dual,
    euler,
    evaluate,
    tensor,
    validate,
)
from .cube import (
    Diagram,
    ResolutionState,
    build_equivariant_sl2,
    mirror,
    parse_pd,
    resolve,
)
from .errors import (
    ContextMismatchError,
    DecompositionError,
    DegreeMismatchError,
    GimelError,
    InternalError,
    InvalidRootError,
    MalformedInputError,
    NondegeneracyError,
    UndefinedDegreeError,
)
from .filtration import (
    GimelReport,
    Monomial,
    ScalarComplex,
    expand,
    gamma_at,
    gamma_sweep,
    gimel_from_gamma,
    gornik_class_fixture,
    invariants_report,
    s_general,
)
from .fixtures import (
    pretzel_2m37_fixture,
    s3_p754_fixture,
    s3_p976_fixture,
    unknot_fixture,
)
from .pipeline import compute_report, compute_report_pd
from .pl import PiecewiseLinear
from .ring import (
    Poly,
    RingCtx,
    equivariant_ctx,
    evaluate_poly,
    format_poly,
    parse_poly,
    potential_derivative,
    quantum_degree,
    specialized_ctx,
    standard_potential,
)
from .simplify import (
    extract_sn,
    gauss_simplify,
    split_components,
)
from .verify import (
    PropertyVerdict,
    check_cone,
    check_gap,
    check_linear,
    check_quasi,
    genus_bound,
)

__version__ = "0.1.0"
