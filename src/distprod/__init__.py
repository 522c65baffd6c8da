"""Numerical products of one-dimensional distributions.

Distributions enter as boundary values of functions holomorphic off the real
axis; products are computed by smearing the regulated representatives at
height y against Schwartz test functions and extrapolating y -> 0.  When the
limit diverges, the package determines the Taylor subtraction order, builds
the subtracted continuation with free counterterms, and quantifies the
resulting ambiguity.
"""

from .boundary import (
    CatalogError,
    GrowthReport,
    HyperfunctionPair,
    RegulatorError,
    catalog,
    required_order,
    verify_growth_bound,
)
from .extension import (
    Extension,
    ExtensionError,
    ExtensionResult,
    FactorizationReport,
    NonuniquenessTable,
    SubtractedFunction,
    counterterm_value,
    evaluate_extension,
    extension_report,
    extension_result,
    factorization_identity_check,
    nonuniqueness_scan,
)
from .pairing import (
    InconclusivePairingError,
    NotExtendableError,
    PairingResult,
    ParseError,
    ProductExpression,
    QuadratureError,
    RingCheckReport,
    Schedule,
    SubtractionOrder,
    Tolerances,
    limit_pairing,
    pair_at_y,
    parse_expression,
    require_resolved,
    ring_axiom_check,
    subtraction_order,
)
from .ratfun import RationalFunction
from .testfn import (
    OrderExceededError,
    PlateauCutoff,
    REFERENCE_TEST_FUNCTIONS,
    TestFunction,
    vanish_probe,
)

__version__ = "0.1.0"
