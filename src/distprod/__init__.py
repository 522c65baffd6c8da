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
from .expression import ParseError, ProductExpression, parse_expression
from .extension import (
    ExtensionError,
    FactorizationReport,
    SubtractedFunction,
    counterterm_value,
    evaluate_extension,
    factorization_identity_check,
)
from .pairing import (
    NotExtendableError,
    PairingResult,
    QuadratureError,
    RingCheckReport,
    Schedule,
    Tolerances,
    limit_pairing,
    pair_at_y,
    ring_axiom_check,
    subtraction_order,
)
from .ratfun import RationalFunction
from .testfn import (
    PlateauCutoff,
    REFERENCE_TEST_FUNCTIONS,
    TestFunction,
    vanish_probe,
)

__version__ = "0.1.0"
