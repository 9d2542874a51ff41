"""Exact symbolic evaluation of arbitrary coefficients of the q-Dyson product.

For a numeric exponent vector delta summing to zero, the coefficient of
prod x_i^{delta_i} in prod_{i<j} (x_i/x_j)_{a_i} (q x_j/x_i)_{a_j} equals an
explicit rational function R(q, z_1..z_n) (with z_i = q^{a_i}) times the
q-multinomial coefficient.  This package computes R exactly, enumerates and
optimizes the underlying evaluation set, and verifies every claim against a
brute-force Laurent expansion.
"""

from .engine import (
    CoefficientQuery,
    CombinedResult,
    SplitResult,
    coefficient_combined,
    coefficient_split,
    combine,
    combine_sum,
    constant_term_identity,
    equivalent,
)
from .errors import (
    DenominatorVanishes,
    DimensionMismatch,
    DuplicateNode,
    DuplicatePoint,
    InternalInconsistency,
    MixedSign,
    QDysonError,
    UsageError,
)
from .exactalg import (
    Atom,
    QPoly,
    RationalQZ,
    Summand,
    ZqPoly,
    substitute_z,
)
from .latticepoints import (
    EvaluationPoint,
    EvaluationSet,
    best_shift,
    enumerate_evaluation_set,
    evaluation_set_size,
)
from .oracle import (
    SweepConfig,
    VerificationReport,
    dyson_coefficient,
    expand_qdyson_product,
    grid_coefficient_oracle,
    sweep,
    verify_query,
)
from .qpochhammer import (
    GridSpec,
    q_multinomial_numeric,
    q_multinomial_symbols,
)
from .symforms import AffineForm

__version__ = "0.1.0"
