"""Strongly possible integrity constraints over incomplete tables.

Evaluates keys, functional dependencies, multivalued dependencies, and
cross joins under active-domain imputation, and computes their exact
removal-based (g3, g4) and addition-based (g5) approximation measures,
with a brute-force oracle and instance generators for verification.
"""

from .constraints import (
    Constraint,
    ConstraintVerdict,
    MeasureResult,
    Nmvd,
    SpCj,
    SpFd,
    SpKey,
    SpMvd,
)
from .errors import (
    BudgetExceededError,
    ConstraintParseError,
    GeneratorError,
    OracleGapError,
    PreconditionError,
    SpcheckError,
    TableLoadError,
)
from .oracle import enumerate_spworlds, oracle_check, oracle_g3, oracle_g5
from .table import (
    SSYMB,
    IncompleteTable,
    Schema,
    SpWorld,
    is_total,
    strongly_similar,
)

__all__ = [
    "BudgetExceededError",
    "Constraint",
    "ConstraintParseError",
    "ConstraintVerdict",
    "GeneratorError",
    "IncompleteTable",
    "MeasureResult",
    "Nmvd",
    "OracleGapError",
    "PreconditionError",
    "Schema",
    "SSYMB",
    "SpCj",
    "SpFd",
    "SpKey",
    "SpMvd",
    "SpWorld",
    "SpcheckError",
    "TableLoadError",
    "enumerate_spworlds",
    "is_total",
    "oracle_check",
    "oracle_g3",
    "oracle_g5",
    "strongly_similar",
]

__version__ = "0.1.0"
