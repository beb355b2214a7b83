"""Constraint model: the tagged union dispatched by the engines and CLI,
and the verdicts and measures the engines report on them."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError
from .table import AttributeSet, IncompleteTable, Row, Schema, SpWorld


@dataclass(frozen=True)
class Constraint:
    """Base class; concrete constraints carry attribute positions."""

    def describe(self, schema: Schema) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class SpKey(Constraint):
    key: AttributeSet

    def __post_init__(self):
        if not self.key:
            raise ValueError("spkey needs a non-empty attribute set")

    def describe(self, schema: Schema) -> str:
        return f"spkey({','.join(schema.names(self.key))})"


@dataclass(frozen=True)
class SpFd(Constraint):
    lhs: AttributeSet
    rhs: AttributeSet

    def describe(self, schema: Schema) -> str:
        return (f"spfd({','.join(schema.names(self.lhs))} -> "
                f"{','.join(schema.names(self.rhs))})")


@dataclass(frozen=True)
class SpMvd(Constraint):
    lhs: AttributeSet
    rhs: AttributeSet

    def describe(self, schema: Schema) -> str:
        return (f"spmvd({','.join(schema.names(self.lhs))} ->> "
                f"{','.join(schema.names(self.rhs))})")


@dataclass(frozen=True)
class SpCj(Constraint):
    lhs: AttributeSet
    rhs: AttributeSet

    def __post_init__(self):
        if not self.lhs or not self.rhs:
            raise ValueError("spcj needs non-empty attribute sets on both sides")

    def describe(self, schema: Schema) -> str:
        return (f"spcj({','.join(schema.names(self.lhs))} x "
                f"{','.join(schema.names(self.rhs))})")


@dataclass(frozen=True)
class Nmvd(Constraint):
    lhs: AttributeSet
    rhs: AttributeSet

    def describe(self, schema: Schema) -> str:
        return (f"nmvd({','.join(schema.names(self.lhs))} ->> "
                f"{','.join(schema.names(self.rhs))})")


@dataclass(frozen=True)
class ConstraintVerdict:
    holds: bool
    witness: SpWorld | None = None
    violation: tuple | None = None


@dataclass(frozen=True)
class MeasureResult:
    """An exact measure value with its repair witness.

    ``numerator is None`` means no repair exists within the candidate
    pool (e.g. additions cannot split duplicated total rows).
    """

    kind: str
    numerator: int | None
    denominator: int
    removed_rows: tuple[int, ...] | None = None
    added_rows: tuple[Row, ...] | None = None
    witness: SpWorld | None = None

    @property
    def ratio(self) -> Fraction | None:
        if self.numerator is None:
            return None
        return Fraction(self.numerator, self.denominator)

    @property
    def fraction_str(self) -> str:
        if self.numerator is None:
            return "undefined"
        return f"{self.numerator}/{self.denominator}"


def measure_denominator(table: IncompleteTable, kind: str) -> int:
    """``table``'s row count, the denominator of every measure of it. A
    measure of an empty table is undefined: a precondition fails."""
    if not table.row_count:
        raise PreconditionError(f"{kind} is undefined for an empty table")
    return table.row_count
