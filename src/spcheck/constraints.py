"""Constraint model: the tagged union dispatched by the engines and CLI,
and the verdicts and measures the engines report on them."""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from typing import ClassVar

from .errors import PreconditionError
from .table import AttributeSet, IncompleteTable, Row, Schema, SpWorld


@dataclass(frozen=True)
class Constraint:
    """Base class; concrete constraints carry attribute positions, one
    set per side. A kind's spec is its ``keyword`` and its sides, the
    two sides split by its ``separator``: the one grammar that
    :meth:`describe` writes and ``cli.parse_constraint`` reads."""

    keyword: ClassVar[str]
    separator: ClassVar[str] = ""

    def describe(self, schema: Schema) -> str:
        sides = (",".join(schema.names(getattr(self, f.name))) for f in fields(self))
        return f"{self.keyword}({f' {self.separator} '.join(sides)})"


@dataclass(frozen=True)
class SpKey(Constraint):
    key: AttributeSet
    keyword: ClassVar[str] = "spkey"

    def __post_init__(self):
        if not self.key:
            raise ValueError("spkey needs a non-empty attribute set")


@dataclass(frozen=True)
class SpFd(Constraint):
    lhs: AttributeSet
    rhs: AttributeSet
    keyword: ClassVar[str] = "spfd"
    separator: ClassVar[str] = "->"


@dataclass(frozen=True)
class SpMvd(Constraint):
    lhs: AttributeSet
    rhs: AttributeSet
    keyword: ClassVar[str] = "spmvd"
    separator: ClassVar[str] = "->>"


@dataclass(frozen=True)
class SpCj(Constraint):
    lhs: AttributeSet
    rhs: AttributeSet
    keyword: ClassVar[str] = "spcj"
    separator: ClassVar[str] = "x"  # a word: it stands alone between the sides

    def __post_init__(self):
        if not self.lhs or not self.rhs:
            raise ValueError("spcj needs non-empty attribute sets on both sides")


@dataclass(frozen=True)
class Nmvd(Constraint):
    lhs: AttributeSet
    rhs: AttributeSet
    keyword: ClassVar[str] = "nmvd"
    separator: ClassVar[str] = "->>"


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
