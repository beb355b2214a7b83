"""Data model for incomplete tables under bag semantics.

Cells are opaque string tokens or NULL (represented by ``None``). Tables
are immutable after construction; every predicate here is pure, so
concurrent readers need no locking. Duplicate rows are permitted and kept
distinct by row index.

A column's active domain is one tuple of its distinct non-NULL values in
:func:`cell_sort_key` order, computed once per table
(:meth:`IncompleteTable.active_domains`); every NULL of a strongly
possible world is filled from it. A column that contains only NULLs has
the domain ``(SSYMB,)``: the reserved symbol is a process-wide sentinel
distinct from every ingested token and only ever appears in completed
worlds, never in an :class:`IncompleteTable`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import product
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

AttributeSet = frozenset[int]


class _Ssymb:
    """Reserved degenerate-domain symbol; compares by identity only."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "ssymb"


SSYMB = _Ssymb()

# A cell is a value token, the reserved symbol, or NULL (None).
Cell = "str | _Ssymb | None"
Row = tuple


def cell_sort_key(value) -> tuple:
    """Deterministic total order on cell values: tokens lexicographically,
    the reserved symbol after all tokens."""
    if value is SSYMB:
        return (1, "")
    return (0, value)


@dataclass(frozen=True)
class Schema:
    """Ordered attribute names; column index equals position."""

    attributes: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.attributes)) != len(self.attributes):
            raise ValueError("attribute names must be unique")
        if any(not a for a in self.attributes):
            raise ValueError("attribute names must be non-empty")

    @property
    def arity(self) -> int:
        return len(self.attributes)

    def position(self, name: str) -> int:
        try:
            return self.attributes.index(name)
        except ValueError:
            raise KeyError(f"unknown attribute {name!r}") from None

    def positions(self, names: Iterable[str]) -> AttributeSet:
        return frozenset(self.position(n) for n in names)

    def names(self, positions: Iterable[int]) -> tuple[str, ...]:
        return tuple(self.attributes[p] for p in sorted(positions))


@dataclass(frozen=True)
class IncompleteTable:
    """Bag of tuples over a named schema; cells are tokens or None."""

    schema: Schema
    rows: tuple[Row, ...]
    null_token: str = ""

    def __post_init__(self):
        arity = self.schema.arity
        if not set(map(len, self.rows)) <= {arity}:
            i, row = next((i, row) for i, row in enumerate(self.rows) if len(row) != arity)
            raise ValueError(f"row {i} has {len(row)} cells, schema arity is {arity}")

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def build(attributes: Iterable[str], rows: Iterable[Iterable], null_token: str = "") -> "IncompleteTable":
        """Build a table from attribute names and row iterables.

        Cells equal to ``None`` stay NULL; every other cell is interned as
        a string token verbatim.
        """
        schema = Schema(tuple(attributes))
        packed = tuple(
            tuple(None if c is None else sys.intern(str(c)) for c in row)
            for row in rows
        )
        return IncompleteTable(schema, packed, null_token)

    # -- basic shape -----------------------------------------------------------

    @property
    def arity(self) -> int:
        return self.schema.arity

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def all_positions(self) -> AttributeSet:
        return frozenset(range(self.arity))

    # -- active domains ----------------------------------------------------

    def active_domain(self, a: int) -> tuple:
        """The distinct non-NULL values of column ``a`` in
        :func:`cell_sort_key` order; ``(SSYMB,)`` when the column holds
        only NULLs."""
        if not 0 <= a < self.arity:
            raise IndexError(f"attribute index {a} out of range for arity {self.arity}")
        return self.active_domains()[a]

    def active_domains(self) -> tuple[tuple, ...]:
        """Every column's active domain (see :meth:`active_domain`), by
        column position, computed once."""
        cached = self.__dict__.get("_domains")
        if cached is None:
            columns = zip(*self.rows) if self.rows else ((),) * self.arity
            cached = tuple(
                tuple(sorted(set(column) - {None}, key=cell_sort_key)) or (SSYMB,)
                for column in columns
            )
            object.__setattr__(self, "_domains", cached)
        return cached

    # -- derived tables ------------------------------------------------------

    def with_rows_removed(self, indices: Iterable[int]) -> "IncompleteTable":
        drop = set(indices)
        kept = tuple(r for i, r in enumerate(self.rows) if i not in drop)
        return IncompleteTable(self.schema, kept, self.null_token)

    def with_rows_added(self, new_rows: Iterable[Row]) -> "IncompleteTable":
        return IncompleteTable(self.schema, self.rows + tuple(new_rows), self.null_token)


@dataclass(frozen=True)
class SpWorld:
    """A complete table plus the per-row map back to the source table.

    ``origin[i]`` is the source row index, or None for synthetic rows
    added by a repair search.
    """

    rows: tuple[Row, ...]
    origin: tuple


def complete_world(table: IncompleteTable, positions: Sequence[int] = (),
                   values: Callable[[int], Sequence] | None = None,
                   rows: Sequence[int] | None = None) -> SpWorld:
    """A strongly possible world of ``table``, or of its ``rows`` in the
    order given.

    Row ``i`` takes ``values(i)`` on ``positions`` (a None value leaves
    the cell as it is), and every NULL left over takes its column's
    smallest active-domain value. A row without NULLs is kept as it is,
    and ``values`` is not called for it: a strongly possible world keeps
    every non-NULL cell, so its values could only restate them.
    """
    fill = tuple(d[0] for d in table.active_domains())
    picked = range(table.row_count) if rows is None else rows
    completed = []
    for i in picked:
        row = table.rows[i]
        if None not in row:
            completed.append(row)
            continue
        cells = list(row)
        if values is not None:
            for a, v in zip(positions, values(i)):
                if v is not None:
                    cells[a] = v
        for a, c in enumerate(cells):
            if c is None:
                cells[a] = fill[a]
        completed.append(tuple(cells))
    return SpWorld(tuple(completed), tuple(picked))


def strongly_similar(t1: Row, t2: Row, x: AttributeSet) -> bool:
    """True iff every position in ``x`` holds equal non-NULL values."""
    for a in x:
        v1 = t1[a]
        if v1 is None or v1 != t2[a]:
            return False
    return True


def is_total(t: Row, x: AttributeSet) -> bool:
    """True iff no cell of ``t`` in ``x`` is NULL."""
    return all(t[a] is not None for a in x)


def projection(row: Row, positions: Iterable[int]) -> tuple:
    """Row restricted to sorted ``positions`` as a plain tuple."""
    return tuple(row[a] for a in sorted(positions))


def projector(positions: Iterable[int]) -> Callable[[Row], tuple]:
    """A row's cells on the sorted ``positions``, always as a tuple."""
    ordered = sorted(positions)
    if len(ordered) > 1:
        return itemgetter(*ordered)
    if ordered:
        (a,) = ordered
        return lambda r: (r[a],)
    return lambda r: ()


def row_key(row: Row, positions: Iterable[int]) -> tuple:
    """Sort key of ``row`` on ``positions``, taken in the order given:
    values lexicographically, NULL after every value."""
    return tuple((1, "") if row[a] is None else (0, row[a]) for a in positions)


def extension_options(row: Row, positions: Iterable[int], values: Sequence[tuple]) -> list[tuple]:
    """Per-position completion options for ``row`` on ``positions``, in
    the order given: the cell itself when non-NULL, else ``values[a]``
    (a column's active domain, see :meth:`IncompleteTable.active_domains`)."""
    return [(row[a],) if row[a] is not None else values[a] for a in positions]


def iter_extensions(table: IncompleteTable, row: Row, positions: Iterable[int]) -> Iterator[tuple]:
    """Distinct completions of ``row`` on sorted ``positions`` in
    lexicographic order of the per-column option lists."""
    return product(*extension_options(row, sorted(positions), table.active_domains()))


def fresh_values(table: IncompleteTable, k: int, stem: str = "z") -> list[str]:
    """``k`` tokens outside every active domain of ``table``.

    Deterministic: a monotone counter under a stem that is escalated
    until no candidate collides with an ingested token.
    """
    used = set().union(*table.active_domains())
    prefix = stem
    while any(f"{prefix}{i}" in used for i in range(1, k + 1)):
        prefix = "z" + prefix
    return [sys.intern(f"{prefix}{i}") for i in range(1, k + 1)]


def fresh_rows(table: IncompleteTable, positions: AttributeSet, k: int) -> tuple[Row, ...]:
    """``k`` rows, each with its own fresh value (:func:`fresh_values`) on
    ``positions`` and NULL elsewhere."""
    return tuple(tuple(t if a in positions else None for a in range(table.arity))
                 for t in fresh_values(table, k))
