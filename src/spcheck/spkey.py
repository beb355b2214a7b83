"""Polynomial spKey satisfaction check and the g3, g4, g5 key measures."""

from __future__ import annotations

from .constraints import ConstraintVerdict, MeasureResult
from .errors import PreconditionError
from .matching import build_extension_graph, hall_components, max_matching
from .search import smallest_addition
from .table import (
    AttributeSet,
    IncompleteTable,
    SpWorld,
    complete_world,
    fresh_values,
    is_total,
    projection,
)


def check_spkey(table: IncompleteTable, key: AttributeSet) -> ConstraintVerdict:
    """Holds iff a maximum matching of the key extension graph covers
    every tuple; the matching doubles as the certifying world."""
    if not key:
        raise ValueError("spkey needs a non-empty attribute set")
    n = table.row_count
    if n == 0:
        return ConstraintVerdict(True, SpWorld((), ()))
    graph = build_extension_graph(table, key)
    result = max_matching(graph)
    if result.size == n:
        world = complete_world(table, sorted(key), result.matching.__getitem__)
        return ConstraintVerdict(True, world)
    unmatched = min(i for i in range(n) if i not in result.matching)
    return ConstraintVerdict(False, None, (unmatched,))


def _prefer_nontotal_unmatched(table: IncompleteTable, key: AttributeSet,
                               matching: dict) -> dict:
    """Swap matched edges so key-total tuples end up covered whenever the
    key-total part satisfies the key; the removal witness then contains
    only non-total rows."""
    owner = {ext: i for i, ext in matching.items()}
    changed = True
    while changed:
        changed = False
        for i, row in enumerate(table.rows):
            if i in matching or not is_total(row, key):
                continue
            ext = projection(row, key)
            holder = owner.get(ext)
            if holder is not None and not is_total(table.rows[holder], key):
                del matching[holder]
                matching[i] = ext
                owner[ext] = i
                changed = True
    return matching


def g3_spkey(table: IncompleteTable, key: AttributeSet) -> MeasureResult:
    """(|T| - nu) / |T| with the unmatched rows as removal witness."""
    if not key:
        raise ValueError("spkey needs a non-empty attribute set")
    n = table.row_count
    if n == 0:
        raise ValueError("g3 is undefined for an empty table")
    graph = build_extension_graph(table, key)
    result = max_matching(graph)
    matching = _prefer_nontotal_unmatched(table, key, dict(result.matching))
    removed = tuple(sorted(i for i in range(n) if i not in matching))
    kept = [i for i in range(n) if i in matching]
    witness = complete_world(table, sorted(key), matching.__getitem__, kept)
    return MeasureResult("g3", n - result.size, n, removed_rows=removed, witness=witness)


def g4_spkey(table: IncompleteTable, key: AttributeSet, cap: int | None = None) -> MeasureResult:
    """Component-weighted variant: components that already satisfy the
    key count double in the denominator."""
    if not key:
        raise ValueError("spkey needs a non-empty attribute set")
    n = table.row_count
    if n == 0:
        raise ValueError("g4 is undefined for an empty table")
    graph = build_extension_graph(table, key, cap)
    parts = hall_components(graph)
    doubled = parts.satisfied_tuple_count
    return MeasureResult("g4", n - parts.total_nu, n + doubled)


def total_part_satisfies_key(table: IncompleteTable, key: AttributeSet) -> bool:
    seen = set()
    for row in table.rows:
        if not is_total(row, key):
            continue
        p = projection(row, key)
        if p in seen:
            return False
        seen.add(p)
    return True


def g5_spkey(table: IncompleteTable, key: AttributeSet) -> MeasureResult:
    """Minimum number of fresh-valued rows whose addition makes the key
    hold, searched up to the g3 removal count.

    A fresh row replicates one globally new value across all columns, so
    it is trivially unique and donates a new value to every column. For a
    single-attribute key additions consume as many values as they donate;
    when the search is exhausted the measure is undefined.
    """
    if not total_part_satisfies_key(table, key):
        raise PreconditionError(
            "the key-total part violates the key; additions cannot repair duplicate total rows"
        )
    n = table.row_count
    if n == 0:
        raise ValueError("g5 is undefined for an empty table")
    bound = g3_spkey(table, key).numerator
    tokens = fresh_values(table, bound)
    return smallest_addition(
        table, bound,
        lambda k: [[(tokens[j],) * table.arity for j in range(k)]],
        lambda extended: check_spkey(extended, key),
    )
