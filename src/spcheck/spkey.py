"""Polynomial spKey satisfaction check and the g3, g4, g5 key measures.

All four derive from one :class:`KeyAnalysis` of a (table, key) pair:
its first duplicated key-total row, its partition of the rows by key
projection, its extension graph over the projections with a NULL and
that graph's maximum matching, each found once on first use. Pass the
same analysis to each call to share that work; no call changes it.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from math import prod
from typing import Iterator

from .constraints import ConstraintVerdict, MeasureResult, measure_denominator
from .errors import PreconditionError
from .matching import (
    ExtensionGraph,
    KeyPartition,
    MatchingResult,
    build_extension_graph,
    deal,
    hopcroft_karp,
    match_high_degree,
    matching_order,
    max_matching,
    partition_of,
    rows_beyond_rivals,
    satisfied_row_count,
)
from .table import (
    AttributeSet,
    IncompleteTable,
    SSYMB,
    SpWorld,
    complete_world,
    extension_options,
    fresh_rows,
    projector,
)


class KeyAnalysis:
    """The first key-total duplicate of ``table`` on ``key``, the
    partition of its rows by projection on the key, the extension graph,
    that graph's maximum matching and, on a holding key, that matching's
    world, each computed on first use and kept for the life of the
    analysis.

    The partition is one pass over the rows (see
    :func:`~spcheck.matching.partition_of`); the leave-out rule, the
    graph and g4 read it. The key-total rows are settled before the
    graph: the first row of each total projection is matched to it and
    the later ones stay unmatched, so the graph has one vertex per
    projection with a NULL, its row count as capacity, without the
    settled projections, and the matching is the settled rows plus a
    maximum matching of that graph dealt to the rows (an exchange
    argument makes it maximum for the full graph). The graph leaves out
    a row by one rule: it has more extensions than rivals (the other
    rows weakly similar to it on the key, see
    :func:`~spcheck.matching.rows_beyond_rivals`). Such a row has more
    free extensions than non-total rivals, so the matching gives it one
    greedily after the rest and is still maximum.
    """

    def __init__(self, table: IncompleteTable, key: AttributeSet):
        if not key:
            raise ValueError("spkey needs a non-empty attribute set")
        self.table = table
        self.key = key
        self.cols = sorted(key)

    @cached_property
    def duplicate(self) -> int | None:
        return first_total_duplicate(self.table, self.key)

    @cached_property
    def partition(self) -> KeyPartition:
        return partition_of(self.table, self.key)

    @cached_property
    def graph(self) -> ExtensionGraph:
        return build_extension_graph(self.partition, rows_beyond_rivals(self.partition))

    @cached_property
    def matching(self) -> MatchingResult:
        return max_matching(self.graph)

    @cached_property
    def full_world(self) -> SpWorld:
        """The world of the matching when it covers every row: the
        witness that the check, g3 and g5 give on a holding key."""
        return self.world(self.matching.matching)

    def world(self, matching: dict, rows=None) -> SpWorld:
        """The world in which each of ``rows`` (all by default) takes its
        extension in ``matching``."""
        return complete_world(self.table, self.cols, matching.__getitem__, rows)


def key_analysis(table: IncompleteTable, key: AttributeSet, analysis: KeyAnalysis | None) -> KeyAnalysis:
    """``analysis`` when given, after checking that it is of ``table``
    and ``key``; else a new analysis."""
    if analysis is None:
        return KeyAnalysis(table, key)
    if analysis.table is not table or analysis.key != key:
        raise ValueError("the key analysis belongs to another table or key")
    return analysis


def check_spkey(table: IncompleteTable, key: AttributeSet,
                analysis: KeyAnalysis | None = None) -> ConstraintVerdict:
    """Holds iff a maximum matching of the key extension graph covers
    every tuple; the matching doubles as the certifying world.

    ``violation_rows`` is one row that some maximum matching leaves
    unmatched. When a key-total row repeats an earlier one on the key, it
    is that later row, found without building the graph: a strongly
    possible world keeps total rows as they are, and of two rows with the
    same single extension a matching covers at most one. Otherwise it is
    the first row the analysis's matching leaves unmatched.
    """
    a = key_analysis(table, key, analysis)
    n = table.row_count
    if a.duplicate is not None:
        return ConstraintVerdict(False, None, (a.duplicate,))
    result = a.matching
    if result.size == n:
        return ConstraintVerdict(True, a.full_world)
    unmatched = min(i for i in range(n) if i not in result.matching)
    return ConstraintVerdict(False, None, (unmatched,))


def g3_spkey(table: IncompleteTable, key: AttributeSet,
             analysis: KeyAnalysis | None = None) -> MeasureResult:
    """(|T| - nu) / |T| with the unmatched rows as removal witness: rows
    with a NULL on the key, and the later key-total rows of a repeated
    projection."""
    a = key_analysis(table, key, analysis)
    n = measure_denominator(table, "g3")
    result = a.matching
    if result.size == n:
        return MeasureResult("g3", 0, n, removed_rows=(), witness=a.full_world)
    matching = result.matching
    removed = tuple(i for i in range(n) if i not in matching)
    kept = [i for i in range(n) if i in matching]
    return MeasureResult("g3", n - result.size, n, removed_rows=removed,
                         witness=a.world(matching, kept))


def g4_spkey(table: IncompleteTable, key: AttributeSet,
             analysis: KeyAnalysis | None = None) -> MeasureResult:
    """Component-weighted variant: the rows of the full extension
    graph's components that the maximum matching covers completely count
    double in the denominator.

    A settled row shares its projection's component, and a repeated
    total projection leaves its component deficient. The components come
    from weak similarity on the key over the analysis's partition, not
    from the full graph (:func:`~spcheck.matching.satisfied_row_count`),
    so g4 answers every table the check answers.
    """
    a = key_analysis(table, key, analysis)
    n = measure_denominator(table, "g4")
    result = a.matching
    return MeasureResult("g4", n - result.size,
                         n + satisfied_row_count(a.partition, result.matching))


def first_total_duplicate(table: IncompleteTable, key: AttributeSet) -> int | None:
    """The first key-total row whose projection on ``key`` repeats an
    earlier key-total row's, or None."""
    project = projector(key)
    seen: set = set()
    for i, row in enumerate(table.rows):
        p = project(row)
        if None in p:
            continue
        if p in seen:
            return i
        seen.add(p)
    return None


def g5_spkey(table: IncompleteTable, key: AttributeSet,
             analysis: KeyAnalysis | None = None) -> MeasureResult:
    """Minimum number of fresh-valued rows whose addition makes the key
    hold, searched up to the g3 removal count.

    A fresh row replicates one globally new value across all columns, so
    it is trivially unique and donates a new value to every column. For a
    single-attribute key additions consume as many values as they donate;
    when the search is exhausted the measure is undefined.
    """
    a = key_analysis(table, key, analysis)
    if a.duplicate is not None:
        raise PreconditionError(
            "the key-total part violates the key; additions cannot repair duplicate total rows"
        )
    n = measure_denominator(table, "g5")
    result = a.matching
    if result.size == n:
        return MeasureResult("g5", 0, n, added_rows=(), witness=a.full_world)
    bound = n - result.size
    added = fresh_rows(table, table.all_positions(), bound)
    if any(table.active_domain(c) == (SSYMB,) for c in a.cols):
        # An all-NULL key column loses its reserved symbol to the first
        # fresh value, and with it every edge of the graph: the rounds
        # start from the table plus that row.
        return _warm_rounds(KeyAnalysis(table.with_rows_added(added[:1]), key), added, start=1)
    return _warm_rounds(a, added)


def _warm_rounds(a: KeyAnalysis, added: tuple, start: int = 0) -> MeasureResult:
    """g5 rounds k = start, start + 1, ... on one growing graph: ``a``
    analyses the table plus the first ``start`` fresh rows, round
    ``start`` is its matching, and each later round k adds the k-th
    fresh row.

    A fresh row is key-total, so it is settled like the others: it adds
    no left vertex, and its projection is left out of the vertices' new
    edges. The fresh value only enlarges the key columns' domains, so
    every edge of round k - 1 stays and its matching stays valid; round
    k adds the edges that use the new value and augments that matching,
    and succeeds when it and the left-out rows cover every row with a
    NULL on the key. A vertex whose rows have ``|T| + k + 1`` or more
    extensions in round k leaves its rows to the greedy pigeonhole step.
    Their count grows by at least one a round, so they stay there. A row
    the base graph left out starts there and stays too: a fresh row is
    weakly similar only to the rows NULL on the whole key, and those gain
    at least k extensions by round k, as many as the fresh rows settle,
    so each still has more free extensions than non-total rivals.
    """
    table, graph, base = a.table, a.graph, a.matching
    n = table.row_count - start  # the rows before any fresh row
    cols = a.cols
    values = list(table.active_domains())  # a copy: the rounds grow it, the table's stay
    order, slots = matching_order(graph)  # left vertex -> its first row
    members = [graph.members[v] for v in order]
    high = set(graph.high_degree_left)
    open_rows = len(slots) + len(high)  # the rows with a NULL on the key
    # The base lists are shared with the analysis: copy them, they grow.
    adjacency = [list(graph.adjacency[v]) for v in order]
    growing = [(pos, [p for p, c in enumerate(cols) if table.rows[v][c] is None],
                extension_options(table.rows[v], cols, values))
               for pos, v in enumerate(order)]
    n_base = len(graph.right_tuples)
    match_r = [None] * n_base
    for pos, rows in enumerate(members):
        for i in rows:
            rid = base.right_ids.get(i)
            if rid is not None:
                match_r[rid] = pos
    fresh_ids: dict = {}  # extension using a fresh value -> right id
    setdefault = fresh_ids.setdefault
    size = len(base.right_ids)
    for k in range(start, len(added) + 1):
        if k > start:
            z = added[k - 1][0]
            own = (z,) * len(cols)  # the fresh row's projection, settled
            for c in cols:
                values[c] += (z,)
            still = []
            gone = set()
            for pos, nulls, old in growing:
                new = extension_options(table.rows[order[pos]], cols, values)
                if prod(map(len, new)) >= n + k + 1:
                    for rid in adjacency[pos]:
                        if match_r[rid] == pos:
                            match_r[rid] = None
                    adjacency[pos] = []
                    gone.add(pos)
                    high.update(members[pos])
                    continue
                adjacency[pos].extend(setdefault(ext, n_base + len(fresh_ids)) for ext
                                      in _extensions_using(old, new, nulls, z) if ext != own)
                still.append((pos, nulls, new))
            growing = still
            if gone:
                slots = [pos for pos in slots if pos not in gone]
            match_r.extend([None] * (n_base + len(fresh_ids) - len(match_r)))
            size = hopcroft_karp(adjacency, slots, match_r)
        if size + len(high) < open_rows:
            continue
        fresh = list(fresh_ids)
        ext_of = lambda rid: graph.right_tuples[rid] if rid < n_base else fresh[rid - n_base]
        matching = dict(graph.settled)
        matching.update((n + j, (row[0],) * len(cols)) for j, row in enumerate(added[:k]))
        matching.update((i, ext_of(rid)) for i, rid in deal(members, match_r).items())
        extended = table.with_rows_added(added[start:k])
        match_high_degree(extended, a.key, high, matching)
        world = complete_world(extended, a.cols, matching.__getitem__)
        return MeasureResult("g5", k, n, added_rows=added[:k],
                             witness=SpWorld(world.rows, tuple(range(n)) + (None,) * k))
    return MeasureResult("g5", None, n)


def _extensions_using(old: list, new: list, nulls: list, z) -> Iterator[tuple]:
    """The completions of a row that use ``z`` at least once, each once:
    ``old`` and ``new`` are the row's per-position options before and
    after ``z`` joined the domains, ``nulls`` its NULL key positions.
    The first ``z`` falls at each NULL position in turn; positions before
    it take ``old`` options, after it ``new`` ones."""
    for j in nulls:
        yield from product(*old[:j], (z,), *new[j + 1:])
