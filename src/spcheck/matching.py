"""Bipartite extension graph, maximum matching, and Hall-condition
component classification.

The left class holds tuple indices, the right class the distinct complete
key projections over the active domains. A caller can settle the
key-total tuples first: each has one extension, its own projection, so
the first tuple of each distinct projection is matched to it, the later
ones stay unmatched, and the graph holds only the tuples with a NULL on
the key, without the settled projections. Any maximum matching can be
exchanged into one that covers one tuple of each total projection, so
the settled tuples plus a maximum matching of this reduced graph are a
maximum matching of the full one.

The full right class is usually exponential, so construction has one
rule for leaving a tuple out: it must have more extensions than
*rivals*, the other tuples weakly similar to it on the key
(:func:`rows_beyond_rivals` finds them all). Only a rival can hold one
of its extensions, so once everyone else is matched one is still free,
which keeps the matching maximum. With every such tuple left out, as
the key analysis does, a tuple kept has at most as many extensions as
rivals, fewer than ``|T|``, so the check is polynomial.
In the reduced graph the test reads the same: a tuple's total rivals
are the key-total tuples whose projections are among its extensions,
at least one per settled projection there, so more extensions than
rivals means more free extensions than non-total rivals. Such tuples
are recorded in ``high_degree_left`` and matched greedily from a lazy
enumeration.

Components of the full graph group the tuples by the transitive closure
of weak similarity on the key, since two tuples share an extension
exactly when they are weakly similar: :func:`satisfied_row_count` counts
them without the graph, and :func:`hall_components` classifies them on
a full graph built with nothing settled or left out.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import product
from math import prod

from .table import AttributeSet, IncompleteTable, extension_options, projector


@dataclass(frozen=True)
class ExtensionGraph:
    table: IncompleteTable
    key: AttributeSet
    right_tuples: tuple[tuple, ...]
    adjacency: dict  # low-degree row index -> list of right ids, lex order
    high_degree_left: dict  # row index left out -> exact extension count
    settled: dict = field(default_factory=dict)  # settled row -> its projection


@dataclass(frozen=True)
class MatchingResult:
    matching: dict  # row index -> extension tuple
    size: int
    right_ids: dict  # materialized matched row index -> right id


@dataclass(frozen=True)
class Component:
    left_rows: tuple[int, ...]
    right_ids: tuple[int, ...]
    nu: int

    @property
    def satisfied(self) -> bool:
        return self.nu == len(self.left_rows)


@dataclass(frozen=True)
class ComponentPartition:
    satisfied: tuple[Component, ...]
    deficient: tuple[Component, ...]

    @property
    def satisfied_tuple_count(self) -> int:
        return sum(len(c.left_rows) for c in self.satisfied)

    @property
    def total_nu(self) -> int:
        return sum(c.nu for c in self.satisfied + self.deficient)


def build_extension_graph(table: IncompleteTable, key: AttributeSet, leave_out=(),
                          settled=()) -> ExtensionGraph:
    """Materialize each tuple's distinct key extensions.

    A tuple's extensions are taken in lexicographic order of its
    per-position options on the sorted key, and each new extension gets
    the next right id. The rows in ``leave_out`` are left out; each must
    have more extensions than rivals (see :func:`rows_beyond_rivals`).
    The rows in ``settled`` must be key-total: the first of them with
    each projection is matched to it (``ExtensionGraph.settled``), the
    later ones stay unmatched, and none of them is a left vertex; their
    projections are left out of every other row's edges. With nothing
    settled or left out the graph is the full one.
    """
    cols = sorted(key)
    rows = table.rows
    project = projector(cols)
    held: dict = {}  # settled projection -> its first settled row
    for i in sorted(settled):
        p = project(rows[i])
        if None in p:
            raise ValueError(f"settled row {i} has a NULL on the key")
        held.setdefault(p, i)
    skip = set(settled)
    values = table.active_domains()
    right_ids: dict = {}
    setdefault = right_ids.setdefault
    adjacency: dict = {}
    high_degree: dict = {}
    for i, row in enumerate(rows):
        if i in skip:
            continue
        options = extension_options(row, cols, values)
        if i in leave_out:
            high_degree[i] = prod(map(len, options))
        else:
            adjacency[i] = [setdefault(ext, len(right_ids))
                            for ext in product(*options) if ext not in held]
    return ExtensionGraph(table, key, tuple(right_ids), adjacency, high_degree,
                          {i: p for p, i in held.items()})


def rows_beyond_rivals(table: IncompleteTable, key: AttributeSet) -> set:
    """The rows with a NULL on ``key`` and more extensions than rivals:
    the other rows weakly similar to them on ``key``.

    Rows are grouped by the key columns they are NULL on (their mask).
    Two rows are weakly similar when they agree on the key columns
    neither mask covers, so a row's rivals in one group are counted by
    one tally of that group's projections on those columns, kept for
    every row that needs the same (group, columns) pair. The key-total
    rows are counted first, then the groups by mask size, and a row's
    count stops once it reaches the row's extension count or the rows
    still uncounted cannot take it there. A row with more than
    ``|T| - 1`` extensions is returned uncounted.
    """
    rows = table.rows
    n = len(rows)
    cols = sorted(key)
    sizes = [len(v) for v in table.active_domains()]
    project = projector(cols)
    totals = []
    at: dict = {}  # mask -> indices of the rows NULL on just those key columns
    for i, row in enumerate(rows):
        if None in project(row):
            at.setdefault(tuple(c for c in cols if row[c] is None), []).append(i)
        else:
            totals.append(row)
    groups = {(): totals, **{mask: [rows[i] for i in idx] for mask, idx in at.items()}}
    masks = sorted(groups, key=lambda mask: (len(mask), mask))
    tallies: dict = {}  # (mask, shared columns) -> (projector, tally lookup)
    out = set()
    for mask in masks[1:]:
        count = prod(sizes[c] for c in mask)
        if count > n - 1:
            out.update(at[mask])
            continue
        counters = []
        rest = n
        for other in masks:
            shared = tuple(c for c in cols if c not in mask and c not in other)
            tally = tallies.get((other, shared))
            if tally is None:
                get = projector(shared)
                tally = tallies[other, shared] = (get, Counter(map(get, groups[other])).get)
            rest -= len(groups[other])
            counters.append((*tally, rest))
        for i, row in zip(at[mask], groups[mask]):
            rivals = -1  # the row itself
            for get, lookup, uncounted in counters:
                rivals += lookup(get(row), 0)
                if rivals >= count:
                    break
                if rivals + uncounted < count:
                    out.add(i)
                    break
    return out


def hopcroft_karp(adjacency: list, n_right: int, match_l: list | None = None,
                  match_r: list | None = None) -> tuple[int, list, list]:
    """Layered (shortest-augmenting-path batch) maximum matching.

    ``adjacency[u]`` lists the right neighbours of left vertex ``u``;
    vertex order is the caller's, making results reproducible. Iterative
    DFS, so deep alternating paths cannot hit the recursion limit.

    ``match_l`` and ``match_r`` (left vertex -> right id and back, None
    when free) warm-start the search from a valid matching of this
    graph; they are augmented in place and returned.
    """
    n_left = len(adjacency)
    if match_l is None:
        match_l, match_r = [None] * n_left, [None] * n_right
    inf = float("inf")
    dist = [inf] * n_left
    size = sum(1 for v in match_l if v is not None)
    while True:
        queue: deque = deque()
        for u in range(n_left):
            if match_l[u] is None:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = inf
        found = inf
        while queue:
            u = queue.popleft()
            if dist[u] >= found:
                continue
            for v in adjacency[u]:
                w = match_r[v]
                if w is None:
                    if found is inf:
                        found = dist[u] + 1
                elif dist[w] is inf:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if found is inf:
            break
        for u0 in range(n_left):
            if match_l[u0] is not None:
                continue
            # Iterative alternating DFS; frames are [vertex, iterator, edge].
            stack = [[u0, iter(adjacency[u0]), None]]
            augmented = False
            while stack:
                frame = stack[-1]
                u, it = frame[0], frame[1]
                descended = False
                for v in it:
                    w = match_r[v]
                    if w is None:
                        if dist[u] + 1 == found:
                            frame[2] = v
                            for fu, _, fv in stack:
                                match_l[fu] = fv
                                match_r[fv] = fu
                            augmented = True
                            stack.clear()
                            descended = True
                            break
                    elif dist[w] == dist[u] + 1:
                        frame[2] = v
                        stack.append([w, iter(adjacency[w]), None])
                        descended = True
                        break
                if not descended:
                    dist[u] = inf
                    stack.pop()
            if augmented:
                size += 1
    return size, match_l, match_r


def matching_order(graph: ExtensionGraph) -> list[int]:
    """The materialized rows in the order the matching takes them: fewest
    NULLs on the key first, then by row index, so that the rows it leaves
    unmatched carry the fewest values."""
    cols = sorted(graph.key)
    rows = graph.table.rows
    return sorted(graph.adjacency, key=lambda i: (sum(rows[i][c] is None for c in cols), i))


def max_matching(graph: ExtensionGraph) -> MatchingResult:
    """The settled rows on their projections, a maximum matching over
    the materialized vertices in :func:`matching_order`, then every
    high-degree tuple greedily completed with an unused extension.

    The greedy phase always succeeds: a tuple left out of the graph has
    more extensions than rivals, and only a rival can hold one of them,
    so the overall size equals the maximum matching of the full graph.
    """
    low_rows = matching_order(graph)
    adjacency = [graph.adjacency[i] for i in low_rows]
    _, match_l, _ = hopcroft_karp(adjacency, len(graph.right_tuples))
    right_ids = {i: rid for i, rid in zip(low_rows, match_l) if rid is not None}
    matching = dict(graph.settled)
    matching.update((i, graph.right_tuples[rid]) for i, rid in right_ids.items())
    match_high_degree(graph.table, graph.key, graph.high_degree_left, matching)
    return MatchingResult(matching, len(matching), right_ids)


def match_high_degree(table: IncompleteTable, key: AttributeSet, rows, matching: dict) -> None:
    """Give each of ``rows``, in index order, its first key extension in
    ``table`` that ``matching`` does not use yet, adding it to
    ``matching``. Every row must have more extensions than rivals (the
    other rows of ``table`` weakly similar to it on ``key``), so one is
    always free.
    """
    used = set(matching.values())
    cols = sorted(key)
    values = table.active_domains()
    for i in sorted(rows):
        for ext in product(*extension_options(table.rows[i], cols, values)):
            if ext not in used:
                matching[i] = ext
                used.add(ext)
                break
        else:
            raise AssertionError("pigeonhole violated: no free extension for high-degree tuple")


def hall_components(graph: ExtensionGraph, result: MatchingResult | None = None) -> ComponentPartition:
    """Classify connected components by whether a local matching covers
    all their tuple vertices.

    A maximum matching decomposes over components, so the global matching
    restricted to a component is locally maximum. ``graph`` must hold
    every row, so nothing settled or left out. ``result`` is a
    maximum matching of the table's full extension graph, computed here
    when not given; any such matching counts the same rows per component.
    """
    if len(graph.adjacency) < graph.table.row_count:
        raise ValueError("the component partition needs the full extension graph, "
                         "with no row settled or left out")
    if result is None:
        result = max_matching(graph)
    n_right = len(graph.right_tuples)
    # Union-find over left rows (as-is) and right ids (offset by row count).
    parent = list(range(graph.table.row_count + n_right))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    offset = graph.table.row_count
    for i, edges in graph.adjacency.items():
        for rid in edges:
            union(i, offset + rid)
    groups: dict = {}
    for i in graph.adjacency:
        groups.setdefault(find(i), [[], []])[0].append(i)
    for rid in range(n_right):
        groups.setdefault(find(offset + rid), [[], []])[1].append(rid)
    satisfied = []
    deficient = []
    for lefts, rights in groups.values():
        nu = sum(1 for i in lefts if i in result.matching)
        component = Component(tuple(sorted(lefts)), tuple(sorted(rights)), nu)
        (satisfied if component.satisfied else deficient).append(component)
    order = lambda c: (c.left_rows, c.right_ids)
    return ComponentPartition(
        tuple(sorted(satisfied, key=order)), tuple(sorted(deficient, key=order))
    )


def satisfied_row_count(table: IncompleteTable, key: AttributeSet, matched) -> int:
    """The rows of the components of the full extension graph of
    ``table`` on ``key`` whose every row is in ``matched``, a maximum
    matching's rows.

    Two rows share an extension exactly when they are weakly similar on
    the key, so a component's rows are a class of the transitive closure
    of weak similarity, and no graph is needed. The rows with a NULL on
    the key are grouped by the key columns they are NULL on (their
    mask); for each pair of masks, the rows of both that agree on the
    columns neither mask covers are joined. Two rows weakly similar to
    one key-total row are weakly similar to each other, so a key-total
    row joins the class of any row with a NULL it agrees with, or else
    only the other key-total rows with its projection.
    """
    rows = table.rows
    n = len(rows)
    if all(i in matched for i in range(n)):
        return n
    cols = sorted(key)
    projections = list(map(projector(cols), rows))
    totals = []
    at: dict = {}  # mask -> indices of the rows NULL on just those key columns
    for i, p in enumerate(projections):
        if None in p:
            at.setdefault(tuple(c for c, v in zip(cols, p) if v is None), []).append(i)
        else:
            totals.append(i)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    masks = list(at)
    for pos, mask in enumerate(masks):
        for other in masks[pos:]:
            get = projector([c for c in cols if c not in mask and c not in other])
            firsts: dict = {}  # shared projection -> first row of ``mask`` with it
            for i in at[mask]:
                j = firsts.setdefault(get(rows[i]), i)
                if other is mask:
                    union(i, j)
            if other is mask:
                continue
            # Rows of the two masks with the same projection are joined
            # through the first row of each side that has it.
            seconds: dict = {}
            for i in at[other]:
                p = get(rows[i])
                j = firsts.get(p)
                if j is not None:
                    union(i, j)
                    seconds.setdefault(p, i)
            for i in at[mask]:
                j = seconds.get(get(rows[i]))
                if j is not None:
                    union(i, j)
    loose = totals  # the key-total rows not yet joined to a row with a NULL
    for mask in masks:
        get = projector([c for c in cols if c not in mask])
        firsts = {get(rows[i]): i for i in at[mask]}
        still = []
        for i, j in zip(loose, map(firsts.get, map(get, [rows[i] for i in loose]))):
            if j is None:
                still.append(i)
            else:
                union(i, j)
        loose = still
    firsts = {}
    for i in loose:
        union(i, firsts.setdefault(projections[i], i))
    deficient = {find(i) for i in range(n) if i not in matched}
    return sum(1 for i in range(n) if find(i) not in deficient)
