"""Key partition, bipartite extension graph, maximum matching, and
Hall-condition component classification.

Two rows with the same projection on the key, NULLs included, have the
same extensions, so the analysis of a key reads one partition of the
rows (:class:`KeyPartition`): the key-total rows by projection, and the
rows with a NULL on the key by projection and, through it, by the key
columns they are NULL on (their mask), found in one pass
(:func:`partition_of`).

The graph's left class holds one vertex per distinct projection with a
NULL, whose capacity is its row count; the right class holds the
distinct complete key projections over the active domains. The
key-total rows are settled first: each has one extension, its own
projection, so the first row of each distinct total projection is
matched to it, the later ones stay unmatched, and the settled
projections are left out of every vertex's edges. Any maximum matching
can be exchanged into one that covers one row of each total projection,
so the settled rows plus a maximum matching of this graph are a maximum
matching of the full graph with one vertex per row. A vertex's matched
extensions are dealt to its rows in index order (:func:`deal`).

The full right class is usually exponential, so construction has one
rule for leaving a row out: it must have more extensions than *rivals*,
the other rows weakly similar to it on the key (:func:`rows_beyond_rivals`
finds them all; the rows of one projection have the same counts, so
they leave together). Only a rival can hold one of its extensions, so
once everyone else is matched one is still free, which keeps the
matching maximum. With every such row left out, as the key analysis
does, a row kept has at most as many extensions as rivals, fewer than
``|T|``, so the check is polynomial. In the settled graph the test reads
the same: a row's total rivals are the key-total rows whose projections
are among its extensions, at least one per settled projection there, so
more extensions than rivals means more free extensions than non-total
rivals. Such rows are recorded in ``high_degree_left`` and matched
greedily from a lazy enumeration.

Components of the full graph group the rows by the transitive closure
of weak similarity on the key, since two rows share an extension
exactly when they are weakly similar: :func:`satisfied_row_count` counts
them from the partition without the graph, and :func:`hall_components`
classifies them on a graph whose vertices hold every row.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import product
from math import prod

from .table import AttributeSet, IncompleteTable, extension_options, projector


@dataclass(frozen=True)
class KeyPartition:
    """The rows of ``table`` by their projection on the sorted key
    columns ``cols``. ``totals`` and ``nulls`` map each key-total
    projection and each projection with a NULL to its first row, both in
    the order of their first rows; ``repeats`` maps each projection that
    more than one row has to its later rows, in index order; ``masks``
    maps each mask (the positions in ``cols`` that a projection is NULL
    on) to its projections in ``nulls``."""

    table: IncompleteTable
    key: AttributeSet
    cols: tuple[int, ...]
    totals: dict
    nulls: dict
    repeats: dict
    masks: dict

    def rows(self, p: tuple) -> list[int]:
        """The rows with ``p``, a projection with a NULL, in index order."""
        return [self.nulls[p], *self.repeats.get(p, ())]

    def options(self, p: tuple) -> list[tuple]:
        """The per-position completion options of projection ``p``: its
        value, or the column's active domain at a NULL."""
        values = self.table.active_domains()
        return [values[c] if v is None else (v,) for c, v in zip(self.cols, p)]


@dataclass(frozen=True)
class ExtensionGraph:
    table: IncompleteTable
    key: AttributeSet
    right_tuples: tuple[tuple, ...]
    adjacency: dict  # left vertex (its first row) -> list of right ids, lex order
    members: dict  # left vertex -> its rows in index order, as many as it may take
    high_degree_left: dict  # row index left out -> exact extension count
    settled: dict  # settled row -> its projection


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


def partition_of(table: IncompleteTable, key: AttributeSet) -> KeyPartition:
    """The rows of ``table`` by their projection on ``key``, in one pass."""
    totals: dict = {}
    nulls: dict = {}
    repeats: dict = {}
    for i, p in enumerate(map(projector(key), table.rows)):
        if (nulls if None in p else totals).setdefault(p, i) != i:
            repeats.setdefault(p, []).append(i)
    masks: dict = {}
    for p in nulls:
        masks.setdefault(tuple(k for k, v in enumerate(p) if v is None), []).append(p)
    return KeyPartition(table, key, tuple(sorted(key)), totals, nulls, repeats, masks)


def build_extension_graph(partition: KeyPartition, leave_out=()) -> ExtensionGraph:
    """One left vertex per projection with a NULL, its rows as members
    and its distinct key extensions as edges.

    A vertex's extensions are taken in lexicographic order of its
    per-position options, and each new extension gets the next right id.
    The key-total rows are settled: the first row of each total
    projection is matched to it (``ExtensionGraph.settled``), the later
    ones stay unmatched, and no total projection is an edge. The rows in
    ``leave_out`` are left out, each with every row of its projection;
    each must have more extensions than rivals (see
    :func:`rows_beyond_rivals`).
    """
    held = partition.totals
    right_ids: dict = {}
    setdefault = right_ids.setdefault
    adjacency: dict = {}
    members: dict = {}
    high_degree: dict = {}
    for p, first in partition.nulls.items():
        options = partition.options(p)
        if first in leave_out:
            high_degree.update(dict.fromkeys(partition.rows(p), prod(map(len, options))))
        else:
            adjacency[first] = [setdefault(ext, len(right_ids))
                                for ext in product(*options) if ext not in held]
            members[first] = partition.rows(p)
    return ExtensionGraph(partition.table, partition.key, tuple(right_ids), adjacency, members,
                          high_degree, {i: p for p, i in held.items()})


def rows_beyond_rivals(partition: KeyPartition) -> set:
    """The rows with a NULL on the key and more extensions than rivals:
    the other rows weakly similar to them on the key.

    The rows of one projection have the same extensions and the same
    rivals, so each projection is counted once. Two rows are weakly
    similar when they agree on the key columns neither mask covers, so a
    projection's rivals in one mask are read from one tally of that
    mask's rows by their projection on those columns, kept for every
    projection that needs the same (mask, columns) pair. The key-total
    rows are counted first (where a mask's projections have fewer
    extensions in all than there are total rows, by looking each
    extension up instead), then the masks by size, and a count stops
    once it reaches the extension count or the masks still uncounted
    cannot take it there, each bounded by its tally's largest entry. A
    projection with more than ``|T| - 1`` extensions is returned
    uncounted.
    """
    n = partition.table.row_count
    sizes = [len(partition.table.active_domains()[c]) for c in partition.cols]
    width = len(sizes)
    totals, repeats = partition.totals, partition.repeats
    groups = {(): list(totals), **partition.masks}
    extra: dict = {mask: [] for mask in groups}  # mask -> (projection, later row count)
    for q, later in repeats.items():
        extra[tuple(k for k, v in enumerate(q) if v is None)].append((q, len(later)))
    weights = {mask: len(group) + sum(c for _, c in extra[mask]) for mask, group in groups.items()}
    masks = sorted(groups, key=lambda mask: (len(mask), mask))

    def total_rivals(options: list, _) -> int:
        hits = totals.keys() & product(*options)
        return len(hits) + sum(len(repeats[t]) for t in hits & repeats.keys())

    tallies: dict = {}  # (mask, shared positions) -> (projector, tally lookup, largest entry)
    out = set()
    for mask in masks[1:]:
        count = prod(sizes[k] for k in mask)
        if count > n - 1:
            for p in groups[mask]:
                out.update(partition.rows(p))
            continue
        # The key-total rows come first, so their bound is never read.
        steps = []
        if count * len(groups[mask]) < weights[()]:
            steps.append((partition.options, total_rivals, 0))
        for other in masks[len(steps):]:
            shared = tuple(k for k in range(width) if k not in mask and k not in other)
            tally = tallies.get((other, shared))
            if tally is None:
                get = projector(shared)
                group = groups[other]
                if not shared:
                    counts = Counter({(): weights[other]})
                else:
                    counts = Counter(map(get, group))
                    for q, later in extra[other]:
                        counts[get(q)] += later
                tally = tallies[other, shared] = (get, counts.get, max(counts.values(), default=0))
            steps.append(tally)
        rest = sum(bound for *_, bound in steps)
        counters = []
        for get, lookup, bound in steps:
            rest -= bound
            counters.append((get, lookup, rest))
        for p in groups[mask]:
            rivals = -1  # the row itself
            for get, lookup, uncounted in counters:
                rivals += lookup(get(p), 0)
                if rivals >= count:
                    break
                if rivals + uncounted < count:
                    out.update(partition.rows(p))
                    break
    return out


def hopcroft_karp(adjacency: list, slots: list, match_r: list) -> int:
    """Layered (shortest-augmenting-path batch) maximum matching in which
    a left vertex takes as many right vertices as it has ``slots`` and a
    right vertex at most one left vertex; returns the matching's size.

    ``adjacency[u]`` lists the right neighbours of left vertex ``u``.
    ``slots`` names a left vertex once per right vertex it may take, in
    the order each phase tries them: a phase tries one augmenting path
    per slot whose vertex still has room, so results are reproducible.
    With one slot per vertex this is the classical algorithm. Iterative
    DFS, so deep alternating paths cannot hit the recursion limit.
    ``match_r`` (right id -> left vertex, None when free) is a valid
    matching of this graph to start from, all None for a cold start; it
    is augmented in place.
    """
    n_left = len(adjacency)
    capacity = [0] * n_left
    for u in slots:
        capacity[u] += 1
    load = [0] * n_left
    for u in match_r:
        if u is not None:
            load[u] += 1
    size = sum(load)
    inf = float("inf")
    dist = [inf] * n_left
    while True:
        queue: deque = deque()
        for u in range(n_left):
            if load[u] < capacity[u]:
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
        # A vertex keeps its edge iterator across its slots in a phase:
        # an edge it has passed is matched to it or leads to a dead end.
        walks: dict = {}
        for u0 in slots:
            if load[u0] >= capacity[u0] or dist[u0] is inf:
                continue
            walk = walks.get(u0)
            if walk is None:
                walk = walks[u0] = iter(adjacency[u0])
            # Iterative alternating DFS; frames are [vertex, iterator, edge].
            stack = [[u0, walk, None]]
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
                load[u0] += 1
                size += 1
    return size


def deal(members: list, match_r: list) -> dict:
    """Row -> right id: the right ids matched to left vertex ``u`` (see
    :func:`hopcroft_karp`), in id order, dealt to its rows ``members[u]``
    in index order; the rows past its matched count stay unmatched."""
    taken: list = [[] for _ in members]
    for rid, u in enumerate(match_r):
        if u is not None:
            taken[u].append(rid)
    return {i: rid for rows, rids in zip(members, taken) for i, rid in zip(rows, rids)}


def matching_order(graph: ExtensionGraph) -> tuple[list[int], list[int]]:
    """The left vertices in the order the matching takes them, fewest
    NULLs on the key first, then by first row, and their slots (see
    :func:`hopcroft_karp`): each row's vertex position, with the rows in
    the same order, fewest NULLs first, then by index. The rows the
    matching leaves unmatched carry the fewest values, and the rows of
    one vertex take their turns among the others' as rows of their own
    would."""
    project = projector(graph.key)
    rows = graph.table.rows
    nulls = {v: project(rows[v]).count(None) for v in graph.adjacency}
    order = sorted(graph.adjacency, key=lambda v: (nulls[v], v))
    turns = sorted((nulls[v], i, pos) for pos, v in enumerate(order) for i in graph.members[v])
    return order, [pos for *_, pos in turns]


def max_matching(graph: ExtensionGraph) -> MatchingResult:
    """The settled rows on their projections, a maximum matching over
    the left vertices in :func:`matching_order` dealt to their rows, then
    every high-degree row greedily completed with an unused extension.

    The greedy phase always succeeds: a row left out of the graph has
    more extensions than rivals, and only a rival can hold one of them,
    so the overall size equals the maximum matching of the full graph.
    """
    order, slots = matching_order(graph)
    match_r = [None] * len(graph.right_tuples)
    hopcroft_karp([graph.adjacency[v] for v in order], slots, match_r)
    right_ids = deal([graph.members[v] for v in order], match_r)
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
    project = projector(cols)
    rows = sorted(rows)
    last = {project(table.rows[i]): i for i in rows}
    # The rows of one projection share one walk over its extensions,
    # dropped after its last row: every extension a walk has passed is
    # used.
    walks: dict = {}
    for i in rows:
        row = table.rows[i]
        p = project(row)
        walk = walks.get(p)
        if walk is None:
            walk = walks[p] = product(*extension_options(row, cols, values))
        for ext in walk:
            if ext not in used:
                matching[i] = ext
                used.add(ext)
                break
        else:
            raise AssertionError("pigeonhole violated: no free extension for high-degree tuple")
        if last[p] == i:
            del walks[p]


def hall_components(graph: ExtensionGraph, result: MatchingResult | None = None) -> ComponentPartition:
    """Classify connected components by whether a local matching covers
    all their rows.

    A maximum matching decomposes over components, so the global matching
    restricted to a component is locally maximum. The vertices of
    ``graph`` must hold every row, so nothing settled or left out.
    ``result`` is a maximum matching of the table's full extension graph,
    computed here when not given; any such matching counts the same rows
    per component.
    """
    if sum(map(len, graph.members.values())) < graph.table.row_count:
        raise ValueError("the component partition needs the full extension graph, "
                         "with no row settled or left out")
    if result is None:
        result = max_matching(graph)
    n_right = len(graph.right_tuples)
    # Union-find over left vertices (as-is) and right ids (offset by row count).
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
    for v, edges in graph.adjacency.items():
        for rid in edges:
            union(v, offset + rid)
    groups: dict = {}
    for v, rows in graph.members.items():
        groups.setdefault(find(v), [[], []])[0].extend(rows)
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


def satisfied_row_count(partition: KeyPartition, matched) -> int:
    """The rows of the components of the full extension graph of the
    partition's table and key whose every row is in ``matched``, a
    maximum matching's rows.

    Two rows share an extension exactly when they are weakly similar on
    the key, so a component's rows are a class of the transitive closure
    of weak similarity, and no graph is needed. The rows of one
    projection are weakly similar, so union-find runs over the distinct
    projections with a NULL: for each pair of masks, the projections of
    both that agree on the positions neither mask covers are joined. Two
    rows weakly similar to one key-total row are weakly similar to each
    other, so each total projection adds its rows, by count, to the
    class of any projection with a NULL that it agrees with, or else its
    rows are a class of their own.
    """
    n = partition.table.row_count
    covered = matched.__contains__
    if all(map(covered, range(n))):
        return n
    width = len(partition.cols)
    nulls = partition.nulls
    index = {p: j for j, p in enumerate(nulls)}
    parent = list(range(len(index)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    masks = list(partition.masks.items())
    for pos, (mask, ps) in enumerate(masks):
        for other, qs in masks[pos + 1:]:
            get = projector([k for k in range(width) if k not in mask and k not in other])
            firsts: dict = {}  # shared projection -> first projection of ``mask`` with it
            for p in ps:
                firsts.setdefault(get(p), p)
            # Projections of the two masks with the same shared projection
            # are joined through the first of each side that has it.
            seconds: dict = {}
            for q in qs:
                s = get(q)
                p = firsts.get(s)
                if p is not None:
                    union(index[q], index[p])
                    seconds.setdefault(s, q)
            for p in ps:
                q = seconds.get(get(p))
                if q is not None:
                    union(index[p], index[q])
    repeats = partition.repeats
    rows_in = []  # by projection, then by class
    short = []  # a row not in ``matched``, likewise
    for p, first in nulls.items():
        later = repeats.get(p, ())
        rows_in.append(1 + len(later))
        short.append(not covered(first) or not all(map(covered, later)))
    totals = partition.totals
    joined: dict = {}  # total projection -> the index of a projection in its class
    for mask, ps in masks:
        # Two projections with a total extension in common are in one
        # class, so the later mask's index will do.
        get = projector([k for k in range(width) if k not in mask])
        at = {get(p): index[p] for p in ps}
        joined.update((t, j) for t, j in zip(totals, map(at.get, map(get, totals)))
                      if j is not None)
    # The total projections with a row not in ``matched``.
    project = projector(partition.cols)
    rows = partition.table.rows
    bad = {project(rows[i]) for i in set(totals.values()).difference(matched)}
    bad.update(t for t, later in repeats.items()
               if None not in t and not all(map(covered, later)))
    for j, count in Counter(joined.values()).items():
        rows_in[j] += count
    for t in joined.keys() & repeats.keys():
        rows_in[joined[t]] += len(repeats[t])
    for t in joined.keys() & bad:
        short[joined[t]] = True
    for j in range(len(parent)):
        r = find(j)
        if r != j:
            rows_in[r] += rows_in[j]
            short[r] = short[r] or short[j]
    satisfied = sum(rows_in[j] for j in range(len(parent)) if parent[j] == j and not short[j])
    # A total projection joined to no class is a class of its own rows.
    lone = totals.keys() - joined.keys() - bad
    return satisfied + len(lone) + sum(len(repeats[t]) for t in lone & repeats.keys())
