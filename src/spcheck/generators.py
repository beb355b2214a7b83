"""Parametric instance generators with known ground-truth answers.

Covers the two-attribute and wide-key families realizing any rational
gap between the removal and addition measures, the weak-similarity graph
encoding, and the decision-problem reductions (clique, 3-coloring,
3-dimensional matching). Every construction ships with an independently
computed expected answer; ``verify=True`` re-derives it through the
engines and refuses to emit on mismatch.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .constraints import Constraint, SpCj, SpFd, SpKey
from .errors import GeneratorError
from .spfd import g3_spfd, g5_spfd
from .spkey import g3_spkey, g5_spkey
from .table import IncompleteTable
from .tuplegen import check_spcj_general, g3_spcj, g5_spcj

# A simple graph: vertex count plus a set of sorted index pairs.
Graph = tuple


def graph(n: int, edges) -> Graph:
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    normalized = frozenset(
        (min(u, v), max(u, v)) for u, v in edges if u != v
    )
    for u, v in normalized:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for {n} vertices")
    return (n, normalized)


def complement(g: Graph) -> Graph:
    n, edges = g
    return (n, frozenset(
        (u, v) for u, v in combinations(range(n), 2) if (u, v) not in edges
    ))


def has_clique(g: Graph, k: int) -> bool:
    """Brute-force k-clique existence; the independent side of the
    clique-reduction soundness checks."""
    n, edges = g
    if k <= 1:
        return k <= n
    return any(
        all((min(u, v), max(u, v)) in edges for u, v in combinations(vs, 2))
        for vs in combinations(range(n), k)
    )


def is_3colorable(g: Graph) -> bool:
    """Brute-force proper 3-coloring; independent of the spCJ engines."""
    n, edges = g
    if n == 0:
        return True
    for coloring in product(range(3), repeat=n):
        if all(coloring[u] != coloring[v] for u, v in edges):
            return True
    return False


@dataclass(frozen=True)
class GeneratedInstance:
    table: IncompleteTable
    constraint: Constraint
    expected: dict
    provenance: str


def _require_reduced(p: int, q: int) -> None:
    if q <= 0 or p < 0 or p >= q:
        raise ValueError(f"need 0 <= p/q < 1, got {p}/{q}")
    if math.gcd(p, q) != 1 and p != 0:
        raise ValueError(f"{p}/{q} is not reduced")
    if p == 0 and q != 1:
        raise ValueError("write zero as 0/1")


def _verify(instance: GeneratedInstance, measured: dict) -> GeneratedInstance:
    for name, value in measured.items():
        if instance.expected[name] != value:
            raise GeneratorError(
                f"{instance.provenance}: expected {name}={instance.expected[name]}, engines measured {value}"
            )
    return instance


def gen_prop3(p: int, q: int, c: int = 1, verify: bool = False) -> GeneratedInstance:
    """Wide-key family: q' rows over p'+2 attributes whose first p'+1
    active domains are the single value 1, so every diagonal-NULL row
    collapses onto the all-ones tuple. Removal costs p'+1 rows, while one
    row of fresh values repairs everything, giving a gap of p/q."""
    _require_reduced(p, q)
    if c < 1:
        raise ValueError("c must be positive")
    while c * (q - p) < 2:
        c += 1
    pp, qq = c * p, c * q
    x = qq - pp - 1
    width = pp + 2
    rows = []
    for i in range(1, x + 1):
        rows.append(("1",) * (width - 1) + (str(i),))
    for j in range(pp + 1):
        row = ["1"] * width
        row[j] = None
        rows.append(tuple(row))
    table = IncompleteTable.build([f"A{i + 1}" for i in range(width)], rows)
    key = frozenset(range(width))
    expected = {
        "g3": Fraction(pp + 1, qq),
        "g5": Fraction(1, qq),
        "difference": Fraction(p, q),
    }
    instance = GeneratedInstance(
        table, SpKey(key), expected, f"prop3(p={p}, q={q}, c={c})"
    )
    if verify:
        g3 = g3_spkey(table, key).ratio
        g5 = g5_spkey(table, key).ratio
        _verify(instance, {"g3": g3, "g5": g5, "difference": g3 - g5})
    return instance


def _additions_needed_key(b: int, x: int) -> int:
    """Fewest fresh rows making the b-totals-plus-x-blanks two-column
    table a key: k additions give (k+1)(k+b) domain combinations that
    must seat all x + b + k rows distinctly."""
    n = x + b
    k = 0
    while (k + 1) * (k + b) < n + k:
        k += 1
    return k


def _additions_needed_fd(b: int, x: int) -> int:
    """Fewest fresh left-side rows for the dependency family: the x + b
    pairwise-incompatible rows need distinct left-side classes out of the
    (k+1)(k+b) combinations (added rows can share any class)."""
    n = x + b
    k = 0
    while (k + 1) * (k + b) < n:
        k += 1
    return k


def _search_two_column(p: int, q: int, c: int, needed) -> tuple[int, int, int, int]:
    """Smallest (c, b) such that the b-totals-plus-x-blanks family has
    exactly a p/q gap between removal and addition counts. Searching the
    actual addition formula sidesteps the asymptotic ceiling analysis,
    which misfires when p/(q-p) is an integer."""
    while True:
        n = c * q
        target = c * p
        for b in range(1, n):
            x = n - b
            y = needed(b, x)
            if x - y == target:
                return c, b, x, y
        c += 1


def gen_thm1(p: int, q: int, c: int = 1, verify: bool = False) -> GeneratedInstance:
    """Two-attribute key family with measure gap p/q: b total rows
    (1, i) exhaust the domain combinations and x all-NULL rows compete
    for them. Removal costs x rows; y fresh rows widen both domains."""
    _require_reduced(p, q)
    if c < 1:
        raise ValueError("c must be positive")
    c, b, x, y = _search_two_column(p, q, c, _additions_needed_key)
    rows = [("1", str(i)) for i in range(1, b + 1)]
    rows += [(None, None)] * x
    table = IncompleteTable.build(["A1", "A2"], rows)
    key = frozenset({0, 1})
    expected = {
        "g3": Fraction(x, x + b),
        "g5": Fraction(y, x + b),
        "difference": Fraction(p, q),
    }
    instance = GeneratedInstance(
        table, SpKey(key), expected, f"thm1(p={p}, q={q}, c={c}, b={b})"
    )
    if verify:
        mg3 = g3_spkey(table, key).ratio
        mg5 = g5_spkey(table, key).ratio
        _verify(instance, {"g3": mg3, "g5": mg5, "difference": mg3 - mg5})
    return instance


def gen_thm3(p: int, q: int, c: int = 1, verify: bool = False) -> GeneratedInstance:
    """Three-column dependency family: b total rows pin distinct
    right-side values per left-side pair, x rows are NULL on the left
    with pairwise distinct right sides. All x must be removed, while y
    fresh left-side values re-house them."""
    _require_reduced(p, q)
    if c < 1:
        raise ValueError("c must be positive")
    c, b, x, y = _search_two_column(p, q, c, _additions_needed_fd)
    rows = [("1", str(i), str(i)) for i in range(1, b + 1)]
    rows += [(None, None, str(b + j)) for j in range(1, x + 1)]
    table = IncompleteTable.build(["X1", "X2", "Y"], rows)
    lhs, rhs = frozenset({0, 1}), frozenset({2})
    expected = {
        "g3": Fraction(x, x + b),
        "g5": Fraction(y, x + b),
        "difference": Fraction(p, q),
    }
    instance = GeneratedInstance(
        table, SpFd(lhs, rhs), expected, f"thm3(p={p}, q={q}, c={c}, b={b})"
    )
    if verify:
        g3 = g3_spfd(table, lhs, rhs).ratio
        g5 = g5_spfd(table, lhs, rhs).ratio
        _verify(instance, {"g3": g3, "g5": g5, "difference": g3 - g5})
    return instance


def graph_to_weak_similarity_table(g: Graph) -> IncompleteTable:
    """A k-row, k-column table whose weak similarity graph on the full
    schema is the given graph under the identity vertex map: column i
    pins tuple i with 1, adjacency shows as NULL, non-adjacency as 2."""
    n, edges = g
    rows = []
    for i in range(n):
        row = []
        for l in range(n):
            if l == i:
                row.append("1")
            elif (min(i, l), max(i, l)) in edges:
                row.append(None)
            else:
                row.append("2")
        rows.append(tuple(row))
    return IncompleteTable.build([f"A{i + 1}" for i in range(n)], rows)


def reduce_maxclique_to_spcj_g3(g: Graph, k: int, verify: bool = False) -> GeneratedInstance:
    """Clique decision as a removal-measure threshold: a k-clique exists
    iff at least k rows survive with one shared right-side completion,
    i.e. iff the removal measure is at most 1 - k/n."""
    n, _ = g
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    sim = graph_to_weak_similarity_table(g)
    rows = [(str(i + 1),) + sim.rows[i] for i in range(n)]
    table = IncompleteTable.build(["X"] + [f"A{i + 1}" for i in range(n)], rows)
    lhs = frozenset({0})
    rhs = frozenset(range(1, n + 1))
    threshold = Fraction(n - k, n)
    expected = {"threshold": threshold, "decision": has_clique(g, k)}
    instance = GeneratedInstance(
        table, SpCj(lhs, rhs), expected, f"maxclique(n={n}, k={k})"
    )
    if verify:
        measured = g3_spcj(table, lhs, rhs).ratio <= threshold
        _verify(instance, {"decision": measured})
    return instance


def reduce_3color_to_spcj_g5(g: Graph, verify: bool = False) -> GeneratedInstance:
    """3-colorability as an addition-measure threshold: the right side
    encodes the complement graph, so color classes become weak-similarity
    cliques and 2n all-NULL rows complete the cross product iff a proper
    3-coloring exists."""
    n, _ = g
    sim = graph_to_weak_similarity_table(complement(g))
    rows = [(str(i + 1),) + sim.rows[i] for i in range(n)]
    table = IncompleteTable.build(["X"] + [f"A{i + 1}" for i in range(n)], rows)
    lhs = frozenset({0})
    rhs = frozenset(range(1, n + 1))
    expected = {"threshold": Fraction(2), "decision": is_3colorable(g)}
    instance = GeneratedInstance(
        table, SpCj(lhs, rhs), expected, f"threecolor(n={n})"
    )
    if verify:
        measured = g5_spcj(table, lhs, rhs).ratio <= 2
        _verify(instance, {"decision": measured})
    return instance


# The 18-edge triple gadget of the classical partition-into-triangles
# construction: per element a private triangle pair, linked through a
# selector triangle (a3, a6, a9).
_GADGET_LOCAL_EDGES = [
    ("x", "a1"), ("x", "a2"), ("a1", "a2"), ("a1", "a3"), ("a2", "a3"),
    ("y", "a4"), ("y", "a5"), ("a4", "a5"), ("a4", "a6"), ("a5", "a6"),
    ("z", "a7"), ("z", "a8"), ("a7", "a8"), ("a7", "a9"), ("a8", "a9"),
    ("a3", "a6"), ("a3", "a9"), ("a6", "a9"),
]
_GADGET_Y_VALUES = {
    "x": "1", "y": "2", "z": "3",
    "a1": "2", "a2": "3", "a3": "1",
    "a4": "1", "a5": "3", "a6": "2",
    "a7": "1", "a8": "2", "a9": "3",
}


def solve_3dm(b, c, d, triples) -> bool:
    """Brute-force 3-dimensional matching over the given triple family."""
    size = len(b)
    if size == 0:
        return True
    for chosen in combinations(triples, size):
        seen = set()
        ok = True
        for t in chosen:
            if any(e in seen for e in t):
                ok = False
                break
            seen.update(t)
        if ok and len(seen) == 3 * size:
            return True
    return False


def reduce_3dm_to_spcj(b, c, d, triples, verify: bool = False) -> GeneratedInstance:
    """Triple-family matching as a general cross-join instance: the
    gadget graph partitions into triangles iff a matching exists, and the
    appended three-valued column forces every weak-similarity class to be
    such a triangle."""
    b, c, d = list(b), list(c), list(d)
    if not (len(b) == len(c) == len(d)):
        raise ValueError("the three element sets must have equal size")
    for x, y, z in triples:
        if x not in b or y not in c or z not in d:
            raise ValueError(f"triple ({x},{y},{z}) uses unknown elements")
    if len(b) == 0 or not triples:
        # Degenerate families never realize all three right-side values,
        # so the gadget would not force triangle classes; map them to
        # fixed yes/no tables instead.
        if len(b) == 0:
            table = IncompleteTable.build(["A1", "Y"], [("1", "1")])
            decision = True
        else:
            table = IncompleteTable.build(["A1", "Y"], [("1", "2"), ("2", "1")])
            decision = False
        instance = GeneratedInstance(
            table, SpCj(frozenset({0}), frozenset({1})),
            {"decision": decision}, f"threedm(q={len(b)}, triples=0)"
        )
        if verify:
            measured = check_spcj_general(table, frozenset({0}), frozenset({1})).holds
            _verify(instance, {"decision": measured})
        return instance
    vertices = [("base", e) for e in b + c + d]
    y_value = {("base", e): "1" for e in b + c + d}
    edges = []
    for i, (tx, ty, tz) in enumerate(triples):
        local = {"x": ("base", tx), "y": ("base", ty), "z": ("base", tz)}
        for j in range(1, 10):
            node = ("aux", i, j)
            local[f"a{j}"] = node
            vertices.append(node)
        for u, v in _GADGET_LOCAL_EDGES:
            edges.append((local[u], local[v]))
        for name in ("x", "y", "z"):
            y_value[local[name]] = _GADGET_Y_VALUES[name]
        for j in range(1, 10):
            y_value[("aux", i, j)] = _GADGET_Y_VALUES[f"a{j}"]
    index = {v: i for i, v in enumerate(vertices)}
    g = graph(len(vertices), [(index[u], index[v]) for u, v in edges])
    sim = graph_to_weak_similarity_table(g)
    rows = [sim.rows[i] + (y_value[v],) for i, v in enumerate(vertices)]
    table = IncompleteTable.build(
        [f"A{i + 1}" for i in range(len(vertices))] + ["Y"], rows
    )
    lhs = frozenset(range(len(vertices)))
    rhs = frozenset({len(vertices)})
    expected = {"decision": solve_3dm(b, c, d, triples)}
    instance = GeneratedInstance(
        table, SpCj(lhs, rhs), expected,
        f"threedm(q={len(b)}, triples={len(triples)})"
    )
    if verify:
        measured = check_spcj_general(table, lhs, rhs).holds
        _verify(instance, {"decision": measured})
    return instance


def random_table(rows: int, cols: int, domain_size: int, null_rate: float,
                 seed: int) -> IncompleteTable:
    """Uniform corruptor: plumbing for fuzzing and scaling runs, with no
    special structure."""
    for name, value, least in (("rows", rows, 0), ("cols", cols, 1), ("domain_size", domain_size, 1)):
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
    if not 0 <= null_rate <= 1:
        raise ValueError(f"need 0 <= null_rate <= 1, got {null_rate}")
    rng = random.Random(seed)
    data = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            if rng.random() < null_rate:
                row.append(None)
            else:
                row.append(str(rng.randrange(1, domain_size + 1)))
        data.append(tuple(row))
    return IncompleteTable.build([f"A{i + 1}" for i in range(cols)], data)
