"""Ground-truth brute-force engine.

Everything here trades speed for obviousness: strongly possible worlds are
enumerated outright, measures are found by exhaustive search ordered by
repair size, and budgets fail hard rather than truncate. The polynomial
and backtracking engines are tested against this module; it is the
correctness reference, never the fast path. It imports no engine module,
and :data:`KINDS` is its one dispatch on constraint kind.

Two shortcuts, neither of which changes an answer. No classical check
cares about row order, so the existential searches see each world once
per reordering of identical rows. And they drop every world prefix that
no completion can satisfy (see :func:`_iter_completions`). The budget
still counts every world, and the public :func:`enumerate_spworlds`
yields all of them.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations, combinations_with_replacement, permutations, product
from math import inf
from typing import Callable, Iterator, NamedTuple, Sequence

from .constraints import (Constraint, ConstraintVerdict, MeasureResult, Nmvd, SpCj, SpFd,
                          SpKey, SpMvd, measure_denominator)
from .errors import DEFAULT_BUDGET, BudgetExceededError, OracleGapError
from .table import (SSYMB, IncompleteTable, Row, SpWorld, extension_options, fresh_rows,
                    fresh_values, projector, strongly_similar)

# Instance-size limits for the extended-pool g5 cross-check.
CROSS_CHECK_MAX_ROWS = 6
CROSS_CHECK_MAX_COLS = 3
CROSS_CHECK_MAX_COUNT = 2
CROSS_CHECK_MAX_CANDIDATES = 2000


# ---------------------------------------------------------------------------
# World enumeration


def world_count(table: IncompleteTable) -> int:
    """Number of distinct strongly possible worlds of ``table``."""
    domains = table.active_domains()
    count = 1
    for row in table.rows:
        for a, cell in enumerate(row):
            if cell is None:
                count *= len(domains[a])
    return count


def _iter_completions(table: IncompleteTable, budget: int, up_to_reordering: bool = True,
                      deficit: Callable | None = None,
                      best: Callable[[], float] = lambda: 1) -> Iterator[tuple[Row, ...]]:
    """Completed row tuples, in lexicographic order of the NULL-cell
    assignments (row-major).

    The budget always counts every world (:func:`world_count`). With
    ``up_to_reordering``, a row equal to an earlier row (NULLs included)
    takes only completions at or after that row's, so each world is
    yielded once per reordering of identical rows: the sorted
    representative, which is the first of its reorderings in the full
    order. Every classical check here ignores row order, so the first
    world and the first satisfying world stay the same.

    With a ``deficit`` (see :data:`KINDS`), only worlds of deficit below
    ``best()`` (by default 1: deficit 0) are yielded, and a prefix is
    dropped with all its completions when the deficit of its placed rows
    (the rows without NULLs, then the completions chosen so far) minus
    the number of rows still to place is at least ``best()``: each later
    row lowers the deficit by at most one. ``best`` is read at every
    step, so a caller can lower it between yields.
    """
    total = world_count(table)
    if total > budget:
        raise BudgetExceededError(
            f"{total} strongly possible worlds exceed the budget of {budget}"
        )
    every, values = range(table.arity), table.active_domains()
    options = [tuple(product(*extension_options(row, every, values))) for row in table.rows]
    world = [opts[0] for opts in options]
    # The odometer turns only the rows with a choice; ``floor[p]`` is the
    # odometer position of the nearest earlier identical row, or -1.
    free = [i for i, opts in enumerate(options) if len(opts) > 1]
    floor = []
    last: dict = {}
    for p, i in enumerate(free):
        row = table.rows[i]
        floor.append(last.get(row, -1) if up_to_reordering else -1)
        last[row] = p
    free_options = [options[i] for i in free]
    placed = [opts[0] for opts in options if len(opts) == 1]
    fixed, m = len(placed), len(free)
    if not m:
        if deficit is None or deficit(placed) < best():
            yield tuple(world)
        return
    placed += [None] * m
    index = [0] * m
    q = 0
    while True:  # depth first: place position q, then descend, yield or drop
        world[free[q]] = placed[fixed + q] = free_options[q][index[q]]
        left = m - 1 - q
        if deficit is None or deficit(placed[:fixed + q + 1]) - left < best():
            if left:
                q += 1
                index[q] = index[floor[q]] if floor[q] >= 0 else 0
                continue
            yield tuple(world)
        while index[q] + 1 == len(free_options[q]):
            q -= 1
            if q < 0:
                return
        index[q] += 1


def enumerate_spworlds(table: IncompleteTable, budget: int = DEFAULT_BUDGET) -> Iterator[SpWorld]:
    """Yield every strongly possible world exactly once, identical rows'
    reorderings included, in lexicographic order of the NULL-cell
    assignments (row-major)."""
    origin = tuple(range(table.row_count))
    for rows in _iter_completions(table, budget, up_to_reordering=False):
        yield SpWorld(rows, origin)


# ---------------------------------------------------------------------------
# Classical satisfaction on complete tables. A kind's deficit is 0 exactly
# when the rows satisfy it, and adding a row lowers it by at most one.


def _key_deficit(kp) -> Callable[[Sequence[Row]], float]:
    """Infinite once two rows share the key: no later row undoes that."""
    return lambda rows: 0 if len(set(map(kp, rows))) == len(rows) else inf


def _fd_deficit(xp, yp) -> Callable[[Sequence[Row]], float]:
    """Infinite once two rows agree on X but not on Y."""

    def deficit(rows: Sequence[Row]) -> float:
        xs = list(map(xp, rows))
        return 0 if len(set(xs)) == len(set(zip(xs, map(yp, rows)))) else inf

    return deficit


def _cj_deficit(xp, yp) -> Callable[[Sequence[Row]], int]:
    """|A|·|B| − |P| for the rows' A and B values and their (A, B) pairs."""

    def deficit(rows: Sequence[Row]) -> int:
        xs, ys = list(map(xp, rows)), list(map(yp, rows))
        return len(set(xs)) * len(set(ys)) - len(set(zip(xs, ys)))

    return deficit


def _mvd_deficit(xp, yp, rp) -> Callable[[Sequence[Row]], int]:
    """The (Y, rest) pairs missing from each X-group's product of its Y
    and rest values, summed over the groups. X, Y and the rest split the
    columns, so the pairs present are the distinct rows."""

    def deficit(rows: Sequence[Row]) -> int:
        ys, rests = defaultdict(set), defaultdict(set)
        for r in rows:
            x = xp(r)
            ys[x].add(yp(r))
            rests[x].add(rp(r))
        return sum(len(v) * len(rests[x]) for x, v in ys.items()) - len(set(rows))

    return deficit


def holds(rows: Sequence[Row], c: Constraint, arity: int = 0) -> bool:
    """Whether the complete ``rows`` satisfy the classical constraint
    ``c``; an MVD needs the table's ``arity`` for its rest columns."""
    kind = _kind(c)
    return not kind.deficit(*kind.parts(c, arity))(rows)


def holds_nmvd(rows: Sequence[Row], lhs, rhs, arity: int) -> bool:
    """Lien's null multivalued dependency on the rows as they are, a NULL
    equal to nothing: whenever two rows agree on X, some row agrees with
    the first on X and Y and with the second on X and the rest."""
    xy, xz = lhs | rhs, frozenset(range(arity)) - (rhs - lhs)
    return all(
        any(strongly_similar(t1, t, xy) and strongly_similar(t2, t, xz) for t in rows)
        for t1, t2 in permutations(rows, 2) if strongly_similar(t1, t2, lhs)
    )


# ---------------------------------------------------------------------------
# Existential check over all worlds


def oracle_check(table: IncompleteTable, c: Constraint, budget: int = DEFAULT_BUDGET) -> ConstraintVerdict:
    """Holds iff some strongly possible world satisfies the classical
    constraint; returns the first such world as the witness."""
    kind = _kind(c)
    if kind.direct is not None:
        return ConstraintVerdict(kind.direct(table, c))
    deficit = kind.deficit(*kind.parts(c, table.arity))
    rows = next(_iter_completions(table, budget, deficit=deficit), None)
    if rows is None:
        return ConstraintVerdict(False)
    return ConstraintVerdict(True, SpWorld(rows, tuple(range(table.row_count))))


# ---------------------------------------------------------------------------
# g3 by exhaustive removal search


def oracle_g3(table: IncompleteTable, c: Constraint, budget: int = DEFAULT_BUDGET) -> MeasureResult:
    """Minimum removal ratio, found by subset enumeration ordered by size;
    ties broken by the lexicographically smallest row-index set."""
    n = measure_denominator(table, "g3")
    # Removing rows never adds a world: a sub-table has fewer NULLs and
    # each of its active domains is within the table's, or (ssymb,). So
    # only the table itself can exceed the budget.
    total = world_count(table)
    if _kind(c).direct is None and total > budget:
        raise BudgetExceededError(
            f"g3 search stopped at removal size 0: {total} strongly possible worlds "
            f"exceed the budget of {budget}",
            partial_bound=0,
        )
    for m in range(n + 1):
        for subset in combinations(range(n), m):
            verdict = oracle_check(table.with_rows_removed(subset), c, budget)
            if verdict.holds:
                return MeasureResult(
                    "g3", m, n, removed_rows=subset, witness=verdict.witness
                )
    raise AssertionError("unreachable: the empty table satisfies every constraint")


# ---------------------------------------------------------------------------
# g5 by candidate-pool addition search. Each pool lists the candidate
# addition sets of size k, the empty set alone at k = 0; each bound is an
# addition count that certainly suffices, or None when additions provably
# cannot repair the table within the pool.


def _mvd_pool(table: IncompleteTable, c: SpMvd, k: int) -> list[tuple[Row, ...]]:
    """All-NULL rows mixed with fresh-on-X rows."""
    fresh = fresh_rows(table, c.lhs, k)
    return [((None,) * table.arity,) * (k - j) + fresh[:j] for j in range(k + 1)]


def _g3_bound(table: IncompleteTable, c: Constraint, budget: int,
              g3: MeasureResult | None) -> int | None:
    return (oracle_g3(table, c, budget) if g3 is None else g3).numerator


def _least(table: IncompleteTable, budget: int, deficit: Callable,
           need: Callable | None = None) -> int | None:
    """The least ``need`` (by default ``deficit``) over the worlds of
    ``table``, where None is no need at all; the search stops at 0. A
    need is None or the world's deficit, so the worlds are walked with
    the prefix cut of :func:`_iter_completions` below the best need so
    far: no dropped world can lower it."""
    best = inf
    for rows in _iter_completions(table, budget, deficit=deficit, best=lambda: best):
        n = deficit(rows) if need is None else need(rows)
        if n is not None and n < best:
            best = n
            if not best:
                break
    return None if best == inf else best


def _cj_bound(table: IncompleteTable, c: SpCj, budget: int, g3) -> int | None:
    """The fewest missing pairs over the worlds whose missing pairs agree
    on the shared columns, the only ones all-NULL rows can fill; the
    missing pairs are the cross join's deficit."""
    xp, yp = projector(c.lhs), projector(c.rhs)
    xs, ys = sorted(c.lhs), sorted(c.rhs)
    overlap = [(xs.index(a), ys.index(a)) for a in sorted(c.lhs & c.rhs)]

    def need(rows: Sequence[Row]) -> int | None:
        pairs = set(zip(map(xp, rows), map(yp, rows)))
        missing = set(product({x for x, _ in pairs}, {y for _, y in pairs})) - pairs
        if all(x[i] == y[j] for x, y in missing for i, j in overlap):
            return len(missing)
        return None

    return _least(table, budget, _cj_deficit(xp, yp), need)


def _sides(c: SpFd | SpCj, arity: int) -> tuple:
    return projector(c.lhs), projector(c.rhs)


def _mvd_parts(c: SpMvd, arity: int) -> tuple:
    return (projector(c.lhs), projector(c.rhs - c.lhs),
            projector(frozenset(range(arity)) - c.lhs - c.rhs))


class _Kind(NamedTuple):
    """A constraint kind's reference semantics. ``parts(c, arity)``
    builds the projectors that ``deficit(*parts)`` compares rows by, 0
    exactly on the rows that satisfy the kind; ``pool(table, c, k)``
    and ``bound(table, c, budget, g3)`` drive g5. A kind evaluated on the
    incomplete table itself has only ``direct(table, c)``: it has no
    worlds, and no measures here."""

    parts: Callable | None = None
    deficit: Callable | None = None
    pool: Callable | None = None
    bound: Callable | None = None
    direct: Callable | None = None


KINDS = {
    # A key's pool fills the whole row with one fresh value; an FD's fills
    # the left side and lets the row blend into whatever class it lands in.
    SpKey: _Kind(lambda c, arity: (projector(c.key),), _key_deficit,
                 lambda t, c, k: [fresh_rows(t, t.all_positions(), k)], _g3_bound),
    SpFd: _Kind(_sides, _fd_deficit, lambda t, c, k: [fresh_rows(t, c.lhs, k)], _g3_bound),
    SpMvd: _Kind(_mvd_parts, _mvd_deficit, _mvd_pool,
                 lambda t, c, b, g3: _least(t, b, _mvd_deficit(*_mvd_parts(c, t.arity)))),
    # A cross join is an MVD with one group. Its pool is all-NULL rows
    # only, since a fresh value strictly enlarges the required pair set.
    SpCj: _Kind(_sides, _cj_deficit, lambda t, c, k: [((None,) * t.arity,) * k], _cj_bound),
    Nmvd: _Kind(direct=lambda t, c: holds_nmvd(t.rows, c.lhs, c.rhs, t.arity)),
}


def _kind(c: Constraint) -> _Kind:
    try:
        return KINDS[type(c)]
    except KeyError:
        raise TypeError(f"unsupported constraint {type(c).__name__}") from None


def _cross_check_pool(table: IncompleteTable) -> list[Row]:
    """Exhaustive addition candidates: every tuple over the active domains
    extended by two fresh values per column, NULL included as a cell."""
    extra = fresh_values(table, 2 * table.arity, stem="w")
    options = []
    for a, domain in enumerate(table.active_domains()):
        base = () if domain == (SSYMB,) else domain
        options.append(base + (extra[2 * a], extra[2 * a + 1], None))
    return [row for row in product(*options)]


def _run_cross_check(table: IncompleteTable, c: Constraint, found: int, budget: int) -> None:
    pool = _cross_check_pool(table)
    for k in range(1, found):
        n_candidates = 1
        for i in range(k):
            n_candidates = n_candidates * (len(pool) + i) // (i + 1)
        if n_candidates > CROSS_CHECK_MAX_CANDIDATES:
            return
        for addition in combinations_with_replacement(pool, k):
            ext = table.with_rows_added(addition)
            if oracle_check(ext, c, budget).holds:
                raise OracleGapError(
                    f"extended pool repairs {c} with {k} additions, primary pool needed {found}: {addition}"
                )


def oracle_g5(table: IncompleteTable, c: Constraint, budget: int = DEFAULT_BUDGET,
              g3: MeasureResult | None = None) -> MeasureResult:
    """Minimum addition ratio over the primary candidate pool; ``g3``,
    ``oracle_g3``'s result, spares the key and FD bound a second search.

    When the instance is small enough, the result is re-verified against
    the exhaustive pool; any cheaper repair found there raises
    :class:`OracleGapError` instead of being silently absorbed.
    """
    n = measure_denominator(table, "g5")
    kind = _kind(c)
    if kind.bound is None:
        raise TypeError(f"no g5 bound for {type(c).__name__}")
    bound = kind.bound(table, c, budget, g3)
    for k in range(0 if bound is None else bound + 1):
        for addition in kind.pool(table, c, k):
            try:
                verdict = oracle_check(table.with_rows_added(addition), c, budget)
            except BudgetExceededError as err:
                raise BudgetExceededError(
                    f"g5 search stopped at addition size {k}: {err}",
                    partial_bound=k,
                ) from err
            if verdict.holds:
                if (0 < k <= CROSS_CHECK_MAX_COUNT + 1 and n <= CROSS_CHECK_MAX_ROWS
                        and table.arity <= CROSS_CHECK_MAX_COLS):
                    _run_cross_check(table, c, k, budget)
                witness = SpWorld(verdict.witness.rows, tuple(range(n)) + (None,) * k)
                return MeasureResult("g5", k, n, added_rows=addition, witness=witness)
    return MeasureResult("g5", None, n)
