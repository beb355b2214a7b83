"""Ground-truth brute-force engine.

Everything here trades speed for obviousness: strongly possible worlds are
enumerated outright, measures are found by exhaustive search ordered by
repair size, and budgets fail hard rather than truncate. The polynomial
and backtracking engines are tested against this module; it is the
correctness reference, never the fast path.

The one shortcut: no classical check cares about row order, so the
existential searches see each world once per reordering of identical
rows, while the budget still counts every world. The public
:func:`enumerate_spworlds` yields all of them.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations, combinations_with_replacement, product
from typing import Callable, Iterator, Sequence

from .constraints import (
    Constraint,
    ConstraintVerdict,
    MeasureResult,
    Nmvd,
    SpCj,
    SpFd,
    SpKey,
    SpMvd,
    measure_denominator,
)
from .errors import DEFAULT_BUDGET, BudgetExceededError, OracleGapError
from .table import IncompleteTable, Row, SpWorld, fresh_values, iter_extensions, projector

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
                count *= len(domains[a].sorted_values)
    return count


def _iter_completions(table: IncompleteTable, budget: int,
                      up_to_reordering: bool = True) -> Iterator[tuple[Row, ...]]:
    """Completed row tuples, in lexicographic order of the NULL-cell
    assignments (row-major).

    The budget always counts every world (:func:`world_count`). With
    ``up_to_reordering``, a row equal to an earlier row (NULLs included)
    takes only completions at or after that row's, so each world is
    yielded once per reordering of identical rows: the sorted
    representative, which is the first of its reorderings in the full
    order. Every classical check here ignores row order, so the first
    world and the first satisfying world stay the same.
    """
    total = world_count(table)
    if total > budget:
        raise BudgetExceededError(
            f"{total} strongly possible worlds exceed the budget of {budget}"
        )
    every = range(table.arity)
    options = [tuple(iter_extensions(table, row, every)) for row in table.rows]
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
    index = [0] * len(free)
    yield tuple(world)
    while True:
        p = len(free) - 1
        while p >= 0 and index[p] + 1 == len(free_options[p]):
            p -= 1
        if p < 0:
            return
        index[p] += 1
        world[free[p]] = free_options[p][index[p]]
        for q in range(p + 1, len(free)):
            start = index[floor[q]] if floor[q] >= 0 else 0
            index[q] = start
            world[free[q]] = free_options[q][start]
        yield tuple(world)


def enumerate_spworlds(table: IncompleteTable, budget: int = DEFAULT_BUDGET) -> Iterator[SpWorld]:
    """Yield every strongly possible world exactly once, identical rows'
    reorderings included, in lexicographic order of the NULL-cell
    assignments (row-major)."""
    origin = tuple(range(table.row_count))
    for rows in _iter_completions(table, budget, up_to_reordering=False):
        yield SpWorld(rows, origin)


# ---------------------------------------------------------------------------
# Classical satisfaction on complete tables


def _key_test(key) -> Callable[[Sequence[Row]], bool]:
    kp = projector(key)
    return lambda rows: len({kp(r) for r in rows}) == len(rows)


def _fd_test(lhs, rhs) -> Callable[[Sequence[Row]], bool]:
    xp, yp = projector(lhs), projector(rhs)

    def test(rows: Sequence[Row]) -> bool:
        image: dict = {}
        for r in rows:
            y = yp(r)
            if image.setdefault(xp(r), y) != y:
                return False
        return True

    return test


def _mvd_groups(rows: Sequence[Row], xp, yp, rp) -> dict:
    """The (Y, rest) pairs of each X-group."""
    groups: dict = defaultdict(set)
    for r in rows:
        groups[xp(r)].add((yp(r), rp(r)))
    return groups


def _missing_pairs(pairs) -> int:
    """How many pairs the product of ``pairs``' two sides lacks."""
    return len({p[0] for p in pairs}) * len({p[1] for p in pairs}) - len(pairs)


def _mvd_test(lhs, rhs, arity: int) -> Callable[[Sequence[Row]], bool]:
    xp, yp = projector(lhs), projector(rhs)
    rp = projector(frozenset(range(arity)) - lhs - rhs)
    return lambda rows: not any(
        _missing_pairs(pairs) for pairs in _mvd_groups(rows, xp, yp, rp).values()
    )


def _cj_test(lhs, rhs) -> Callable[[Sequence[Row]], bool]:
    xp, yp = projector(lhs), projector(rhs)
    return lambda rows: not _missing_pairs({(xp(r), yp(r)) for r in rows})


def holds_key(rows: Sequence[Row], key) -> bool:
    return _key_test(key)(rows)


def holds_fd(rows: Sequence[Row], lhs, rhs) -> bool:
    return _fd_test(lhs, rhs)(rows)


def holds_mvd(rows: Sequence[Row], lhs, rhs, arity: int) -> bool:
    return _mvd_test(lhs, rhs, arity)(rows)


def holds_cj(rows: Sequence[Row], lhs, rhs) -> bool:
    return _cj_test(lhs, rhs)(rows)


def _classical_test(c: Constraint, arity: int) -> Callable[[Sequence[Row]], bool]:
    """The classical satisfaction test for ``c``, its projectors built once."""
    if isinstance(c, SpKey):
        return _key_test(c.key)
    if isinstance(c, SpFd):
        return _fd_test(c.lhs, c.rhs)
    if isinstance(c, SpMvd):
        return _mvd_test(c.lhs, c.rhs, arity)
    if isinstance(c, SpCj):
        return _cj_test(c.lhs, c.rhs)
    raise TypeError(f"no classical check for {type(c).__name__}")


def _find_violation(rows: Sequence[Row], c: Constraint, arity: int) -> tuple | None:
    """Some pair of row indices witnessing why ``rows`` fails ``c``."""
    index_pairs = product(range(len(rows)), repeat=2)
    if isinstance(c, SpKey):
        kp = projector(c.key)
        seen: dict = {}
        for i, r in enumerate(rows):
            first = seen.setdefault(kp(r), i)
            if first != i:
                return (first, i)
        return None
    if isinstance(c, SpFd):
        xp, yp = projector(c.lhs), projector(c.rhs)
        seen = {}
        for i, r in enumerate(rows):
            x, y = xp(r), yp(r)
            if x in seen and seen[x][1] != y:
                return (seen[x][0], i)
            seen.setdefault(x, (i, y))
        return None
    if isinstance(c, SpMvd):
        xp, yp = projector(c.lhs), projector(c.rhs)
        rp = projector(frozenset(range(arity)) - c.lhs - c.rhs)
        present = {(xp(t), yp(t), rp(t)) for t in rows}
        return next(((i, j) for i, j in index_pairs if xp(rows[i]) == xp(rows[j])
                     and (xp(rows[i]), yp(rows[i]), rp(rows[j])) not in present), None)
    if isinstance(c, SpCj):
        xp, yp = projector(c.lhs), projector(c.rhs)
        present = {(xp(t), yp(t)) for t in rows}
        return next(((i, j) for i, j in index_pairs if (xp(rows[i]), yp(rows[j])) not in present), None)
    return None


# ---------------------------------------------------------------------------
# Existential check over all worlds


def oracle_check(table: IncompleteTable, c: Constraint, budget: int = DEFAULT_BUDGET) -> ConstraintVerdict:
    """Holds iff some strongly possible world satisfies the classical
    constraint; returns the certifying world or a violating index pair."""
    if isinstance(c, Nmvd):
        from .tuplegen import check_nmvd

        return ConstraintVerdict(check_nmvd(table, c.lhs, c.rhs))
    if table.row_count == 0:
        return ConstraintVerdict(True, SpWorld((), ()))
    holds = _classical_test(c, table.arity)
    first: tuple[Row, ...] | None = None
    origin = tuple(range(table.row_count))
    for rows in _iter_completions(table, budget):
        if first is None:
            first = rows
        if holds(rows):
            return ConstraintVerdict(True, SpWorld(rows, origin))
    return ConstraintVerdict(False, None, _find_violation(first, c, table.arity))


# ---------------------------------------------------------------------------
# g3 by exhaustive removal search


def oracle_g3(table: IncompleteTable, c: Constraint, budget: int = DEFAULT_BUDGET) -> MeasureResult:
    """Minimum removal ratio, found by subset enumeration ordered by size;
    ties broken by the lexicographically smallest row-index set."""
    n = measure_denominator(table, "g3")
    for m in range(n + 1):
        for subset in combinations(range(n), m):
            sub = table.with_rows_removed(subset)
            try:
                verdict = oracle_check(sub, c, budget)
            except BudgetExceededError as err:
                raise BudgetExceededError(
                    f"g3 search stopped at removal size {m}: {err}",
                    partial_bound=m,
                ) from err
            if verdict.holds:
                return MeasureResult(
                    "g3", m, n, removed_rows=subset, witness=verdict.witness
                )
    raise AssertionError("unreachable: the empty table satisfies every constraint")


# ---------------------------------------------------------------------------
# g5 by candidate-pool addition search


def _all_null_row(arity: int) -> Row:
    return (None,) * arity


def _fresh_row(arity: int, positions, token: str) -> Row:
    """``token`` on ``positions``, NULL elsewhere."""
    cells = [None] * arity
    for a in positions:
        cells[a] = token
    return tuple(cells)


def _g5_candidate_sets(table: IncompleteTable, c: Constraint, k: int) -> Iterator[tuple[Row, ...]]:
    """Candidate addition sets of size ``k`` for the primary pool.

    Keys take one globally fresh value replicated across the whole row.
    FDs take a fresh value on the left side and NULL elsewhere: the
    fresh value opens an escape class, the free cells let the row blend
    into whatever class it lands in. MVDs mix all-NULL rows
    with fresh-on-X rows; cross joins take all-NULL rows only, since a
    fresh value strictly enlarges the required pair set.
    """
    arity = table.arity
    if k == 0:
        yield ()
        return
    if isinstance(c, SpKey):
        tokens = fresh_values(table, k)
        yield tuple(_fresh_row(arity, range(arity), t) for t in tokens)
    elif isinstance(c, SpFd):
        tokens = fresh_values(table, k)
        yield tuple(_fresh_row(arity, c.lhs, t) for t in tokens)
    elif isinstance(c, SpMvd):
        tokens = fresh_values(table, k)
        for j in range(k + 1):
            nulls = tuple(_all_null_row(arity) for _ in range(k - j))
            fresh = tuple(_fresh_row(arity, c.lhs, tokens[i]) for i in range(j))
            yield nulls + fresh
    elif isinstance(c, SpCj):
        yield tuple(_all_null_row(arity) for _ in range(k))
    else:
        raise TypeError(f"no g5 pool for {type(c).__name__}")


def _g5_search_bound(table: IncompleteTable, c: Constraint, budget: int,
                     g3: MeasureResult | None) -> int | None:
    """An addition count that certainly suffices, or None when additions
    provably cannot repair the table within the primary pool."""
    if isinstance(c, (SpKey, SpFd)):
        return (oracle_g3(table, c, budget) if g3 is None else g3).numerator
    if isinstance(c, SpMvd):
        xp, yp = projector(c.lhs), projector(c.rhs - c.lhs)
        rp = projector(frozenset(range(table.arity)) - c.lhs - c.rhs)
        best = None
        for rows in _iter_completions(table, budget):
            groups = _mvd_groups(rows, xp, yp, rp)
            need = sum(_missing_pairs(pairs) for pairs in groups.values())
            if best is None or need < best:
                best = need
            if best == 0:
                break
        return best
    if isinstance(c, SpCj):
        xp, yp = projector(c.lhs), projector(c.rhs)
        xs, ys = sorted(c.lhs), sorted(c.rhs)
        overlap = [(xs.index(a), ys.index(a)) for a in sorted(c.lhs & c.rhs)]
        best = None
        for rows in _iter_completions(table, budget):
            pairs = {(xp(r), yp(r)) for r in rows}
            missing = [
                (xv, yv)
                for xv, yv in product({p[0] for p in pairs}, {p[1] for p in pairs})
                if (xv, yv) not in pairs
            ]
            fillable = all(xv[i] == yv[j] for xv, yv in missing for i, j in overlap)
            if fillable and (best is None or len(missing) < best):
                best = len(missing)
            if best == 0:
                break
        return best
    raise TypeError(f"no g5 bound for {type(c).__name__}")


def _cross_check_pool(table: IncompleteTable) -> list[Row]:
    """Exhaustive addition candidates: every tuple over the active domains
    extended by two fresh values per column, NULL included as a cell."""
    domains = table.active_domains()
    extra = fresh_values(table, 2 * table.arity, stem="w")
    options = []
    for a in range(table.arity):
        base = [v for v in domains[a].sorted_values if not domains[a].degenerate]
        options.append(tuple(base) + (extra[2 * a], extra[2 * a + 1], None))
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
    bound = _g5_search_bound(table, c, budget, g3)
    result = None
    if bound is not None:
        for k in range(bound + 1):
            for addition in _g5_candidate_sets(table, c, k):
                ext = table.with_rows_added(addition)
                try:
                    verdict = oracle_check(ext, c, budget)
                except BudgetExceededError as err:
                    raise BudgetExceededError(
                        f"g5 search stopped at addition size {k}: {err}",
                        partial_bound=k,
                    ) from err
                if verdict.holds:
                    origin = tuple(range(n)) + (None,) * k
                    witness = SpWorld(verdict.witness.rows, origin)
                    result = MeasureResult(
                        "g5", k, n, added_rows=addition, witness=witness
                    )
                    break
            if result is not None:
                break
    if result is None:
        return MeasureResult("g5", None, n)
    small = (
        n <= CROSS_CHECK_MAX_ROWS
        and table.arity <= CROSS_CHECK_MAX_COLS
        and (result.numerator or 0) <= CROSS_CHECK_MAX_COUNT + 1
    )
    if small and result.numerator:
        _run_cross_check(table, c, result.numerator, budget)
    return result
