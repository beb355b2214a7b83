"""Ground-truth brute-force engine.

Everything here trades speed for obviousness: strongly possible worlds are
enumerated outright, measures are found by exhaustive search ordered by
repair size, and budgets fail hard rather than truncate. The polynomial
and backtracking engines are tested against this module; it is the
correctness reference, never the fast path.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations, combinations_with_replacement, product
from typing import Iterator, Sequence

from .constraints import (
    Constraint,
    ConstraintVerdict,
    MeasureResult,
    Nmvd,
    SpCj,
    SpFd,
    SpKey,
    SpMvd,
)
from .errors import DEFAULT_BUDGET, BudgetExceededError, OracleGapError
from .table import IncompleteTable, Row, SpWorld, fresh_values

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


def _iter_completions(table: IncompleteTable, budget: int) -> Iterator[tuple[Row, ...]]:
    total = world_count(table)
    if total > budget:
        raise BudgetExceededError(
            f"{total} strongly possible worlds exceed the budget of {budget}"
        )
    slots = [
        (i, a)
        for i, row in enumerate(table.rows)
        for a, cell in enumerate(row)
        if cell is None
    ]
    if not slots:
        yield table.rows
        return
    domains = table.active_domains()
    option_lists = [domains[a].sorted_values for (_, a) in slots]
    work = [list(row) for row in table.rows]
    for combo in product(*option_lists):
        for (i, a), value in zip(slots, combo):
            work[i][a] = value
        yield tuple(tuple(row) for row in work)


def enumerate_spworlds(table: IncompleteTable, budget: int = DEFAULT_BUDGET) -> Iterator[SpWorld]:
    """Yield every strongly possible world exactly once, in lexicographic
    order of the NULL-cell assignments (row-major)."""
    origin = tuple(range(table.row_count))
    for rows in _iter_completions(table, budget):
        yield SpWorld(rows, origin)


# ---------------------------------------------------------------------------
# Classical satisfaction on complete tables


def holds_key(rows: Sequence[Row], key) -> bool:
    ks = sorted(key)
    seen = set()
    for r in rows:
        p = tuple(r[a] for a in ks)
        if p in seen:
            return False
        seen.add(p)
    return True


def holds_fd(rows: Sequence[Row], lhs, rhs) -> bool:
    xs, ys = sorted(lhs), sorted(rhs)
    image: dict = {}
    for r in rows:
        xp = tuple(r[a] for a in xs)
        yp = tuple(r[a] for a in ys)
        if image.setdefault(xp, yp) != yp:
            return False
    return True


def holds_mvd(rows: Sequence[Row], lhs, rhs, arity: int) -> bool:
    rest = frozenset(range(arity)) - lhs - rhs
    xs, ys, rs = sorted(lhs), sorted(rhs), sorted(rest)
    groups: dict = defaultdict(set)
    for r in rows:
        groups[tuple(r[a] for a in xs)].add(
            (tuple(r[a] for a in ys), tuple(r[a] for a in rs))
        )
    for pairs in groups.values():
        yvals = {p[0] for p in pairs}
        rvals = {p[1] for p in pairs}
        if len(pairs) != len(yvals) * len(rvals):
            return False
    return True


def holds_cj(rows: Sequence[Row], lhs, rhs) -> bool:
    xs, ys = sorted(lhs), sorted(rhs)
    pairs = set()
    for r in rows:
        pairs.add((tuple(r[a] for a in xs), tuple(r[a] for a in ys)))
    xvals = {p[0] for p in pairs}
    yvals = {p[1] for p in pairs}
    return len(pairs) == len(xvals) * len(yvals)


def _holds(rows: Sequence[Row], c: Constraint, arity: int) -> bool:
    if isinstance(c, SpKey):
        return holds_key(rows, c.key)
    if isinstance(c, SpFd):
        return holds_fd(rows, c.lhs, c.rhs)
    if isinstance(c, SpMvd):
        return holds_mvd(rows, c.lhs, c.rhs, arity)
    if isinstance(c, SpCj):
        return holds_cj(rows, c.lhs, c.rhs)
    raise TypeError(f"no classical check for {type(c).__name__}")


def _find_violation(rows: Sequence[Row], c: Constraint, arity: int) -> tuple | None:
    """Some pair of row indices witnessing why ``rows`` fails ``c``."""
    n = len(rows)
    if isinstance(c, SpKey):
        ks = sorted(c.key)
        seen: dict = {}
        for i, r in enumerate(rows):
            p = tuple(r[a] for a in ks)
            if p in seen:
                return (seen[p], i)
            seen[p] = i
        return None
    if isinstance(c, SpFd):
        xs, ys = sorted(c.lhs), sorted(c.rhs)
        seen = {}
        for i, r in enumerate(rows):
            xp = tuple(r[a] for a in xs)
            yp = tuple(r[a] for a in ys)
            if xp in seen and seen[xp][1] != yp:
                return (seen[xp][0], i)
            seen.setdefault(xp, (i, yp))
        return None
    if isinstance(c, SpMvd):
        rest = frozenset(range(arity)) - c.lhs - c.rhs
        xs, ys, rs = sorted(c.lhs), sorted(c.rhs), sorted(rest)
        for i, j in product(range(n), repeat=2):
            if tuple(rows[i][a] for a in xs) != tuple(rows[j][a] for a in xs):
                continue
            want_y = tuple(rows[i][a] for a in ys)
            want_r = tuple(rows[j][a] for a in rs)
            if not any(
                tuple(t[a] for a in xs) == tuple(rows[i][a] for a in xs)
                and tuple(t[a] for a in ys) == want_y
                and tuple(t[a] for a in rs) == want_r
                for t in rows
            ):
                return (i, j)
        return None
    if isinstance(c, SpCj):
        xs, ys = sorted(c.lhs), sorted(c.rhs)
        for i, j in product(range(n), repeat=2):
            want_x = tuple(rows[i][a] for a in xs)
            want_y = tuple(rows[j][a] for a in ys)
            if not any(
                tuple(t[a] for a in xs) == want_x and tuple(t[a] for a in ys) == want_y
                for t in rows
            ):
                return (i, j)
        return None
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
    arity = table.arity
    first: tuple[Row, ...] | None = None
    origin = tuple(range(table.row_count))
    for rows in _iter_completions(table, budget):
        if first is None:
            first = rows
        if _holds(rows, c, arity):
            return ConstraintVerdict(True, SpWorld(rows, origin))
    return ConstraintVerdict(False, None, _find_violation(first, c, arity))


# ---------------------------------------------------------------------------
# g3 by exhaustive removal search


def oracle_g3(table: IncompleteTable, c: Constraint, budget: int = DEFAULT_BUDGET) -> MeasureResult:
    """Minimum removal ratio, found by subset enumeration ordered by size;
    ties broken by the lexicographically smallest row-index set."""
    n = table.row_count
    if n == 0:
        raise ValueError("g3 is undefined for an empty table")
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
    FDs take a fresh value on the (normalized) left side and NULL
    elsewhere: the fresh value opens an escape class, the free cells let
    the row blend into whatever class it lands in. MVDs mix all-NULL rows
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
        lhs = c.lhs - c.rhs
        tokens = fresh_values(table, k)
        yield tuple(_fresh_row(arity, lhs, t) for t in tokens)
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


def _g5_search_bound(table: IncompleteTable, c: Constraint, budget: int) -> int | None:
    """An addition count that certainly suffices, or None when additions
    provably cannot repair the table within the primary pool."""
    if isinstance(c, (SpKey, SpFd)):
        return oracle_g3(table, c, budget).numerator
    if isinstance(c, SpMvd):
        rest = frozenset(range(table.arity)) - c.lhs - c.rhs
        xs, ys, rs = sorted(c.lhs), sorted(c.rhs - c.lhs), sorted(rest)
        best = None
        for rows in _iter_completions(table, budget):
            groups: dict = defaultdict(set)
            for r in rows:
                groups[tuple(r[a] for a in xs)].add(
                    (tuple(r[a] for a in ys), tuple(r[a] for a in rs))
                )
            need = 0
            for pairs in groups.values():
                yvals = {p[0] for p in pairs}
                rvals = {p[1] for p in pairs}
                need += len(yvals) * len(rvals) - len(pairs)
            if best is None or need < best:
                best = need
            if best == 0:
                break
        return best
    if isinstance(c, SpCj):
        xs, ys = sorted(c.lhs), sorted(c.rhs)
        overlap = sorted(c.lhs & c.rhs)
        xpos = {a: i for i, a in enumerate(xs)}
        ypos = {a: i for i, a in enumerate(ys)}
        best = None
        for rows in _iter_completions(table, budget):
            pairs = {
                (tuple(r[a] for a in xs), tuple(r[a] for a in ys)) for r in rows
            }
            xvals = {p[0] for p in pairs}
            yvals = {p[1] for p in pairs}
            need = 0
            fillable = True
            for xv, yv in product(xvals, yvals):
                if (xv, yv) in pairs:
                    continue
                if any(xv[xpos[a]] != yv[ypos[a]] for a in overlap):
                    fillable = False
                    break
                need += 1
            if fillable and (best is None or need < best):
                best = need
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


def oracle_g5(table: IncompleteTable, c: Constraint, budget: int = DEFAULT_BUDGET) -> MeasureResult:
    """Minimum addition ratio over the primary candidate pool.

    When the instance is small enough, the result is re-verified against
    the exhaustive pool; any cheaper repair found there raises
    :class:`OracleGapError` instead of being silently absorbed.
    """
    n = table.row_count
    if n == 0:
        raise ValueError("g5 is undefined for an empty table")
    bound = _g5_search_bound(table, c, budget)
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
