"""Instance corpus for the oracle-equivalence and ordering checks.

The exhaustive part enumerates every bag of rows over the values
{1, 2, NULL} at shapes small enough for full measure batteries (the
literal all-shapes grid is combinatorially out of reach): one column up
to five rows, two columns up to three rows, three columns up to two
rows. The random part draws seeded instances up to 6 rows by 4 columns,
redrawing any whose world count would make the oracle expensive.
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement, product

from spcheck.constraints import SpCj, SpFd, SpKey, SpMvd
from spcheck.errors import BudgetExceededError, PreconditionError
from spcheck.oracle import oracle_check, oracle_g3, oracle_g5, world_count
from spcheck.spfd import check_spfd, g3_spfd, g5_spfd, total_part_satisfies_fd
from spcheck.spkey import check_spkey, first_total_duplicate, g3_spkey, g5_spkey
from spcheck.table import IncompleteTable
from spcheck.tuplegen import (
    check_spcj_general,
    check_spmvd,
    g3_spcj,
    g3_spmvd,
    g5_spcj,
    g5_spmvd,
)

GRID_SHAPES = ((1, 5), (2, 3), (3, 2))
RANDOM_MAX_ROWS = 6
RANDOM_MAX_COLS = 4
WORLD_CAP = 1500


def exhaustive_grid():
    values = (None, "1", "2")
    for width, max_rows in GRID_SHAPES:
        row_space = list(product(values, repeat=width))
        names = [f"A{i + 1}" for i in range(width)]
        for n in range(1, max_rows + 1):
            for rows in combinations_with_replacement(row_space, n):
                yield IncompleteTable.build(names, rows)


def random_corpus(count: int = 1000, seed: int = 20260808, max_draws: int = 5000):
    """Seeded random tables within the size bounds; over-draws so callers
    can drop instances the oracle cannot certify and still reach
    ``count`` comparisons."""
    rng = random.Random(seed)
    produced = 0
    draws = 0
    while produced < count and draws < max_draws:
        draws += 1
        width = rng.randint(1, RANDOM_MAX_COLS)
        n = rng.randint(1, RANDOM_MAX_ROWS)
        rows = [
            tuple(
                None if rng.random() < 0.25 else str(rng.randint(1, 3))
                for _ in range(width)
            )
            for _ in range(n)
        ]
        t = IncompleteTable.build([f"A{i + 1}" for i in range(width)], rows)
        if world_count(t) > WORLD_CAP:
            continue
        produced += 1
        yield t


def split_sides(table: IncompleteTable):
    if table.arity == 1:
        return frozenset({0}), frozenset({0})
    half = max(1, table.arity // 2)
    return frozenset(range(half)), frozenset(range(half, table.arity))


def _measure_value(fn, *args):
    """Engine measure numerator, mapping the undefined cases to None."""
    try:
        return fn(*args).numerator
    except PreconditionError:
        return None


def compare_with_oracle(table: IncompleteTable, oracle_budget: int = 200_000) -> list | None:
    """All engine verdicts and measures against the oracle; returns
    human-readable mismatch descriptions (empty means agreement).

    Returns None when the oracle exceeds its enumeration budget on this
    instance: an oracle that gave up certifies nothing, so the instance
    does not count towards the corpus.
    """
    problems = []
    lhs, rhs = split_sides(table)
    key = table.all_positions()
    cases = [
        ("spkey", SpKey(key),
         lambda: check_spkey(table, key).holds,
         lambda: _measure_value(g3_spkey, table, key),
         lambda: _measure_value(g5_spkey, table, key)),
        ("spfd", SpFd(lhs, rhs),
         lambda: check_spfd(table, lhs, rhs).holds,
         lambda: _measure_value(g3_spfd, table, lhs, rhs),
         lambda: _measure_value(g5_spfd, table, lhs, rhs)),
        ("spmvd", SpMvd(lhs, rhs),
         lambda: check_spmvd(table, lhs, rhs).holds,
         lambda: _measure_value(g3_spmvd, table, lhs, rhs),
         lambda: _measure_value(g5_spmvd, table, lhs, rhs)),
        ("spcj", SpCj(lhs, rhs),
         lambda: check_spcj_general(table, lhs, rhs).holds,
         lambda: _measure_value(g3_spcj, table, lhs, rhs),
         lambda: _measure_value(g5_spcj, table, lhs, rhs)),
    ]
    try:
        for name, constraint, check_fn, g3_fn, g5_fn in cases:
            engine_holds = check_fn()
            oracle_holds = oracle_check(table, constraint, oracle_budget).holds
            if engine_holds != oracle_holds:
                problems.append(
                    f"{name} check: engine={engine_holds} oracle={oracle_holds} on {table.rows}"
                )
                continue
            engine_g3 = g3_fn()
            oracle_res = oracle_g3(table, constraint, oracle_budget)
            if engine_g3 != oracle_res.numerator:
                problems.append(
                    f"{name} g3: engine={engine_g3} oracle={oracle_res.numerator} on {table.rows}"
                )
            engine_g5 = g5_fn()
            oracle_res = oracle_g5(table, constraint, oracle_budget)
            if engine_g5 != oracle_res.numerator:
                problems.append(
                    f"{name} g5: engine={engine_g5} oracle={oracle_res.numerator} on {table.rows}"
                )
    except BudgetExceededError:
        return None
    return problems


def ordering_samples(table: IncompleteTable) -> list:
    """(constraint-name, g3, g5) engine triples for instances whose total
    part satisfies the constraint; used by the ordering criterion."""
    out = []
    lhs, rhs = split_sides(table)
    key = table.all_positions()
    if first_total_duplicate(table, key) is None:
        g3 = g3_spkey(table, key)
        g5 = g5_spkey(table, key)
        if g5.numerator is not None:
            out.append(("spkey", g3.ratio, g5.ratio))
    if total_part_satisfies_fd(table, lhs, rhs):
        g3 = g3_spfd(table, lhs, rhs)
        g5 = g5_spfd(table, lhs, rhs)
        if g5.numerator is not None:
            out.append(("spfd", g3.ratio, g5.ratio))
    return out
