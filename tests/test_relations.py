"""Relations that tie each engine's answer on one table to its answer on
another, checked on seeded draws of 8 to 60 rows, far above the
oracle's instance size:

- a bijective renaming of each column's values changes no check verdict
  and no g3 or g5 numerator;
- neither does a permutation of the rows;
- ``spmvd(∅ ->> Y)`` has the check, g3 and g5 of ``spcj(Y x rest)``: with
  no left side, a fresh-left row is an all-NULL row. The constraint
  grammar has no empty side, so this one is built through the API.

Every engine call has a node budget. A value that the budget stops is
counted and printed, and compared on neither side; no draw is redrawn or
shrunk because of one.
"""

import random

import pytest

from spcheck.cli import RunOptions, run
from spcheck.constraints import Nmvd, SpCj, SpFd, SpKey, SpMvd
from spcheck.table import IncompleteTable

OPTIONS = RunOptions(measures=("g3", "g5"), budget=10_000)
DRAWS = 10


def _draw(seed: int):
    """A seeded table of 8 to 60 rows over 2 to 4 columns, with the
    generator that drew it."""
    rng = random.Random(seed)
    rows, cols = rng.randint(8, 60), rng.randint(2, 4)
    domain, null_rate = rng.randint(2, 5), rng.choice([0.1, 0.2, 0.3])
    data = [tuple(None if rng.random() < null_rate else str(rng.randint(1, domain))
                  for _ in range(cols)) for _ in range(rows)]
    return rng, IncompleteTable.build([f"A{i + 1}" for i in range(cols)], data)


def _sides(rng, cols: int):
    """Two disjoint non-empty attribute sets."""
    attrs = rng.sample(range(cols), cols)
    cut = rng.randint(1, cols - 1)
    left, right = attrs[:cut], attrs[cut:]
    return (frozenset(left[:rng.randint(1, len(left))]),
            frozenset(right[:rng.randint(1, len(right))]))


def _constraints(rng, cols: int) -> list:
    """One constraint of each kind."""
    key = frozenset(rng.sample(range(cols), rng.randint(1, cols)))
    return [SpKey(key)] + [kind(*_sides(rng, cols)) for kind in (SpFd, SpMvd, SpCj, Nmvd)]


def _answers(table, constraints):
    """Per constraint, what the engines answered: the verdict under
    "check", and the g3 and g5 numerators (None where undefined), with
    a value that the budget stopped left out; and the number of entries
    that the budget stopped."""
    answers, stops = [], 0
    for entry in run(table, constraints, OPTIONS)["constraints"]:
        found = {} if "holds" not in entry else {"check": entry["holds"]}
        for name, measure in entry.get("measures", {}).items():
            found[name] = measure.get("count")
        if entry["error"] is not None:
            assert entry["error"].startswith("budget exceeded"), entry["error"]
            stops += 1
        answers.append(found)
    return answers, stops


def _assert_same(table, constraints, other, other_constraints):
    want, stops = _answers(table, constraints)
    got, other_stops = _answers(other, other_constraints)
    for c, a, b in zip(constraints, want, got):
        shared = a.keys() & b.keys()
        assert {k: a[k] for k in shared} == {k: b[k] for k in shared}, c
    print(f"{stops + other_stops} budget stop(s) over {2 * len(constraints)} entries")


@pytest.mark.parametrize("seed", range(DRAWS))
def test_renaming_each_columns_values_changes_no_answer(seed):
    rng, t = _draw(seed)
    labels = []
    for a in range(t.arity):
        values = sorted({row[a] for row in t.rows} - {None})
        # New names in a drawn order, so that sorting them reorders the domain.
        labels.append(dict(zip(values, (f"v{n}" for n in rng.sample(range(1000), len(values))))))
    renamed = IncompleteTable.build(
        t.schema.attributes,
        [tuple(None if cell is None else labels[a][cell] for a, cell in enumerate(row))
         for row in t.rows])
    constraints = _constraints(rng, t.arity)
    _assert_same(t, constraints, renamed, constraints)


@pytest.mark.parametrize("seed", range(DRAWS))
def test_permuting_the_rows_changes_no_answer(seed):
    rng, t = _draw(seed)
    shuffled = IncompleteTable.build(t.schema.attributes, rng.sample(t.rows, t.row_count))
    constraints = _constraints(rng, t.arity)
    _assert_same(t, constraints, shuffled, constraints)


@pytest.mark.parametrize("seed", range(DRAWS))
def test_an_mvd_with_no_left_side_is_a_cross_join(seed):
    rng, t = _draw(100 + seed)
    rhs = frozenset(rng.sample(range(t.arity), rng.randint(1, t.arity - 1)))
    rest = frozenset(range(t.arity)) - rhs
    _assert_same(t, [SpMvd(frozenset(), rhs)], t, [SpCj(rhs, rest)])
