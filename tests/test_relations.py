"""Relations that tie each engine's answer on one table to its answer on
another, checked on seeded draws of 8 to 60 rows, far above the
oracle's instance size:

- a bijective renaming of each column's values changes no check verdict
  and no g3 or g5 numerator;
- neither does a permutation of the rows;
- nor, for keys, FDs and cross joins, a column appended outside the
  constraint, with values and NULLs (an MVD's rest is every other
  column, so none is outside it);
- ``spmvd(∅ ->> Y)`` has the check, g3 and g5 of ``spcj(Y x rest)``: with
  no left side, a fresh-left row is an all-NULL row. The constraint
  grammar has no empty side, so this one is built through the API;
- a wider key or left side is no harder to repair: if K ⊆ K′, g3 of
  ``spkey(K′)`` is at most g3 of ``spkey(K)``, and if X ⊆ X′, g3 of
  ``spfd(X′ -> Y)`` is at most g3 of ``spfd(X -> Y)``, since a world of
  the kept rows that satisfies the narrower constraint satisfies the
  wider one. So the narrower g3's removal set must pass the wider check.

Every engine call has a node budget. A value that the budget stops is
counted and printed, and compared on neither side; no draw is redrawn or
shrunk because of one.
"""

import random
from itertools import combinations

import pytest

from spcheck.cli import RunOptions, run
from spcheck.constraints import Nmvd, SpCj, SpFd, SpKey, SpMvd
from spcheck.table import IncompleteTable

OPTIONS = RunOptions(measures=("g3", "g5"), budget=10_000)
KEY_MEASURES = RunOptions(measures=("g3", "g4", "g5"), budget=10_000)
G3 = RunOptions(measures=("g3",), budget=10_000)
CHECK = RunOptions(measures=(), budget=10_000)
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


def _answers(table, constraints, options):
    """Per constraint, what the engines answered: the verdict under
    "check", and each measure's numerator (None where undefined), with
    a value that the budget stopped left out; and the number of entries
    that the budget stopped."""
    answers, stops = [], 0
    for entry in run(table, constraints, options)["constraints"]:
        found = {} if "holds" not in entry else {"check": entry["holds"]}
        for name, measure in entry.get("measures", {}).items():
            found[name] = measure.get("count")
        if entry["error"] is not None:
            assert entry["error"].startswith("budget exceeded"), entry["error"]
            stops += 1
        answers.append(found)
    return answers, stops


def _assert_same(table, constraints, other, other_constraints, options=OPTIONS):
    want, stops = _answers(table, constraints, options)
    got, other_stops = _answers(other, other_constraints, options)
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


@pytest.mark.parametrize("seed", range(DRAWS))
def test_a_column_outside_the_constraint_changes_no_answer(seed):
    rng, t = _draw(seed)
    cells = [None if rng.random() < 0.3 else str(rng.randint(1, 5)) for _ in t.rows]
    wider = IncompleteTable.build(t.schema.attributes + ("C",),
                                  [row + (c,) for row, c in zip(t.rows, cells)])
    constraints = [c for c in _constraints(rng, t.arity) if type(c) in (SpKey, SpFd, SpCj)]
    # g4 is defined for keys only; the others answer it as undefined on both sides.
    _assert_same(t, constraints, wider, constraints, KEY_MEASURES)


def _assert_no_harder(t, pairs):
    """For each (narrow, wide) pair of constraints, where every world that
    satisfies narrow satisfies wide: g3 of wide is at most g3 of narrow,
    and wide holds on the rows that narrow's g3 witness keeps."""
    constraints = list(dict.fromkeys(c for pair in pairs for c in pair))
    g3, stops = {}, 0
    for c, entry in zip(constraints, run(t, constraints, G3)["constraints"]):
        if entry["error"] is None:
            g3[c] = entry["measures"]["g3"]
        else:
            assert entry["error"].startswith("budget exceeded"), entry["error"]
            stops += 1
    for narrow, wide in pairs:
        if narrow not in g3:
            continue
        if wide in g3:
            assert g3[wide]["count"] <= g3[narrow]["count"], (narrow, wide)
        removed = g3[narrow]["removed_rows"]
        [entry] = run(t.with_rows_removed(removed), [wide], CHECK)["constraints"]
        if entry["error"] is None:
            assert entry["holds"], (narrow, wide, removed)
        else:
            assert entry["error"].startswith("budget exceeded"), entry["error"]
            stops += 1
    print(f"{stops} budget stop(s) over {len(constraints)} g3 and {len(pairs)} check entries")


def _widenings(attrs):
    """Every non-empty proper subset of ``attrs`` with each subset one
    attribute wider."""
    return [(frozenset(k), frozenset(k) | {a})
            for size in range(1, len(attrs))
            for k in combinations(attrs, size)
            for a in attrs if a not in k]


@pytest.mark.parametrize("seed", range(DRAWS))
def test_a_wider_key_has_no_larger_g3(seed):
    _, t = _draw(seed)
    _assert_no_harder(t, [(SpKey(k), SpKey(wide)) for k, wide in _widenings(range(t.arity))])


@pytest.mark.parametrize("seed", range(DRAWS))
def test_a_wider_left_side_has_no_larger_fd_g3(seed):
    rng, t = _draw(seed)
    # A drawn right side of one attribute, the left sides from the rest (no
    # pair on a two-column table).
    y = rng.randrange(t.arity)
    _assert_no_harder(t, [(SpFd(x, frozenset({y})), SpFd(wide, frozenset({y})))
                          for x, wide in _widenings([a for a in range(t.arity) if a != y])])
