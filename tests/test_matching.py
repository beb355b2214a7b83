import itertools

import pytest

from spcheck.matching import build_extension_graph as grouped_graph
from spcheck.matching import (
    hall_components,
    hopcroft_karp,
    max_matching,
    rows_beyond_rivals,
    satisfied_row_count,
)
from spcheck.spkey import KeyAnalysis
from spcheck.table import IncompleteTable, is_total, iter_extensions, projection

from conftest import table
from reference import build_extension_graph, kuhn_matching_size, weakly_similar


def test_table4_graph_shape(table4):
    g = build_extension_graph(table4, frozenset({0, 1}))
    assert set(g.right_tuples) == {("2", "1"), ("2", "2")}
    degrees = [len(g.adjacency[i]) for i in range(4)]
    assert degrees == [1, 2, 2, 1]
    assert not g.high_degree_left


def test_total_table_graph():
    t = table(["A", "B"], [("1", "1"), ("2", "2")])
    g = build_extension_graph(t, frozenset({0, 1}))
    assert len(g.right_tuples) == 2
    assert all(len(edges) == 1 for edges in g.adjacency.values())


def test_high_degree_flagging():
    rows = [(str(i), str(i)) for i in range(1, 5)] + [(None, None)]
    t = table(["A", "B"], rows)
    g = build_extension_graph(t, frozenset({0, 1}), leave_out={4})
    assert g.high_degree_left == {4: 16}
    assert 4 not in g.adjacency


def test_max_matching_table4(table4):
    result = max_matching(build_extension_graph(table4, frozenset({0, 1})))
    assert result.size == 2
    values = list(result.matching.values())
    assert len(set(values)) == len(values)


def test_max_matching_total_distinct():
    t = table(["A"], [("1",), ("2",), ("3",)])
    result = max_matching(build_extension_graph(t, frozenset({0})))
    assert result.size == 3


def test_greedy_phase_completes_high_degree():
    rows = [(str(i), str(i)) for i in range(1, 5)] + [(None, None)]
    t = table(["A", "B"], rows)
    g = build_extension_graph(t, frozenset({0, 1}), leave_out={4})
    result = max_matching(g)
    assert result.size == 5
    values = list(result.matching.values())
    assert len(set(values)) == len(values)
    for i, ext in result.matching.items():
        assert ext in set(iter_extensions(t, t.rows[i], frozenset({0, 1})))


def test_hall_components_table4(table4):
    parts = hall_components(build_extension_graph(table4, frozenset({0, 1})))
    assert len(parts.satisfied) == 0
    assert len(parts.deficient) == 1
    assert parts.deficient[0].nu == 2


def test_hall_components_two_satisfied():
    t = table(["A", "B"], [("1", "1"), ("2", "2")])
    parts = hall_components(build_extension_graph(t, frozenset({0, 1})))
    assert len(parts.satisfied) == 2
    assert all(c.nu == 1 for c in parts.satisfied)


def test_hall_components_mixed():
    # Three blank-competing rows next to two isolated total rows.
    t = table(
        ["A", "B"],
        [("1", "1"), ("1", "2"), ("2", None), ("2", None), ("2", None)],
    )
    parts = hall_components(build_extension_graph(t, frozenset({0, 1})))
    assert len(parts.satisfied) == 2
    assert len(parts.deficient) == 1
    assert parts.deficient[0].nu == 2
    assert parts.satisfied_tuple_count == 2


def test_hall_components_refuses_unmaterialized():
    rows = [(str(i), str(i)) for i in range(1, 5)] + [(None, None)]
    t = table(["A", "B"], rows)
    g = build_extension_graph(t, frozenset({0, 1}), leave_out={4})
    with pytest.raises(ValueError):
        hall_components(g)


def test_component_nu_sums_to_global(table4):
    t = table(
        ["A", "B"],
        [("1", "1"), ("1", "2"), ("2", None), ("2", None), ("2", None)],
    )
    g = build_extension_graph(t, frozenset({0, 1}))
    parts = hall_components(g)
    assert parts.total_nu == max_matching(g).size


def matching_grid_tables():
    values = [None, "1", "2"]
    for width in (1, 2):
        for rows in itertools.product(
            itertools.product(values, repeat=width), repeat=3
        ):
            yield IncompleteTable.build([f"A{i}" for i in range(width)], rows)


def _assert_left_out_equals_full(t, key=None):
    """The graph without the rows beyond their rivals, with nothing
    settled, and the shared graph of a key analysis both match as many
    rows as the full graph; returns the analysis."""
    key = t.all_positions() if key is None else key
    left_out = max_matching(build_extension_graph(
        t, key, leave_out=rows_beyond_rivals(KeyAnalysis(t, key).partition)))
    full_graph = build_extension_graph(t, key)
    assert not full_graph.high_degree_left
    adjacency = [full_graph.adjacency[i] for i in range(t.row_count)]
    reference = kuhn_matching_size(adjacency, len(full_graph.right_tuples))
    assert left_out.size == reference
    analysis = KeyAnalysis(t, key)
    matching = analysis.matching.matching
    assert analysis.matching.size == len(matching) == reference
    assert len(set(matching.values())) == len(matching)
    for i, ext in matching.items():
        assert ext in set(iter_extensions(t, t.rows[i], key))
    return analysis


def test_capped_matching_equals_full_matching_on_grid():
    """The pigeonhole completion must reproduce the matching size of the
    fully materialized graph; checked against an independent matcher."""
    for t in matching_grid_tables():
        _assert_left_out_equals_full(t)


def test_capped_matching_equals_full_matching_sampled():
    import random

    rng = random.Random(31)
    for _ in range(300):
        width = rng.randint(1, 3)
        n = rng.randint(1, 6)
        rows = [
            tuple(
                None if rng.random() < 0.3 else str(rng.randint(1, 3))
                for _ in range(width)
            )
            for _ in range(n)
        ]
        _assert_left_out_equals_full(
            IncompleteTable.build([f"A{i}" for i in range(width)], rows)
        )


def test_rival_capped_matching_equals_full_matching_sampled():
    """Rows the shared graph leaves out with at most |T| extensions,
    each with more extensions than rivals, still leave its matching
    maximum."""
    import random

    rng = random.Random(43)
    small = 0
    for _ in range(400):
        width, domain, n = rng.randint(1, 4), rng.randint(1, 8), rng.randint(1, 12)
        rows = [tuple(None if rng.random() < 0.35 else str(rng.randint(1, domain))
                      for _ in range(width)) for _ in range(n)]
        t = IncompleteTable.build([f"A{i}" for i in range(width)], rows)
        key = frozenset(rng.sample(range(width), rng.randint(1, width)))
        left_out = _assert_left_out_equals_full(t, key).graph.high_degree_left
        small += sum(1 for count in left_out.values() if count < n + 1)
    assert small >= 100


def test_rows_beyond_rivals_matches_pairwise_count():
    import random

    rng = random.Random(5)
    for _ in range(300):
        width, domain, n = rng.randint(1, 4), rng.randint(1, 6), rng.randint(1, 12)
        rows = [tuple(None if rng.random() < 0.4 else str(rng.randint(1, domain))
                      for _ in range(width)) for _ in range(n)]
        t = IncompleteTable.build([f"A{i}" for i in range(width)], rows)
        key = frozenset(rng.sample(range(width), rng.randint(1, width)))
        expected = {
            i for i, row in enumerate(t.rows)
            if not is_total(row, key) and len(list(iter_extensions(t, row, key))) > sum(
                1 for j, other in enumerate(t.rows) if j != i and weakly_similar(row, other, key))
        }
        assert rows_beyond_rivals(KeyAnalysis(t, key).partition) == expected


def test_hopcroft_karp_deterministic():
    adjacency = [[0, 1], [0], [1, 2]]
    mr1, mr2 = [None] * 3, [None] * 3
    size1 = hopcroft_karp(adjacency, [0, 1, 2], mr1)
    size2 = hopcroft_karp(adjacency, [0, 1, 2], mr2)
    assert size1 == size2 == 3
    assert mr1 == mr2


def test_wide_key_construction_matching_size():
    # The 3-row instance of the wide-key family: all three rows collapse
    # onto the all-ones extension, so exactly one can be matched and the
    # removal measure is 2/3.
    from spcheck.generators import gen_prop3
    from spcheck.spkey import g3_spkey

    inst = gen_prop3(1, 3)
    g = build_extension_graph(inst.table, inst.constraint.key)
    result = max_matching(g)
    assert result.size == 1
    assert g3_spkey(inst.table, inst.constraint.key).fraction_str == "2/3"


def _reference_graph(t, key, leave_out):
    """The graph built row by row through the public per-row helpers."""
    right_ids, adjacency, high = {}, {}, {}
    for i, row in enumerate(t.rows):
        if i in leave_out:
            high[i] = len(list(iter_extensions(t, row, key)))
            continue
        adjacency[i] = [right_ids.setdefault(ext, len(right_ids))
                        for ext in iter_extensions(t, row, key)]
    return tuple(right_ids), adjacency, high


def _per_row(graph):
    """A graph's edges and left-out rows row by row: each member of a
    vertex with the vertex's extensions."""
    edges = {i: [graph.right_tuples[r] for r in graph.adjacency[v]]
             for v, rows in graph.members.items() for i in rows}
    return dict(sorted(edges.items())), graph.high_degree_left


def test_graph_build_matches_per_row_reference():
    import random

    rng = random.Random(7)
    for _ in range(200):
        width = rng.randint(1, 4)
        rows = [tuple(None if rng.random() < 0.4 else str(rng.randint(1, 4))
                      for _ in range(width)) for _ in range(rng.randint(1, 7))]
        t = IncompleteTable.build([f"A{i}" for i in range(width)], rows)
        key = frozenset(rng.sample(range(width), rng.randint(1, width)))
        partition = KeyAnalysis(t, key).partition
        totals = [i for i, row in enumerate(t.rows) if is_total(row, key)]
        for leave_out in (rows_beyond_rivals(partition), set()):
            g = build_extension_graph(t, key, leave_out)
            assert (g.right_tuples, g.adjacency,
                    g.high_degree_left) == _reference_graph(t, key, leave_out)
            # The grouped graph is the settled per-row graph with one
            # vertex per projection: the same right ids, and each row
            # with its vertex's edges.
            grouped = grouped_graph(partition, leave_out)
            per_row = build_extension_graph(t, key, leave_out, settled=totals)
            assert grouped.right_tuples == per_row.right_tuples
            assert grouped.settled == per_row.settled
            assert _per_row(grouped) == _per_row(per_row)
            assert len(grouped.adjacency) == len({projection(t.rows[i], key)
                                                  for i in per_row.adjacency})


def test_settled_graph_is_the_full_graph_without_the_total_rows():
    import random

    rng = random.Random(11)
    for _ in range(200):
        width = rng.randint(1, 3)
        rows = [tuple(None if rng.random() < 0.4 else str(rng.randint(1, 3))
                      for _ in range(width)) for _ in range(rng.randint(1, 7))]
        t = IncompleteTable.build([f"A{i}" for i in range(width)], rows)
        key = frozenset(rng.sample(range(width), rng.randint(1, width)))
        totals = [i for i, row in enumerate(t.rows) if is_total(row, key)]
        full, settled = build_extension_graph(t, key), build_extension_graph(t, key, settled=totals)
        first: dict = {}  # total projection -> its first row
        for i in totals:
            first.setdefault(full.right_tuples[full.adjacency[i][0]], i)
        assert settled.settled == {i: ext for ext, i in first.items()}
        held = set(first)
        extensions = lambda g, i: [g.right_tuples[r] for r in g.adjacency[i]]
        assert set(settled.adjacency) == set(full.adjacency) - set(totals)
        for i in settled.adjacency:
            assert extensions(settled, i) == [e for e in extensions(full, i) if e not in held]
        assert settled.high_degree_left == full.high_degree_left
        grouped = grouped_graph(KeyAnalysis(t, key).partition)
        assert grouped.settled == settled.settled
        if len(held) < len(totals):
            assert max_matching(settled).size < t.row_count
            assert max_matching(grouped).size < t.row_count


def test_satisfied_row_count_matches_hall_components():
    import random

    rng = random.Random(17)
    deficient = 0
    for _ in range(300):
        width, domain, n = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 8)
        rows = [tuple(None if rng.random() < 0.35 else str(rng.randint(1, domain))
                      for _ in range(width)) for _ in range(n)]
        t = IncompleteTable.build([f"A{i}" for i in range(width)], rows)
        key = frozenset(rng.sample(range(width), rng.randint(1, width)))
        full = build_extension_graph(t, key)
        result = max_matching(full)
        parts = hall_components(full, result)
        assert satisfied_row_count(KeyAnalysis(t, key).partition,
                                   result.matching) == parts.satisfied_tuple_count
        deficient += bool(parts.deficient)
    assert deficient >= 100


def test_hopcroft_karp_warm_start():
    # Start from a valid non-maximum matching; it must be augmented in place.
    adjacency = [[0, 1], [0], [1, 2], [2]]
    match_r = [0, None, 2]
    size = hopcroft_karp(adjacency, [0, 1, 2, 3], match_r)
    assert size == 3 == kuhn_matching_size(adjacency, 3)
    assert None not in match_r and len(set(match_r)) == 3
    assert all(v in adjacency[u] for v, u in enumerate(match_r))


def test_hall_components_accepts_a_matching(table4):
    g = build_extension_graph(table4, frozenset({0, 1}))
    assert hall_components(g, max_matching(g)) == hall_components(g)
