from fractions import Fraction

import pytest

from spcheck.errors import GeneratorError
from spcheck.generators import (
    complement,
    gen_prop3,
    gen_thm1,
    gen_thm3,
    graph,
    graph_to_weak_similarity_table,
    has_clique,
    is_3colorable,
    random_table,
    reduce_3color_to_spcj_g5,
    reduce_3dm_to_spcj,
    reduce_maxclique_to_spcj_g3,
    solve_3dm,
)
from spcheck.spkey import g3_spkey, g5_spkey
from spcheck.tuplegen import g3_spcj, g5_spcj

from reference import weakly_similar

K3 = graph(3, [(0, 1), (0, 2), (1, 2)])
P3 = graph(3, [(0, 1), (1, 2)])
C4 = graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
K4 = graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def test_prop3_basic():
    inst = gen_prop3(1, 3, verify=True)
    assert inst.table.row_count == 3 and inst.table.arity == 3
    assert inst.expected["g3"] == Fraction(2, 3)
    assert inst.expected["g5"] == Fraction(1, 3)


def test_prop3_zero_gap():
    inst = gen_prop3(0, 1, verify=True)
    assert inst.expected["difference"] == 0


def test_prop3_scaled_keeps_ratios():
    inst = gen_prop3(1, 3, c=2, verify=True)
    assert inst.table.row_count == 6
    key = inst.constraint.key
    assert g3_spkey(inst.table, key).ratio - g5_spkey(inst.table, key).ratio == Fraction(1, 3)


def test_prop3_rejects_bad_fractions():
    with pytest.raises(ValueError):
        gen_prop3(2, 4)
    with pytest.raises(ValueError):
        gen_prop3(3, 2)


def test_thm1_cases_verify():
    for p, q in ((1, 4), (1, 2), (2, 3)):
        inst = gen_thm1(p, q, verify=True)
        assert inst.expected["difference"] == Fraction(p, q)
        assert inst.table.arity == 2


def test_thm3_examples():
    inst = gen_thm3(1, 3, verify=True)
    assert inst.expected["difference"] == Fraction(1, 3)
    inst = gen_thm3(0, 1, verify=True)
    assert inst.expected["difference"] == 0


def test_thm3_full_range_q12():
    import math

    for q in range(2, 13):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            gen_thm3(p, q, verify=True)


def test_lemma_graph_examples():
    assert graph_to_weak_similarity_table(graph(2, [(0, 1)])).rows == (
        ("1", None),
        (None, "1"),
    )
    assert graph_to_weak_similarity_table(graph(2, [])).rows == (
        ("1", "2"),
        ("2", "1"),
    )
    k3 = graph_to_weak_similarity_table(K3)
    for i in range(3):
        assert k3.rows[i][i] == "1"
        assert all(k3.rows[i][j] is None for j in range(3) if j != i)


def test_lemma_graph_roundtrip():
    import itertools

    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
            t = graph_to_weak_similarity_table(g)
            full = t.all_positions()
            recovered = frozenset(
                (i, j)
                for i, j in itertools.combinations(range(n), 2)
                if weakly_similar(t.rows[i], t.rows[j], full)
            )
            assert recovered == g[1]


def test_maxclique_reduction_examples():
    inst = reduce_maxclique_to_spcj_g3(K3, 3, verify=True)
    assert inst.expected["decision"]
    assert inst.expected["threshold"] == 0
    assert g3_spcj(inst.table, inst.constraint.lhs, inst.constraint.rhs).ratio == 0

    inst = reduce_maxclique_to_spcj_g3(P3, 3, verify=True)
    assert not inst.expected["decision"]
    assert g3_spcj(inst.table, inst.constraint.lhs, inst.constraint.rhs).ratio > 0

    inst = reduce_maxclique_to_spcj_g3(P3, 1, verify=True)
    assert inst.expected["decision"]


def test_3color_reduction_examples():
    for g, expected in ((C4, True), (K4, False), (K3, True)):
        inst = reduce_3color_to_spcj_g5(g, verify=True)
        assert inst.expected["decision"] == expected
        measured = g5_spcj(inst.table, inst.constraint.lhs, inst.constraint.rhs).ratio
        assert (measured <= 2) == expected


def test_3color_encodes_complement():
    inst = reduce_3color_to_spcj_g5(C4)
    t = inst.table
    ycols = frozenset(range(1, t.arity))
    import itertools

    recovered = frozenset(
        (i, j)
        for i, j in itertools.combinations(range(t.row_count), 2)
        if weakly_similar(t.rows[i], t.rows[j], ycols)
    )
    assert recovered == complement(C4)[1]


def test_3dm_examples():
    inst = reduce_3dm_to_spcj(["b1"], ["c1"], ["d1"], [("b1", "c1", "d1")], verify=True)
    assert inst.expected["decision"]
    inst = reduce_3dm_to_spcj(["b1"], ["c1"], ["d1"], [], verify=True)
    assert not inst.expected["decision"]
    inst = reduce_3dm_to_spcj(
        ["b1", "b2"], ["c1", "c2"], ["d1", "d2"],
        [("b1", "c1", "d1"), ("b2", "c2", "d2")], verify=True,
    )
    assert inst.expected["decision"]
    inst = reduce_3dm_to_spcj(
        ["b1", "b2"], ["c1", "c2"], ["d1", "d2"],
        [("b1", "c1", "d1"), ("b1", "c2", "d2")], verify=True,
    )
    assert not inst.expected["decision"]


def test_solve_3dm_brute():
    assert solve_3dm(["b"], ["c"], ["d"], [("b", "c", "d")])
    assert not solve_3dm(["b"], ["c"], ["d"], [])


def test_brute_force_helpers():
    assert has_clique(K4, 4) and not has_clique(C4, 3)
    assert is_3colorable(C4) and not is_3colorable(K4)


def test_generator_verification_catches_lies(monkeypatch):
    import spcheck.generators as gens

    inst = gen_prop3(1, 3)
    broken = gens.GeneratedInstance(
        inst.table, inst.constraint,
        {"g3": Fraction(1, 7), "g5": Fraction(1, 7), "difference": Fraction(0)},
        "broken",
    )
    with pytest.raises(GeneratorError):
        gens._verify(broken, {"g3": Fraction(2, 3)})


def test_random_table_deterministic():
    a = random_table(20, 3, 4, 0.3, seed=5)
    b = random_table(20, 3, 4, 0.3, seed=5)
    assert a.rows == b.rows
    c = random_table(20, 3, 4, 0.3, seed=6)
    assert a.rows != c.rows
