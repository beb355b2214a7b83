"""The answer checks reject wrong answers.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

import json
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

from checks import CheckError, Checker, key_matching, replay
from run import CheckerProcess, check
from workloads import Request, Table, family_expected

# The four-row key example: removing two rows or adding one fresh row
# makes (Model, Doors) a key.
ROWS = [("BMW", "4"), ("BMW", None), ("Ford", None), ("Ford", None)]
KEY = ("key", frozenset({0, 1}))


def g3_entry(fraction="2/4", removed=(1, 3), world=(("BMW", "4"), ("Ford", "4"))):
    kept = [i for i in range(4) if i not in removed]
    count = int(fraction.split("/")[0])
    return {"holds": False, "error": None, "measures": {"g3": {
        "fraction": fraction, "count": count, "removed_rows": list(removed),
        "witness_world": [list(r) for r in world], "witness_origin": kept}}}


def g5_entry(added, world):
    return {"holds": False, "error": None, "measures": {"g5": {
        "fraction": f"{len(added)}/4", "count": len(added),
        "added_rows": [list(r) for r in added],
        "witness_world": [list(r) for r in world],
        "witness_origin": [0, 1, 2, 3] + [None] * len(added)}}}


class ReplayTest(unittest.TestCase):
    def test_accepts_a_true_witness(self):
        Checker(ROWS, 2).entry(g3_entry(), KEY)

    def test_rejects_a_changed_cell(self):
        with self.assertRaises(CheckError):
            replay(ROWS[:1], [("BMW", "5")], KEY, 2)

    def test_rejects_a_fill_outside_the_active_domain(self):
        with self.assertRaises(CheckError):
            Checker(ROWS, 2).entry(g3_entry(world=(("BMW", "4"), ("Ford", "5"))), KEY)

    def test_rejects_a_world_that_violates_the_constraint(self):
        world = [("BMW", "4"), ("BMW", "4"), ("Ford", "4"), ("Ford", "4")]
        entry = {"holds": True, "error": None, "witness_world": world}
        with self.assertRaises(CheckError):
            Checker(ROWS, 2).entry(entry, KEY)

    def test_fills_an_all_null_column_with_the_reserved_symbol(self):
        replay([("a", None)], [("a", "ssymb")], KEY, 2)
        with self.assertRaises(CheckError):
            replay([("a", None)], [("a", "b")], KEY, 2)


class FractionTest(unittest.TestCase):
    def test_rejects_a_removal_count_above_the_minimum(self):
        entry = g3_entry("3/4", removed=(1, 2, 3), world=(("BMW", "4"),))
        with self.assertRaisesRegex(CheckError, "own matching"):
            Checker(ROWS, 2).entry(entry, KEY)

    def test_rejects_an_addition_count_above_the_minimum(self):
        one = [("fresh1", "fresh1")]
        Checker(ROWS, 2).entry(g5_entry(one, [
            ("BMW", "4"), ("BMW", "fresh1"), ("Ford", "4"), ("Ford", "fresh1"),
            ("fresh1", "fresh1")]), KEY)
        two = one + [("fresh2", "fresh2")]
        with self.assertRaisesRegex(CheckError, "already repair"):
            Checker(ROWS, 2).entry(g5_entry(two, [
                ("BMW", "4"), ("BMW", "fresh1"), ("Ford", "4"), ("Ford", "fresh1"),
                ("fresh1", "fresh1"), ("fresh2", "fresh2")]), KEY)

    def test_rejects_a_wrong_g4(self):
        entry = {"holds": False, "error": None,
                 "measures": {"g4": {"fraction": "2/5", "count": 2}}}
        with self.assertRaisesRegex(CheckError, "g4"):
            Checker(ROWS, 2).entry(entry, KEY)
        entry["measures"]["g4"] = {"fraction": "2/4", "count": 2}
        Checker(ROWS, 2).entry(entry, KEY)

    def test_rejects_a_fraction_off_its_closed_form(self):
        entry = g3_entry()
        with self.assertRaisesRegex(CheckError, "closed form"):
            Checker(ROWS, 2).entry(entry, KEY, {"g3": Fraction(1, 4)})

    def test_rejects_an_oracle_disagreement(self):
        entry = g3_entry()
        entry["oracle"] = {"checked": True, "holds": False, "g3": "2/4", "agree": False}
        with self.assertRaisesRegex(CheckError, "oracle"):
            Checker(ROWS, 2).entry(entry, KEY)


class MatchingTest(unittest.TestCase):
    def test_matches_by_pigeonhole_above_the_row_count(self):
        rows = [(str(v), str(v)) for v in range(3)] + [(None, None)]
        self.assertEqual(key_matching(rows, {0, 1}, 2)[0], 4)
        self.assertEqual(key_matching(ROWS, {0, 1}, 2)[0], 2)

    def test_augments_past_a_greedy_choice(self):
        # Row 0 greedily takes (a, 1); row 1 needs it, so row 0 moves to (a, 2).
        rows = [("a", None), ("a", "1"), ("b", "2")]
        self.assertEqual(key_matching(rows, {0, 1}, 2)[0], 3)

    def test_closed_forms_of_the_gap_families(self):
        thm1 = [("1", "1"), ("1", "2")] + [(None, None)] * 3
        self.assertEqual(family_expected("thm1", thm1),
                         {"g3": Fraction(3, 5), "g5": Fraction(1, 5)})
        thm3 = [("1", "1", "1")] + [(None, None, str(j)) for j in (2, 3, 4)]
        self.assertEqual(family_expected("thm3", thm3),
                         {"g3": Fraction(3, 4), "g5": Fraction(1, 4)})


class ReportTest(unittest.TestCase):
    def setUp(self):
        work = tempfile.TemporaryDirectory()
        self.addCleanup(work.cleanup)
        self.report = Path(work.name) / "report.json"
        self.report.write_text(json.dumps({"constraints": [g3_entry()], "exit_code": 1}))
        table = Table(Path(work.name) / "cars.csv", ["Model", "Doors"], ROWS)
        self.request = Request("measure", table, [KEY], "g3")

    def test_rejects_an_exit_code_that_disagrees_with_the_verdicts(self):
        self.assertIsNone(check(self.request, self.report, 1, {}))
        self.assertIn("exit code", check(self.request, self.report, 0, {}))

    def test_checks_in_a_child_process(self):
        checker = CheckerProcess([self.request], self.report)
        try:
            self.assertIsNone(checker.check(0, 1))
            self.assertIn("exit code", checker.check(0, 0))
        finally:
            checker.close()


if __name__ == "__main__":
    unittest.main()
