"""Self-tests of the benchmark's own logic (not of lpcodes).

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from run import read_checkpoint_millis  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import (  # noqa: E402
    CLASSIFY_EXPONENTS,
    CLASSIFY_SLOTS,
    Cell,
    cells,
    check_classify,
    hit_digest,
    sublattice_count,
)


def hit(basis, t, r_pow, det, r=1.0):
    return {
        "basis": basis,
        "analysis": {
            "basis": basis, "det": det, "t": t, "r_pow": r_pow, "R_pow": r_pow + 1,
            "r": r, "R": r + 1, "mu_r": 1, "mu_R": 5,
            "disc_pack_density": f"1/{det}", "disc_cover_density": f"5/{det}",
            "shortest_pow": 1, "real_pack_radius": 0.5,
        },
    }


REPORT = {
    "query": {"n": 2},
    "counts": {"enumerated": 4, "injectivity_survivors": 0, "covering_survivors": 0},
    "hits": [hit([[1, 0], [0, 1]], 0, 0, 1), hit([[1, 2], [0, 5]], 0, 1, 5)],
}


class ClassifyCells(unittest.TestCase):
    def test_same_seed_same_cells(self):
        self.assertEqual(cells("classify", 7), cells("classify", 7))

    def test_seeds_vary_the_cells(self):
        picks = {tuple(cells("classify", seed)) for seed in range(40)}
        self.assertEqual(len(picks), 6)  # every dealing of p to the slots

    def test_each_slot_gets_one_exponent(self):
        for seed in range(20):
            got = cells("classify", seed)
            self.assertEqual([(c.n, c.volume_min, c.volume_max) for c in got],
                             list(CLASSIFY_SLOTS))
            self.assertEqual(sorted(c.p for c in got), list(CLASSIFY_EXPONENTS))

    def test_fixed_workloads_ignore_the_seed(self):
        self.assertEqual(cells("cubic_l2", 1), cells("cubic_l2", 2))


class Digest(unittest.TestCase):
    def test_ignores_an_added_report_key(self):
        extended = copy.deepcopy(REPORT)
        extended["timings"] = {"sieve": 1.25}
        self.assertEqual(hit_digest(extended), hit_digest(REPORT))

    def test_ignores_rounded_reals(self):
        changed = copy.deepcopy(REPORT)
        changed["hits"][1]["analysis"]["r"] = 1.0001
        changed["hits"][1]["analysis"]["real_pack_radius"] = 0.4999
        self.assertEqual(hit_digest(changed), hit_digest(REPORT))

    def test_sees_exact_fields_and_order(self):
        changed = copy.deepcopy(REPORT)
        changed["hits"][1]["analysis"]["t"] = 1
        self.assertNotEqual(hit_digest(changed), hit_digest(REPORT))
        swapped = copy.deepcopy(REPORT)
        swapped["hits"].reverse()
        self.assertNotEqual(hit_digest(swapped), hit_digest(REPORT))


class Checks(unittest.TestCase):
    def test_sublattice_count(self):
        sigma = {1: 1, 2: 3, 6: 12, 12: 28}
        for v, s in sigma.items():
            self.assertEqual(sublattice_count(2, v), s)
        self.assertEqual(sublattice_count(3, 2), 7)
        self.assertEqual(sublattice_count(4, 2), 15)

    def test_classify_check(self):
        cell = Cell(2, 2, 1, 2, 10**9)
        full = copy.deepcopy(REPORT)
        full["hits"].append(hit([[1, 1], [0, 2]], 1, 0, 2))  # radius 0: not a fast hit
        full["hits"].append(hit([[1, 0], [0, 9]], 40, 0, 9))  # t > 1
        full["counts"]["enumerated"] = sublattice_count(2, 1) + sublattice_count(2, 2)
        fast = {"hits": REPORT["hits"]}
        self.assertEqual(check_classify(cell, full, fast), [])
        self.assertEqual(len(check_classify(cell, full, {"hits": fast["hits"][:1]})), 1)
        full["counts"]["enumerated"] += 1
        self.assertEqual(len(check_classify(cell, full, fast)), 1)

    def test_checkpoint_millis(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ck.tsv"
            path.write_text("1\t1\t9\n2\t0\t0\n\n3\t2\t15\n")
            self.assertEqual(read_checkpoint_millis(path), [9, 0, 15])


class Tracing(unittest.TestCase):
    def test_self_time_excludes_children(self):
        tracer = Tracer()

        def leaf():
            time.sleep(0.02)

        traced_leaf = tracer.span("leaf", leaf)

        def outer():
            time.sleep(0.01)
            traced_leaf()
            traced_leaf()

        tracer.span("outer", outer)()
        got = self_times(tracer.spans)
        self.assertAlmostEqual(got["leaf"], 0.04, delta=0.015)
        self.assertAlmostEqual(got["outer"], 0.01, delta=0.008)
        self.assertEqual(tracer.counts["leaf.calls"], 2)
        outer_span = next(s for s in tracer.spans if s[2] == "outer")
        leaf_parents = {s[1] for s in tracer.spans if s[2] == "leaf"}
        self.assertEqual(leaf_parents, {outer_span[0]})

    def test_generator_timed_only_inside_next(self):
        tracer = Tracer()

        def gen(k):
            for i in range(k):
                time.sleep(0.005)
                yield i

        items = []
        for item in tracer.span_per_item("gen", gen)(3):
            time.sleep(0.02)  # consumer time, not the generator's
            items.append(item)
        self.assertEqual(items, [0, 1, 2])
        self.assertEqual(tracer.counts["gen.items"], 3)
        self.assertLess(self_times(tracer.spans)["gen"], 0.035)

    def test_install_then_uninstall_restores_the_library(self):
        import lpcodes.analysis
        import lpcodes.balls
        import lpcodes.cli
        import lpcodes.search

        modules = (lpcodes.analysis, lpcodes.balls, lpcodes.cli, lpcodes.search)
        before = [dict(vars(m)) for m in modules]
        sieves = dict(lpcodes.search._SIEVES)
        tracer = Tracer()
        tracer.install()
        self.assertIsNot(lpcodes.search.analyze, before[3]["analyze"])
        self.assertIsNot(lpcodes.search._SIEVES[2], sieves[2])
        tracer.uninstall()
        for module, old in zip(modules, before):
            for name, value in old.items():
                self.assertIs(getattr(module, name), value, name)
        self.assertEqual(lpcodes.search._SIEVES, sieves)


if __name__ == "__main__":
    unittest.main()
