"""Acceptance gate: one test per primary deliverable criterion.

Each test prints a single verdict line (run with `-s` to see them all);
beneath the verdict it asserts the claim at its stated tolerance and
wall-clock budget.  The module suites cover the same ground in more
depth, but this file is the one place where every headline claim is
checked end to end.

Every criterion runs by default, including the full-range 3-D sweep
(volumes up to 1419), which the Hermite screen in the search brings to
seconds; the reduced-range criterion still pins the volume-200 counts,
and its report is shared with the full range, which adds 201..1419.
"""

import csv
import inspect
import io
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import cache

import pytest

from conftest import (
    _ball_points_brute,
    apply_transform,
    brute_packing_pow,
    canon_set,
)
from lpcodes.analysis import analyze, packing_radius_pow
from lpcodes.balls import distance_set, distance_set_at_least, mu
from lpcodes.cli import main as cli_main
from lpcodes.families import (
    BEST_PACKING_DENSITY,
    bound_row,
    family,
    min_p_threshold_A,
    p_range_B,
    perfect_radius_bound,
)
from lpcodes.lattices import (
    canonical_form,
    enumerate_sublattices,
    hnf,
    signed_permutations,
    sublattice_count,
)
from lpcodes.search import SearchQuery, run_search
from reference_data import (
    CATALOG_2D,
    CATALOG_2D_P2_EXTRA,
    CATALOG_3D_BOGUS,
    CATALOG_3D_CORRECTED,
    CATALOG_3D_RAW,
    COUNTS_2D_P2_M241,
    COUNTS_2D_P3_M600,
    COUNTS_2D_P4_M600,
    COUNTS_3D_P2_M200,
    COUNTS_3D_P2_M1419,
    DISTSET_2D_PREFIX,
    EXAMPLE_BASIS,
    EXAMPLE_R_COV_POW,
    EXAMPLE_R_POW,
    EXTRAS_2D_P3,
    EXTRAS_2D_P4,
    EXTRAS_3D_P2,
    PERFECT_CLASSES_2D_P2,
    PERFECT_CLASSES_2D_P3,
    PERFECT_CLASSES_2D_P4,
    PERFECT_CLASSES_3D_P2,
    PERFECT_RPOW_2D_P2,
    QUASI_RPOW_2D_P2,
    QUASI_RPOW_2D_P3,
    QUASI_RPOW_2D_P4,
    SURPLUS_2D_P4,
    SURPLUS_2D_P4_RPOW,
    TABLE1_ROWS,
    TABLE2_ROWS,
    TABLE3_ROWS,
    TABLE4_REFERENCE_EXTRA_CELLS,
    TABLE4_ROWS,
)


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} [{label}]: FAIL", flush=True)
        raise
    print(f"criterion {num:02d} [{label}]: PASS", flush=True)


@contextmanager
def budget(seconds):
    begin = time.monotonic()
    yield
    elapsed = time.monotonic() - begin
    assert elapsed < seconds, f"over time budget: {elapsed:.1f}s >= {seconds}s"


def cli_table(tmp_path, which):
    target = tmp_path / f"{which}.csv"
    assert cli_main(["tables", "--which", which, "--out", str(target)]) == 0
    return list(csv.DictReader(io.StringIO(target.read_text())))


def sigma(m):
    return sum(d for d in range(1, m + 1) if m % d == 0)


def strata(report):
    """(quasi classes, perfect classes) of a deduplicated report."""
    return (
        {b for b, a in report.hits if a.t == 1},
        {b for b, a in report.hits if a.t == 0},
    )


def counts_tuple(report):
    c = report.counts
    return (c.enumerated, c.injectivity_survivors, c.covering_survivors)


def test_criterion_01_volume_24_table(tmp_path):
    with criterion(1, "volume-24 classification table"):
        with budget(5.0):
            rows = cli_table(tmp_path, "table2")
        assert len(rows) == len(TABLE2_ROWS) == 21
        for row, want in zip(rows, TABLE2_ROWS):
            basis, t, r_pow, big_pow, pack, cover, rr, rc, dp, dc = want
            assert row["basis"] == basis
            assert int(row["t"]) == t
            assert int(row["r_pow"]) == r_pow
            assert int(row["R_pow"]) == big_pow
            assert row["disc_pack_density"] == f"{pack.numerator}/{pack.denominator}"
            assert row["disc_cover_density"] == f"{cover.numerator}/{cover.denominator}"
            for field, value in (
                ("real_pack_radius", rr),
                ("real_cover_radius", rc),
                ("real_pack_density", dp),
                ("real_cover_density", dc),
            ):
                assert abs(float(row[field]) - value) <= 5e-4, (row["basis"], field)


def test_criterion_02_worked_example():
    with criterion(2, "worked planar example"):
        with budget(1.0):
            a = analyze(EXAMPLE_BASIS, 2)
            dset = distance_set(2, 2, 50)
        assert a.r_pow == EXAMPLE_R_POW == 37
        assert a.R_pow == EXAMPLE_R_COV_POW == 50
        # the quoted list has 24 entries and omits the trivial zero,
        # which the library's distance set carries in front
        assert dset[0] == 0
        assert dset[1:] == DISTSET_2D_PREFIX
        assert len(DISTSET_2D_PREFIX) == 24


def test_criterion_03_bound_table(tmp_path):
    with criterion(3, "density-bound feasibility table"):
        with budget(5.0):
            rows = cli_table(tmp_path, "table1")
            assert len(rows) == len(TABLE1_ROWS) == 20
            for row, want in zip(rows, TABLE1_ROWS):
                block, r_pow, mu_val, delta, theta7, theta8 = want
                assert (row["block"], int(row["r_pow"])) == (block, r_pow)
                assert int(row["mu"]) == mu_val
                assert abs(float(row["delta_lower"]) - delta) <= 1e-3
                assert abs(float(row["theta_upper_7"]) - theta7) <= 1e-3
                if theta8 is None:
                    assert row["theta_upper_8"] == ""
                else:
                    assert abs(float(row["theta_upper_8"]) - theta8) <= 1e-3
            # the spot values quoted with the criterion itself
            probe = bound_row(2, 2, 74, "quasiperfect")
            assert abs(probe.delta_lower - 0.7193) <= 1e-3
            assert abs(probe.theta_upper_7 - 1.2143) <= 1e-3
            assert abs(probe.theta_upper_8 - 1.3079) <= 1e-3
            assert abs(bound_row(2, 2, 49, "perfect").theta_upper_7 - 1.2524) <= 1e-3
            assert perfect_radius_bound(2, 2, BEST_PACKING_DENSITY[(2, 2)])[1] == 833


def test_criterion_04_planar_search_to_241():
    with criterion(4, "planar p=2 search to volume 241"):
        with budget(300.0):
            report = run_search(SearchQuery(2, 2, 1, 241))
        quasi, perfect = strata(report)
        assert quasi == canon_set(CATALOG_2D + CATALOG_2D_P2_EXTRA)
        assert len(quasi) == 24
        assert {a.r_pow for _, a in report.hits if a.t == 1} == QUASI_RPOW_2D_P2
        perfect_radii = {a.r_pow for _, a in report.hits if a.t == 0}
        assert perfect_radii >= PERFECT_RPOW_2D_P2
        assert perfect == canon_set(b for b, _ in PERFECT_CLASSES_2D_P2)
        assert report.counts.enumerated == sum(sigma(m) for m in range(1, 242))
        assert counts_tuple(report) == COUNTS_2D_P2_M241


def test_criterion_05_exponents_3_and_4_to_600():
    with criterion(5, "planar p=3 and p=4 searches to volume 600"):
        with budget(1200.0):
            rep3 = run_search(SearchQuery(2, 3, 1, 600))
            rep4 = run_search(SearchQuery(2, 4, 1, 600))
        quasi3, perfect3 = strata(rep3)
        assert quasi3 >= canon_set(EXTRAS_2D_P3)
        assert {a.r_pow for _, a in rep3.hits if a.t == 1} == QUASI_RPOW_2D_P3
        assert perfect3 == canon_set(b for b, _ in PERFECT_CLASSES_2D_P3)
        assert counts_tuple(rep3) == COUNTS_2D_P3_M600

        quasi4, perfect4 = strata(rep4)
        assert quasi4 >= canon_set(EXTRAS_2D_P4)
        # two further classes at pow-radius 881 sit past the reference
        # list's final stratum but inside the volume cutoff; both are
        # independently verified in the reference data notes
        assert quasi4 >= canon_set(SURPLUS_2D_P4)
        assert {a.r_pow for _, a in rep4.hits if a.t == 1} == (
            QUASI_RPOW_2D_P4 | {SURPLUS_2D_P4_RPOW}
        )
        assert perfect4 == canon_set(b for b, _ in PERFECT_CLASSES_2D_P4)
        assert counts_tuple(rep4) == COUNTS_2D_P4_M600


def curated_3d_classes():
    keep = [b for b in CATALOG_3D_RAW if b not in CATALOG_3D_BOGUS]
    return canon_set(tuple(keep) + CATALOG_3D_CORRECTED + EXTRAS_3D_P2)


@cache
def search_3d_p2_to_200():
    """The 3-D p=2 report of volumes 1..200, shared by both criterion-06
    tests: the full range searches only 201..1419 on top of it."""
    return run_search(SearchQuery(3, 2, 1, 200))


def test_criterion_06_three_dimensional_reduced():
    with criterion(6, "3-D p=2 search, reduced range to 200"):
        with budget(600.0):
            report = search_3d_p2_to_200()
        quasi, perfect = strata(report)
        want = curated_3d_classes()
        assert len(want) == 48
        assert quasi == {c for c in want if c[0][0] * c[1][1] * c[2][2] <= 200}
        # every curated class already has volume <= 200
        assert quasi == want
        assert perfect == canon_set(b for b, _ in PERFECT_CLASSES_3D_P2)
        assert counts_tuple(report) == COUNTS_3D_P2_M200


def test_criterion_06_three_dimensional_full_range():
    with criterion(6, "3-D p=2 search, full range to 1419"):
        with budget(120.0):
            low = search_3d_p2_to_200()
            high = run_search(SearchQuery(3, 2, 201, 1419))
        quasi, perfect = (a | b for a, b in zip(strata(low), strata(high)))
        assert quasi == curated_3d_classes()
        assert perfect == canon_set(b for b, _ in PERFECT_CLASSES_3D_P2)
        both = zip(counts_tuple(low), counts_tuple(high))
        assert tuple(a + b for a, b in both) == COUNTS_3D_P2_M1419


def test_criterion_07_families_and_threshold_tables(tmp_path):
    with criterion(7, "family constructions and threshold tables"):
        with budget(30.0):
            for r in range(2, 9):
                base_p = min_p_threshold_A(r)
                for p in range(base_p, base_p + 3):
                    spec = family("A", r, p)
                    a = analyze(spec.basis, p)
                    assert a.t == spec.predicted_t, ("A", r, p)
                    assert a.disc_pack_density == spec.predicted_disc_density
            for r in range(3, 9):
                for p in p_range_B(r):
                    spec = family("B", r, p)
                    a = analyze(spec.basis, p)
                    assert a.t == spec.predicted_t == r - 1, ("B", r, p)
                    assert a.disc_pack_density == spec.predicted_disc_density
            for kind, r, p in (
                ("C", Fraction(3, 2), 1),
                ("C", Fraction(5, 2), 2),
                ("D", Fraction(11, 5), 2),
            ):
                spec = family(kind, r, p)
                a = analyze(spec.basis, p)
                assert a.t == spec.predicted_t, (kind, r, p)
                assert a.disc_pack_density == spec.predicted_disc_density

            rows3 = cli_table(tmp_path, "table3")
            assert [(int(r["r"]), int(r["min_p"])) for r in rows3] == list(TABLE3_ROWS)
            rows4 = cli_table(tmp_path, "table4")
            got4 = [
                (int(r["r"]), tuple(int(v) for v in r["p_values"].split()))
                for r in rows4
            ]
            assert got4 == list(TABLE4_ROWS)
            # the bundled rendering of the second table adds exactly two
            # cells that its own defining inequalities reject (both sit
            # at the family-A threshold for their r).  Measurement shows
            # the r=3 cell is wrong outright, while the r=6 cell happens
            # to hold despite falling outside the proved hypothesis; the
            # generated table follows the inequalities and omits both.
            extra = {}
            for r, p in TABLE4_REFERENCE_EXTRA_CELLS:
                assert p == min_p_threshold_A(r)
                assert p not in p_range_B(r)
                assert 2 * (r - 1) ** p <= r**p  # first condition fails
                extra[(r, p)] = analyze(((r - 1, 2 * r - 1), (2 * r, -1)), p).t
            assert extra[(3, 2)] == 3  # not the claimed 2
            assert extra[(6, 4)] == 5  # equals r-1, though unproved


def test_criterion_08_property_suites():
    with criterion(8, "cross-checked property suites"):
        with budget(300.0):
            # ball point counts against direct enumeration
            for n in (1, 2, 3):
                for p in (1, 2, 3):
                    for s in range(26):
                        assert mu(n, p, s) == len(_ball_points_brute(n, p, s))
            # sublattice counts against the divisor-sum formulas
            for m in range(1, 41):
                assert sublattice_count(2, m) == sigma(m)
                assert sum(1 for _ in enumerate_sublattices(2, m)) == sigma(m)
            for m in (1, 2, 3, 4, 6, 8, 12, 18, 24, 30):
                formula = sum(
                    d2 * d3 * d3
                    for d1 in range(1, m + 1)
                    if m % d1 == 0
                    for d2 in range(1, m // d1 + 1)
                    if (m // d1) % d2 == 0
                    for d3 in [m // d1 // d2]
                )
                assert sublattice_count(3, m) == formula
                assert sum(1 for _ in enumerate_sublattices(3, m)) == formula
            # canonical-form invariance under every signed permutation
            samples = (
                ((5, 11), (13, 1)),
                ((1, 5), (0, 24)),
                ((2, 3), (0, 6)),
                ((1, 0, 3), (0, 1, 9), (0, 0, 26)),
                ((1, 1, 2), (0, 3, 0), (0, 0, 5)),
            )
            for basis in samples:
                canon = canonical_form(basis)
                for t in signed_permutations(len(basis)):
                    assert canonical_form(apply_transform(t, basis)) == canon
            # packing radius through coset injectivity equals brute-force
            # ball disjointness for every planar lattice of volume <= 50
            dset = distance_set_at_least(2, 2, 128)
            for volume in range(1, 51):
                for basis in enumerate_sublattices(2, volume):
                    h = hnf(basis)
                    assert packing_radius_pow(h, 2) == brute_packing_pow(
                        h, 2, dset
                    )
            # fast search path equals the full-analysis oracle to 40
            report = run_search(SearchQuery(2, 2, 1, 40))
            oracle = {}
            for volume in range(1, 41):
                for basis in enumerate_sublattices(2, volume):
                    a = analyze(basis, 2)
                    if a.t <= 1 and not (a.r_pow == 0 and volume > 1):
                        oracle.setdefault(canonical_form(basis), a)
            got = dict(report.hits)
            assert set(got) == set(oracle)
            for b, a in got.items():
                assert (a.t, a.r_pow, a.R_pow) == (
                    oracle[b].t,
                    oracle[b].r_pow,
                    oracle[b].R_pow,
                )
            # report determinism across worker counts
            assert run_search(SearchQuery(2, 2, 1, 40), jobs=2) == report
            assert run_search(SearchQuery(2, 2, 1, 40), jobs=3) == report


def test_criterion_09_closing_conjecture_out_of_reach():
    with criterion(9, "closing conjecture outside finite scope"):
        # the conjecture that no further quasi-perfect codes exist beyond
        # the searched volumes at p=3,4 is not decidable by any finite
        # enumeration; nothing here claims it: every query requires an
        # explicit finite ceiling and reports carry their searched window
        sig = inspect.signature(SearchQuery)
        assert sig.parameters["volume_max"].default is inspect.Parameter.empty
        report = run_search(SearchQuery(2, 3, 1, 8))
        assert "[1, 8]" in report.bound_provenance


# Least degree of imperfection t per volume, p=2, volumes 1, 2, ...: the
# least t over all sublattices of Z^n with that index.  Not a table from
# the paper: it was recorded from the uncapped search of this library and
# is re-derived below, a prefix of it by the full analysis of every
# sublattice, which shares nothing with the search but `analyze`.
LEAST_T_2D_P2 = (
    0, 1, 1, 1, 0, 1, 1, 1, 0, 2, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1,
    2, 2, 1, 1, 0, 3, 2, 2, 2, 2, 2, 3, 1, 1, 1, 2, 2, 2, 1, 2,
    2, 1, 2, 2, 3, 2, 2, 3, 2, 3, 3, 2, 1, 3, 4, 4, 3, 2, 2, 3,
    3, 3, 2, 3, 3, 3, 3, 2, 2, 3, 3, 2, 2, 3, 2, 3, 1, 2, 3, 3,
    2, 2, 3, 3, 3, 3, 3, 3, 5, 4, 4, 4, 5, 3, 4, 4, 4, 4, 3, 6,
)
LEAST_T_3D_P2 = (0, 1, 1, 1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2)


@pytest.mark.parametrize(
    "n,table,oracle_hi", [(2, LEAST_T_2D_P2, 40), (3, LEAST_T_3D_P2, 10)]
)
def test_criterion_10_least_degree_of_imperfection(n, table, oracle_hi):
    with criterion(10, f"least t per volume, n={n}, p=2 (self-consistent)"):
        with budget(60.0):
            report = run_search(SearchQuery(n, 2, 1, len(table), t_max=None))
            least = {}
            for _, a in report.hits:
                least[a.det] = min(least.get(a.det, a.t), a.t)
            assert tuple(least[m] for m in range(1, len(table) + 1)) == table
            for m in range(1, oracle_hi + 1):
                assert table[m - 1] == min(
                    analyze(b, 2).t for b in enumerate_sublattices(n, m)
                )
