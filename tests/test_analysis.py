"""Code analysis against from-scratch oracles.

The library labels points by coset, for a stack of HNFs of one index at
a time: it reads the packing radius and the shortest vector off one
labelled ball and builds the covering radius one axis at a time over the
coset labels.  The headline checks use routes that share nothing with
either: packing radius by literal ball-disjointness over lattice
translates, covering radius by maximizing nearest-translate distances
over a full residue system, shortest vector by a minimum over a box of
lattice vectors (conftest helpers, no library calls), and covering
radius again through the branch-and-bound closest-vector search, once
per coset of the HNF box.  Whole stacks, a thin cell among fat ones and
every chunking of a stack must give each row the same result.
"""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

import lpcodes.analysis
from lpcodes.analysis import (
    analyze,
    analyze_stack,
    covering_radius_pow,
    labels_are_distinct,
    packing_radius_pow,
    real_covering_radius_2d_euclidean,
)
from lpcodes.balls import distance_set, distance_set_at_least, mu
from lpcodes.lattices import (
    closest_lattice_distance_pow,
    enumerate_sublattices,
    hnf,
)
from lpcodes.search import covering_test

from conftest import (
    brute_balls_disjoint,
    brute_covering_pow,
    brute_packing_pow,
    brute_shortest_pow,
)
from reference_data import EXAMPLE_BASIS, EXAMPLE_R_COV_POW, EXAMPLE_R_POW


class TestWorkedExample:
    def test_packing_and_covering(self):
        a = analyze(EXAMPLE_BASIS, 2)
        assert a.det == 138
        assert a.r_pow == EXAMPLE_R_POW
        assert a.R_pow == EXAMPLE_R_COV_POW
        # half-open count from the packing radius: 37, 40, 41, 45, 49
        assert a.t == 5

    def test_against_brute_force(self):
        h = hnf(EXAMPLE_BASIS)
        assert brute_covering_pow(h, 2) == EXAMPLE_R_COV_POW
        dset = distance_set(2, 2, 200)
        assert brute_packing_pow(h, 2, dset) == EXAMPLE_R_POW


class TestPackingOracle:
    def test_injectivity_equals_disjointness_all_dets_to_50(self):
        """Packing radius via coset-label injectivity must agree with
        literal pairwise ball disjointness for every planar sublattice
        with determinant at most 50."""
        dset = distance_set(2, 2, 400)
        for m in range(1, 51):
            bases = list(enumerate_sublattices(2, m))
            for h, r in zip(bases, packing_radius_pow(bases, 2)):
                assert r == brute_packing_pow(h, 2, dset), h

    @pytest.mark.parametrize(
        "n,p,volume_hi", [(2, 1, 30), (2, 3, 30), (2, 4, 30), (3, 1, 12), (3, 2, 12)]
    )
    def test_packing_radius_matches_brute_every_sublattice(self, n, p, volume_hi):
        dset = distance_set(n, p, 256)
        for m in range(1, volume_hi + 1):
            bases = list(enumerate_sublattices(n, m))
            for h, r in zip(bases, packing_radius_pow(bases, p)):
                assert r == brute_packing_pow(h, p, dset), h

    def test_injectivity_test_itself(self):
        rng = random.Random(5)
        for _ in range(40):
            m = rng.randint(2, 30)
            h = rng.choice(list(enumerate_sublattices(2, m)))
            s = rng.choice(distance_set(2, 2, 50))
            assert labels_are_distinct(h, 2, s) == brute_balls_disjoint(h, 2, s)


class TestStackedAnalysis:
    """`analyze_stack` runs the radius kernels over a whole stack of HNFs
    of one index; every row must match the oracles on its own."""

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("n,volume_hi", [(2, 24), (3, 8)])
    def test_every_hnf_of_an_index_as_one_stack(self, n, p, volume_hi):
        dset = distance_set(n, p, 256)
        for m in range(1, volume_hi + 1):
            bases = list(enumerate_sublattices(n, m))
            analyses = analyze_stack(bases, p)
            assert len(analyses) == len(bases)
            for h, a in zip(bases, analyses):
                assert (a.hnf_basis, a.det) == (h, m)
                assert a.r_pow == brute_packing_pow(h, p, dset), (h, p)
                assert a.R_pow == brute_covering_pow(h, p), (h, p)
                assert a.shortest_pow == brute_shortest_pow(h, p), (h, p)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_a_thin_cell_among_fat_ones(self, p):
        # The thin cell's walk along x_2 runs its period of 60 steps and
        # its covering radius 30^p needs caps far above the fat rows'.
        thin = ((1, 0), (0, 60))
        fat = [((1, a), (0, 60)) for a in (11, 13, 23)] + [((2, 1), (0, 30))]
        bases = fat[:2] + [thin] + fat[2:]
        analyses = analyze_stack(bases, p)
        assert analyses[2].R_pow == 30**p
        for h, a in zip(bases, analyses):
            assert a.R_pow == brute_covering_pow(h, p), (h, p)
            assert a.shortest_pow == brute_shortest_pow(h, p), (h, p)
            assert a == analyze(h, p)

    # 1 and 3 cells give one row per chunk, 72 = 3 * det * n gives three.
    @pytest.mark.parametrize("cells,rows", [(1, 1), (3, 1), (72, 3)])
    def test_chunking_changes_no_row(self, monkeypatch, cells, rows):
        bases = list(enumerate_sublattices(2, 12))
        whole = analyze_stack(bases, 3)
        calls = []
        kernel = lpcodes.analysis.covering_radius_pow

        def counted(stack, p):
            calls.append(len(stack))
            return kernel(stack, p)

        monkeypatch.setattr(lpcodes.analysis, "_STACK_CELLS", cells)
        monkeypatch.setattr(lpcodes.analysis, "covering_radius_pow", counted)
        assert analyze_stack(bases, 3) == whole
        assert max(calls) == rows and sum(calls) == len(bases) == 28

    def test_stack_of_one_is_analyze(self):
        h = hnf(EXAMPLE_BASIS)
        assert analyze_stack([h], 2) == [analyze(EXAMPLE_BASIS, 2)]
        assert analyze_stack([], 2) == []

    @pytest.mark.parametrize(
        "bases",
        [
            [((1, 5), (0, 24)), ((2, 0), (0, 6))],  # two indices
            [((1, 24), (0, 24))],  # entry not reduced mod its column
            [((1, -1), (0, 24))],
            [((1, 0), (1, 24))],  # not upper triangular
            [((-1, 0), (0, -24))],
        ],
    )
    def test_a_stack_that_is_not_hnfs_of_one_index_is_refused(self, bases):
        with pytest.raises(ValueError, match="HNFs of index"):
            analyze_stack(bases, 2)


class TestCoveringOracle:
    def test_covering_radius_matches_brute(self):
        rng = random.Random(9)
        for _ in range(35):
            n = rng.choice((2, 3))
            m = rng.randint(2, 28 if n == 2 else 20)
            h = rng.choice(list(enumerate_sublattices(n, m)))
            p = rng.choice((1, 2, 3))
            assert covering_radius_pow([h], p) == [brute_covering_pow(h, p)], (h, p)

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("n,volume_hi", [(2, 24), (3, 10), (4, 6)])
    def test_covering_radius_matches_closest_vector_search(self, n, p, volume_hi):
        """The labelled-ball covering radius against the largest exact
        closest-point distance over the HNF box, one point per coset."""
        for m in range(1, volume_hi + 1):
            bases = list(enumerate_sublattices(n, m))
            for h, got in zip(bases, covering_radius_pow(bases, p)):
                box = product(*(range(h[i][i]) for i in range(n)))
                want = max(closest_lattice_distance_pow(h, p, x) for x in box)
                assert got == want, (h, p)

    @pytest.mark.parametrize(
        "basis,p,want",
        [
            (((1, 0), (0, 2000)), 2, 1000**2),
            (((2, 0), (0, 1999)), 3, 1 + 999**3),
            (((1, 0, 0), (0, 1, 0), (0, 0, 100)), 2, 50**2),
            (((1, 0, 0), (0, 1, 0), (0, 0, 301)), 1, 150),
        ],
    )
    def test_thin_cells(self, basis, p, want):
        """Rectangular lattices with one long side: a coset's nearest
        point differs from it along the axes only, so the covering radius
        is the sum of (d_i // 2)^p.  The covering radius lies far outside
        a ball of about det points here."""
        assert covering_radius_pow([basis], p) == [want]

    def test_covering_test_equivalence(self):
        """covering_test(s) holds exactly when the covering radius is at
        most s, for attainable s around the threshold."""
        for b in (((1, 5), (0, 24)), ((1, 2), (0, 7)), ((1, 0, 2), (0, 1, 3), (0, 0, 7))):
            h = hnf(b)
            n = len(h)
            p = 2
            [R] = covering_radius_pow([h], p)
            d = distance_set_at_least(n, p, 4 * R + 4)
            for s in d:
                if s > 2 * R:
                    break
                assert covering_test(h, p, s) == (s >= R), (b, s)


class TestNormsPastInt64:
    """At p = 41 a coordinate of 3 already has a pow-norm above 2^63, so
    the radii must stay exact past the int64 range."""

    def test_radii_match_oracles(self):
        p = 41
        dset = distance_set(2, p, 4 * 5**p)
        for m in range(1, 13):
            bases = list(enumerate_sublattices(2, m))
            radii = zip(bases, covering_radius_pow(bases, p), packing_radius_pow(bases, p))
            for h, R, r in radii:
                box = product(range(h[0][0]), range(h[1][1]))
                assert R == max(closest_lattice_distance_pow(h, p, x) for x in box), h
                assert r == brute_packing_pow(h, p, dset), h
        assert covering_radius_pow([((1, 0), (0, 7))], p) == [3**p]
        assert 3**p > 2**63


class TestImperfection:
    def test_degree_is_gap_count(self):
        for p in (2, 3):
            for b in (((1, 5), (0, 24)), ((1, 2), (0, 6)), ((1, 0), (0, 24))):
                h = hnf(b)
                [r] = packing_radius_pow([h], p)
                [R] = covering_radius_pow([h], p)
                expected = sum(1 for s in distance_set(2, p, R) if r <= s < R)
                assert analyze(h, p).t == expected

    def test_perfect_iff_radii_equal(self):
        a = analyze(((1, 2), (0, 5)), 2)
        assert a.t == 0 and a.is_perfect and a.r_pow == a.R_pow == 1
        b = analyze(((1, 5), (0, 24)), 2)
        assert b.t == 1 and b.is_quasi_perfect and not b.is_perfect


class TestAnalyzeConsistency:
    def test_field_relations_on_sample(self):
        rng = random.Random(13)
        seen_lattices = []
        for _ in range(30):
            m = rng.randint(2, 40)
            seen_lattices.append(rng.choice(list(enumerate_sublattices(2, m))))
        for h in seen_lattices:
            a = analyze(h, 2)
            d = distance_set_at_least(2, 2, a.R_pow + 1)
            assert a.r_pow in d
            assert a.R_pow in d
            assert a.r_pow <= a.R_pow
            assert a.t == sum(1 for s in d if a.r_pow <= s < a.R_pow)
            assert a.mu_r == mu(2, 2, a.r_pow)
            assert a.mu_R == mu(2, 2, a.R_pow)
            assert a.disc_pack_density == Fraction(a.mu_r, a.det)
            assert a.disc_cover_density == Fraction(a.mu_R, a.det)
            assert a.disc_pack_density <= 1 <= a.disc_cover_density
            assert a.real_pack_radius == pytest.approx(
                math.sqrt(a.shortest_pow) / 2
            )
            assert a.real_cover_radius >= a.real_pack_radius
            assert a.real_pack_density <= 1.0 + 1e-9
            assert a.real_cover_density >= 1.0 - 1e-9

    def test_real_covering_radius_square_sublattice(self):
        # scaled square lattice: covering radius is half the diagonal
        assert real_covering_radius_2d_euclidean(((3, 0), (0, 3))) == pytest.approx(
            3 * math.sqrt(2) / 2, abs=1e-9
        )

    def test_real_covering_radius_rectangular(self):
        assert real_covering_radius_2d_euclidean(((1, 0), (0, 24))) == pytest.approx(
            math.sqrt(1 + 24**2) / 2, abs=1e-9
        )

    def test_real_cover_fields_none_outside_euclidean_plane(self):
        a = analyze(((1, 2), (0, 6)), 3)
        assert a.real_cover_radius is None
        assert a.real_cover_density is None
        b = analyze(((1, 0, 2), (0, 1, 3), (0, 0, 7)), 2)
        assert b.real_cover_radius is None
