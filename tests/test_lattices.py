"""Lattice layer: HNF, enumeration, congruence canonicalization, coset labels,
shortest vectors, exact closest-point distances.

Counting oracles are the divisor sums implied by the HNF free entries;
distance oracles are the nearest-translate brute force in conftest.
"""

import math
import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lpcodes
from lpcodes.balls import distance_set
from lpcodes.errors import Int64RangeError, SingularMatrixError
from lpcodes.analysis import shortest_vector_pow
from lpcodes.lattices import (
    _orbit_exact,
    _ordered_factorizations,
    _orbit_stacked,
    canonical_form,
    closest_lattice_distance_pow,
    congruence_orbit,
    coset_labels,
    enumerate_sublattices,
    hnf,
    hnf_det,
    hnf_stack,
    signed_permutations,
    sublattice_count,
)

from conftest import (
    apply_transform,
    brute_dist_pow,
    brute_shortest_pow,
    congruence_orbit_full_group,
    contains,
    det,
    is_hnf,
)


def _sigma(m):
    return sum(d for d in range(1, m + 1) if m % d == 0)


def _hnf_count_3d(m):
    """Number of upper-triangular HNFs with diagonal product m: the free
    entries above diagonal (d2, d3, d3) give d2*d3^2 per diagonal."""
    total = 0
    for d1 in range(1, m + 1):
        if m % d1:
            continue
        rest = m // d1
        for d2 in range(1, rest + 1):
            if rest % d2:
                continue
            d3 = rest // d2
            total += d2 * d3 * d3
    return total


def _random_unimodular_mix(rng, basis):
    """Apply random elementary integer row operations (det-preserving up
    to sign, lattice-preserving exactly)."""
    b = [list(r) for r in basis]
    n = len(b)
    for _ in range(6):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        b[i] = [x + c * y for x, y in zip(b[i], b[j])]
    return tuple(tuple(r) for r in b)


class TestHnf:
    def test_shape_and_range(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.choice((2, 3))
            while True:
                raw = tuple(
                    tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n)
                )
                if det_nonzero(raw):
                    break
            h = hnf(raw)
            assert is_hnf(h)
            for i in range(n):
                assert h[i][i] > 0
                for j in range(i + 1, n):
                    assert 0 <= h[i][j] < h[j][j]
            assert abs(det(raw)) == det(h)

    def test_preserves_lattice(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.choice((2, 3))
            while True:
                raw = tuple(
                    tuple(rng.randint(-7, 7) for _ in range(n)) for _ in range(n)
                )
                if det_nonzero(raw):
                    break
            h = hnf(raw)
            # every original row is in the HNF lattice and vice versa
            for row in raw:
                assert contains(h, row)
            hh = hnf(raw)
            assert hh == h  # deterministic
            for row in h:
                assert contains(hnf(raw), row)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            hnf(((1, 2), (2, 4)))
        with pytest.raises(SingularMatrixError):
            hnf(((0, 0), (0, 0)))


def _random_full_rank(rng, n, reach):
    while True:
        b = tuple(tuple(rng.randint(-reach, reach) for _ in range(n)) for _ in range(n))
        if det_nonzero(b):
            return b


class TestHnfStack:
    @pytest.mark.parametrize(
        "n,reach",
        [(1, 9), (2, 9), (3, 9), (4, 9), (1, 10**9), (2, 10**4), (3, 300), (4, 40)],
    )
    def test_matches_hnf(self, n, reach):
        """Random full-rank bases with negative entries, their unimodular
        mixes and HNFs, in one stack: each member gets exactly `hnf`.  The
        larger reaches keep every determinant below 2^31."""
        rng = random.Random(53 * n + reach)
        stack = []
        for _ in range(30):
            b = _random_full_rank(rng, n, reach)
            stack += [b, hnf(b)]
            if n > 1:
                stack.append(_random_unimodular_mix(rng, b))
        given = np.array(stack, dtype=np.int64)
        out = hnf_stack(given)
        assert out.dtype == np.int64 and out.shape == given.shape
        assert [tuple(map(tuple, m)) for m in out.tolist()] == [hnf(b) for b in stack]
        assert given.tolist() == [list(map(list, b)) for b in stack]

    @pytest.mark.parametrize(
        "singular",
        [
            ((1, 2), (2, 4)),
            ((0, 1), (0, 2)),
            ((0, 0), (0, 0)),
            ((2, 1, 0), (4, 3, 0), (6, 5, 0)),
            ((1, 2, 3), (0, 1, 1), (1, 3, 4)),
        ],
    )
    def test_a_singular_member_raises(self, singular):
        n = len(singular)
        regular = [[int(i == j) for j in range(n)] for i in range(n)]
        with pytest.raises(SingularMatrixError):
            hnf(singular)
        for stack in ([regular, singular], [singular, regular]):
            with pytest.raises(SingularMatrixError):
                hnf_stack(stack)

    @pytest.mark.parametrize(
        "matrix",
        [
            # an input entry past 2^31
            [[2**40, 3], [5, 7]],
            # -2^63, whose absolute value int64 cannot hold
            [[-(2**63), 0], [0, 1]],
            # the first step of column 0 leaves -2^32 for the second
            [[2, 2**31], [5, 0]],
            # column 1 leaves -3 * 2^31 for the reduction of row 0
            [[1, 5, 0], [0, 1, 2**31], [0, 3, 0]],
        ],
    )
    def test_entries_past_the_bound_raise(self, matrix):
        n = len(matrix)
        regular = [[int(i == j) for j in range(n)] for i in range(n)]
        with pytest.raises(Int64RangeError) as caught:
            hnf_stack([regular, matrix])
        assert isinstance(caught.value, OverflowError)

    def test_the_bound_holds_under_python_O(self):
        program = (
            "from lpcodes.errors import Int64RangeError\n"
            "from lpcodes.lattices import hnf_stack\n"
            "try:\n"
            "    hnf_stack([[[2, 2**31], [5, 0]]])\n"
            "except Int64RangeError:\n"
            "    print('raised')\n"
        )
        done = subprocess.run(
            [sys.executable, "-O", "-c", program],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(lpcodes.__file__).parents[1])},
        )
        assert done.stdout == "raised\n", done.stderr

    def test_exact_or_raises_near_the_bound(self):
        """At this reach some HNFs fit below 2^31 and some do not: each
        member is either exact or refused, never wrong."""
        rng = random.Random(59)
        outcomes = []
        for _ in range(40):
            b = _random_full_rank(rng, 3, 2**12)
            try:
                out = hnf_stack([b])
            except Int64RangeError:
                outcomes.append("raised")
                continue
            assert tuple(map(tuple, out[0].tolist())) == hnf(b)
            outcomes.append("exact")
        assert set(outcomes) == {"raised", "exact"}

    def test_orbit_past_int64_takes_the_exact_path(self):
        b = ((1, 2**39 + 5, 3), (0, 2**20, 7), (0, 0, 2**20))
        assert congruence_orbit(b) == congruence_orbit_full_group(b)
        b = ((3, 2**70 + 1), (0, 2**80))
        assert congruence_orbit(b) == congruence_orbit_full_group(b)


class TestEnumeration:
    def test_counts_match_divisor_sums_2d(self):
        for m in range(1, 40):
            bases = list(enumerate_sublattices(2, m))
            assert len(bases) == _sigma(m)
            assert len(bases) == sublattice_count(2, m)
            assert len(set(bases)) == len(bases)
            for b in bases:
                assert is_hnf(b)
                assert det(b) == m
                assert hnf_det(b) == m

    def test_ordered_factorizations_are_every_tuple_in_order(self):
        for k in (1, 2, 3, 4):
            for m in range(1, 61):
                divisors = [d for d in range(1, m + 1) if m % d == 0]
                want = [t for t in product(divisors, repeat=k) if math.prod(t) == m]
                assert list(_ordered_factorizations(m, k)) == want, (m, k)

    def test_counts_match_divisor_sums_3d(self):
        for m in (1, 2, 3, 4, 6, 8, 12, 15, 16, 18, 24, 27):
            bases = list(enumerate_sublattices(3, m))
            assert len(bases) == _hnf_count_3d(m)
            assert len(bases) == sublattice_count(3, m)
            assert len(set(bases)) == len(bases)
            for b in bases:
                assert is_hnf(b)
                assert det(b) == m
                assert hnf_det(b) == m


class TestCanonical:
    def test_invariant_under_signed_permutations(self):
        rng = random.Random(19)
        for _ in range(25):
            n = rng.choice((2, 3))
            while True:
                b = tuple(tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(n))
                if det_nonzero(b):
                    break
            c = canonical_form(b)
            for t in signed_permutations(n):
                assert canonical_form(apply_transform(t, b)) == c

    def test_invariant_under_row_operations(self):
        rng = random.Random(23)
        for _ in range(25):
            n = rng.choice((2, 3))
            while True:
                b = tuple(tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(n))
                if det_nonzero(b):
                    break
            assert canonical_form(_random_unimodular_mix(rng, b)) == canonical_form(b)

    def test_known_congruent_pair(self):
        # the mod-7 residues 2 and 3 generate congruent planar lattices
        # (negation composed with inversion maps one to the other)
        assert canonical_form(((1, 2), (0, 7))) == canonical_form(((1, 3), (0, 7)))
        assert canonical_form(((1, 2), (0, 7))) != canonical_form(((1, 1), (0, 7)))

    @pytest.mark.parametrize("n,volume_hi", [(2, 40), (3, 12), (4, 4)])
    def test_orbit_matches_full_group(self, n, volume_hi):
        """-L = L, so the half group reaches every image that the full
        group does, and the canonical form is the least of them."""
        for m in range(1, volume_hi + 1):
            for b in enumerate_sublattices(n, m):
                orbit = congruence_orbit(b)
                assert orbit == congruence_orbit_full_group(b), b
                assert b in orbit
                assert canonical_form(b) == min(orbit)

    def test_planar_orbits_agree_on_both_paths(self):
        # congruence_orbit takes the exact path for n <= 2.
        for m in range(1, 41):
            for b in enumerate_sublattices(2, m):
                assert _orbit_stacked(b) == _orbit_exact(b) == congruence_orbit(b), b

    def test_canonical_is_hnf_of_itself(self):
        c = canonical_form(((3, 1), (1, 2)))
        assert is_hnf(c)
        assert canonical_form(c) == c


class TestCosets:
    def test_representatives_count_and_labels(self):
        for b in (((1, 5), (0, 24)), ((2, 3), (0, 6)), ((1, 0, 2), (0, 1, 3), (0, 0, 7))):
            h = hnf(b)
            box = list(product(*(range(h[i][i]) for i in range(len(h)))))
            labels = coset_labels(h, box)
            assert labels.dtype == np.int64
            assert labels.tolist() == list(range(det(h)))

    def test_label_is_lattice_periodic(self):
        rng = random.Random(31)
        h = hnf(((2, 3), (0, 6)))
        pts, shifted = [], []
        for _ in range(50):
            pt = (rng.randint(-20, 20), rng.randint(-20, 20))
            i, j = rng.randint(-4, 4), rng.randint(-4, 4)
            pts.append(pt)
            shifted.append(
                (
                    pt[0] + i * h[0][0] + j * h[1][0],
                    pt[1] + i * h[0][1] + j * h[1][1],
                )
            )
        assert coset_labels(h, pts).tolist() == coset_labels(h, shifted).tolist()

    @pytest.mark.parametrize("n,volume", [(1, 9), (2, 12), (3, 8), (4, 4)])
    def test_stacked_labels_equal_per_basis_labels(self, n, volume):
        rng = random.Random(43 + n)
        bases = list(enumerate_sublattices(n, volume))
        pts = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(40)]
        stacked = coset_labels(bases, pts)
        assert stacked.dtype == np.int64 and stacked.shape == (len(bases), 40)
        for b, row in zip(bases, stacked):
            assert row.tolist() == coset_labels(b, pts).tolist()
        assert coset_labels(bases[:1], pts).shape == (1, 40)

    def test_points_per_basis_equal_per_basis_labels(self):
        rng = random.Random(47)
        bases = list(enumerate_sublattices(3, 8))
        pts = [
            [[rng.randint(-9, 9) for _ in range(3)] for _ in range(20)]
            for _ in bases
        ]
        stacked = coset_labels(bases, pts)
        assert stacked.shape == (len(bases), 20)
        for b, own, row in zip(bases, pts, stacked):
            assert row.tolist() == coset_labels(b, own).tolist()

    def test_contains_matches_label(self):
        h = hnf(((1, 4), (0, 9)))
        rng = random.Random(37)
        pts = [(rng.randint(-15, 15), rng.randint(-15, 15)) for _ in range(60)]
        for pt, label in zip(pts, coset_labels(h, pts)):
            assert contains(h, pt) == (label == 0)


class TestDistances:
    def test_closest_distance_matches_brute(self):
        rng = random.Random(41)
        for _ in range(40):
            n = rng.choice((2, 3))
            m = rng.randint(2, 30)
            bases = list(enumerate_sublattices(n, m))
            h = rng.choice(bases)
            p = rng.choice((1, 2, 3, 4))
            pt = tuple(rng.randint(-8, 8) for _ in range(n))
            assert closest_lattice_distance_pow(h, p, pt) == brute_dist_pow(h, p, pt)

    def test_zero_iff_member(self):
        h = hnf(((1, 4), (0, 9)))
        assert closest_lattice_distance_pow(h, 2, (1, 4)) == 0
        assert closest_lattice_distance_pow(h, 2, (0, 9)) == 0
        assert closest_lattice_distance_pow(h, 2, (0, 1)) > 0

    def test_shortest_vector_matches_brute(self):
        rng = random.Random(43)
        for _ in range(30):
            n = rng.choice((2, 3))
            m = rng.randint(2, 40)
            h = rng.choice(list(enumerate_sublattices(n, m)))
            p = rng.choice((1, 2, 3))
            [s] = shortest_vector_pow([h], p)
            assert s == brute_shortest_pow(h, p)
            assert s in distance_set(n, p, max(s, 4))

    @given(st.integers(min_value=2, max_value=25), st.integers(min_value=1, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_shortest_vector_attained(self, m, p):
        h = next(iter(enumerate_sublattices(2, m)))
        assert shortest_vector_pow([h], p) == [brute_shortest_pow(h, p)]


def det_nonzero(b):
    try:
        return det(b) != 0
    except SingularMatrixError:
        return False
