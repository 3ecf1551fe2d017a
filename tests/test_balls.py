"""Exact ball machinery: integer roots, distance sets, counts, shapes.

Oracles: direct nested-loop enumeration (conftest) and closed forms
recomputed inline.  Nothing here trusts the sieve it is testing.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lpcodes.balls as balls
from lpcodes.balls import (
    algorithm_radii,
    ball_points,
    distance_set,
    is_representable,
    iroot,
    mu,
    pow_radius_of,
    real_root,
    successor,
    unit_ball_volume,
)

from conftest import BallCase, _ball_points_brute, classify_ball


class TestIroot:
    def test_perfect_powers_and_neighbours(self):
        for base in (0, 1, 2, 3, 7, 10, 123):
            for p in (1, 2, 3, 5, 8):
                s = base**p
                assert iroot(s, p) == base
                if s > 0:
                    assert iroot(s - 1, p) == base - 1
                assert iroot(s + 1, p) == base + (1 if base == 0 or p == 1 else 0)

    def test_huge_values_are_exact(self):
        # float-based roots go wrong near 10**17; these must not
        s = 10**30
        assert iroot(s, 2) == 10**15
        assert iroot(s - 1, 2) == 10**15 - 1
        assert iroot((10**10 + 1) ** 3 - 1, 3) == 10**10

    @given(st.integers(min_value=0, max_value=10**12), st.integers(min_value=1, max_value=7))
    @settings(max_examples=60, deadline=None)
    def test_definition(self, s, p):
        k = iroot(s, p)
        assert k**p <= s < (k + 1) ** p


    def test_matches_brute_force(self):
        for p in range(1, 8):
            k = 0
            for s in range(20_000):
                while (k + 1) ** p <= s:
                    k += 1
                assert iroot(s, p) == k, (s, p)

    @pytest.mark.parametrize("p", [3, 7, 100, 1100])
    def test_exact_past_the_float_range(self, p):
        for k in (2 ** (1024 // p + 1) + 1, 10 ** (400 // p + 1) + 7):
            s = k**p
            assert s >= 2**1024
            assert (iroot(s - 1, p), iroot(s, p), iroot(s + 1, p)) == (k - 1, k, k)


class TestRealRoot:
    def test_bit_identical_to_the_float_power_in_range(self):
        for s in (0, 1, 2, 5, 10**17 + 3, 2**1023, 2**1024 - 2**971):
            for p in (1, 2, 3, 4, 1100):
                assert real_root(s, p) == s ** (1.0 / p)

    def test_finite_past_the_float_range(self):
        assert real_root(2**1100, 1100) == pytest.approx(2.0, rel=1e-12)
        assert real_root(10**400, 2) == pytest.approx(1e200, rel=1e-12)


class TestDistanceSet:
    def test_matches_brute_force_small_grid(self):
        for n in (1, 2, 3):
            for p in (1, 2, 3, 4):
                limit = 60
                expected = sorted(
                    {
                        sum(c**p for c in combo)
                        for combo in _cartesian_nonneg(n, iroot(limit, p))
                        if sum(c**p for c in combo) <= limit
                    }
                )
                assert list(distance_set(n, p, limit)) == expected

    def test_two_squares_prefix(self):
        # first attainable values for sums of two squares
        assert distance_set(2, 2, 50) == (
            0, 1, 2, 4, 5, 8, 9, 10, 13, 16, 17, 18, 20, 25, 26, 29, 32,
            34, 36, 37, 40, 41, 45, 49, 50,
        )

    def test_monotone_in_dimension(self):
        d2 = set(distance_set(2, 3, 200))
        d3 = set(distance_set(3, 3, 200))
        assert d2 <= d3

    def test_sieve_and_direct_paths_agree(self, monkeypatch):
        reference = distance_set(2, 3, 500)
        distance_set.cache_clear()
        monkeypatch.setattr(balls, "_SIEVE_LIMIT", 100)
        try:
            assert distance_set(2, 3, 500) == reference
        finally:
            distance_set.cache_clear()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("p", range(1, 8))
    def test_successor_is_the_least_larger_element(self, n, p):
        # Every s below 300, and every p-th power k^p: at n = 1 its
        # successor (k + 1)^p is the very limit `successor` sieves to.
        powers = [k**p for k in range(7)]
        queries = set(range(300)) | set(powers)
        big = 2 * max(queries) + 8**p
        elements = distance_set(n, p, big)
        for s in sorted(queries):
            larger = [e for e in elements if e > s]
            assert larger, (n, p, s)  # big is past the successor
            assert successor(n, p, s) == min(larger), (n, p, s)
        if n == 1:
            assert [successor(1, p, s) for s in powers] == [
                k**p for k in range(1, 8)
            ]

    def test_successor_across_wide_gaps(self):
        # for n=1 the attainable values are bare p-th powers, so at p=6
        # the successor of 64 lies more than ten times past it
        assert successor(1, 6, 64) == 729
        assert successor(2, 2, 37) == 40
        assert successor(2, 2, 49) == 50
        assert successor(2, 2, 50) == 52
        assert successor(2, 2, 0) == 1


def _radii_walk(n, p, volume):
    """(s_r, s_R) by walking the distance set up from 0, one successor
    at a time: the oracle for the bisection in `algorithm_radii`."""
    s = 0
    nxt = successor(n, p, 0)
    while mu(n, p, nxt) <= volume:
        s = nxt
        nxt = successor(n, p, nxt)
    return s, nxt


class TestAlgorithmRadii:
    @pytest.mark.parametrize(
        "n,p,volume_max",
        [
            (1, 1, 300), (1, 3, 300),
            (2, 1, 600), (2, 2, 600), (2, 3, 600), (2, 4, 600), (2, 7, 600),
            (3, 1, 300), (3, 3, 300), (3, 2, 1419),
            (4, 2, 400),
        ],
    )
    def test_bisection_matches_the_walk(self, n, p, volume_max):
        for volume in range(1, volume_max + 1):
            assert algorithm_radii(n, p, volume) == _radii_walk(n, p, volume)

    def test_past_the_float_range(self):
        for volume in range(1, 13):
            assert algorithm_radii(2, 1100, volume) == _radii_walk(2, 1100, volume)
        assert algorithm_radii(2, 1100, 12)[1] == 2**1100

    def test_rejects_nonpositive_volume(self):
        with pytest.raises(ValueError):
            algorithm_radii(2, 2, 0)


class TestMuAndPoints:
    def test_mu_matches_brute_force_grid(self):
        for n in (1, 2, 3):
            for p in (1, 2, 3):
                for s in range(0, 40):
                    if n == 1:
                        expected = 2 * iroot(s, p) + 1
                    else:
                        expected = len(_ball_points_brute(n, p, s))
                    assert mu(n, p, s) == expected, (n, p, s)

    def test_mu_negative_radius(self):
        assert mu(2, 2, -1) == 0

    def test_mu_strict_increase_exactly_on_distance_set(self):
        d = set(distance_set(2, 3, 120))
        for s in range(1, 121):
            assert (mu(2, 3, s) > mu(2, 3, s - 1)) == (s in d)

    def test_ball_points_lexicographic_and_complete(self):
        pts = ball_points(2, 2, 10)
        assert pts == sorted(pts)
        assert set(pts) == set(_ball_points_brute(2, 2, 10))
        assert len(pts) == mu(2, 2, 10)

    def test_ball_points_rejects_negative(self):
        with pytest.raises(ValueError):
            ball_points(2, 2, -1)

    def test_is_representable(self):
        d = set(distance_set(2, 2, 100))
        for s in range(101):
            assert is_representable(2, 2, s) == (s in d)


class TestClassify:
    def test_classified_counts_match_mu(self):
        # every classified shape's closed-form count must equal the
        # honest count at the corresponding pow-radius
        seen = set()
        for n in (2, 3):
            for p in (1, 2, 3, 4, 5):
                for twice_r in range(2, 17):
                    r = Fraction(twice_r, 2)
                    shape = classify_ball(n, p, r)
                    seen.add(shape.case)
                    if shape.case is not BallCase.UNCLASSIFIED:
                        s = pow_radius_of(r, p)
                        assert shape.predicted_mu == mu(n, p, s), (n, p, r)
        assert {
            BallCase.CASE_I,
            BallCase.CASE_II,
            BallCase.CASE_III,
            BallCase.CASE_IV,
        } <= seen

    def test_conflicting_side_conditions_left_unclassified(self):
        conflicts = 0
        for n in (2, 3):
            for p in (1, 2, 3, 4):
                for r in range(2, 12):
                    shape = classify_ball(n, p, r)
                    if shape.predicate_conflict:
                        conflicts += 1
                        assert shape.case is BallCase.UNCLASSIFIED
                        assert shape.predicted_mu is None
        assert conflicts > 0

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            classify_ball(2, 2, 0)


class TestScalars:
    def test_pow_radius_of(self):
        assert pow_radius_of(3, 2) == 9
        assert pow_radius_of(Fraction(5, 2), 2) == 6
        assert pow_radius_of(Fraction(5, 2), 3) == 15
        # floor at an exact integer power stays exact
        assert pow_radius_of(Fraction(8, 2), 2) == 16

    def test_unit_ball_volume_closed_forms(self):
        assert unit_ball_volume(2, 2) == pytest.approx(math.pi, abs=1e-12)
        assert unit_ball_volume(3, 2) == pytest.approx(4 * math.pi / 3, abs=1e-12)
        assert unit_ball_volume(2, 1) == pytest.approx(2.0, abs=1e-12)
        assert unit_ball_volume(3, 1) == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert unit_ball_volume(2, 4) == pytest.approx(
            4 * math.gamma(1.25) ** 2 / math.gamma(1.5), abs=1e-9
        )

    def test_unit_ball_volume_monte_carlo(self):
        # cheap deterministic grid estimate as an independent sanity check
        grid = 400
        inside = sum(
            1
            for i in range(grid)
            for j in range(grid)
            if ((i + 0.5) / grid) ** 3 + ((j + 0.5) / grid) ** 3 <= 1.0
        )
        estimate = 4.0 * inside / grid**2
        assert unit_ball_volume(2, 3) == pytest.approx(estimate, abs=2e-2)


def _cartesian_nonneg(n, k):
    if n == 1:
        return [(c,) for c in range(k + 1)]
    return [(c, *rest) for c in range(k + 1) for rest in _cartesian_nonneg(n - 1, k)]
