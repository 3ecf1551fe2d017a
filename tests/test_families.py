"""Explicit constructions, admissibility thresholds, and density bounds.

Family predictions are cross-checked with full analyze() runs; thresholds
against their defining inequalities evaluated in exact integers; bound
rows against closed-form float recomputation and the frozen table rows.
"""

import math
from fractions import Fraction

import pytest

from lpcodes import families
from lpcodes.analysis import analyze
from lpcodes.balls import distance_set_at_least, mu, successor, unit_ball_volume
from lpcodes.errors import HypothesisViolatedError
from lpcodes.families import (
    BEST_COVERING_DENSITY,
    BEST_PACKING_DENSITY,
    bound_report,
    bound_row,
    family,
    min_p_threshold_A,
    neighbors_in_distance_set,
    p_range_B,
    perfect_radius_bound,
)
from lpcodes.lattices import canonical_form

from conftest import det
from reference_data import (
    BOUND_RANGES_P2,
    FAMILY_A_R3_CATALOG_TWIN,
    LAST_FEASIBLE_PERFECT_INEQ7,
    LAST_FEASIBLE_QUASI_INEQ7,
    LAST_FEASIBLE_QUASI_INEQ8,
    MAX_SEARCH_VOLUME_2D,
    PERFECT_RADIUS_BOUND_RPOW,
    TABLE1_ROWS,
    TABLE3_ROWS,
    TABLE4_REFERENCE_EXTRA_CELLS,
    TABLE4_ROWS,
)


class TestFamilyA:
    def test_predictions_verified_r_up_to_8(self):
        for r in range(2, 9):
            base_p = min_p_threshold_A(r)
            for p in range(base_p, base_p + 3):
                spec = family("A", r, p)
                assert spec.det == abs(det(spec.basis)) == 4 * r * r - r
                a = analyze(spec.basis, p)
                assert a.t == spec.predicted_t, (r, p)
                assert a.disc_pack_density == spec.predicted_disc_density, (r, p)

    def test_prediction_verified_with_radii_past_int64(self):
        """r = 24, p = 17: radii near 24^17, above 2^63."""
        spec = family("A", 24, 17)
        a = analyze(spec.basis, 17)
        assert spec.det == 2280 and a.R_pow > 2**63
        assert a.t == spec.predicted_t == 22
        assert a.disc_pack_density == spec.predicted_disc_density

    def test_below_threshold_raises(self):
        for r in (3, 5, 8):
            with pytest.raises(HypothesisViolatedError):
                family("A", r, min_p_threshold_A(r) - 1)

    def test_r3_is_congruent_to_catalog_entry(self):
        spec = family("A", 3, 2)
        assert canonical_form(spec.basis) == canonical_form(
            FAMILY_A_R3_CATALOG_TWIN
        )

    def test_rejects_nonintegral_r(self):
        with pytest.raises(HypothesisViolatedError):
            family("A", Fraction(5, 2), 3)


class TestFamilyB:
    def test_predictions_verified_r_up_to_8(self):
        for r in range(3, 9):
            admitted = p_range_B(r)
            assert admitted, r
            for p in admitted:
                spec = family("B", r, p)
                assert spec.det == abs(det(spec.basis)) == 4 * r * r - r - 1
                assert spec.predicted_t == r - 1
                a = analyze(spec.basis, p)
                assert a.t == spec.predicted_t, (r, p)
                assert a.disc_pack_density == spec.predicted_disc_density, (r, p)

    def test_outside_range_raises(self):
        for r in (3, 6, 8):
            bad = max(p_range_B(r)) + 1
            with pytest.raises(HypothesisViolatedError):
                family("B", r, bad)


class TestFamiliesCD:
    @pytest.mark.parametrize(
        "kind,r,p,expected_det,expected_t",
        [
            ("C", Fraction(3, 2), 1, 7, 1),
            ("C", Fraction(5, 2), 2, 23, 1),
            ("D", Fraction(11, 5), 2, 19, 2),
        ],
    )
    def test_examples_verified(self, kind, r, p, expected_det, expected_t):
        spec = family(kind, r, p)
        assert spec.det == expected_det
        assert spec.predicted_t == expected_t
        a = analyze(spec.basis, p)
        assert a.t == spec.predicted_t
        assert a.disc_pack_density == spec.predicted_disc_density

    def test_rejects_integer_r(self):
        with pytest.raises(HypothesisViolatedError):
            family("C", 2, 1)
        with pytest.raises(HypothesisViolatedError):
            family("D", 3, 2)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            family("E", Fraction(3, 2), 1)


class TestThresholdTables:
    def test_min_p_rows(self):
        for r, expected in TABLE3_ROWS:
            got = min_p_threshold_A(r)
            assert got == expected
            # defining property, re-checked in exact integers
            assert 2 * (r - 1) ** got <= r**got
            if got > 1:
                assert 2 * (r - 1) ** (got - 1) > r ** (got - 1)

    def test_p_range_rows(self):
        for r, expected in TABLE4_ROWS:
            got = p_range_B(r)
            assert tuple(got) == expected
            for p in got:
                assert 2 * (r - 1) ** p > r**p
                assert (r - 1) ** p + (r - 2) ** p <= r**p

    def test_reference_rendering_divergence_is_pinned(self):
        """The bundled rendering of the p-range table adds exactly two
        cells beyond the predicate; both coincide with the family-A
        threshold for their r, fail B's first hypothesis, and (at r=3)
        contradict the (r-1)-imperfection claim outright."""
        table4 = dict(TABLE4_ROWS)
        for r, extra_p in TABLE4_REFERENCE_EXTRA_CELLS:
            assert extra_p not in table4[r]
            assert extra_p == min_p_threshold_A(r)
            assert 2 * (r - 1) ** extra_p <= r**extra_p
        spec = family("B", 3, 1)
        assert analyze(spec.basis, 2).t == 3  # not r - 1 == 2 at the added cell
        # the r=6 cell measures t = 5 = r-1 after all, but the failed
        # first hypothesis keeps it outside the generated predicate rows
        assert analyze(((5, 11), (12, -1)), 4).t == 5


class TestBounds:
    def test_bound_row_closed_forms(self):
        for n, p, r_pow in ((2, 2, 74), (2, 2, 49), (3, 2, 10), (2, 3, 35)):
            row = bound_row(n, p, r_pow, "quasiperfect")
            r = r_pow ** (1.0 / p)
            nroot = n ** (1.0 / p)
            assert row.mu == mu(n, p, r_pow)
            assert row.delta_lower == pytest.approx(
                ((2 * r - nroot) / (2 * r + nroot)) ** n, rel=1e-12
            )
            succ = successor(n, p, r_pow)
            vol = unit_ball_volume(n, p)
            assert row.theta_upper_7 == pytest.approx(
                vol * (succ ** (1.0 / p) + nroot / 2) ** n / row.mu, rel=1e-12
            )
            assert row.theta_upper_8 == pytest.approx(
                vol * (r + nroot) ** n / row.mu, rel=1e-12
            )

    def test_perfect_mode_uses_radius_itself(self):
        row = bound_row(2, 2, 49, "perfect")
        vol = unit_ball_volume(2, 2)
        assert row.theta_upper_7 == pytest.approx(
            vol * (7.0 + math.sqrt(2) / 2) ** 2 / row.mu, rel=1e-12
        )

    def test_unrepresentable_radius_rejected(self):
        with pytest.raises(ValueError):
            bound_row(2, 2, 3, "quasiperfect")

    def test_frozen_table_rows(self):
        for block, r_pow, mu_expected, delta, theta7, theta8 in TABLE1_ROWS:
            row = bound_row(2, 2, r_pow, block)
            assert row.mu == mu_expected
            assert row.delta_lower == pytest.approx(delta, abs=5e-4)
            assert row.theta_upper_7 == pytest.approx(theta7, abs=5e-4)
            if theta8 is not None:
                assert row.theta_upper_8 == pytest.approx(theta8, abs=5e-4)

    def test_anchor_radii(self):
        theta = BEST_COVERING_DENSITY[(2, 2)]
        assert bound_report(2, 2, theta, "quasiperfect", 7).r_pow_max == (
            LAST_FEASIBLE_QUASI_INEQ7
        )
        assert bound_report(2, 2, theta, "quasiperfect", 8).r_pow_max == (
            LAST_FEASIBLE_QUASI_INEQ8
        )
        assert bound_report(2, 2, theta, "perfect", 7).r_pow_max == (
            LAST_FEASIBLE_PERFECT_INEQ7
        )
        # infeasibility on the far side of each anchor
        succ7 = successor(2, 2, 74)
        assert bound_row(2, 2, succ7).theta_upper_7 < theta
        assert bound_row(2, 2, 74).theta_upper_7 >= theta

    def test_perfect_radius_bound(self):
        bound, r_pow_max = perfect_radius_bound(2, 2, BEST_PACKING_DENSITY[(2, 2)])
        assert r_pow_max == PERFECT_RADIUS_BOUND_RPOW
        assert bound == pytest.approx(28.9489, abs=5e-4)
        with pytest.raises(ValueError):
            perfect_radius_bound(2, 2, 1.2)

    def test_volume_max(self):
        theta = BEST_COVERING_DENSITY[(2, 2)]
        assert bound_report(2, 2, theta).volume_max == MAX_SEARCH_VOLUME_2D

    @pytest.mark.parametrize("n", sorted(BOUND_RANGES_P2))
    def test_pinned_p2_ranges(self, n):
        rep = bound_report(n, 2, BEST_COVERING_DENSITY[(n, 2)])
        assert (rep.r_pow_max, rep.volume_max) == BOUND_RANGES_P2[n]

    @pytest.mark.parametrize("n, distinct", [(2, 119), (3, 168)])
    def test_one_row_per_radius(self, monkeypatch, n, distinct):
        """One report computes each scanned radius's row exactly once."""
        calls = []

        def counted(*args):
            calls.append(args[2])
            return bound_row(*args)

        monkeypatch.setattr(families, "bound_row", counted)
        bound_report(n, 2, BEST_COVERING_DENSITY[(n, 2)])
        assert len(calls) == len(set(calls)) == distinct

    @pytest.mark.parametrize(
        "n, p, theta, mode, inequality",
        [
            (2, 2, BEST_COVERING_DENSITY[(2, 2)], "quasiperfect", 7),
            (2, 2, BEST_COVERING_DENSITY[(2, 2)], "quasiperfect", 8),
            (2, 2, BEST_COVERING_DENSITY[(2, 2)], "perfect", 7),
            (3, 2, BEST_COVERING_DENSITY[(3, 2)], "quasiperfect", 7),
            (4, 2, BEST_COVERING_DENSITY[(4, 2)], "quasiperfect", 7),
            (2, 1, 1.5, "quasiperfect", 7),
            (3, 1, 1.5, "quasiperfect", 7),
            (2, 3, 1.2, "quasiperfect", 7),
            (2, 4, 1.25, "quasiperfect", 7),
            (2, 5, 1.3, "quasiperfect", 7),
        ],
    )
    def test_stop_rule_misses_no_feasible_radius(self, n, p, theta, mode, inequality):
        """Brute force far past the stop: every feasible radius up to
        max(50 r_pow_max, 2000) is a row of the report, and no other."""
        rep = bound_report(n, p, theta, mode, inequality)
        limit = max(50 * rep.r_pow_max, 2000)
        feasible = []
        for s in distance_set_at_least(n, p, limit):
            if 0 < s <= limit:
                row = bound_row(n, p, s, mode)
                bound = row.theta_upper_7 if inequality == 7 else row.theta_upper_8
                if bound >= theta:
                    feasible.append(s)
        assert [row.r_pow for row in rep.rows] == feasible

    def test_invalid_arguments_rejected(self):
        for theta in (1.0, 0.5, math.inf, math.nan):
            with pytest.raises(ValueError):
                bound_report(2, 2, theta)
        with pytest.raises(ValueError):
            bound_report(2, 2, 1.2, inequality=9)

    def test_delta_lower_is_zero_below_the_cell_diagonal(self):
        """When 2r < n^(1/p) the inner ball is empty, so the packing
        bound is 0, not a power of a negative base."""
        for n in (3, 4):
            assert bound_row(n, 1, 1).delta_lower == 0.0
        for n in (2, 3, 4):
            assert bound_row(n, 2, 0).delta_lower == 0.0
        assert bound_row(2, 1, 1).delta_lower == 0.0
        assert bound_row(2, 1, 2).delta_lower == pytest.approx((2 / 6) ** 2)

    def test_bound_report_shape(self):
        theta = BEST_COVERING_DENSITY[(2, 2)]
        rep = bound_report(2, 2, theta, "quasiperfect")
        assert rep.r_pow_max == LAST_FEASIBLE_QUASI_INEQ7
        assert rep.rows[-1].r_pow == rep.r_pow_max
        assert rep.volume_max == MAX_SEARCH_VOLUME_2D
        assert all(
            rep.rows[i].r_pow < rep.rows[i + 1].r_pow
            for i in range(len(rep.rows) - 1)
        )


class TestNeighbors:
    def test_windows_around_anchors(self):
        assert neighbors_in_distance_set(2, 2, 74) == (72, 73, 74, 80, 81)
        assert neighbors_in_distance_set(2, 2, 196) == (193, 194, 196, 197, 200)
        assert neighbors_in_distance_set(2, 2, 49) == (41, 45, 49, 50, 52)
        assert neighbors_in_distance_set(2, 2, 833) == (829, 832, 833, 841, 842)

    def test_asymmetric_window(self):
        assert neighbors_in_distance_set(2, 2, 74, before=1, after=0) == (73, 74)

    def test_successors_past_a_wide_gap(self):
        # n = 1, p = 10: the elements are the tenth powers 0, 1, 1024, ...
        assert neighbors_in_distance_set(1, 10, 1) == (0, 1, 1024, 59049)


class TestConstants:
    def test_best_density_values(self):
        assert BEST_PACKING_DENSITY[(2, 2)] == pytest.approx(
            math.pi / math.sqrt(12), rel=1e-12
        )
        assert BEST_COVERING_DENSITY[(2, 2)] == pytest.approx(
            2 * math.pi / math.sqrt(27), rel=1e-12
        )
        assert BEST_COVERING_DENSITY[(3, 2)] == pytest.approx(
            5 * math.sqrt(5) * math.pi / 24, rel=1e-12
        )
        assert BEST_COVERING_DENSITY[(4, 2)] == pytest.approx(
            2 * math.sqrt(5) * math.pi**2 / 25, rel=1e-12
        )
        assert BEST_COVERING_DENSITY[(4, 2)] == pytest.approx(1.76553, abs=1e-5)
