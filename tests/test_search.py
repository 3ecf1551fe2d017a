"""Search pipeline tests.

The congruence-sieve pipeline must agree class-for-class with a slow
reference loop that enumerates every sublattice and analyzes each one
directly, under every imperfection cap; that loop lives here and shares
nothing with the sieve but the analyzer.  Volume by volume, the sieve's
survivors must also be exactly the sublattices that pass the labeling
injectivity test, each sieve mask must match coset membership cell by
cell (the reflection x_n -> -x_n and the unit-row path included), the
ball-difference grid must match every pairwise difference, every volume
and every HNF diagonal the Hermite screen skips must have no survivor, the batched covering test must agree with the covering
radius, and the covering-radius cap the pipeline relies on is checked
against the analyzer.  Determinism across worker counts and time
slices, the pool's order and error path, checkpoint resume semantics,
dedupe behavior, and the serialization helpers each get their own checks, and the disputed rows of the bundled 3-D catalog
are re-measured through the brute-force oracles in conftest.
"""

import dataclasses
import json
import math
import multiprocessing
import time
import tracemalloc
from collections import Counter
from concurrent.futures import Future
from functools import cache
from itertools import product

import numpy as np
import pytest

import lpcodes.search
from conftest import brute_covering_pow, brute_packing_pow, difference_grid_pairwise
from lpcodes import LpCodesError, VerificationError
from lpcodes.analysis import analyze, analyze_stack, covering_radius_pow
from lpcodes.balls import ball_points, distance_set_at_least, mu, successor
from lpcodes.cli import (
    CSV_FIELDS,
    analysis_display,
    compact_basis,
    report_csv_rows,
    report_to_dict,
)
from lpcodes.errors import CheckpointError
from lpcodes.lattices import (
    _ordered_factorizations,
    canonical_form,
    congruence_orbit,
    coset_labels,
    enumerate_sublattices,
    hnf,
    hnf_count,
    hnf_det,
    sublattice_count,
)
from lpcodes.search import (
    SearchCounts,
    SearchQuery,
    _GCD_TABLE_MAX,
    _GROUP,
    _HERMITE,
    _SIEVES,
    _ball_diffs,
    _diagonal_groups,
    _diagonal_screened,
    _difference_grid,
    _gcd_flat,
    _gcd_inverse,
    _gcd_rows,
    _hermite_screened,
    _packing_floor,
    _run_task,
    _sieve_diagonals,
    algorithm_radii,
    checkpoint_header,
    covering_test,
    covering_verdicts,
    injectivity_test,
    load_checkpoint,
    run_search,
)
from reference_data import (
    CATALOG_3D_BOGUS,
    CATALOG_3D_BOGUS_T,
    CATALOG_3D_CORRECTED,
    PERFECT_CLASSES_2D_P2,
)


@cache
def _reference_analyses(n, p, volume):
    """(basis, analysis) for every index-`volume` sublattice."""
    return tuple(
        (basis, analyze(basis, p)) for basis in enumerate_sublattices(n, volume)
    )


def reference_hits(n, p, volume_hi, t_max, volume_lo=1):
    """Slow reference search: full analysis of every sublattice.

    Mirrors the reporting contract of the pipeline: under a cap of 0
    or 1 the packing radius of a reportable code is forced, so codes
    with packing radius zero are dropped except the trivial volume-1
    tiling.  Uncapped (or higher-capped) queries report everything.
    """
    forced = t_max is not None and t_max <= 1
    out = {}
    for volume in range(volume_lo, volume_hi + 1):
        for basis, a in _reference_analyses(n, p, volume):
            if forced and a.r_pow == 0 and volume > 1:
                continue
            if t_max is not None and a.t > t_max:
                continue
            out.setdefault(canonical_form(basis), a)
    return out


def assert_same_classes(report, want):
    got = dict(report.hits)
    assert set(got) == set(want)
    for basis, a in got.items():
        w = want[basis]
        assert (a.det, a.t, a.r_pow, a.R_pow) == (w.det, w.t, w.r_pow, w.R_pow)
        assert a.disc_pack_density == w.disc_pack_density
        assert a.disc_cover_density == w.disc_cover_density


def sieved_radii(n, p, volume_hi):
    """r_min of every volume to volume_hi under caps 1 and 2: the radii
    whose differences those searches sieve."""
    radii = set()
    for volume in range(1, volume_hi + 1):
        s_r, _ = algorithm_radii(n, p, volume)
        elements = distance_set_at_least(n, p, s_r)
        i = elements.index(s_r)
        radii |= set(elements[max(i - 1, 0) : i + 1])
    return radii


SIEVED_RANGES = [
    (1, 2, 30), (2, 1, 80), (2, 2, 241), (2, 3, 300), (2, 4, 600),
    (3, 1, 40), (3, 2, 200), (3, 3, 120), (4, 2, 100),
]


class TestPrimitives:
    def test_known_code_passes_and_fails_where_expected(self):
        basis = ((1, 2), (0, 5))
        assert injectivity_test(basis, 2, 1)
        assert not injectivity_test(basis, 2, 2)
        assert covering_test(basis, 2, 1)
        assert not covering_test(basis, 2, 0)

    def test_radii_bracket_the_volume(self):
        for n, p in ((2, 2), (2, 3), (3, 2)):
            for volume in range(1, 40):
                s_r, s_R = algorithm_radii(n, p, volume)
                assert mu(n, p, s_r) <= volume < mu(n, p, s_R)
                assert s_R == successor(n, p, s_r)

    def test_ball_diffs_match_direct_enumeration(self):
        cases = (
            (2, 2, 4), (3, 2, 2), (2, 3, 8), (1, 2, 9), (1, 1, 3),
            (4, 2, 2), (4, 1, 1), (1, 2, 0), (2, 2, 0), (4, 2, 0),
        )
        for n, p, s in cases:
            pts = ball_points(n, p, s)
            want = set()
            for a in pts:
                for b in pts:
                    d = tuple(x - y for x, y in zip(a, b))
                    if any(d):
                        lead = next(v for v in d if v)
                        want.add(d if lead > 0 else tuple(-v for v in d))
            diffs = _ball_diffs(n, p, s)
            assert diffs.dtype == np.int64 and diffs.shape == (len(want), n)
            assert not diffs.flags.writeable
            rows = [tuple(int(v) for v in row) for row in diffs]
            assert rows == sorted(want), (n, p, s)

    @pytest.mark.parametrize("n,p,volume_hi", SIEVED_RANGES)
    def test_difference_grid_matches_every_pair(self, n, p, volume_hi):
        for s in sorted(sieved_radii(n, p, volume_hi) | {0}):
            grid = _difference_grid(n, p, s)
            assert not grid.flags.writeable
            assert np.array_equal(grid, difference_grid_pairwise(n, p, s)), s


class TestSieve:
    """The congruence sieve against the labeling oracle: the survivors
    of one volume are exactly the sublattices whose injectivity test
    passes at the forced packing radius, each once."""

    @pytest.mark.parametrize(
        "n,p,volumes",
        [
            (1, 2, range(1, 16)),
            (2, 1, range(1, 31)),
            (2, 3, range(1, 31)),
            (3, 2, range(1, 21)),
            (3, 1, range(7, 15)),
            (4, 2, range(8, 13)),
            (4, 1, range(9, 12)),
        ],
    )
    def test_survivors_are_the_injective_sublattices(self, n, p, volumes):
        for volume in volumes:
            s_r, _ = algorithm_radii(n, p, volume)
            diffs = _ball_diffs(n, p, s_r)
            rows = list(_SIEVES[n](volume, diffs))
            assert all(r.shape == (n, n) and r.dtype == np.int64 for r in rows)
            got = [tuple(map(tuple, row)) for row in rows]
            assert len(got) == len(set(got)), volume
            want = {
                b
                for b in enumerate_sublattices(n, volume)
                if injectivity_test(b, p, s_r)
            }
            assert set(got) == want, volume
            # The diagonal screen drops no survivor and changes no order.
            screened = _SIEVES[n](volume, diffs, _packing_floor(n, p, s_r))
            assert [tuple(map(tuple, row)) for row in screened] == got


def hnf_stack(diag):
    """Every HNF with diagonal `diag`, as a (B, n, n) int64 stack in
    mixed-radix entry order: column j adds j digits of radix d_j, row 0
    first, the earlier columns more significant."""
    n = len(diag)
    slots = [(i, j) for j in range(n) for i in range(j)]
    sizes = [diag[j] for _, j in slots]
    digits = np.indices(sizes).reshape(len(slots), math.prod(sizes))
    stack = np.zeros((digits.shape[1], n, n), dtype=np.int64)
    stack[:, range(n), range(n)] = diag
    for (i, j), column in zip(slots, digits):
        stack[:, i, j] = column
    return stack


def contains_a_difference(stack, diffs):
    """True for each HNF of `stack` whose lattice contains one of
    `diffs`: v lies in the lattice exactly when its coset label is 0."""
    want = np.zeros(len(stack), dtype=bool)
    size = max(1, (1 << 18) // max(len(diffs), 1))
    for lo in range(0, len(stack), size):
        labels = coset_labels(stack[lo : lo + size], diffs)
        want[lo : lo + size] = (labels == 0).any(axis=1)
    return want


class TestSieveMasks:
    """The masks of `_sieve_diagonals` against direct membership.  Each
    volume's unscreened diagonals are sieved in one call, so every mask
    is read at its diagonal's offset.  The ranges give last diagonal
    entries d_n <= 2, even and odd, and both unit and non-unit c_{n-2} in
    the last column, so the reflection x_n -> -x_n, its bypass and both
    solution paths are all exercised; 2-D to 241 also sieves moduli
    above _GCD_TABLE_MAX."""

    @pytest.mark.parametrize(
        "n,p,volume_hi",
        [(3, 1, 60), (3, 2, 60), (3, 3, 60), (4, 1, 20), (4, 2, 20), (2, 2, 241)],
    )
    def test_masks_match_coset_membership(self, n, p, volume_hi):
        lasts = set()
        for volume in range(1, volume_hi + 1):
            s_r, _ = algorithm_radii(n, p, volume)
            diffs, floor = _ball_diffs(n, p, s_r), _packing_floor(n, p, s_r)
            if _hermite_screened(n, volume, floor):
                continue
            diags = [
                diag
                for diag in _ordered_factorizations(volume, n)
                if not _diagonal_screened(diag, floor)
            ]
            if not diags:
                continue
            bad, starts = _sieve_diagonals(diags, diffs)
            assert len(bad) == starts[-1]
            for q, diag in enumerate(diags):
                want = contains_a_difference(hnf_stack(diag), diffs)
                got = bad[starts[q] : starts[q + 1]]
                assert np.array_equal(got, want), (volume, diag)
                lasts.add(diag[-1])
        assert min(lasts) <= 2 and {d % 2 for d in lasts if d > 2} == {0, 1}
        assert n > 2 or max(lasts) > _GCD_TABLE_MAX

    def test_one_dimensional_cells_sit_at_their_offsets(self):
        # Diagonal (M,) has one cell, bad iff M divides a difference; the
        # differences at p = 2, s = 9 are 1..6.
        diags = [(d,) for d in range(1, 12)]
        bad, starts = _sieve_diagonals(diags, _ball_diffs(1, 2, 9))
        assert starts.tolist() == list(range(12))
        assert bad.tolist() == [d <= 6 for d in range(1, 12)]

    def test_one_column_step_spans_the_table_bound(self):
        # The four diagonals of 2-D volume 262 = 2 * 131 are sieved in one
        # call, so its column-1 step has the moduli 262 and 131 above
        # _GCD_TABLE_MAX and 2 and 1 below it, with rows whose c_0 is a
        # unit and rows whose c_0 is not on both sides.
        diags = list(_ordered_factorizations(262, 2))
        diffs = _ball_diffs(2, 3, 20)
        assert list(_diagonal_groups(diags, len(diffs))) == [diags]
        kinds = {
            (d1 > _GCD_TABLE_MAX, math.gcd(v0 // d0, d1) == 1)
            for d0, d1 in diags
            for v0, _ in diffs.tolist()
            if v0 % d0 == 0
        }
        assert kinds == set(product((False, True), repeat=2))
        bad, starts = _sieve_diagonals(diags, diffs)
        for q, diag in enumerate(diags):
            got = bad[starts[q] : starts[q + 1]]
            assert np.array_equal(got, contains_a_difference(hnf_stack(diag), diffs))
            if diag[1] > _GCD_TABLE_MAX:
                assert got.any() and not got.all(), diag

    def test_a_diagonal_past_the_group_bound_is_sieved_alone(self):
        # At 3-D volume 131 the diagonal (1, 1, 131) has 131^2 cells, more
        # than _GROUP, so it forms a group of its own.
        diags = list(_ordered_factorizations(131, 3))
        diffs = _ball_diffs(3, 2, 2)
        assert hnf_count((1, 1, 131)) > _GROUP
        assert hnf_count((1, 131, 1)) + hnf_count((131, 1, 1)) <= _GROUP
        groups = list(_diagonal_groups(diags, len(diffs)))
        assert groups == [[(1, 1, 131)], [(1, 131, 1), (131, 1, 1)]]
        # So does every diagonal once a group of two holds too many pairs.
        assert list(_diagonal_groups(diags[1:], _GROUP // 2 + 1)) == [
            [(1, 131, 1)], [(131, 1, 1)]
        ]
        stack = np.concatenate([hnf_stack(diag) for diag in diags])
        want = stack[~contains_a_difference(stack, diffs)]
        got = list(_SIEVES[3](131, diffs))
        assert len(got) == len(want) and np.array_equal(np.array(got), want)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_an_empty_difference_set_yields_every_hnf(self, n):
        empty = _ball_diffs(n, 2, 0)
        assert empty.shape == (0, n)
        for volume in (1, 2, 12):
            rows = list(_SIEVES[n](volume, empty))
            want = [hnf_stack(diag) for diag in _ordered_factorizations(volume, n)]
            assert np.array_equal(np.array(rows), np.concatenate(want)), volume

    def test_reflection_keeps_memory_near_the_mask(self):
        # numpy reports its buffers to tracemalloc.  The mirror copy is one
        # temporary of under half the mask; a flat index over the last
        # column's d^3 cells would hold 8 bytes per cell, 9.5 masks here.
        s_r, _ = algorithm_radii(4, 2, 160)
        diffs = _ball_diffs(4, 2, s_r)
        tracemalloc.start()
        try:
            mask, _ = _sieve_diagonals([(1, 1, 1, 160)], diffs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mask.nbytes == 160**3 and peak < 3 * mask.nbytes

    def test_gcd_inverse_and_tables_match_math(self):
        # Rows carry any integer c, negative ones included; a table is
        # indexed by c mod d.  For d <= _GCD_TABLE_MAX the flat table holds
        # _gcd_inverse(np.arange(d), d) at d(d-1)/2.
        flat = _gcd_flat(_GCD_TABLE_MAX)
        for d in range(1, 301):
            c = np.arange(-d, 2 * d, dtype=np.int64)
            g, s = (t.tolist() for t in _gcd_inverse(c, d))
            for c_i, g_i, s_i in zip(c.tolist(), g, s):
                want = math.gcd(c_i, d)
                assert g_i == want, (c_i, d)
                assert (s_i * c_i - want) % d == 0, (c_i, d)
                assert s_i % (d // want) == pow(c_i // want, -1, d // want), (c_i, d)
            if d <= _GCD_TABLE_MAX:
                table = [t[d * (d - 1) // 2 :][:d].tolist() for t in flat]
                assert table == [g[d : 2 * d], s[d : 2 * d]]

    def test_gcd_rows_match_math(self, monkeypatch):
        # A modulus per row, on both sides of _GCD_TABLE_MAX: c in
        # 0.._GCD_TABLE_MAX reads the tables of c, other c take Euclid.
        # One modulus m <= _GCD_TABLE_MAX reads its own table, a larger
        # one the tables of c or Euclid.
        rng = np.random.default_rng(7)
        m = rng.integers(1, 700, size=3000)
        cases = [(rng.integers(0, _GCD_TABLE_MAX + 1, size=3000), m),
                 (rng.integers(-300, 300, size=3000), m)]
        cases += [(np.arange(-d, 2 * d + 1), d) for d in range(1, 301)]
        # One modulus above _GCD_TABLE_MAX with every c in 0.._GCD_TABLE_MAX,
        # as `_sieve_column` gives it past 128, reads the tables of c alone:
        # Euclid is patched out once the largest flat table is cached.
        table_of_c = [
            (np.arange(_GCD_TABLE_MAX + 1), d) for d in range(_GCD_TABLE_MAX + 1, 301)
        ]

        def check(cases):
            for c, m in cases:
                g, inv = _gcd_rows(c, m)
                m = np.broadcast_to(m, c.shape)
                for c_i, m_i, g_i, s_i in zip(
                    c.tolist(), m.tolist(), g.tolist(), inv.tolist()
                ):
                    assert g_i == math.gcd(c_i, m_i), (c_i, m_i)
                    assert (s_i * c_i - g_i) % m_i == 0, (c_i, m_i)

        check(cases)
        _gcd_flat(_GCD_TABLE_MAX)
        monkeypatch.setattr(lpcodes.search, "_gcd_inverse", None)
        check(table_of_c)

    def test_gcd_rows_read_every_flat_table_size(self):
        # The largest c picks the size of the flat table: the least power
        # of two above it, at most _GCD_TABLE_MAX.
        rng = np.random.default_rng(11)
        for top in (0, 1, 2, 3, 7, 8, 24, 31, 32, 33, 64, 127, _GCD_TABLE_MAX):
            c = np.arange(top + 1, dtype=np.int64).repeat(5)
            m = rng.integers(1, 700, size=len(c))
            g, inv = _gcd_rows(c, m)
            for c_i, m_i, g_i, s_i in zip(c.tolist(), m.tolist(), g.tolist(), inv.tolist()):
                assert g_i == math.gcd(c_i, m_i), (c_i, m_i)
                assert (s_i * c_i - g_i) % m_i == 0, (c_i, m_i)
        # Each size is a prefix of the largest, whose table of d starts at
        # d(d-1)/2 (checked in test_gcd_inverse_and_tables_match_math).
        largest = _gcd_flat(_GCD_TABLE_MAX)
        for size in (1, 2, 4, 8, 16, 32, 64, _GCD_TABLE_MAX):
            flat = _gcd_flat(size)
            assert all(t.dtype == np.int64 and not t.flags.writeable for t in flat)
            assert all(len(t) == size * (size + 1) // 2 for t in flat)
            assert all(np.array_equal(t, big[: len(t)]) for t, big in zip(flat, largest))

    @pytest.mark.parametrize(
        "n,p,volume_hi",
        [(2, 1, 600), (2, 2, 600), (2, 3, 600), (2, 4, 600), (3, 1, 200),
         (3, 2, 1419), (3, 3, 200), (4, 1, 40), (4, 2, 40)],
    )
    def test_differences_are_closed_under_the_last_reflection(self, n, p, volume_hi):
        # The precondition of _sieve_diagonals, at every radius these
        # searches sieve under caps 1 and 2.
        flip = np.array([1] * (n - 1) + [-1])
        for s in sieved_radii(n, p, volume_hi):
            diffs = _ball_diffs(n, p, s)
            both = {tuple(v) for v in np.concatenate([diffs, -diffs]).tolist()}
            assert {tuple(v) for v in (diffs * flip).tolist()} <= both, s


class TestHermiteScreen:
    """The Hermite screen skips the sieve at a volume only where the sieve
    would find no survivor, and its floor T is the least squared norm of
    a nonzero vector that is not a ball difference."""

    def test_hermite_constants(self):
        # gamma_n^n = 1, 4/3, 2, 4 (Conway and Sloane, Table 1.2).
        assert _HERMITE == {1: (1, 1), 2: (4, 3), 3: (2, 1), 4: (4, 1)}
        assert set(_HERMITE) == set(_SIEVES)

    @pytest.mark.parametrize(
        "n,p,s", [(1, 2, 9), (2, 2, 0), (2, 2, 13), (2, 3, 20), (3, 2, 5), (4, 1, 2)]
    )
    def test_floor_matches_direct_enumeration(self, n, p, s):
        pts = ball_points(n, p, s)
        diffs = {tuple(x - y for x, y in zip(a, b)) for a in pts for b in pts}
        reach = 2 * max(max(a) for a in pts) + 1
        box = product(range(-reach, reach + 1), repeat=n)
        want = min(sum(v * v for v in d) for d in box if d not in diffs)
        assert _packing_floor(n, p, s) == want

    def test_floor_counts_vectors_outside_the_grid(self):
        # At p = 2, s = 13 the grid is [-6, 6]^2.  Its least unmarked key
        # has norm 61, but (0, 7) lies outside it with norm 49, and volume
        # 47 (forced radius 13) has the survivor ((1, 7), (0, 47)) of norm
        # 50, which a floor of 61 would screen.
        assert _packing_floor(2, 2, 13) == 49
        assert algorithm_radii(2, 2, 47)[0] == 13
        rows = _SIEVES[2](47, _ball_diffs(2, 2, 13))
        assert ((1, 7), (0, 47)) in {tuple(map(tuple, row)) for row in rows}
        assert _hermite_screened(2, 47, 61)
        assert not _hermite_screened(2, 47, 49)

    @pytest.mark.parametrize(
        "n,p,volume_hi,screened",
        [
            (2, 1, 600, 0),
            (2, 2, 600, 471),
            (2, 3, 600, 220),
            (2, 4, 600, 56),
            (3, 1, 200, 0),
            (3, 2, 200, 56),
            (3, 3, 200, 51),
            (4, 2, 40, 0),
        ],
    )
    def test_screened_volumes_have_no_survivor(self, n, p, volume_hi, screened):
        seen = 0
        for volume in range(1, volume_hi + 1):
            s_r, _ = algorithm_radii(n, p, volume)
            if _hermite_screened(n, volume, _packing_floor(n, p, s_r)):
                seen += 1
                sieve = _SIEVES[n](volume, _ball_diffs(n, p, s_r))
                assert next(sieve, None) is None, volume
        assert seen == screened

    @pytest.mark.parametrize(
        "n,p,volume_hi,screened",
        [
            (2, 1, 600, 1934),
            (2, 2, 600, 2007),
            (2, 3, 600, 1993),
            (2, 4, 600, 1982),
            (3, 1, 200, 2279),
            (3, 2, 200, 2460),
            (3, 3, 200, 2453),
            (4, 2, 40, 512),
        ],
    )
    def test_screened_diagonals_have_no_survivor(self, n, p, volume_hi, screened):
        # Counted over every volume, those the volume screen skips included.
        seen = 0
        for volume in range(1, volume_hi + 1):
            s_r, _ = algorithm_radii(n, p, volume)
            floor = _packing_floor(n, p, s_r)
            diags = [
                diag
                for diag in _ordered_factorizations(volume, n)
                if _diagonal_screened(diag, floor)
            ]
            seen += len(diags)
            if diags:
                bad, _ = _sieve_diagonals(diags, _ball_diffs(n, p, s_r))
                assert bad.all(), (volume, diags)
        assert seen == screened

    def test_diagonal_screen_reads_the_trailing_block(self):
        # T = 49 at 2-D p=2, s = 13 (see above).  A last diagonal entry of
        # 6 puts (0, 6), of norm 36 < 49, in every lattice on the diagonal;
        # a last entry of 8 or 47 does not, and a floor of 0 screens none.
        assert not _diagonal_screened((1, 47), 49)
        assert not _diagonal_screened((47, 1), 0)
        assert _diagonal_screened((8, 6), 49)
        assert not _diagonal_screened((6, 8), 49)


class TestCoveringKernel:
    """The batched covering test against the covering radius itself: a
    lattice is covered at s iff its covering radius is at most s."""

    @pytest.mark.parametrize(
        "n,p,volume_hi", [(2, 1, 20), (2, 2, 20), (2, 3, 20), (3, 2, 8)]
    )
    def test_verdicts_match_the_covering_radius(self, n, p, volume_hi):
        for volume in range(1, volume_hi + 1):
            bases = list(enumerate_sublattices(n, volume))
            stack = np.array(bases, dtype=np.int64)
            radii = np.array(covering_radius_pow(bases, p))
            for s in sorted({0, *radii.tolist(), (volume // 2) ** p}):
                for s_at in (s, successor(n, p, s)):
                    got = covering_verdicts(bases, p, s_at)
                    assert got.tolist() == (radii <= s_at).tolist(), (volume, s_at)
                    assert covering_verdicts(stack, p, s_at).tolist() == got.tolist()

    def test_chunking_keeps_the_verdicts(self, monkeypatch):
        bases = list(enumerate_sublattices(3, 12))
        s = algorithm_radii(3, 2, 12)[1]
        whole = covering_verdicts(bases, 2, s)
        assert 0 < whole.sum() < len(bases) and len(bases) % 8
        # Eight bases per chunk at this ball of mu(3, 2, s) points.
        monkeypatch.setattr(lpcodes.search, "_COVER_CHUNK", 8 * 3 * mu(3, 2, s))
        assert covering_verdicts(bases, 2, s).tolist() == whole.tolist()
        assert [covering_test(b, 2, s) for b in bases] == whole.tolist()

    def test_survivor_batches_keep_the_report(self, monkeypatch):
        want = report_to_dict(run_search(SearchQuery(3, 2, 1, 40)))
        monkeypatch.setattr(lpcodes.search, "_SURVIVOR_BATCH", 5)
        assert report_to_dict(run_search(SearchQuery(3, 2, 1, 40))) == want

    def test_empty_batch_and_too_small_ball(self):
        assert covering_verdicts([], 2, 5).shape == (0,)
        # mu(2, 2, 1) = 5 points cannot meet 7 cosets.
        assert not covering_verdicts([((1, 2), (0, 7))], 2, 1).any()
        assert covering_verdicts([((1, 2), (0, 5))], 2, 1).all()


class TestCoveringCap:
    """No index-M sublattice covers worse than (M // 2)^p, the cap that
    bounds the pipeline's covering filter, and every volume attains it."""

    @pytest.mark.parametrize(
        "n,p,volume_hi", [(2, 1, 20), (2, 2, 20), (2, 3, 20), (3, 2, 8)]
    )
    def test_covering_radius_at_most_the_cap(self, n, p, volume_hi):
        for volume in range(1, volume_hi + 1):
            radii = covering_radius_pow(list(enumerate_sublattices(n, volume)), p)
            assert max(radii) == (volume // 2) ** p, volume


class TestQueryValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SearchQuery(0, 2, 1, 10)
        with pytest.raises(ValueError, match="supported dimensions"):
            SearchQuery(5, 2, 1, 3)
        with pytest.raises(ValueError):
            SearchQuery(2, 0, 1, 10)
        with pytest.raises(ValueError):
            SearchQuery(2, 2, 0, 10)
        with pytest.raises(ValueError):
            SearchQuery(2, 2, 11, 10)
        with pytest.raises(ValueError):
            SearchQuery(2, 2, 1, 10, t_max=-1)
        assert SearchQuery(2, 2, 1, 10, t_max=None).t_max is None

    def test_rejects_bad_job_count(self):
        with pytest.raises(ValueError):
            run_search(SearchQuery(2, 2, 1, 2), jobs=0)

    @pytest.mark.parametrize("text", ["abc", "0", ""])
    def test_rejects_bad_jobs_variable_naming_it(self, monkeypatch, text):
        monkeypatch.setenv("QP_JOBS", text)
        with pytest.raises(ValueError, match="QP_JOBS"):
            run_search(SearchQuery(2, 2, 1, 2))


class TestFastPathAgainstReference:
    def test_2d_default_cap(self):
        report = run_search(SearchQuery(2, 2, 1, 40))
        assert_same_classes(report, reference_hits(2, 2, 40, t_max=1))
        assert report.counts.enumerated == sum(
            sublattice_count(2, m) for m in range(1, 41)
        )

    def test_2d_other_exponent(self):
        report = run_search(SearchQuery(2, 3, 1, 30))
        assert_same_classes(report, reference_hits(2, 3, 30, t_max=1))

    def test_3d_default_cap(self):
        report = run_search(SearchQuery(3, 2, 1, 20))
        assert_same_classes(report, reference_hits(3, 2, 20, t_max=1))

    def test_1d_default_cap(self):
        report = run_search(SearchQuery(1, 2, 1, 40))
        assert_same_classes(report, reference_hits(1, 2, 40, t_max=1))

    def test_4d_default_cap(self):
        # Volume 10 is one above mu(4, 2, 1) = 9, so its codes are
        # quasi-perfect and the covering test decides them.  The slow
        # reference costs seconds per 4-D volume, hence one volume.
        report = run_search(SearchQuery(4, 2, 10, 10))
        want = reference_hits(4, 2, 10, t_max=1, volume_lo=10)
        assert {a.t for a in want.values()} == {1}
        assert_same_classes(report, want)

    def test_perfect_only(self):
        report = run_search(SearchQuery(2, 2, 1, 40, t_max=0))
        assert all(a.t == 0 for _, a in report.hits)
        got = {b: a.r_pow for b, a in report.hits}
        want = {canonical_form(b): s for b, s in PERFECT_CLASSES_2D_P2}
        assert got == want

    @pytest.mark.parametrize("t_max", [2, 3])
    @pytest.mark.parametrize("n,p,volume_hi", [(2, 2, 40), (2, 3, 30), (3, 2, 12)])
    def test_higher_caps(self, n, p, volume_hi, t_max):
        report = run_search(SearchQuery(n, p, 1, volume_hi, t_max=t_max))
        assert_same_classes(report, reference_hits(n, p, volume_hi, t_max))

    def test_uncapped_keeps_every_class(self):
        report = run_search(SearchQuery(2, 2, 1, 12, t_max=None))
        assert_same_classes(report, reference_hits(2, 2, 12, t_max=None))

    def test_radius_zero_volumes_report_nothing(self):
        report = run_search(SearchQuery(2, 2, 2, 4))
        assert report.hits == ()
        enumerated = sum(sublattice_count(2, m) for m in (2, 3, 4))
        assert report.counts == SearchCounts(enumerated, 0, 0)

    def test_trivial_volume_reports_the_identity_tiling(self):
        report = run_search(SearchQuery(2, 2, 1, 1))
        ((basis, a),) = report.hits
        assert basis == ((1, 0), (0, 1))
        assert (a.t, a.r_pow, a.R_pow) == (0, 0, 0)


class TestDeterminism:
    def test_reports_identical_across_worker_counts(self, monkeypatch):
        # 2-D to 60 is 16 runs of 4 at jobs=2 and 20 runs of 3 at jobs=3.
        # The parent passes _SLICE_S to each task, so under any start
        # method a slice of 0 returns after every volume and queues the
        # rest of its run again.
        for query in (SearchQuery(2, 2, 1, 60), SearchQuery(3, 2, 1, 40, t_max=2)):
            base = run_search(query, jobs=1)
            for slice_s in (lpcodes.search._SLICE_S, 0.0):
                monkeypatch.setattr(lpcodes.search, "_SLICE_S", slice_s)
                for jobs in (2, 3):
                    assert run_search(query, jobs=jobs) == base


class TestScheduler:
    """With a pool, volumes go out as runs of consecutive ones, highest
    run first, each task returning after a time slice (`_SLICE_S`)."""

    def test_a_task_returns_after_its_slice(self):
        volumes = [5, 6, 7]
        done, rest = _run_task((2, 2, volumes, 1, 0.0))
        assert [r[0] for r in done] == [5] and rest == [6, 7]
        done, rest = _run_task((2, 2, volumes, 1, math.inf))
        assert [r[0] for r in done] == volumes and rest == []
        assert done[0][1:4] == lpcodes.search._volume_task((2, 2, 5, 1))[1:4]

    @pytest.mark.parametrize("slice_s", [lpcodes.search._SLICE_S, 0.0])
    def test_runs_are_queued_highest_first(self, monkeypatch, slice_s):
        class InlineExecutor:
            """Runs each task as it is submitted, recording its volumes."""

            def __init__(self, max_workers):
                assert max_workers == 2
                submitted.append([])

            def submit(self, fn, args):
                submitted[-1].append(args[2])
                future = Future()
                future.set_result(fn(args))
                return future

            def shutdown(self, cancel_futures):
                assert cancel_futures

        submitted = []
        monkeypatch.setattr(lpcodes.search, "ProcessPoolExecutor", InlineExecutor)
        monkeypatch.setattr(lpcodes.search, "_SLICE_S", slice_s)
        query = SearchQuery(2, 2, 1, 60)
        assert run_search(query, jobs=2) == run_search(query, jobs=1)
        (tasks,) = submitted
        # 60 volumes at 8 runs per job make 15 runs of 4, highest first.
        assert tasks[:15] == [list(range(m, m + 4)) for m in range(57, 0, -4)]
        if slice_s:
            assert len(tasks) == 15
        else:  # every run comes back after one volume and is queued again
            assert sorted(map(tuple, tasks[15:])) == sorted(
                tuple(range(m + i, m + 4)) for m in range(1, 61, 4) for i in (1, 2, 3)
            )

    def test_an_error_in_a_worker_reaches_the_caller(self, monkeypatch, tmp_path):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("only forked workers see the patched analyze")

        def fails_at_volume_one(bases, p):
            if ((1, 0), (0, 1)) in bases:
                time.sleep(0.2)  # so the other worker finishes its last run first
                raise VerificationError("planted failure")
            return analyze_stack(bases, p)

        monkeypatch.setattr(lpcodes.search, "analyze", fails_at_volume_one)
        path = tmp_path / "failed.tsv"
        query = SearchQuery(2, 2, 1, 40)
        with pytest.raises(VerificationError, match="planted failure"):
            run_search(query, jobs=2, checkpoint=str(path))
        # 14 runs of 3 at jobs=2, highest first, so [1, 2, 3] is queued
        # last and fails at its first volume, after every other volume.
        lines = path.read_text(encoding="utf-8").splitlines()
        assert sorted(int(line.split("\t")[0]) for line in lines) == list(range(4, 41))
        monkeypatch.undo()
        fresh = tmp_path / "fresh.tsv"
        run_search(query, checkpoint=str(fresh))
        want = {m: h for m, (h, _) in load_checkpoint(str(fresh)).items() if m >= 4}
        assert {m: h for m, (h, _) in load_checkpoint(str(path)).items()} == want


class TestCheckpoint:
    def test_fresh_run_records_one_line_per_volume(self, tmp_path):
        path = str(tmp_path / "fresh.tsv")
        run_search(SearchQuery(2, 2, 1, 20), checkpoint=path)
        recorded = load_checkpoint(path)
        assert sorted(recorded) == list(range(1, 21))
        assert recorded[1][0] == 1
        # volume 5 carries two Hermite bases of the same class
        assert recorded[5][0] == 2
        for m in (2, 3, 4):
            assert recorded[m][0] == 0

    def test_resume_reproduces_the_report(self, tmp_path):
        path = str(tmp_path / "resume.tsv")
        query = SearchQuery(2, 2, 1, 20)
        fresh = run_search(query, checkpoint=path)
        with open(path, encoding="utf-8") as fh:
            lines_before = len(fh.readlines())
        resumed = run_search(query, checkpoint=path)
        assert resumed.hits == fresh.hits
        assert resumed.counts.enumerated == fresh.counts.enumerated
        assert "resumed" in resumed.bound_provenance
        assert "resumed" not in fresh.bound_provenance
        # survivor counters only cover the recomputed volumes
        assert (
            resumed.counts.injectivity_survivors
            <= fresh.counts.injectivity_survivors
        )
        # only hit-bearing volumes were recomputed and re-appended
        hit_bearing = sum(1 for h, _ in load_checkpoint(path).values() if h > 0)
        with open(path, encoding="utf-8") as fh:
            lines_after = len(fh.readlines())
        assert lines_after - lines_before == hit_bearing

    def test_pool_checkpoints_each_volume_once(self, tmp_path):
        path = tmp_path / "pool.tsv"
        query = SearchQuery(2, 2, 1, 60)
        fresh = run_search(query, jobs=2, checkpoint=str(path))
        assert fresh == run_search(query, jobs=1)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert sorted(int(line.split("\t")[0]) for line in lines) == list(range(1, 61))
        resumed = run_search(query, jobs=2, checkpoint=str(path))
        assert resumed.hits == fresh.hits
        assert resumed.counts.enumerated == fresh.counts.enumerated
        # only the hit-bearing volumes were recomputed, once each
        again = path.read_text(encoding="utf-8").splitlines()[len(lines) :]
        hit_bearing = [m for m, (h, _) in load_checkpoint(str(path)).items() if h > 0]
        assert sorted(int(line.split("\t")[0]) for line in again) == sorted(hit_bearing)

    def test_zero_hit_records_are_trusted(self, tmp_path):
        path = tmp_path / "seeded.tsv"
        path.write_text("5\t0\t1\n", encoding="utf-8")
        report = run_search(SearchQuery(2, 2, 1, 9), checkpoint=str(path))
        dets = {a.det for _, a in report.hits}
        assert 5 not in dets
        assert 9 in dets
        fresh = run_search(SearchQuery(2, 2, 1, 9))
        assert 5 in {a.det for _, a in fresh.hits}

    def test_line_cut_short_by_a_crash_is_recomputed(self, tmp_path):
        path = tmp_path / "cut.tsv"
        path.write_text("1\t1\t0\n2\t0\t0\n3\t0", encoding="utf-8")
        assert load_checkpoint(str(path)) == {1: (1, 0), 2: (0, 0)}
        query = SearchQuery(2, 2, 1, 5)
        resumed = run_search(query, checkpoint=str(path))
        assert resumed.hits == run_search(query).hits
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[:2] == ["1\t1\t0", "2\t0\t0"]
        assert all(len(line.split("\t")) == 3 for line in lines)
        assert sorted(load_checkpoint(str(path))) == [1, 2, 3, 4, 5]

    def test_checkpoint_of_another_query_is_refused(self, tmp_path):
        path = str(tmp_path / "p3.tsv")
        run_search(SearchQuery(2, 3, 1, 12), checkpoint=path)
        with open(path + ".query", encoding="utf-8") as fh:
            assert fh.read() == "n=2 p=3 t_max=1\n"
        assert sorted(load_checkpoint(path)) == list(range(1, 13))
        for other in (
            SearchQuery(2, 2, 1, 12),
            SearchQuery(3, 3, 1, 12),
            SearchQuery(2, 3, 1, 12, t_max=2),
        ):
            with pytest.raises(ValueError, match="checkpoint"):
                run_search(other, checkpoint=path)
        query = SearchQuery(2, 3, 5, 20)
        assert load_checkpoint(path, query) == load_checkpoint(path)
        resumed = run_search(query, checkpoint=path)
        assert resumed.hits == run_search(query).hits
        with open(path + ".query", encoding="utf-8") as fh:
            assert fh.read() == checkpoint_header(query) + "\n"

    def test_checkpoint_without_a_record_ignores_a_leftover_header(self, tmp_path):
        query = SearchQuery(2, 3, 1, 12)
        fresh = run_search(query)
        for name, text in (("empty.tsv", ""), ("torn.tsv", "3")):
            path = tmp_path / name
            path.write_text(text, encoding="utf-8")
            header = tmp_path / (name + ".query")
            header.write_text("n=4 p=2 t_max=1\n", encoding="utf-8")
            assert run_search(query, checkpoint=str(path)) == fresh
            assert header.read_text(encoding="utf-8") == checkpoint_header(query) + "\n"

    def test_first_resume_pins_a_headerless_checkpoint(self, tmp_path):
        path = tmp_path / "seeded.tsv"
        path.write_text("1\t1\t0\n", encoding="utf-8")
        run_search(SearchQuery(2, 2, 1, 60), checkpoint=str(path))
        with pytest.raises(CheckpointError, match="written for 'n=2 p=2 t_max=1'"):
            run_search(SearchQuery(2, 4, 1, 60), checkpoint=str(path))

    def test_unusable_checkpoint_raises_checkpoint_error(self, tmp_path):
        assert issubclass(CheckpointError, LpCodesError)
        assert issubclass(CheckpointError, ValueError)
        malformed = tmp_path / "malformed.tsv"
        malformed.write_text("1\t1\t0\n2\t0\n", encoding="utf-8")
        other = tmp_path / "other.tsv"
        other.write_text("1\t1\t0\n", encoding="utf-8")
        (tmp_path / "other.tsv.query").write_text("n=4 p=2 t_max=1\n", encoding="utf-8")
        binary = tmp_path / "binary.tsv"
        binary.write_bytes(b"1\t\xff\t0\n")
        query = SearchQuery(2, 2, 1, 5)
        for path, match in (
            (malformed, "malformed line"),
            (binary, "codec"),
            (other, "written for 'n=4 p=2 t_max=1'"),
            (tmp_path, "Is a directory"),
            (tmp_path / "missing_dir" / "ck.tsv", "No such file"),
        ):
            with pytest.raises(CheckpointError, match=match):
                run_search(query, checkpoint=str(path))
        assert malformed.read_text(encoding="utf-8") == "1\t1\t0\n2\t0\n"
        assert other.read_text(encoding="utf-8") == "1\t1\t0\n"

    def test_parse_last_line_wins_and_missing_file_is_empty(self, tmp_path):
        path = tmp_path / "dupes.tsv"
        path.write_text("7\t3\t10\n\n7\t0\t12\n", encoding="utf-8")
        assert load_checkpoint(str(path)) == {7: (0, 12)}
        assert load_checkpoint(str(tmp_path / "missing.tsv")) == {}


class TestVerification:
    """Re-proofs raise VerificationError, which `python -O` keeps.
    `search.analyze` is the stacked entry: one call per volume, over the
    canonical forms of all its orbits."""

    def test_fast_path_hit_with_wrong_degree_raises(self, monkeypatch):
        def wrong_t(bases, p):
            return [dataclasses.replace(a, t=a.t + 1) for a in analyze_stack(bases, p)]

        monkeypatch.setattr(lpcodes.search, "analyze", wrong_t)
        with pytest.raises(VerificationError, match="expected"):
            run_search(SearchQuery(2, 2, 1, 10))

    def test_ball_counts_not_bracketing_the_volume_raise(self, monkeypatch):
        def wrong_mu(bases, p):
            analyses = analyze_stack(bases, p)
            return [dataclasses.replace(a, mu_r=a.det + 1) for a in analyses]

        monkeypatch.setattr(lpcodes.search, "analyze", wrong_mu)
        with pytest.raises(VerificationError, match="mu_r"):
            run_search(SearchQuery(2, 2, 1, 6, t_max=None))

    def test_canonical_form_changing_the_index_raises(self, monkeypatch):
        # An orbit whose least member, ((1, 0), (0, 1)), has index 1.
        def wrong_orbit(basis):
            return congruence_orbit(basis) | {((1, 0), (0, 1))}

        monkeypatch.setattr(lpcodes.search, "congruence_orbit", wrong_orbit)
        with pytest.raises(VerificationError, match="index"):
            run_search(SearchQuery(2, 2, 1, 10))

    def test_orbit_member_that_is_not_a_pass_raises(self, monkeypatch):
        # Volume 7 has one orbit of four covering passes; the sieve yields
        # ((1, 2), (0, 7)) first, and its orbit must be passes throughout.
        rejected = ((1, 4), (0, 7))
        assert rejected in congruence_orbit(((1, 2), (0, 7)))
        covering = lpcodes.search.covering_verdicts
        seen = []

        def all_but_one(bases, p, s):
            rows = [tuple(map(tuple, row)) for row in bases]
            seen.extend(rows)
            keep = np.array([b != rejected for b in rows], dtype=bool)
            return covering(bases, p, s) & keep

        monkeypatch.setattr(lpcodes.search, "covering_verdicts", all_but_one)
        with pytest.raises(VerificationError, match="failed the sieve or the covering"):
            run_search(SearchQuery(2, 2, 1, 30))
        assert rejected in seen

    def test_packing_radius_below_the_sieve_radius_raises(self, monkeypatch):
        # At volumes 21..30 (p=2) s_r >= 5, so r_min = pred(s_r) >= 4
        # under a cap of 2; a packing radius of 0 cannot pass the sieve.
        def wrong_r(bases, p):
            return [dataclasses.replace(a, r_pow=0) for a in analyze_stack(bases, p)]

        monkeypatch.setattr(lpcodes.search, "analyze", wrong_r)
        with pytest.raises(VerificationError, match="expected r >= "):
            run_search(SearchQuery(2, 2, 21, 30, t_max=2))

    def test_a_fault_in_a_later_class_names_that_class(self, monkeypatch):
        # Every class of a volume is re-proved, not only the first of the
        # stack: a covering radius past s_cov in the second one raises.
        second = []

        def wrong_second_R(bases, p):
            out = analyze_stack(bases, p)
            if len(bases) > 1:
                second.append(bases[1])
                out[1] = dataclasses.replace(out[1], R_pow=out[1].R_pow + 10**6)
            return out

        monkeypatch.setattr(lpcodes.search, "analyze", wrong_second_R)
        with pytest.raises(VerificationError, match="expected r >= ") as raised:
            run_search(SearchQuery(2, 2, 1, 12, t_max=None))
        assert second and f"of class {second[-1]} has" in str(raised.value)

    def test_one_analysis_call_per_volume_with_an_orbit(self, monkeypatch):
        stacks = []

        def counted(bases, p):
            stacks.append(list(bases))
            return analyze_stack(bases, p)

        monkeypatch.setattr(lpcodes.search, "analyze", counted)
        # Uncapped, every orbit gives a record, so the stacks hold the hits.
        report = run_search(SearchQuery(3, 2, 1, 16, t_max=None), jobs=1)
        volumes = [hnf_det(bases[0]) for bases in stacks]
        assert sorted(volumes) == sorted({a.det for _, a in report.hits})
        assert sum(map(len, stacks)) == len(report.hits) > len(stacks)
        assert all(len({hnf_det(b) for b in bases}) == 1 for bases in stacks)


class TestDedupe:
    def test_disabled_dedupe_keeps_congruent_copies(self):
        rep_on = run_search(SearchQuery(2, 2, 1, 30))
        rep_off = run_search(SearchQuery(2, 2, 1, 30, dedupe=False))
        assert len(rep_off.hits) > len(rep_on.hits)
        assert {b for b, _ in rep_off.hits} == {b for b, _ in rep_on.hits}
        order = [(a.det, b) for b, a in rep_off.hits]
        assert order == sorted(order)

    @pytest.mark.parametrize("n, volume_hi", [(2, 30), (3, 40)])
    def test_each_class_repeats_once_per_orbit_member(self, n, volume_hi):
        rep_on = run_search(SearchQuery(n, 2, 1, volume_hi))
        rep_off = run_search(SearchQuery(n, 2, 1, volume_hi, dedupe=False))
        copies = Counter(b for b, _ in rep_off.hits)
        assert Counter(b for b, _ in rep_on.hits) == dict.fromkeys(copies, 1)
        assert copies == {b: len(congruence_orbit(b)) for b in copies}
        assert rep_on.counts == rep_off.counts


class TestSerialization:
    def test_report_dict_is_json_ready_and_faithful(self):
        report = run_search(SearchQuery(2, 2, 1, 15))
        d = report_to_dict(report)
        json.dumps(d)
        assert d["query"]["volume_max"] == 15
        assert d["counts"]["enumerated"] == report.counts.enumerated
        assert len(d["hits"]) == len(report.hits)
        for item, (basis, a) in zip(d["hits"], report.hits):
            assert item["basis"] == [list(row) for row in basis]
            assert item["analysis"] == analysis_display(a)

    def test_csv_rows_align_with_hits(self):
        report = run_search(SearchQuery(2, 2, 1, 15))
        rows = report_csv_rows(report)
        assert len(rows) == len(report.hits)
        for row, (basis, a) in zip(rows, report.hits):
            assert tuple(row) == CSV_FIELDS
            assert row["basis"] == compact_basis(basis)
            assert (row["det"], row["t"]) == (a.det, a.t)
            frac = a.disc_pack_density
            assert row["disc_pack_density"] == f"{frac.numerator}/{frac.denominator}"

    def test_compact_basis_format(self):
        assert compact_basis(((1, 2), (0, 5))) == "1,2;0,5"


class TestDisputedRepresentatives:
    """Four rows of the bundled 3-D catalog fail verification and one
    has a working single-entry correction; their measured imperfection
    degrees are pinned here through the nearest-translate oracles, not
    just through the analyzer that rejected them."""

    @pytest.mark.parametrize(
        "basis,expected_t", list(zip(CATALOG_3D_BOGUS, CATALOG_3D_BOGUS_T))
    )
    def test_rejected_rows_measured_degree(self, basis, expected_t):
        a = analyze(basis, 2)
        assert a.t == expected_t
        assert a.t > 1
        h = hnf(basis)
        dset = distance_set_at_least(3, 2, 4 * a.R_pow + 16)
        r_brute = brute_packing_pow(h, 2, dset)
        cover_brute = brute_covering_pow(h, 2)
        assert (r_brute, cover_brute) == (a.r_pow, a.R_pow)
        recount = sum(1 for s in dset if r_brute <= s < cover_brute)
        assert recount == expected_t

    def test_corrected_row_verifies(self):
        (basis,) = CATALOG_3D_CORRECTED
        a = analyze(basis, 2)
        assert (a.det, a.t) == (26, 1)
        h = hnf(basis)
        dset = distance_set_at_least(3, 2, 64)
        assert brute_packing_pow(h, 2, dset) == a.r_pow
        assert brute_covering_pow(h, 2) == a.R_pow
