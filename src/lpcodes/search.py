"""Exhaustive search for lattice codes with a capped degree of imperfection.

Write D for the distance set, mu(s) for the ball count and k for the cap
on t.  At volume M every code has packing radius r <= s_r = max{s in D :
mu(s) <= M}.  A code that is not perfect has mu(R) > M, so R > s_r and t
counts every element of D in [r, s_r]; hence r >= r_min = pred^(k-1)(s_r)
in D, clamped at 0 (r_min = s_r for k <= 1).  Also R <= succ^k(s_r), and
no index-M lattice covers worse than cap = (M // 2)^p (reduce a point into
the centred box of the HNF diagonal), so R <= s_cov, the first of
succ^0..k(s_r) that reaches the cap, else succ^k(s_r).

Injectivity at r_min holds exactly when no nonzero difference of two ball
points lies in the lattice, so the difference set is computed once per
(n, p, r_min) and sieved against the Hermite normal form entries, column
by column: each difference left in the lattice by the earlier columns
becomes one linear congruence on the next column's entries.  Losing
candidates are never constructed, and one sieve serves every n <= 4.
Each congruence c * a == t (mod d) is solved with gcd(c, d) and an
inverse, which `_gcd_rows` reads from one cached array that holds the
tables of the moduli d <= 128 end to end: from the table of d when one
d <= 128 serves every row, else from the table of c, which serves every
d, or by Euclid's algorithm for c outside 0..128.  Columns 0 and 1
enumerate no entry, so a volume's HNF diagonals pass through them
together, in a few numpy calls with a modulus per row; for n = 2 that
is the whole sieve.  From column 2 on each diagonal is sieved alone,
and at the last column a unit c gives the one solution a = c^-1 t,
marked directly.  Negating x_n maps
the HNF with last-column entries a_{i,n-1} to the one on the same
diagonal with entries -a_{i,n-1} mod d_n, and maps the difference set
onto itself, so the two get the same verdict.  For n >= 3 the last
column therefore walks only a_{0,n-1} <= d_n // 2, and every other cell
copies its mirror's verdict.  The difference set itself is read off the
ball's x_n-fibers, from pairs of points of its projection to the first
n - 1 coordinates, each fiber's height an exact integer root.

Survivors are int64 HNF rows, one (n, n) array each, and face the
covering test at s_cov as they are, a batch of one volume at a time: the
ball at s_cov is labelled under their stack by one `coset_labels` call,
and a survivor covers iff its row of labels meets every coset.  Only the
passes become tuple bases.  All pass when s_cov reaches the cap or
mu(r_min) = M.  No cap is the case r_min = 0, where every sublattice
survives the sieve.

Most volumes of a long range have no survivor, and Hermite's inequality
proves that without sieving.  A survivor contains no nonzero ball
difference, so its shortest vector has squared Euclidean norm >= T, the
least norm of a nonzero integer vector that is not a difference.  T is
read off the difference grid over [-2k, 2k]^n, k = iroot(r_min, p), as
the least norm of an unmarked key, capped at (2k+1)^2: every vector
outside the grid is no difference, and the cap is needed because corner
keys can be unmarked with a larger norm (at p=2, r_min=13 the grid gives
61 while (0, 7) has norm 49).  Hermite gives lambda_1^2 <= gamma_n
M^(2/n), so den * T^n > num * M^2, with gamma_n^n = num/den, proves that
volume M has no survivor, in integers, and the sieve is skipped.  The
volume still counts its sublattice_count candidates and zero survivors,
which is what the sieve would give, so reports are unchanged.  The full
3-D p=2 range to 1419 skips 1198 of its volumes 201..1419 this way.
The same argument screens each HNF diagonal (d_1, ..., d_n) of a volume
that is sieved: the last m rows generate the lattice's vectors with n - m
leading zeros, a rank-m lattice of index d_(n-m+1)...d_n, so for m < n
a trailing block that Hermite rules out puts a difference in every
lattice on that diagonal, and the diagonal is skipped unsieved.  On 3-D
p=2 to volume 200 that skips 1669 of the 2551 diagonals sieved before,
and unlike the volume screen it works at p = 1 too.

Every ball is invariant under the signed coordinate permutations, so the
passes at one volume are a union of congruence orbits, and each orbit is
built and analyzed once: the first pending pass gives the orbit
(`congruence_orbit`), whose least member is the canonical form.  The
orbit must contain that pass (the sieve yields HNFs), the canonical form
must have index M, and every member must be a pending pass.  The one
analysis re-proves r >= r_min, R <= s_cov and, when r = s_r, t <= k.
Each failure raises VerificationError.  An orbit with t <= k gives one
record (canonical form, analysis, orbit size), listed once in the report,
or size times without dedupe.  An orbit's 2^(n-1) n! images are
normalized by one batched int64 HNF (`lattices.hnf_stack`).

Volumes are independent, so the search parallelizes over them.  The
volumes left to compute are cut into about 8 runs per worker of
consecutive volumes, so that one process reuses a run's per-r_min caches
(difference grid, packing floor, gcd table), and the runs are queued
highest first: sieve cost grows with volume, and the cheap low runs fill
the tail.  A task walks its run upwards and returns after the first
volume that ends past a time slice (`_SLICE_S`), and the rest of the run
is queued again, so that a long run reports, and checkpoints, every
slice.  Results are taken as tasks finish, so checkpoint lines arrive in
completion order; the hits are finally sorted by (det, canonical form)
and the counts summed, making reports identical regardless of worker
count.  The module only searches: `cli.py` renders the `SearchReport`.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass
from functools import cache
from itertools import islice
from math import inf, prod
from typing import Iterator, TextIO

import numpy as np
from numpy.typing import ArrayLike

from .analysis import CodeAnalysis, _ball, analyze, labels_are_distinct
from .balls import (
    algorithm_radii,
    ball_points,
    distance_set_at_least,
    iroot,
    mu,
    successor,
)
from .errors import CheckpointError, VerificationError
from .lattices import (
    Basis,
    _ordered_factorizations,
    canonical_form,  # not called here; perfbench/tracer.py patches this name
    congruence_orbit,
    coset_labels,
    enumerate_sublattices,  # not called here; perfbench/tracer.py patches this name
    hnf_count,
    hnf_det,
    sublattice_count,
)

# True iff lattice translates of the ball of pow-radius s are pairwise
# disjoint.  No search path calls it; perfbench/tracer.py patches this name.
injectivity_test = labels_are_distinct


def covering_verdicts(hnf_bases: ArrayLike, p: int, s: int) -> np.ndarray:
    """For HNF bases of one index, as tuples or as a (B, n, n) int64
    stack of HNF rows: True where every coset representative lies within
    pow-distance s of the lattice.

    Computed through labels: a point x has a lattice point within s iff
    some ball point b satisfies x - b in the lattice, i.e. iff x's coset
    label occurs among the ball labels.  Coverage therefore holds iff
    the ball points hit all det distinct labels.  The ball is labelled
    under slices of the stack, _COVER_CHUNK entries at most.
    """
    stack = np.asarray(hnf_bases, dtype=np.int64)
    out = np.zeros(len(stack), dtype=bool)
    if not len(stack):
        return out
    n, volume = stack.shape[1], int(hnf_det(stack[0]))
    if mu(n, p, s) < volume:
        return out
    pts = _ball(n, p, s)[0]
    size = max(1, _COVER_CHUNK // (len(pts) * n))
    for lo in range(0, len(stack), size):
        labels = coset_labels(stack[lo : lo + size], pts)
        seen = np.zeros((len(labels), volume), dtype=bool)
        seen[np.arange(len(labels))[:, None], labels] = True
        out[lo : lo + size] = seen.all(axis=1)
    return out


def covering_test(hnf_basis: Basis, p: int, s: int) -> bool:
    """True iff every coset representative of one HNF basis lies within
    pow-distance s of the lattice (covering_verdicts for one basis)."""
    return bool(covering_verdicts([hnf_basis], p, s)[0])


@cache
def _difference_grid(n: int, p: int, s: int) -> np.ndarray:
    """Occupancy of [-2k, 2k]^n, k = iroot(s, p), by the differences of
    ball-point pairs: a read-only boolean array of shape (4k + 1,)^n,
    indexed by d + 2k.

    The ball is the union of its x_n-fibers |x_n| <= h(x') over its
    projection x' to the first n - 1 coordinates, where h(x') =
    iroot(s - sum |x'_i|^p, p), so the fiber of the difference set over
    d' is |y| <= H(d'), where H(d') is the largest h(x') + h(x'') over
    the projected pairs with x' - x'' = d'.  Only pairs of projected
    points are formed.

    Differences are marked at key(d), the flat (mixed-radix) index with
    digits d_i + 2k, so key(d) > key(0) iff d's first nonzero coordinate
    is positive.
    """
    proj = ball_points(n - 1, p, s)
    heights = np.array(
        [iroot(s - sum(abs(v) ** p for v in x), p) for x in proj], dtype=np.int64
    )
    k = iroot(s, p)
    radix = 4 * k + 1
    weights = radix ** np.arange(n - 2, -1, -1, dtype=np.int64)
    keys = np.array(proj, dtype=np.int64).reshape(len(proj), n - 1) @ weights
    centre = 2 * k * int(weights.sum())
    reach = np.full(radix ** (n - 1), -1, dtype=np.int64)
    for key, top in zip((keys + centre).tolist(), heights.tolist()):
        at = key - keys  # one x' against every x'': no key repeats
        reach[at] = np.maximum(reach[at], top + heights)
    y = np.abs(np.arange(-2 * k, 2 * k + 1))
    grid = (y <= reach[:, None]).reshape((radix,) * n)
    grid.setflags(write=False)
    return grid


@cache
def _ball_diffs(n: int, p: int, s: int) -> np.ndarray:
    """Nonzero differences of ball-point pairs, one representative per
    {v, -v} pair (first nonzero coordinate positive), as a read-only
    int64 array in lexicographic order."""
    grid = _difference_grid(n, p, s)
    centre = grid.size // 2
    keys = np.flatnonzero(grid.ravel()[centre + 1 :]) + centre + 1
    out = np.column_stack(np.unravel_index(keys, grid.shape)).astype(np.int64)
    out -= grid.shape[0] // 2
    out.setflags(write=False)
    return out


# Hermite's constant as gamma_n^n = num / den for n = 1..4 (Lagrange,
# Gauss, Korkine-Zolotarev; Conway and Sloane, Sphere Packings, Lattices
# and Groups, Table 1.2): every index-M lattice in Z^n has a nonzero
# vector of squared Euclidean norm at most gamma_n M^(2/n).
_HERMITE = {1: (1, 1), 2: (4, 3), 3: (2, 1), 4: (4, 1)}


@cache
def _packing_floor(n: int, p: int, s: int) -> int:
    """T: the least squared Euclidean norm of a nonzero integer vector
    that is not a difference of two points of the ball of pow-radius s.

    Every vector outside the grid [-2k, 2k]^n has a coordinate of size at
    least 2k + 1 and is no difference, so T is the least norm of an
    unmarked grid key, capped at (2k + 1)^2.  The cap matters: a corner
    key can be unmarked with a norm above (2k + 1)^2.
    """
    grid = _difference_grid(n, p, s)
    squares = (np.arange(grid.shape[0], dtype=np.int64) - grid.shape[0] // 2) ** 2
    norms = sum(np.ix_(*[squares] * n))
    return int(norms[~grid].min(initial=(grid.shape[0] // 2 + 1) ** 2))


def _hermite_screened(n: int, volume: int, floor: int) -> bool:
    """True when no index-`volume` lattice in Z^n can have a shortest
    vector of squared norm >= floor: den * floor^n > num * volume^2."""
    num, den = _HERMITE[n]
    return den * floor**n > num * volume**2


_CHUNK = 1 << 12
"""Most (difference, column entry) pairs one sieve step holds at once, so
its temporaries stay small however many differences are live."""

_SURVIVOR_BATCH = 1 << 12
"""Most sieve survivors built at once, and held before the covering test:
at 4-D p=2 one diagonal of volume 32 has 17472, and volume 30 has 46320."""

_COVER_CHUNK = 1 << 15
"""Most (basis, ball point, coordinate) entries one covering step labels
at once: 256 KB of int64 coordinates, about 1 MB with the quotients,
labels and marks.  Larger chunks raised peak RSS and ran no faster."""


_GCD_TABLE_MAX = 128
"""Largest modulus with a table in `_gcd_flat`.  Tables for every
modulus held 2.8 MB at 2-D p=4 to volume 600, where most moduli occur
once, and raised that search's peak RSS by 8%.  Column 1, with a
modulus per row, and a larger modulus read the tables of the
coefficient c instead (`_gcd_rows`): there all 518,051 rows of the 540
column-1 steps, 79% of them with a modulus above 128, read the tables
of c = 1..24."""

_GROUP = 1 << 14
"""Most mask cells, and most (diagonal, difference) pairs, that one
`_sieve_diagonals` call holds: `_survivors` sieves a volume's diagonals
in runs of consecutive ones within this bound, and a larger diagonal
alone.  2^16 ran no faster on 3-D p=2 to volume 200 and raised its peak
RSS by 0.6 MB."""


def _gcd_inverse(c: np.ndarray, d: ArrayLike) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise g = gcd(c, d) and s with s * c == g (mod d), by the
    extended Euclidean algorithm run on whole arrays; d is one modulus or
    one per entry of c."""
    r0, r1 = c % d, np.full_like(c, d)
    s0, s1 = np.ones_like(c), np.zeros_like(c)
    while r1.any():
        go = r1 != 0
        q = r0 // np.where(go, r1, 1)
        r0, r1 = np.where(go, r1, r0), np.where(go, r0 - q * r1, 0)
        s0, s1 = np.where(go, s1, s0), np.where(go, s0 - q * s1, 0)
    return r0, s0


@cache
def _gcd_flat(top: int) -> tuple[np.ndarray, np.ndarray]:
    """`_gcd_inverse` of every residue 0..d-1 for d = 1..top, the tables
    end to end, as read-only int64 arrays: the table of d starts at
    d(d-1)/2 and is indexed by the residue."""
    d = np.repeat(np.arange(1, top + 1, dtype=np.int64), np.arange(1, top + 1))
    flat = _gcd_inverse(np.arange(len(d), dtype=np.int64) - d * (d - 1) // 2, d)
    for t in flat:
        t.setflags(write=False)
    return flat


def _gcd_rows(c: np.ndarray, m: ArrayLike) -> tuple[np.ndarray, np.ndarray]:
    """`_gcd_inverse(c, m)` read off the `_gcd_flat` tables, for one
    modulus m or a modulus per entry.  One m <= _GCD_TABLE_MAX reads its
    own table at c mod m.  Otherwise, when 0 <= c <= _GCD_TABLE_MAX,
    the tables of the values of c serve, as the sieve's c are difference
    coordinates and take few values.  A flat table is sized to the next
    power of two, so at most 8 sizes are cached.

    With m = q * c + r, the table of c at r gives g = gcd(r, c) =
    gcd(c, m) and s with s * r == g (mod c), so s * r + u * c = g for an
    integer u, hence s * m + (u - s * q) * c = g and u - s * q is an
    inverse.  c = 0 gives g = m and the inverse 0.  Other c take one
    `_gcd_inverse` call.
    """
    if np.ndim(m) == 0 and m <= _GCD_TABLE_MAX:
        g_all, s_all = _gcd_flat(min(1 << int(m).bit_length(), _GCD_TABLE_MAX))
        at = m * (m - 1) // 2 + c % m  # the table of m, at c mod m
        return g_all[at], s_all[at]
    if not len(c) or c.min() < 0 or c.max() > _GCD_TABLE_MAX:
        return _gcd_inverse(c, m)
    top = 1 << int(c.max()).bit_length()  # > c.max(), and at least 1
    g_all, s_all = _gcd_flat(min(top, _GCD_TABLE_MAX))
    one = np.maximum(c, 1)
    q, r = np.divmod(m, one)
    at = one * (one - 1) // 2 + r  # the table of d starts at d(d-1)/2
    g, s = g_all[at], s_all[at]
    inv = ((g - s * r) // one - s * q) % m
    zero = c == 0
    return np.where(zero, m, g), np.where(zero, 0, inv)


def _solutions(
    g: np.ndarray, inv: np.ndarray, t: np.ndarray, d: ArrayLike
) -> tuple[np.ndarray, np.ndarray]:
    """Every solution a in [0, d) of c * a == t (mod d), entry by entry,
    given g = gcd(c, d), which divides t, and inv * c == g (mod d): the g
    values a = inv * (t / g) mod (d / g) + i * d / g, i < g.  Returns
    (entry, a), entries in order and each one's a increasing."""
    step = d // g
    first = inv * (t // g) % step
    at = np.repeat(np.arange(len(g)), g)
    i = np.arange(len(at)) - np.repeat(np.cumsum(g) - g, g)
    return at, first[at] + i * step[at]


def _sieve_column(
    bad: np.ndarray, diag: tuple[int, ...], j: int, rows: np.ndarray
) -> None:
    """Mark in `bad`, the mask of diagonal `diag`, every candidate that
    contains a difference in `rows`, for a column j >= 2.

    A row [branch, c_0..c_{j-1}, v_j..v_{n-1}] says that the difference v
    agrees with sum_{i<j} c_i * row_i in its first j coordinates for the
    candidates whose entries in columns < j are the digits of `branch`
    (column k adds k digits of radix d_k, row 0 first).  Column j needs
    t = v_j - sum_{i<j} c_i * a_ij to be a multiple of d_j: a_0j..a_{j-2,j}
    are enumerated, a_{j-1,j} is solved for, and each solution carries
    the row on with c_j = t / d_j, or is marked at the last column.
    g = gcd(c_{j-1}, d_j) and the inverse come from `_gcd_rows`.

    At the last column a row with g = 1 has exactly one solution per
    entry, a = inverse * t mod d_j, which is marked directly.  The last
    column walks only the entry tuples with a_{0,j} <= d_j // 2, a prefix
    of the enumeration order; `_sieve_diagonals` fills in the rest by the
    reflection x_n -> -x_n, which serves for n >= 3, as here.
    """
    if not len(rows):
        return
    d, last = diag[j], j + 1 == len(diag)
    per = d ** (j - 1)
    walked = (d // 2 + 1) * per // d if last else per
    entries = np.indices((d,) * (j - 1)).reshape(j - 1, per).T[:walked]
    size = max(1, _CHUNK // walked)
    g_all, inv_all = _gcd_rows(rows[:, j], d)
    if last:
        unit = g_all == 1
        solved, inv_unit = rows[unit], inv_all[unit]
        for lo in range(0, len(solved), size):
            chunk = solved[lo : lo + size]
            t = chunk[:, j + 1, None] - chunk[:, 1:j] @ entries.T
            a = inv_unit[lo : lo + size, None] * t % d
            bad[(chunk[:, 0, None] * per + np.arange(walked)) * d + a] = True
        rows, g_all, inv_all = rows[~unit], g_all[~unit], inv_all[~unit]
    for lo in range(0, len(rows), size):
        chunk = rows[lo : lo + size]
        g, inv = g_all[lo : lo + size], inv_all[lo : lo + size]
        c = chunk[:, 1 : j + 1]
        t = chunk[:, j + 1, None] - c[:, :-1] @ entries.T
        r, e = np.nonzero(t % g[:, None] == 0)
        at, a = _solutions(g[r], inv[r], t[r, e], d)
        r, e = r[at], e[at]
        branch = (chunk[r, 0] * per + e) * d + a
        if last:
            bad[branch] = True
            continue
        nxt = chunk[r]
        nxt[:, 0] = branch
        nxt[:, j + 1] = (t[r, e] - c[r, -1] * a) // d
        _sieve_column(bad, diag, j + 1, nxt)


def _sieve_diagonals(
    diags: list[tuple[int, ...]], diffs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(bad, starts): one mask over the HNFs of every diagonal in `diags`
    in turn, True where the lattice contains one of `diffs`.  Diagonal q
    owns bad[starts[q] : starts[q + 1]], indexed by mixed-radix entry
    index (see `_sieve_column`).

    Columns 0 and 1 enumerate no entry, so they run over all the
    diagonals at once, with a modulus per row: column 0 keeps, for each
    diagonal, the differences with d_0 | v_0 (one `np.nonzero` over
    diagonals x differences), and column 1 solves c_0 * a_01 == v_1
    (mod d_1) with c_0 = v_0 / d_0, its gcds and inverses from
    `_gcd_rows`.  For n = 2 each solution is a marked cell.  For n >= 3
    each diagonal's solutions, a contiguous run of rows, go on to
    `_sieve_column` from column 2, one diagonal at a time.

    Precondition: the set of +-`diffs` is closed under negating the last
    coordinate, as every set of ball differences is.  Negating x_n maps
    the HNF with last-column entries a_{i,n-1} to the one on the same
    diagonal with entries -a_{i,n-1} mod d_n, and maps +-`diffs` onto
    itself, so the two cells get the same verdict.  For n >= 3 the walk
    marks only cells with a_{0,n-1} <= d_n // 2; every other cell has
    a_{0,n-1} > d_n // 2, is never marked, and takes the verdict of its
    mirror cell, which has a_{0,n-1} < d_n / 2 and was fully sieved.
    That copy equals OR-ing the diagonal's mask with its mirror image.
    It is one fancy index with an index array of length d_n per
    last-column axis, and its one temporary holds less than half the
    diagonal's mask.
    """
    starts = np.cumsum([0] + [hnf_count(diag) for diag in diags])
    bad = np.zeros(starts[-1], dtype=bool)
    if not len(diffs):  # nothing to mark, as when r_min = 0
        return bad, starts
    n, cols = diffs.shape[1], np.array(diags, dtype=np.int64)
    k, r = np.nonzero(diffs[:, 0] % cols[:, :1] == 0)
    if n == 1:  # one cell per diagonal (M,), bad iff M divides some v_0
        bad[starts[k]] = True
        return bad, starts
    if not len(r):
        return bad, starts
    c, t, m = diffs[r, 0] // cols[k, 0], diffs[r, 1], cols[k, 1]
    g, inv = _gcd_rows(c, m)
    ok = np.flatnonzero(t % g == 0)
    at, a = _solutions(g[ok], inv[ok], t[ok], m[ok])
    ok = ok[at]
    if n == 2:
        bad[starts[k[ok]] + a] = True
        return bad, starts
    rows = np.empty((len(ok), n + 1), dtype=np.int64)
    rows[:, 0], rows[:, 1] = a, c[ok]
    rows[:, 2] = (t[ok] - c[ok] * a) // m[ok]
    rows[:, 3:] = diffs[r[ok], 2:]
    cuts = np.searchsorted(k[ok], np.arange(len(diags) + 1)).tolist()
    for q, diag in enumerate(diags):
        if cuts[q] == cuts[q + 1]:
            continue
        mask = bad[starts[q] : starts[q + 1]]
        _sieve_column(mask, diag, 2, rows[cuts[q] : cuts[q + 1]])
        d, half = diag[-1], diag[-1] // 2 + 1
        if half < d:
            cells = mask.reshape(-1, *(d,) * (n - 1))
            neg = -np.arange(d) % d
            mirror = np.ix_(neg[half:], *[neg] * (n - 2))
            cells[:, half:] = cells[(slice(None), *mirror)]
    return bad, starts


def _bases_at(indices: np.ndarray, diag: tuple[int, ...]) -> np.ndarray:
    """The HNF bases whose above-diagonal entries are the mixed-radix
    digits of `indices` (see _sieve_column), as a (B, n, n) int64 stack."""
    n = len(diag)
    rows = np.zeros((len(indices), n, n), dtype=np.int64)
    for j in range(n - 1, -1, -1):
        rows[:, j, j] = diag[j]
        for i in range(j - 1, -1, -1):
            indices, rows[:, i, j] = np.divmod(indices, diag[j])
    return rows


def _diagonal_screened(diag: tuple[int, ...], floor: int) -> bool:
    """True when Hermite's inequality puts a nonzero vector of squared
    norm below `floor` in every lattice with HNF diagonal `diag`.

    The last m rows of such an HNF generate the lattice's vectors with
    n - m leading zeros, of index d_(n-m+1)...d_n in Z^m; m = n is the
    volume screen of `_volume_task`.
    """
    return any(
        _hermite_screened(m, prod(diag[-m:]), floor) for m in range(1, len(diag))
    )


def _diagonal_groups(
    diags: list[tuple[int, ...]], width: int
) -> Iterator[list[tuple[int, ...]]]:
    """`diags` in order, cut into runs that hold at most _GROUP cells and
    at most _GROUP (diagonal, difference) pairs, `width` differences per
    diagonal; a diagonal past either bound forms a run of its own."""
    group: list[tuple[int, ...]] = []
    cells = 0
    for diag in diags:
        size = hnf_count(diag)
        if group and (cells + size > _GROUP or (len(group) + 1) * width > _GROUP):
            yield group
            group, cells = [], 0
        group.append(diag)
        cells += size
    if group:
        yield group


def _survivors(volume: int, diffs: np.ndarray, floor: int = 0) -> Iterator[np.ndarray]:
    """Every HNF basis of index `volume` whose lattice contains none of
    `diffs`, once each, as an (n, n) int64 array: by diagonal, then by
    mixed-radix entry index.

    Every nonzero vector of squared norm below `floor` must be in
    `diffs` up to sign, as below T (see the module docstring); diagonals
    that floor screens are skipped unsieved.  The default 0 screens none.
    The other diagonals are sieved in `_diagonal_groups`.
    """
    diags = [
        diag
        for diag in _ordered_factorizations(volume, diffs.shape[1])
        if not _diagonal_screened(diag, floor)
    ]
    for group in _diagonal_groups(diags, len(diffs)):
        bad, starts = _sieve_diagonals(group, diffs)
        indices = np.flatnonzero(~bad)
        cuts = np.searchsorted(indices, starts).tolist()
        for q, diag in enumerate(group):
            for lo in range(cuts[q], cuts[q + 1], _SURVIVOR_BATCH):
                hi = min(lo + _SURVIVOR_BATCH, cuts[q + 1])
                yield from _bases_at(indices[lo:hi] - starts[q], diag)


# The supported dimensions: those of enumerate_sublattices, the sieve's oracle.
_SIEVES = dict.fromkeys((1, 2, 3, 4), _survivors)


@dataclass(frozen=True)
class SearchQuery:
    n: int
    p: int
    volume_min: int
    volume_max: int
    t_max: int | None = 1
    dedupe: bool = True

    def __post_init__(self) -> None:
        if self.n not in _SIEVES:
            raise ValueError(
                f"supported dimensions are {min(_SIEVES)}..{max(_SIEVES)}, got {self.n}"
            )
        if self.p < 1:
            raise ValueError("p must be a positive integer")
        if not 1 <= self.volume_min <= self.volume_max:
            raise ValueError("need 1 <= volume_min <= volume_max")
        if self.t_max is not None and self.t_max < 0:
            raise ValueError("t_max must be nonnegative (or None for no cap)")


@dataclass(frozen=True)
class SearchCounts:
    enumerated: int
    injectivity_survivors: int
    covering_survivors: int


@dataclass(frozen=True)
class SearchReport:
    query: SearchQuery
    hits: tuple[tuple[Basis, CodeAnalysis], ...]
    counts: SearchCounts
    bound_provenance: str


_VolumeResult = tuple[int, list[tuple[Basis, CodeAnalysis, int]], int, int, float]


def _volume_task(args: tuple[int, int, int, int | None]) -> _VolumeResult:
    """Process one volume; returns (volume, orbit records, sieve
    survivors, covering passes, seconds)."""
    n, p, volume, t_max = args
    begin = time.monotonic()
    k = inf if t_max is None else t_max
    s_r, _ = algorithm_radii(n, p, volume)
    # r_min = pred^(k-1)(s_r), clamped at 0; s_r for k <= 1.
    elements = distance_set_at_least(n, p, s_r)
    r_min = elements[max(elements.index(s_r) + 1 - max(k, 1), 0)]
    cap = (volume // 2) ** p
    s_cov, steps = s_r, 0
    while steps < k and s_cov < cap:
        s_cov, steps = successor(n, p, s_cov), steps + 1
    everyone_covers = s_cov >= cap or mu(n, p, r_min) == volume
    # The least possible t is 0 only when the forced ball tiles.  Under a
    # cap of 0 or 1, packing radius zero is reported only for the trivial
    # tiling by Z^n itself (volume 1), not for degenerate larger codes.
    least_t = 0 if mu(n, p, s_r) == volume else 1
    skip = least_t > k or (k <= 1 and s_r == 0 and volume > 1)
    survivors: Iterator[np.ndarray] = iter(())
    if not skip:
        # The differences come first: their grid is the one the screen reads.
        diffs = _ball_diffs(n, p, r_min)
        floor = _packing_floor(n, p, r_min)
        if not _hermite_screened(n, volume, floor):
            survivors = _SIEVES[n](volume, diffs, floor)
    inj = 0
    passes: list[Basis] = []
    while batch := list(islice(survivors, _SURVIVOR_BATCH)):
        inj += len(batch)
        stack = np.stack(batch)
        if not everyone_covers:
            stack = stack[covering_verdicts(stack, p, s_cov)]
        passes += [tuple(map(tuple, basis)) for basis in stack.tolist()]
    pending = set(passes)
    records: list[tuple[Basis, CodeAnalysis, int]] = []
    for basis in passes:
        if basis not in pending:
            continue
        orbit = congruence_orbit(basis)
        canon = min(orbit)
        if basis not in orbit:
            raise VerificationError(f"the sieve yielded {basis}, which is not an HNF")
        if hnf_det(canon) != volume:
            raise VerificationError(f"canonical form {canon} is not of index {volume}")
        if not orbit <= pending:
            raise VerificationError(
                f"{min(orbit - pending)} is congruent to the covering pass"
                f" {basis} but failed the sieve or the covering test"
            )
        pending -= orbit
        a = analyze(canon, p)
        if a.r_pow < r_min or a.R_pow > s_cov or (a.r_pow == s_r and a.t > k):
            raise VerificationError(
                f"sieve hit {basis} has r = {a.r_pow}, R = {a.R_pow}, t = {a.t};"
                f" expected r >= {r_min}, R <= {s_cov} and, if r = {s_r}, t <= {k}"
            )
        if not a.mu_r <= a.det <= a.mu_R:
            raise VerificationError(f"mu_r <= det <= mu_R fails for {a}")
        if a.t <= k:
            records.append((canon, a, len(orbit)))
    return volume, records, inj, len(passes), time.monotonic() - begin


_SLICE_S = 0.5
"""Seconds of work after which a task of `run_search` returns at its
next volume's end, so that the parent checkpoints it and queues the rest
of the run again."""

_RUNS_PER_JOB = 8
"""About how many runs of consecutive volumes `run_search` gives each
worker: enough for the cheap low runs to even out the finish, few enough
that each run reuses its per-r_min caches."""


def _run_task(
    args: tuple[int, int, list[int], int | None, float]
) -> tuple[list[_VolumeResult], list[int]]:
    """`_volume_task` over a run of volumes in order, returning after
    the first volume that ends `slice_s` seconds or more after the start:
    (the results so far, the volumes left)."""
    n, p, volumes, t_max, slice_s = args
    begin = time.monotonic()
    done = []
    for i, volume in enumerate(volumes):
        done.append(_volume_task((n, p, volume, t_max)))
        if time.monotonic() - begin >= slice_s:
            return done, volumes[i + 1 :]
    return done, []


def checkpoint_header(query: SearchQuery) -> str:
    """The query fields a checkpoint's records depend on, as kept in the
    `<checkpoint>.query` file written beside it."""
    return f"n={query.n} p={query.p} t_max={query.t_max}"


def load_checkpoint(
    path: str, query: SearchQuery | None = None
) -> dict[int, tuple[int, int]]:
    """Parse a checkpoint file into {volume: (hit count, millis)}.

    Lines are `M<TAB>hits<TAB>millis`; on duplicates the last line wins
    (resumed runs append fresh lines for recomputed volumes).  A final
    line without its newline is what an interrupted write leaves; it is
    ignored, so that volume is recomputed.  Given a query, a file that
    holds a complete record beside a `<path>.query` file naming another
    query raises CheckpointError, because the records would answer that
    query; without a record or without a header the file loads.  A
    malformed line raises CheckpointError too.
    """
    out: dict[int, tuple[int, int]] = {}
    if not os.path.exists(path):
        return out
    with open(path, "r", encoding="utf-8") as fh:
        lines = list(filter(str.strip, fh.read().split("\n")[:-1]))
    if query is not None and lines and os.path.exists(path + ".query"):
        with open(path + ".query", "r", encoding="utf-8") as fh:
            written = fh.read().strip()
        if written != checkpoint_header(query):
            raise CheckpointError(
                f"checkpoint {path} was written for {written!r}, "
                f"not for {checkpoint_header(query)!r}"
            )
    for line in lines:
        try:
            m, h, ms = map(int, line.split("\t"))
        except ValueError:
            raise CheckpointError(f"checkpoint {path} has a malformed line {line!r}")
        out[m] = (h, ms)
    return out


def _append_checkpoint(path: str, query: SearchQuery) -> TextIO:
    """Open a checkpoint for appending, first cutting off a final line
    that an interrupted write left without its newline, and write the
    query's `<path>.query` file.  `load_checkpoint` has refused any other
    header beside a record, so this pins the query of a checkpoint that
    had no header or no record."""
    with open(path, "ab+") as fh:
        fh.seek(0)
        fh.truncate(fh.read().rfind(b"\n") + 1)
    with open(path + ".query", "w", encoding="utf-8") as fh:
        fh.write(checkpoint_header(query) + "\n")
    return open(path, "a", encoding="utf-8")


def jobs_from_env() -> int:
    """Worker count from the QP_JOBS environment variable, else 1."""
    text = os.environ.get("QP_JOBS", "1")
    if not text.isdecimal() or int(text) < 1:
        raise ValueError(f"QP_JOBS must be a positive integer, got {text!r}")
    return int(text)


def run_search(
    query: SearchQuery,
    jobs: int | None = None,
    checkpoint: str | None = None,
    progress: TextIO | None = None,
) -> SearchReport:
    """Execute the query; see module docstring for strategy.

    jobs defaults to the QP_JOBS environment variable, else 1.  One job,
    or one volume to compute, runs the volumes in order in this process.
    Otherwise a pool of `jobs` processes takes the volumes as about
    `_RUNS_PER_JOB * jobs` runs of consecutive volumes, highest run
    first, in tasks of one time slice (`_SLICE_S`) each; the rest of a
    run is queued again after its slice.  The first error a task raises
    reaches the caller, and the tasks still queued are cancelled.

    With a checkpoint path, volumes recorded there with zero hits are
    skipped outright and hit-bearing ones are recomputed (the analysis
    objects are not persisted); each completed volume appends one line,
    in completion order.  A checkpoint that cannot be opened, holds a
    malformed line or was written for another query raises
    CheckpointError, a ValueError, before any volume is computed.  With
    a progress stream, each completed volume also writes one line there:
    its volume, hits, sieve survivors, covering passes and milliseconds
    to one decimal.
    """
    if jobs is None:
        jobs = jobs_from_env()
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    try:
        done = load_checkpoint(checkpoint, query) if checkpoint else {}
        ck = _append_checkpoint(checkpoint, query) if checkpoint else None
    except (OSError, UnicodeDecodeError) as exc:
        raise CheckpointError(str(exc)) from exc
    volumes = list(range(query.volume_min, query.volume_max + 1))
    skipped = [m for m in volumes if m in done and done[m][0] == 0]
    todo = [m for m in volumes if m not in done or done[m][0] != 0]
    tasks = [(query.n, query.p, m, query.t_max) for m in todo]
    results: list[tuple[list[tuple[Basis, CodeAnalysis, int]], int, int]] = []

    def consume(produced) -> None:
        for volume, records, inj, cov, seconds in produced:
            results.append((records, inj, cov))
            hits = sum(s for *_, s in records)
            if ck is not None:
                ck.write(f"{volume}\t{hits}\t{int(seconds * 1000.0)}\n")
                ck.flush()
            if progress is not None:
                progress.write(
                    f"volume={volume} hits={hits} survivors={inj}"
                    f" passes={cov} ms={seconds * 1000.0:.1f}\n"
                )
                progress.flush()

    try:
        if jobs == 1 or len(tasks) <= 1:
            consume(map(_volume_task, tasks))
        else:
            size = -(-len(todo) // (_RUNS_PER_JOB * jobs))
            runs = [todo[lo : lo + size] for lo in range(0, len(todo), size)]
            pool = ProcessPoolExecutor(max_workers=jobs)

            def submit(run: list[int]) -> Future:
                args = (query.n, query.p, run, query.t_max, _SLICE_S)
                return pool.submit(_run_task, args)

            try:
                pending = {submit(run) for run in reversed(runs)}
                while pending:
                    ready, pending = wait(pending, return_when=FIRST_COMPLETED)
                    # Results before errors, so the checkpoint keeps them.
                    for future in sorted(ready, key=lambda f: f.exception() is not None):
                        produced, rest = future.result()
                        consume(produced)
                        if rest:
                            pending.add(submit(rest))
            finally:
                pool.shutdown(cancel_futures=True)
    finally:
        if ck is not None:
            ck.close()
    # Orbits of a volume are disjoint, so no two records share a canonical form.
    hits = [
        (canon, a)
        for records, _, _ in results
        for canon, a, size in records
        for _ in range(1 if query.dedupe else size)
    ]
    hits.sort(key=lambda item: (item[1].det, item[0]))
    provenance = (
        f"volume range [{query.volume_min}, {query.volume_max}] supplied by caller"
    )
    if skipped:
        provenance += (
            f"; resumed from checkpoint, {len(skipped)} zero-hit volumes skipped"
            " (survivor counts cover recomputed volumes only)"
        )
    return SearchReport(
        query=query,
        hits=tuple(hits),
        counts=SearchCounts(
            sum(sublattice_count(query.n, m) for m in volumes),
            sum(inj for _, inj, _ in results),
            sum(cov for _, _, cov in results),
        ),
        bound_provenance=provenance,
    )
