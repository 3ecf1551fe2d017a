"""Integer lattices: HNF, sublattice enumeration, canonical congruence
forms, coset labels, and exact closest-point distances (a test oracle).

Bases are plain tuples of row tuples; rows generate the lattice.  All
arithmetic is on Python ints, which are arbitrary precision, so the
products appearing at n = 3, volumes ~1500 (and far beyond) are exact
with no overflow concerns.  Two kernels are int64: the coset labels, and
`hnf_stack`, which refuses entries past 2^31 rather than overflow.

The Hermite normal form used throughout is row-style: upper triangular,
positive diagonal d_1..d_n, and 0 <= entry(i, j) < d_j for i < j.  Each
sublattice of Z^n has exactly one such basis, which makes the HNF both
the equality test and the enumeration order.  Routines that take an
`hnf_basis` trust it, and read the index off the diagonal (`hnf_det`);
a general basis has index `hnf_det(hnf(basis))`.

`congruence_orbit` is the set of HNFs of a lattice's images under the
signed coordinate permutations, the symmetries of every lp ball; it
tries half of them, those with first output sign +1, because -L = L.
`canonical_form` is the least member of that set.  At n = 4 an orbit
has 192 images, normalized by one `hnf_stack` call in about 0.56 ms,
against 3.0 ms for 192 `hnf` calls (4-D p=2 search to volume 40, 2-vCPU
x86-64 VM, Python 3.11).  A 2-D orbit has only 4 images, too few to
spread numpy's per-call cost: it took 50 us through `hnf_stack` and
28 us through four `hnf` calls, so n <= 2 takes the exact path (3-D:
119 us stacked against 243 us exact).  The 2313 covering passes of a 4-D p=2 search to
volume 14 form only 18 orbits, so the search builds each orbit once
(see `search`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import permutations, product
from math import isqrt, prod
from typing import Iterator, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .balls import iroot
from .errors import Int64RangeError, SingularMatrixError

Row = tuple[int, ...]
Basis = tuple[Row, ...]


def as_basis(rows: Sequence[Sequence[int]]) -> Basis:
    """Normalize any sequence-of-sequences of ints to the tuple form."""
    b = tuple(tuple(int(x) for x in row) for row in rows)
    n = len(b)
    if n == 0 or any(len(row) != n for row in b):
        raise ValueError("basis must be a square matrix with at least one row")
    return b


def hnf_det(hnf_basis: Sequence[Sequence[int]]) -> int:
    """Index of the lattice of an HNF basis: the product of its diagonal."""
    return prod(row[i] for i, row in enumerate(hnf_basis))


def hnf(basis: Sequence[Sequence[int]]) -> Basis:
    """Row-style Hermite normal form of the row span of `basis`.

    Raises SingularMatrixError when the rows are linearly dependent.
    """
    b = as_basis(basis)
    n = len(b)
    rows = [list(r) for r in b]
    for col in range(n):
        # Euclidean-reduce the entries of this column across rows col..n-1
        # until a single nonzero pivot remains.
        while True:
            nz = [i for i in range(col, n) if rows[i][col] != 0]
            if not nz:
                raise SingularMatrixError("rows are linearly dependent")
            i0 = min(nz, key=lambda i: abs(rows[i][col]))
            if len(nz) == 1:
                break
            piv = rows[i0][col]
            for i in nz:
                if i == i0:
                    continue
                q = rows[i][col] // piv
                if q:
                    rows[i] = [a - q * c for a, c in zip(rows[i], rows[i0])]
        if i0 != col:
            rows[col], rows[i0] = rows[i0], rows[col]
        if rows[col][col] < 0:
            rows[col] = [-a for a in rows[col]]
        piv = rows[col][col]
        for i in range(col):
            q = rows[i][col] // piv
            if q:
                rows[i] = [a - q * c for a, c in zip(rows[i], rows[col])]
    return tuple(tuple(r) for r in rows)


def _ordered_factorizations(m: int, k: int) -> Iterator[tuple[int, ...]]:
    """All k-tuples of positive integers with product m, lexicographic."""
    if k == 1:
        yield (m,)
        return
    low = [d for d in range(1, isqrt(m) + 1) if m % d == 0]
    for d in low + [m // d for d in reversed(low) if d * d != m]:
        for rest in _ordered_factorizations(m // d, k - 1):
            yield (d, *rest)


def enumerate_sublattices(n: int, volume: int) -> Iterator[Basis]:
    """Every sublattice of Z^n with index `volume`, once each, as HNF bases.

    Deterministic order: diagonals lexicographically, then the above-diagonal
    entries in row-major odometer order.
    """
    if n not in (1, 2, 3, 4):
        raise ValueError("supported dimensions are 1..4")
    if volume < 1:
        raise ValueError("volume must be positive")
    cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for diag in _ordered_factorizations(volume, n):
        ranges = [range(diag[j]) for (_, j) in cells]
        for combo in product(*ranges):
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = diag[i]
            for (i, j), v in zip(cells, combo):
                rows[i][j] = v
            yield tuple(tuple(r) for r in rows)


def hnf_count(diag: tuple[int, ...]) -> int:
    """How many HNFs have diagonal `diag`: prod d_j**(j-1), the entry
    tuples of each column j = 1..n."""
    return prod(d**j for j, d in enumerate(diag))


def sublattice_count(n: int, volume: int) -> int:
    """Number of sublattices of Z^n with index `volume`: `hnf_count`
    summed over the diagonal factorizations."""
    return sum(map(hnf_count, _ordered_factorizations(volume, n)))


@cache
def signed_permutations(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The 2^n * n! signed coordinate permutations, each encoded as a
    tuple of (source index, sign) per output coordinate."""
    out = []
    for perm in permutations(range(n)):
        for signs in product((1, -1), repeat=n):
            out.append(tuple((perm[j], signs[j]) for j in range(n)))
    return tuple(out)


@cache
def _half_group(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(source, sign) arrays of shape (T, n) for the T = 2^(n-1) * n!
    signed permutations with first output sign +1."""
    half = [t for t in signed_permutations(n) if t[0][1] > 0]
    table = np.array(half, dtype=np.int64)
    return table[:, :, 0], table[:, :, 1]


# Entries of at most 2^31 in absolute value keep every product q * entry
# of an elimination step, and the difference it leaves, inside int64.
_STACK_ENTRY_BOUND = 1 << 31


def _check_int64_safe(h: np.ndarray) -> None:
    # Not np.abs(h).max(): the absolute value of -2^63 is -2^63 in int64.
    bound = _STACK_ENTRY_BOUND
    if h.max(initial=0) > bound or h.min(initial=0) < -bound:
        raise Int64RangeError(
            "an HNF stack entry exceeds 2^31; use the exact `hnf` instead"
        )


def hnf_stack(stack: ArrayLike) -> np.ndarray:
    """Row-style Hermite normal form of every matrix of a (B, n, n)
    int64 stack, the same as `hnf` of each, computed for all at once.

    Column by column, Euclid's algorithm runs on every matrix together:
    the nonzero entry of least absolute value is the pivot, and each
    other entry loses its floor quotient by the pivot times the pivot
    row, until the pivot is the one nonzero entry left.  The pivot row
    then moves into place, its sign makes the diagonal positive, and
    the rows above are reduced into [0, d).  The result is exact: on
    input and before each elimination step Int64RangeError is raised if
    an entry exceeds 2^31, past which an int64 step could overflow.  A
    rank-deficient member raises SingularMatrixError.
    """
    h = np.array(stack, dtype=np.int64)
    count, n = h.shape[0], h.shape[-1]
    members = np.arange(count)
    _check_int64_safe(h)
    for col in range(n - 1):
        entries = h[:, col:, col]
        at, pivot = _pivots(entries, members)
        # Euclid keeps a nonzero entry in a column that has one.
        if np.count_nonzero(pivot) < count:
            raise SingularMatrixError("rows are linearly dependent")
        while np.count_nonzero(entries) > count:
            _check_int64_safe(h)
            q = entries // pivot[:, None]
            q[members, at] = 0
            pivot_rows = h[members, col + at, col:]
            h[:, col:, col:] -= q[:, :, None] * pivot_rows[:, None, :]
            at, pivot = _pivots(entries, members)
        rows = h[members, col + at, col:] * np.sign(pivot)[:, None]
        h[members, col + at, col:] = h[:, col, col:]
        h[:, col, col:] = rows
        if col:
            _check_int64_safe(h)
            q = h[:, :col, col] // rows[:, :1]
            h[:, :col, col:] -= q[:, :, None] * rows[:, None, :]
    # The last row is zero but for its diagonal entry.
    d = np.abs(h[:, -1, -1])
    if np.count_nonzero(d) < count:
        raise SingularMatrixError("rows are linearly dependent")
    h[:, -1, -1] = d
    h[:, :-1, -1] %= d[:, None]
    return h


def _pivots(
    entries: np.ndarray, members: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row offset and value of each member's nonzero entry of least
    absolute value in a (B, rows) column; |entry| - 1 read as unsigned
    puts the zeros last."""
    at = (np.abs(entries) - 1).view(np.uint64).argmin(axis=1)
    return at, entries[members, at]


def congruence_orbit(basis: Sequence[Sequence[int]]) -> frozenset[Basis]:
    """The HNFs of every image of the lattice under a signed coordinate
    permutation.  A transform and its negation give L and -L = L, so only
    those with first output sign +1 are tried: the 2^(n-1) * n! images
    of the lattice's HNF go through one `hnf_stack` call for n >= 3, or
    through the exact `hnf` one by one for n <= 2 and when their entries
    are too large for the stack."""
    h = hnf(basis)
    if len(h) > 2:
        try:
            return _orbit_stacked(h)
        except OverflowError:
            pass
    return _orbit_exact(h)


def _orbit_stacked(h: Basis) -> frozenset[Basis]:
    """`congruence_orbit` of an HNF through one `hnf_stack` call."""
    source, sign = _half_group(len(h))
    images = np.array(h, dtype=np.int64)[:, source] * sign
    normal = hnf_stack(images.transpose(1, 0, 2)).tolist()
    return frozenset(tuple(map(tuple, m)) for m in normal)


def _orbit_exact(h: Basis) -> frozenset[Basis]:
    """`congruence_orbit` of an HNF through one Python `hnf` per image."""
    source, sign = _half_group(len(h))
    images = np.array(h, dtype=object)[:, source] * sign
    return frozenset(hnf(m) for m in images.transpose(1, 0, 2).tolist())


def canonical_form(basis: Sequence[Sequence[int]]) -> Basis:
    """Canonical representative of the congruence class of the lattice:
    the lexicographically smallest HNF of its orbit.  Two lattices are
    congruent iff their canonical forms are equal."""
    return min(congruence_orbit(basis))


def coset_labels(hnf_basis: ArrayLike, points: ArrayLike) -> np.ndarray:
    """Coset index in [0, det) of every row of `points`, as int64 (so
    det must stay below 2^63).

    Each row is reduced down the HNF diagonal into the box
    0 <= v_i < d_i, which is read as a mixed-radix number with the first
    coordinate most significant; two points get the same label iff they
    lie in the same coset of the lattice.  `hnf_basis` may also be a
    stack of B HNFs of shape (B, n, n); the labels then have shape
    (B, P), row b under basis b, for P points shared by every basis or
    for points of shape (B, P, n), one set per basis.
    """
    h = np.asarray(hnf_basis, dtype=np.int64)
    stack = h.reshape(-1, *h.shape[-2:])
    n = stack.shape[-1]
    pts = np.asarray(points, dtype=np.int64)
    # One (P,) or (B, P) plane per coordinate, reduced as rows 0..n-1 are used.
    v = list(pts.transpose(2, 0, 1) if pts.ndim == 3 else pts.reshape(-1, n).T)
    labels = 0
    for i in range(n):
        d = stack[:, i, i, None]
        q, r = np.divmod(v[i], d)
        for j in range(i + 1, n):
            v[j] = v[j] - q * stack[:, i, j, None]
        labels = labels * d + r
    return labels if h.ndim == 3 else labels[0]


def _norm_pow(v: Sequence[int], p: int) -> int:
    return sum(abs(x) ** p for x in v)


def _babai_seed(h: Basis, p: int, x: Sequence[int]) -> int:
    """Pow-distance from x to one reasonable lattice point (rounded
    back-substitution through the triangular basis); an upper bound for
    the exact search."""
    n = len(h)
    y = [Fraction(0)] * n
    for i in range(n):
        acc = Fraction(x[i])
        for k in range(i):
            acc -= y[k] * h[k][i]
        y[i] = acc / h[i][i]
    coeffs = [round(c) for c in y]  # banker's rounding is fine for a seed
    v = [0] * n
    for i in range(n):
        for j in range(n):
            v[j] += coeffs[i] * h[i][j]
    return _norm_pow([a - b for a, b in zip(x, v)], p)


def closest_lattice_distance_pow(
    basis: Sequence[Sequence[int]], p: int, x: Sequence[int]
) -> int:
    """Exact min over lattice points v of sum(|x_i - v_i|**p).

    Seeds an upper bound by Babai-style rounding, then enumerates every
    lattice point within that bound through the triangular structure,
    shrinking the bound as better points appear.
    """
    h = hnf(basis)
    n = len(h)
    xs = [int(c) for c in x]
    best = _babai_seed(h, p, xs)
    if best == 0:
        return 0
    # Choose v = sum_i y_i * row_i, deciding y in index order i = 0..n-1;
    # coordinate i of v is fixed once y_0..y_i are chosen because rows
    # below i have zeros there.
    partial = [0] * n  # running coordinates of v

    def descend(i: int, used: int) -> None:
        nonlocal best
        if i == n:
            if used < best:
                best = used
            return
        d = h[i][i]
        rem = best - used  # strictly positive slack still available
        if rem <= 0:
            return
        k = iroot(rem - 1, p)
        lo = (xs[i] - partial[i] - k + d - 1) // d  # ceil of (delta - k)/d
        hi = (xs[i] - partial[i] + k) // d
        for y in range(lo, hi + 1):
            for j in range(i, n):
                partial[j] += y * h[i][j]
            gap = abs(xs[i] - partial[i]) ** p
            if used + gap < best:
                descend(i + 1, used + gap)
            for j in range(i, n):
                partial[j] -= y * h[i][j]

    descend(0, 0)
    return best
