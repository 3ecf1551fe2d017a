"""Shared helpers: independent brute-force oracles and canonicalization.

The oracles deliberately reimplement distance and coverage logic from
scratch (per-coordinate nearest-translate reduction over explicit
upper-triangular bases) so that agreement with the library is evidence,
not circularity.  `classify_ball` counts four ball shapes in closed form,
an oracle for `mu`, and `det` eliminates without the HNF, an oracle for
the index the library reads off it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import product
from typing import Sequence

import numpy as np
import pytest

from lpcodes.balls import ball_points
from lpcodes.lattices import (
    as_basis,
    canonical_form,
    coset_labels,
    hnf,
    signed_permutations,
)


def det(basis: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant (fraction-free Gaussian elimination)."""
    b = as_basis(basis)
    n = len(b)
    m = [list(row) for row in b]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def canon_set(bases):
    """Canonicalize an iterable of bases into a set of class labels."""
    return {canonical_form(b) for b in bases}


def apply_transform(transform, basis):
    """Apply a signed coordinate permutation, given as (source index,
    sign) per output coordinate, to every basis row."""
    return tuple(
        tuple(sign * row[src] for (src, sign) in transform) for row in basis
    )


def congruence_orbit_full_group(basis):
    """The HNFs of the lattice's images under all 2^n * n! signed
    coordinate permutations, the negations included (the library tries
    only half of them)."""
    return {hnf(apply_transform(t, basis)) for t in signed_permutations(len(basis))}


def contains(hnf_basis, point):
    """Membership of an integer point in the lattice."""
    return bool(coset_labels(hnf_basis, [point])[0] == 0)


def is_hnf(basis):
    """True iff `basis` is in row-style Hermite normal form: upper
    triangular, positive diagonal, and 0 <= entry(i, j) < d_j above it."""
    n = len(basis)
    for i in range(n):
        if basis[i][i] <= 0:
            return False
        if any(basis[i][j] != 0 for j in range(i)):
            return False
        if any(not 0 <= basis[k][i] < basis[i][i] for k in range(i)):
            return False
    return True


def brute_dist_pow_2d(hnf, p, x, y):
    """Exact min over the lattice of |probe - point|_p^p.

    `hnf` must be upper triangular ((a,b),(0,d)).  Any lattice point
    within the current best distance has |x - i*a| below the best's
    p-th root, which bounds the i window; the j coordinate folds to a
    residue mod d.
    """
    a, b = hnf[0]
    d = hnf[1][1]
    i0 = round(x / a)
    dy = (y - i0 * b) % d
    dy = min(dy, d - dy)
    best = abs(x - i0 * a) ** p + dy**p
    w = int(math.ceil(best ** (1.0 / p))) + 1
    for i in range(math.ceil((x - w) / a), math.floor((x + w) / a) + 1):
        dx = abs(x - i * a)
        if dx**p > best:
            continue
        dy = (y - i * b) % d
        dy = min(dy, d - dy)
        best = min(best, dx**p + dy**p)
    return best


def brute_dist_pow_3d(hnf, p, probe):
    """Exact min over the lattice of |probe - point|_p^p, 3-D analogue."""
    (a11, a12, a13), (_, a22, a23), (_, _, a33) = hnf
    x, y, z = probe
    i0 = round(x / a11)
    j0 = round((y - i0 * a12) / a22)
    dz = (z - i0 * a13 - j0 * a23) % a33
    dz = min(dz, a33 - dz)
    best = abs(x - i0 * a11) ** p + abs(y - i0 * a12 - j0 * a22) ** p + dz**p
    w = int(math.ceil(best ** (1.0 / p))) + 1
    for i in range(math.ceil((x - w) / a11), math.floor((x + w) / a11) + 1):
        dx = abs(x - i * a11)
        if dx**p > best:
            continue
        yy = y - i * a12
        for j in range(math.ceil((yy - w) / a22), math.floor((yy + w) / a22) + 1):
            dy = abs(yy - j * a22)
            if dx**p + dy**p > best:
                continue
            dz = (z - i * a13 - j * a23) % a33
            dz = min(dz, a33 - dz)
            best = min(best, dx**p + dy**p + dz**p)
    return best


def brute_dist_pow(hnf, p, probe):
    if len(hnf) == 2:
        return brute_dist_pow_2d(hnf, p, probe[0], probe[1])
    if len(hnf) == 3:
        return brute_dist_pow_3d(hnf, p, probe)
    raise NotImplementedError


def brute_covering_pow(hnf, p):
    """Max over one full residue system of the distance to the lattice."""
    diag = [hnf[k][k] for k in range(len(hnf))]
    best = 0
    if len(hnf) == 2:
        for x in range(diag[0]):
            for y in range(diag[1]):
                best = max(best, brute_dist_pow_2d(hnf, p, x, y))
    else:
        for x in range(diag[0]):
            for y in range(diag[1]):
                for z in range(diag[2]):
                    best = max(best, brute_dist_pow_3d(hnf, p, (x, y, z)))
    return best


def _ball_points_brute(n, p, s):
    rr = 0
    while (rr + 1) ** p <= s:
        rr += 1
    rng = range(-rr, rr + 1)
    return [
        pt
        for pt in product(rng, repeat=n)
        if sum(abs(c) ** p for c in pt) <= s
    ]


def _lattice_vectors_in_box(hnf, reach):
    """All lattice vectors with every coordinate in [-reach, reach]."""
    n = len(hnf)
    out = []
    if n == 2:
        a, b = hnf[0]
        d = hnf[1][1]
        for i in range(-(reach // a) - 1, reach // a + 2):
            vx = i * a
            if abs(vx) > reach:
                continue
            base = i * b
            for j in range(math.floor((-reach - base) / d), math.ceil((reach - base) / d) + 1):
                vy = base + j * d
                if abs(vy) <= reach:
                    out.append((vx, vy))
    else:
        (a11, a12, a13), (_, a22, a23), (_, _, a33) = hnf
        for i in range(-(reach // a11) - 1, reach // a11 + 2):
            vx = i * a11
            if abs(vx) > reach:
                continue
            for j in range(
                math.floor((-reach - i * a12) / a22),
                math.ceil((reach - i * a12) / a22) + 1,
            ):
                vy = i * a12 + j * a22
                if abs(vy) > reach:
                    continue
                base = i * a13 + j * a23
                for k in range(
                    math.floor((-reach - base) / a33),
                    math.ceil((reach - base) / a33) + 1,
                ):
                    vz = base + k * a33
                    if abs(vz) <= reach:
                        out.append((vx, vy, vz))
    return out


def brute_shortest_pow(hnf, p):
    """Least pow-norm of a nonzero lattice vector.  A basis row bounds it,
    so every coordinate of a shortest vector lies within the box whose
    reach is the largest c with c^p at most that bound."""
    bound = min(sum(abs(c) ** p for c in row) for row in hnf)
    reach = 0
    while (reach + 1) ** p <= bound:
        reach += 1
    return min(
        sum(abs(c) ** p for c in v)
        for v in _lattice_vectors_in_box(hnf, reach)
        if any(v)
    )


def brute_balls_disjoint(hnf, p, s):
    """True iff lattice translates of the pow-radius-s ball are pairwise
    disjoint: no nonzero lattice vector may be a difference of two ball
    points (all such differences live in the [-2r, 2r] box)."""
    n = len(hnf)
    ball = _ball_points_brute(n, p, s)
    bset = set(ball)
    rr = 0
    while (rr + 1) ** p <= s:
        rr += 1
    for v in _lattice_vectors_in_box(hnf, 2 * rr):
        if all(c == 0 for c in v):
            continue
        if any(tuple(q + w for q, w in zip(pt, v)) in bset for pt in ball):
            return False
    return True


def difference_grid_pairwise(n, p, s):
    """Occupancy of [-2k, 2k]^n, k = iroot(s, p), by the differences of
    every pair of points of the ball of pow-radius s, indexed by d + 2k:
    all mu^2 pairs are formed (the library reads the ball's fibers)."""
    pts = np.asarray(ball_points(n, p, s), dtype=np.int64).reshape(-1, n)
    k = int(pts.max())
    radix = 4 * k + 1
    weights = radix ** np.arange(n - 1, -1, -1, dtype=np.int64)
    keys = pts @ weights
    centre = 2 * k * int(weights.sum())
    grid = np.zeros(radix**n, dtype=bool)
    for i in range(0, len(keys), 512):
        grid[(keys[i : i + 512, None] - keys + centre).ravel()] = True
    return grid.reshape((radix,) * n)


def brute_packing_pow(hnf, p, dset_elements):
    """Largest attainable s with disjoint balls, by direct descent."""
    last = 0
    for s in dset_elements:
        if not brute_balls_disjoint(hnf, p, s):
            return last
        last = s
    raise AssertionError("distance-set prefix exhausted while still disjoint")


class BallCase(Enum):
    CASE_I = "CaseI"
    CASE_II = "CaseII"
    CASE_III = "CaseIII"
    CASE_IV = "CaseIV"
    UNCLASSIFIED = "Unclassified"


@dataclass(frozen=True)
class BallShape:
    case: BallCase
    predicted_mu: int | None
    # True when the two circulating variants of the case-(ii) side
    # condition disagree at this input (see classify_ball); the shape is
    # then left unclassified rather than trusting either variant.
    predicate_conflict: bool = False


def classify_ball(n: int, p: int, r: Fraction | int) -> BallShape:
    """Match (n, p, r) against the four closed-form ball shapes, a
    closed-form oracle for `mu` at `pow_radius_of(r, p)`.

    All comparisons run on exact rationals via r**p; the logarithmic
    thresholds are evaluated in their equivalent integer-power form
    (ln n / ln(r/(r-1)) <= p  <=>  n*(r-1)**p <= r**p), so boundary
    ties are decided exactly.

    The second side condition of the second case circulates in two
    variants, (n-1)(r-1)^p + (r-2) <= r^p and the same with (r-2)^p.
    Both are checked; if they disagree the result is Unclassified with
    predicate_conflict set, since the closed-form count is only safe
    when the hypotheses hold unambiguously.
    """
    r = Fraction(r)
    if r <= 0:
        raise ValueError("r must be positive")
    rp = r**p
    fl = math.floor(r)
    if r.denominator == 1:
        ri = int(r)
        if n * (ri - 1) ** p <= rp:
            return BallShape(BallCase.CASE_I, (2 * ri - 1) ** n + 2 * n)
        side_plain = (n - 1) * (ri - 1) ** p + (ri - 2) <= rp
        side_pow = (n - 1) * (ri - 1) ** p + (ri - 2) ** p <= rp
        if side_plain and side_pow:
            return BallShape(BallCase.CASE_II, (2 * ri - 1) ** n + 2 * n - 2**n)
        if side_plain != side_pow:
            return BallShape(BallCase.UNCLASSIFIED, None, predicate_conflict=True)
        return BallShape(BallCase.UNCLASSIFIED, None)
    # r not an integer from here on.
    if n * fl**p > rp and (n - 1) * fl**p + (fl - 1) ** p <= rp:
        return BallShape(BallCase.CASE_III, (2 * fl + 1) ** n - 2**n)
    # the fourth shape's side condition references the coordinate fl - 2,
    # so it only makes sense for fl >= 2
    if (
        fl >= 2
        and (n - 1) * fl**p + (fl - 1) ** p > rp
        and (n - 1) * fl**p + (fl - 2) ** p <= rp
    ):
        return BallShape(BallCase.CASE_IV, (2 * fl + 1) ** n - (n + 1) * 2**n)
    return BallShape(BallCase.UNCLASSIFIED, None)


@pytest.fixture(scope="session")
def tmp_workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")
