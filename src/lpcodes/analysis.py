"""Code analysis: packing and covering radii, imperfection degree, and
the four density figures (discrete/real x packing/covering), for a stack
of lattices of one index at a time.

Every radius comes from one coset-label kernel, run over a (B, n, n)
stack of HNFs of one index, so that numpy's per-call cost is paid once
per stack and not once per lattice: the search analyzes all congruence
classes of a volume in one `analyze_stack` call, and `analyze` is a
stack of one.  Each radius takes one `coset_labels` call over the whole
stack; only the rows that need a larger ball or cap are labelled again,
together.  The packing radius is read off a labelled ball: its points
are sorted by norm and labelled with their cosets, and the first point
of each coset is marked.  Translated balls are disjoint while every
point is first in its coset, so the packing radius is the distance-set
element just below the least norm of a point that is not.  The shortest
vector is the least norm of a nonzero point labelled 0.  The covering
radius, the largest distance from a coset to the lattice, can lie far
outside a ball of about det points (a thin cell), so it is built one
axis at a time over a (B, det) array of coset costs instead.  Its walk
is exact under any cap at or above a row's own, so the rows it must
rerun share the largest cap; a row whose walk returns to the lattice
stops walking, so one thin cell does not make every row walk its period.

Memory grows with B * det * n, so `analyze_stack` cuts the stack into
chunks of at most `_STACK_CELLS` such entries, or one HNF.  A row's
results depend on that row alone, so the chunking changes no result.
The tests check all of this against routes that share nothing with it:
literal ball disjointness, closest-point searches over a full residue
system and a brute-force shortest vector, row by row over whole stacks
and under every chunking.  The radius and label routines take the
(B, n, n) stack of HNFs they are given and return one value per row;
`analyze_stack` refuses a stack that is not HNFs of one index, and
`analyze` alone normalizes its input.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike

from .balls import (
    algorithm_radii,
    ball_points,
    distance_set,  # not called here; perfbench/tracer.py patches this name
    distance_set_at_least,
    iroot,
    mu,
    real_root,
    successor,
    unit_ball_volume,
)
from .errors import DimensionUnsupportedError
from .lattices import (
    Basis,
    as_basis,
    closest_lattice_distance_pow,  # unused here; perfbench/tracer.py patches this name
    coset_labels,
    hnf,
    hnf_det,
)


@cache
def _ball(n: int, p: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """The points of the ball of pow-radius s sorted by norm (stably, so
    lexicographic within a norm) and their norms, as read-only arrays.
    Every norm is at most s, so the norms are int64 below 2^63 and
    Python ints past it."""
    pts = np.array(ball_points(n, p, s), dtype=np.int64).reshape(-1, n)
    exact = np.int64 if s < 2**63 else object
    norms = (np.abs(pts).astype(exact) ** p).sum(axis=1)
    order = np.argsort(norms, kind="stable")
    pts, norms = pts[order], norms[order]
    pts.setflags(write=False)
    norms.setflags(write=False)
    return pts, norms


def _stack(hnf_bases: ArrayLike) -> tuple[np.ndarray, int]:
    """A stack of HNFs of one index as a (B, n, n) int64 array, and that
    index."""
    stack = np.asarray(hnf_bases, dtype=np.int64)
    return stack, hnf_det(stack[0].tolist())


def first_in_coset(
    hnf_bases: ArrayLike, p: int, s: int
) -> tuple[np.ndarray, np.ndarray]:
    """(norms, first): the increasing norms of the ball of pow-radius s,
    and a (B, P) mask marking, under each HNF of a stack of one index,
    the first point of each coset the ball meets, which is that coset's
    point of least norm.  Each row's labels are offset into a range of
    their own, so one `np.unique` finds every row's first occurrences."""
    stack, volume = _stack(hnf_bases)
    pts, norms = _ball(stack.shape[-1], p, s)
    labels = coset_labels(stack, pts)
    keys = labels + np.arange(len(stack))[:, None] * volume
    first = np.zeros(labels.shape, dtype=bool)
    first.reshape(-1)[np.unique(keys, return_index=True)[1]] = True
    return norms, first


def labels_are_distinct(hnf_basis: Basis, p: int, s: int) -> bool:
    """True iff the ball of pow-radius s maps injectively onto cosets.

    Pigeonhole first: more ball points than cosets can never inject.
    """
    return mu(len(hnf_basis), p, s) <= hnf_det(hnf_basis) and bool(
        first_in_coset([hnf_basis], p, s)[1].all()
    )


def packing_radius_pow(hnf_bases: ArrayLike, p: int) -> list[int]:
    """Per HNF of a stack of one index, the largest pow-radius in the
    distance set whose lattice translates of the ball are pairwise
    disjoint.

    At the first s with mu(s) > det two ball points share a coset under
    every basis.  The translates stay disjoint exactly below the least
    norm of a point that is not first in its coset.
    """
    stack, volume = _stack(hnf_bases)
    n = stack.shape[-1]
    _, s = algorithm_radii(n, p, volume)
    norms, first = first_in_coset(stack, p, s)
    clashes = norms[np.argmax(~first, axis=1)].tolist()
    elements = distance_set_at_least(n, p, max(clashes))
    return [elements[bisect_left(elements, clash) - 1] for clash in clashes]


def _unit_steps(stack: np.ndarray, volume: int) -> tuple[np.ndarray, np.ndarray]:
    """(ups, downs), each of shape (n, B * volume): entry b * volume + c
    of row i is the flat index b * volume + label of the coset c + e_i
    (ups) or c - e_i (downs) under basis b.  A unit step permutes each
    basis's labels, so the downs are the inverse permutations."""
    count, n = stack.shape[0], stack.shape[-1]
    # Coset c's point in the box 0 <= v_i < d_i: the mixed-radix digits of c.
    box = np.empty((count, volume, n), dtype=np.int64)
    rest = np.arange(volume)
    for i in reversed(range(n)):
        rest, box[:, :, i] = np.divmod(rest, stack[:, i, i, None])
    moved = (box[:, :, None, :] + np.eye(n, dtype=np.int64)).reshape(count, -1, n)
    labels = coset_labels(stack, moved) + np.arange(count)[:, None] * volume
    ups = labels.reshape(count, volume, n).transpose(2, 0, 1).reshape(n, -1)
    downs = np.empty_like(ups)
    downs[np.arange(n)[:, None], ups] = np.arange(count * volume)
    return ups, downs


def _coset_costs(
    ups: np.ndarray, downs: np.ndarray, volume: int, p: int, s: int, unreached: int
) -> np.ndarray:
    """(B, volume) costs: coset c of basis b gets the least sum of
    |z_i|^p over its points z with every |z_i|^p <= s, or `unreached`.

    Axis i lets every coset take its cheapest step z * e_i from another,
    through flat-index gathers over the unit steps.  A row whose walk
    has returned to the lattice (z e_i in L) leaves the active set: a
    longer step reaches the same coset as a shorter one, at a higher
    cost.  So a thin cell walks its own period, not every row's.
    """
    count = ups.shape[1] // volume
    exact = np.int64 if 2 * unreached < 2**63 else object
    dist = np.full((count, volume), unreached, dtype=exact)
    dist[:, 0] = 0
    homes = np.arange(count) * volume  # flat index of each row's lattice coset
    for up, down in zip(ups, downs):
        flat, best = dist.reshape(-1), dist.copy()
        rows, home = None, homes  # rows None: every row is active
        plus, minus = up.reshape(count, -1), down.reshape(count, -1)
        for z in range(1, iroot(s, p) + 1):
            moving = plus[:, 0] != home
            active = np.count_nonzero(moving)
            if active < len(home):
                if not active:
                    break
                rows = np.flatnonzero(moving) if rows is None else rows[moving]
                home, plus, minus = home[moving], plus[moving], minus[moving]
            step = np.minimum(flat[plus], flat[minus])
            step += z**p
            if rows is None:
                np.minimum(best, step, out=best)
            else:
                best[rows] = np.minimum(best[rows], step)
            plus, minus = up[plus], down[minus]
        dist = best
    return dist


def covering_radius_pow(hnf_bases: ArrayLike, p: int) -> list[int]:
    """Per HNF of a stack of one index, the smallest pow-radius whose
    lattice translates of the ball cover Z^n: the largest over cosets of
    the least sum of |z_i|^p over the coset.

    A (B, det) array of coset costs starts at 0 for the lattice and
    walks the unit steps axis by axis up to a cap s (`_coset_costs`).
    The walk is exact for every row whose costs all end at most s: a
    coset's optimal point z has |z_i|^p <= cost <= s on every axis, so
    the cap cut off none of it.  That holds for any cap, so the rows
    that are not exact rerun together under the largest of their next
    caps, their largest cost (an upper bound), or 2s while a coset is
    unreached.  One `coset_labels` call gives the unit steps of the
    whole stack, and memory is O(B det n) however thin the cells.
    """
    stack, volume = _stack(hnf_bases)
    n = stack.shape[-1]
    ups, downs = _unit_steps(stack, volume)
    radii = [0] * len(stack)
    rows = np.arange(len(stack))
    s = algorithm_radii(n, p, volume)[1]
    while True:
        unreached = n * s + 1
        far = _coset_costs(ups, downs, volume, p, s, unreached).max(axis=1).tolist()
        for b, cost in zip(rows.tolist(), far):
            radii[b] = cost
        over = [cost > s for cost in far]
        if not any(over):
            return radii
        s = max(cost if cost < unreached else 2 * s for cost in far if cost > s)
        keep = np.flatnonzero(over)
        if len(keep) < len(rows):
            rows = rows[keep]
            shift = (np.arange(len(keep)) - keep)[:, None] * volume
            ups, downs = (
                (steps.reshape(n, -1, volume)[:, keep] + shift).reshape(n, -1)
                for steps in (ups, downs)
            )


def shortest_vector_pow(hnf_bases: ArrayLike, p: int) -> list[int]:
    """Per HNF of a stack of one index, the pow-norm of a shortest
    nonzero lattice vector: the least norm of a nonzero ball point with
    label 0.  At the first s with mu(s) > det two ball points share a
    coset, and their difference is a lattice vector of pow-norm at most
    2^p * s, so doubling s from there finds one; the rows that found
    none rerun together."""
    stack, volume = _stack(hnf_bases)
    n = stack.shape[-1]
    shortest = [0] * len(stack)
    rows = list(range(len(stack)))
    s = algorithm_radii(n, p, volume)[1]
    while rows:
        pts, norms = _ball(n, p, s)
        home = coset_labels(stack[rows], pts[1:]) == 0
        left = []
        for b, row, i in zip(rows, home, home.argmax(axis=1).tolist()):
            if row[i]:
                shortest[b] = int(norms[1 + i])
            else:
                left.append(b)
        rows = left
        s = successor(n, p, 2 * s)
    return shortest


def real_covering_radius_2d_euclidean(basis: Sequence[Sequence[int]]) -> float:
    """Covering radius of a planar lattice over R^2, Euclidean metric.

    Lagrange-reduce the basis, orient the second vector so the pair spans
    an acute (or right) angle, and take the circumradius of the triangle
    {0, b1, b2}; that triangle realizes the deep hole of the Delaunay
    triangulation.  Exact integer work up to one final square root.
    """
    b = as_basis(basis)
    if len(b) != 2:
        raise DimensionUnsupportedError(
            "real covering radius implemented for n = 2 only"
        )
    volume = hnf_det(hnf(b))

    def n2(v: tuple[int, int]) -> int:
        return v[0] * v[0] + v[1] * v[1]

    def dot(u: tuple[int, int], v: tuple[int, int]) -> int:
        return u[0] * v[0] + u[1] * v[1]

    b1, b2 = (tuple(b[0]), tuple(b[1]))
    if n2(b2) < n2(b1):
        b1, b2 = b2, b1
    while True:
        q = round(Fraction(dot(b1, b2), n2(b1)))
        b2 = (b2[0] - q * b1[0], b2[1] - q * b1[1])
        if n2(b2) >= n2(b1):
            break
        b1, b2 = b2, b1
    if dot(b1, b2) < 0:
        b2 = (-b2[0], -b2[1])
    d = (b1[0] - b2[0], b1[1] - b2[1])
    return math.sqrt(n2(b1) * n2(b2) * n2(d)) / (2.0 * volume)


@dataclass(frozen=True)
class CodeAnalysis:
    n: int
    p: int
    hnf_basis: Basis
    det: int
    r_pow: int
    R_pow: int
    t: int
    mu_r: int
    mu_R: int
    disc_pack_density: Fraction
    disc_cover_density: Fraction
    shortest_pow: int
    real_pack_radius: float
    real_pack_density: float
    real_cover_radius: float | None
    real_cover_density: float | None

    @property
    def is_perfect(self) -> bool:
        return self.t == 0

    @property
    def is_quasi_perfect(self) -> bool:
        return self.t == 1


_STACK_CELLS = 1 << 16
"""Most (basis, coset, axis) entries one chunk of `analyze_stack` holds:
a chunk of B HNFs of index det in Z^n has B * det * n <= _STACK_CELLS,
or is one HNF.  The covering walk's unit steps are that many int64
labels, and its moved points n times as many coordinates."""


def _is_hnf_of_index(h: Basis, volume: int) -> bool:
    """True iff h is a row-style HNF of index `volume`, as the radius
    kernels trust: a positive diagonal of product `volume`, zeros below
    it, and 0 <= entry(i, j) < d_j above it.  Plain Python: a volume's
    stack holds a few small bases, too few to repay numpy's calls."""
    n = len(h)
    return (
        all(h[j][j] > 0 for j in range(n))
        and all(h[i][j] == 0 for j in range(n) for i in range(j + 1, n))
        and all(0 <= h[i][j] < h[j][j] for j in range(n) for i in range(j))
        and hnf_det(h) == volume
    )


def analyze_stack(hnf_bases: Sequence[Basis], p: int) -> list[CodeAnalysis]:
    """`analyze` of every HNF of a sequence of HNFs of one index, in
    order.  The radius kernels run over chunks of the stack
    (`_STACK_CELLS`); each row's radii depend on that row alone, so the
    chunking changes no result.  Raises ValueError if a member is not an
    HNF of the first one's index."""
    if not hnf_bases:
        return []
    bases = [as_basis(h) for h in hnf_bases]
    n, volume = len(bases[0]), hnf_det(bases[0])
    if not all(_is_hnf_of_index(h, volume) for h in bases):
        raise ValueError(f"the stack must hold row-style HNFs of index {volume}")
    stack = np.array(bases, dtype=np.int64)
    size = max(1, _STACK_CELLS // (volume * n))
    r_pows: list[int] = []
    R_pows: list[int] = []
    shortest: list[int] = []
    for lo in range(0, len(stack), size):
        chunk = stack[lo : lo + size]
        r_pows += packing_radius_pow(chunk, p)
        R_pows += covering_radius_pow(chunk, p)
        shortest += shortest_vector_pow(chunk, p)
    elements = distance_set_at_least(n, p, max(R_pows))
    return [
        _record(h, p, volume, r_pow, R_pow, short, elements)
        for h, r_pow, R_pow, short in zip(bases, r_pows, R_pows, shortest)
    ]


def analyze(basis: Sequence[Sequence[int]], p: int) -> CodeAnalysis:
    """Full report of one lattice, given by any basis: its HNF analyzed
    as a stack of one.  Every integer field is exact."""
    return analyze_stack([hnf(basis)], p)[0]


def _record(
    h: Basis,
    p: int,
    volume: int,
    r_pow: int,
    R_pow: int,
    shortest: int,
    elements: tuple[int, ...],
) -> CodeAnalysis:
    """The CodeAnalysis of HNF h from its radii; `elements` is a prefix
    of the distance set that reaches R_pow."""
    n = len(h)
    t = bisect_left(elements, R_pow) - bisect_left(elements, r_pow)
    mu_r = mu(n, p, r_pow)
    mu_R = mu(n, p, R_pow)
    vol_ball = unit_ball_volume(n, p)
    real_r = real_root(shortest, p) / 2.0
    real_pack_density = vol_ball * real_r**n / volume
    if n == 2 and p == 2:
        real_R = real_covering_radius_2d_euclidean(h)
        real_cover_density = vol_ball * real_R**n / volume
    else:
        real_R = None
        real_cover_density = None
    return CodeAnalysis(
        n=n,
        p=p,
        hnf_basis=h,
        det=volume,
        r_pow=r_pow,
        R_pow=R_pow,
        t=t,
        mu_r=mu_r,
        mu_R=mu_R,
        disc_pack_density=Fraction(mu_r, volume),
        disc_cover_density=Fraction(mu_R, volume),
        shortest_pow=shortest,
        real_pack_radius=real_r,
        real_pack_density=real_pack_density,
        real_cover_radius=real_R,
        real_cover_density=real_cover_density,
    )
