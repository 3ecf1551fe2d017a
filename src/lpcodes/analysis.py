"""Per-lattice code analysis: packing and covering radii, imperfection
degree, and the four density figures (discrete/real x packing/covering).

Both radii come from one coset-label kernel.  The packing radius is read
off a labelled ball: its points are sorted by norm and labelled with
their cosets, and the first point of each coset is marked.  Translated
balls are disjoint while every point is first in its coset, so the
packing radius is the distance-set element just below the least norm of
a point that is not.  The shortest vector is the least norm of a nonzero
point labelled 0.  The covering radius, the largest distance from a
coset to the lattice, can lie far outside a ball of about det points
(a thin cell), so it is built one axis at a time over an array of det
coset labels instead.  The tests check these against routes that share
nothing with this one: literal ball disjointness, and closest-point
searches over a full residue system.  The radius and label routines
take the HNF they are given; `analyze` alone normalizes its input.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Sequence

import numpy as np

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


def first_in_coset(hnf_basis: Basis, p: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """(norms, first): the increasing norms of the ball of pow-radius s,
    and a mask marking the first point of each coset the ball meets,
    which is that coset's point of least norm."""
    pts, norms = _ball(len(hnf_basis), p, s)
    labels = coset_labels(hnf_basis, pts)
    order = np.argsort(labels, kind="stable")
    grouped = labels[order]
    first = np.empty(len(order), dtype=bool)
    first[order] = np.concatenate(([True], grouped[1:] != grouped[:-1]))
    return norms, first


def labels_are_distinct(hnf_basis: Basis, p: int, s: int) -> bool:
    """True iff the ball of pow-radius s maps injectively onto cosets.

    Pigeonhole first: more ball points than cosets can never inject.
    """
    return mu(len(hnf_basis), p, s) <= hnf_det(hnf_basis) and bool(
        first_in_coset(hnf_basis, p, s)[1].all()
    )


def packing_radius_pow(hnf_basis: Basis, p: int) -> int:
    """Largest pow-radius in the distance set whose lattice translates of
    the ball are pairwise disjoint.

    At the first s with mu(s) > det two ball points share a coset.  The
    translates stay disjoint exactly below the least norm of a point
    that is not first in its coset.
    """
    n = len(hnf_basis)
    _, s = algorithm_radii(n, p, hnf_det(hnf_basis))
    norms, first = first_in_coset(hnf_basis, p, s)
    clash = int(norms[~first][0])
    elements = distance_set_at_least(n, p, clash)
    return elements[bisect_left(elements, clash) - 1]


def covering_radius_pow(hnf_basis: Basis, p: int) -> int:
    """Smallest pow-radius whose lattice translates of the ball cover Z^n:
    the largest over cosets of the least sum of |z_i|^p over the coset.

    An array of det coset costs starts at 0 for the lattice, and axis i
    lets every coset take its cheapest step z * e_i from another: a unit
    step permutes the labels, and the walk stops when it returns to the
    lattice or |z|^p passes a cap s.  If every cost ends at most s, the
    cap cut off no optimal point.  Otherwise the largest cost, an upper
    bound, becomes the cap (s doubles while a coset is unreached).
    Memory is O(det) however thin the cell.
    """
    n = len(hnf_basis)
    volume = hnf_det(hnf_basis)
    box = np.indices([hnf_basis[i][i] for i in range(n)]).reshape(n, -1).T
    moved = (box[:, None, :] + np.eye(n, dtype=np.int64)).reshape(-1, n)
    ups = coset_labels(hnf_basis, moved).reshape(volume, n).T  # label of c + e_i
    downs = np.argsort(ups, axis=1)  # the inverse permutations: c - e_i
    s = algorithm_radii(n, p, volume)[1]
    while True:
        unreached = n * s + 1
        exact = np.int64 if 2 * unreached < 2**63 else object
        dist = np.full(volume, unreached, dtype=exact)
        dist[0] = 0
        for up, down in zip(ups, downs):
            best, plus, minus = dist, up, down
            for z in range(1, iroot(s, p) + 1):
                if plus[0] == 0:
                    break
                best = np.minimum(best, np.minimum(dist[plus], dist[minus]) + z**p)
                plus, minus = up[plus], down[minus]
            dist = best
        far = int(dist.max())
        if far <= s:
            return far
        s = far if far < unreached else 2 * s


def shortest_vector_pow(hnf_basis: Basis, p: int) -> int:
    """Pow-norm of a shortest nonzero lattice vector: the least norm of a
    nonzero ball point with label 0.  At the first s with mu(s) > det two
    ball points share a coset, and their difference is a lattice vector
    of pow-norm at most 2^p * s, so doubling s from there finds one."""
    n = len(hnf_basis)
    s = algorithm_radii(n, p, hnf_det(hnf_basis))[1]
    while True:
        pts, norms = _ball(n, p, s)
        found = norms[1:][coset_labels(hnf_basis, pts[1:]) == 0]
        if len(found):
            return int(found[0])
        s = successor(n, p, 2 * s)


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


def analyze(basis: Sequence[Sequence[int]], p: int) -> CodeAnalysis:
    """Full per-lattice report; every integer field is exact."""
    h = hnf(basis)
    n = len(h)
    volume = hnf_det(h)
    r_pow = packing_radius_pow(h, p)
    R_pow = covering_radius_pow(h, p)
    elements = distance_set_at_least(n, p, R_pow)
    t = bisect_left(elements, R_pow) - bisect_left(elements, r_pow)
    mu_r = mu(n, p, r_pow)
    mu_R = mu(n, p, R_pow)
    shortest = shortest_vector_pow(h, p)
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
