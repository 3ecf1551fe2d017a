"""Per-lattice code analysis: packing and covering radii, imperfection
degree, and the four density figures (discrete/real x packing/covering).

The packing radius is found by ascending the distance set and running the
coset-label injectivity test per element; once two translated balls meet
they meet for every larger radius, so the scan stops at the first failure.
The covering radius is computed by the independent route: exact
closest-point distances maximized over all cosets.  The two agree through
the relation covering <= s  iff  ball labels at s cover every coset; tests
exercise that equivalence rather than the code assuming it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .balls import (
    ball_points,
    distance_set,
    distance_set_at_least,
    mu,
    unit_ball_volume,
)
from .errors import DimensionUnsupportedError
from .lattices import (
    Basis,
    as_basis,
    closest_lattice_distance_pow,
    coset_label,
    coset_representatives,
    det,
    hnf,
    shortest_vector_pow,
)


_dset = distance_set_at_least


def labels_are_distinct(hnf_basis: Basis, p: int, s: int, volume: int) -> bool:
    """True iff the ball of pow-radius s maps injectively onto cosets.

    Pigeonhole first: more ball points than cosets can never inject.
    """
    n = len(hnf_basis)
    m = mu(n, p, s)
    if m > volume:
        return False
    seen = set()
    for pt in ball_points(n, p, s):
        lab = coset_label(hnf_basis, pt)
        if lab in seen:
            return False
        seen.add(lab)
    return True


def packing_radius_pow(basis: Sequence[Sequence[int]], p: int) -> int:
    """Largest pow-radius in the distance set whose lattice translates of
    the ball are pairwise disjoint."""
    h = hnf(basis)
    n = len(h)
    volume = det(h)
    best = 0
    limit = 256
    while True:
        dset = distance_set(n, p, limit)
        for s in dset.elements[1:]:
            if s <= best:
                continue
            if mu(n, p, s) > volume:
                return best
            if labels_are_distinct(h, p, s, volume):
                best = s
            else:
                return best
        limit *= 4  # all generated elements passed; need a longer runway


def covering_radius_pow(basis: Sequence[Sequence[int]], p: int) -> int:
    """Smallest pow-radius whose lattice translates of the ball cover Z^n:
    the maximum over cosets of the exact closest-point distance."""
    h = hnf(basis)
    return max(
        closest_lattice_distance_pow(h, p, x) for x in coset_representatives(h)
    )


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
    volume = abs(det(b))
    if volume == 0:
        from .errors import SingularMatrixError

        raise SingularMatrixError("rows are linearly dependent")

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
    volume = det(h)
    r_pow = packing_radius_pow(h, p)
    R_pow = covering_radius_pow(h, p)
    t = _dset(n, p, R_pow).gap_count(r_pow, R_pow)
    mu_r = mu(n, p, r_pow)
    mu_R = mu(n, p, R_pow)
    shortest = shortest_vector_pow(h, p)
    vol_ball = unit_ball_volume(n, p)
    real_r = shortest ** (1.0 / p) / 2.0
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
