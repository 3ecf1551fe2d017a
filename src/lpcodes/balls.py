"""Exact counting and enumeration of lp balls in Z^n.

A radius r is always carried around as the integer s = r**p (a "pow-radius"),
so that membership of a point z in the ball, sum(|z_i|**p) <= s, is decided in
integer arithmetic with no boundary ties.  The only floating point in this
module is the unit-ball volume and `real_root`, which are real quantities.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cache

import numpy as np

Point = tuple[int, ...]


def iroot(s: int, p: int) -> int:
    """Floor of the p-th root of a nonnegative integer s, exactly."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    if p < 1:
        raise ValueError("p must be a positive integer")
    if p == 2:
        return math.isqrt(s)
    # Seed above the root: 2^ceil(bits/p), or within a factor 1 + 2^(1-m)
    # from the root of the top bits.  Newton steps then fall to the floor root.
    m = s.bit_length() // (2 * p)
    k = (iroot(s >> m * p, p) + 1) << m if m else 1 << -(-s.bit_length() // p)
    while k**p > s:
        k = ((p - 1) * k + s // k ** (p - 1)) // p
    return k


def real_root(s: int, p: int) -> float:
    """s ** (1 / p) as a float; past the float range through math.log."""
    try:
        return s ** (1.0 / p)
    except OverflowError:
        return math.exp(math.log(s) / p)


@cache
def is_representable(n: int, p: int, s: int) -> bool:
    """True iff s is a sum of exactly n p-th powers of nonnegative integers."""
    if n < 1 or p < 1 or s < 0:
        raise ValueError("need n >= 1, p >= 1, s >= 0")
    if n == 1:
        return iroot(s, p) ** p == s
    # Largest part first: typically hits the base case sooner.
    return any(
        is_representable(n - 1, p, s - a**p) for a in range(iroot(s, p), -1, -1)
    )


# Above this limit the boolean sieve array is too large to be worth it;
# generate by direct summation instead (cheap exactly when p is large,
# which is when the limit blows up).
_SIEVE_LIMIT = 1 << 26


@cache
def distance_set(n: int, p: int, limit: int) -> tuple[int, ...]:
    """The distance set for (n, p) up to `limit` inclusive: the attainable
    pow-radii, strictly increasing from 0.

    Small limits use a boolean sieve (n-fold fold of the p-th power
    indicator over [0, limit]); huge limits, which only arise for large p
    where the p-th power grid is sparse, enumerate the sums directly.
    """
    if n < 1 or p < 1:
        raise ValueError("need n >= 1 and p >= 1")
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    if limit > _SIEVE_LIMIT:
        powers = [a**p for a in range(iroot(limit, p) + 1)]
        sums = {0}
        for _ in range(n):
            sums = {s + q for s in sums for q in powers if s + q <= limit}
        return tuple(sorted(sums))
    reach = np.zeros(limit + 1, dtype=bool)
    reach[0] = True
    powers = [a**p for a in range(1, iroot(limit, p) + 1)]
    for _ in range(n):
        step = reach.copy()  # the a = 0 term
        for q in powers:
            step[q:] |= reach[: limit + 1 - q]
        reach = step
    return tuple(int(v) for v in np.flatnonzero(reach))


def distance_set_at_least(n: int, p: int, at_least: int) -> tuple[int, ...]:
    """Distance set whose limit is >= at_least, rounded up to 256 times a
    power of four so repeated queries share cache entries."""
    limit = 256
    while limit < at_least:
        limit *= 4
    return distance_set(n, p, limit)


def successor(n: int, p: int, s: int) -> int:
    """Smallest attainable pow-radius strictly greater than s.

    (iroot(s, p) + 1)**p exceeds s and is attainable (the norm of a
    coordinate vector), so the set up to it holds the successor.
    """
    elements = distance_set_at_least(n, p, (iroot(s, p) + 1) ** p)
    return elements[bisect_right(elements, s)]


@cache
def algorithm_radii(n: int, p: int, volume: int) -> tuple[int, int]:
    """(s_r, s_R): the largest pow-radius whose ball has at most `volume`
    points, and its distance-set successor.

    mu is increasing on the distance set, so s_R is found by bisection.
    The (2k+1)^n points with every |z_i| <= k have pow-norm at most
    n k^p, so with 2k + 1 > volume^(1/n) the element n k^p bounds the
    search: mu is evaluated only there and at the bisection's probes.
    """
    if volume < 1:
        raise ValueError("volume must be positive")
    bound = n * ((iroot(volume, n) + 1) // 2) ** p
    elements = distance_set_at_least(n, p, bound)
    i = bisect_right(
        elements,
        volume,
        hi=bisect_left(elements, bound) + 1,
        key=lambda s: mu(n, p, s),
    )
    return elements[i - 1], elements[i]


def ball_points(n: int, p: int, s: int) -> list[Point]:
    """All z in Z^n with sum(|z_i|**p) <= s, in lexicographic order."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    out: list[Point] = []
    point = [0] * n

    def rec(i: int, budget: int) -> None:
        if i == n:
            out.append(tuple(point))
            return
        k = iroot(budget, p)
        for z in range(-k, k + 1):
            point[i] = z
            rec(i + 1, budget - abs(z) ** p)

    rec(0, s)
    return out


@cache
def mu(n: int, p: int, s: int) -> int:
    """Number of points of Z^n in the ball of pow-radius s (counted, not
    materialized)."""
    if s < 0:
        return 0
    if n == 0:
        return 1
    if n == 1:
        return 2 * iroot(s, p) + 1
    total = mu(n - 1, p, s)
    for z in range(1, iroot(s, p) + 1):
        total += 2 * mu(n - 1, p, s - z**p)
    return total


def pow_radius_of(r: Fraction | int, p: int) -> int:
    """Largest integer s with s <= r**p; the pow-radius of a rational radius.

    Integer points in the ball of real radius r are exactly those with
    norm**p <= floor(r**p), so counts at radius r are counts at this s.
    """
    rp = Fraction(r) ** p
    return rp.numerator // rp.denominator


def unit_ball_volume(n: int, p: int) -> float:
    """Euclidean volume of the unit lp ball in R^n."""
    if n < 1 or p < 1:
        raise ValueError("need n >= 1 and p >= 1")
    return (2.0 * math.gamma(1.0 / p + 1.0)) ** n / math.gamma(n / p + 1.0)
