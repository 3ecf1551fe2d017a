"""Explicit two-dimensional lattice families with predicted imperfection,
the exponent-threshold helpers behind them, and the density bounds that cap
the exhaustive searches.

Family hypotheses are stated in the sources with logarithms
(ln 2 / ln(r/(r-1)) <= p and friends); every such condition is evaluated
here in the equivalent integer-power form (2*(r-1)**p <= r**p etc.) on
exact rationals, so boundary ties are never decided by floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal

from .balls import (
    distance_set_at_least,
    mu,
    real_root,
    successor,
    unit_ball_volume,
)
from .errors import HypothesisViolatedError
from .lattices import Basis, hnf, hnf_det

FamilyKind = Literal["A", "B", "C", "D"]

# Best known lattice packing density (supremum) and covering density
# (infimum) per (n, p).  Literature constants; the exact closed forms are
# pi/sqrt(12) ~ 0.9069 and 2*pi/sqrt(27) ~ 1.2092 for the Euclidean plane,
# 5*sqrt(5)*pi/24 ~ 1.4635 for Euclidean 3-space and, for 4-space, the A4*
# covering 2*sqrt(5)*pi**2/25 ~ 1.7655 (Conway and Sloane, Ch. 2).
BEST_PACKING_DENSITY: dict[tuple[int, int], float] = {
    (2, 2): math.pi / math.sqrt(12.0),
}
BEST_COVERING_DENSITY: dict[tuple[int, int], float] = {
    (2, 2): 2.0 * math.pi / math.sqrt(27.0),
    (3, 2): 5.0 * math.sqrt(5.0) * math.pi / 24.0,
    (4, 2): 2.0 * math.sqrt(5.0) * math.pi**2 / 25.0,
}


@dataclass(frozen=True)
class FamilySpec:
    kind: FamilyKind
    r: Fraction
    p: int
    basis: Basis
    det: int
    predicted_t: int
    predicted_disc_density: Fraction


def _require(cond: bool, name: str) -> None:
    if not cond:
        raise HypothesisViolatedError(f"hypothesis fails: {name}")


def family(kind: FamilyKind, r: Fraction | int, p: int) -> FamilySpec:
    """Construct the family-`kind` lattice for parameters (r, p), checking
    the admissibility hypotheses exactly; raises HypothesisViolatedError
    naming the first failing inequality."""
    r = Fraction(r)
    if p < 1:
        raise ValueError("p must be a positive integer")
    rp = r**p
    if kind in ("A", "B"):
        _require(r.denominator == 1, f"r = {r} must be an integer for family {kind}")
        ri = int(r)
        if kind == "A":
            _require(ri > 1, "r > 1")
            _require(
                2 * (ri - 1) ** p <= rp,
                f"2*(r-1)**p <= r**p  (got 2*{(ri - 1) ** p} vs {rp})",
            )
            basis = ((ri, 2 * ri - 1), (2 * ri, -1))
            predicted_t = 1 if ri in (2, 3) else ri - 2
            density = Fraction((2 * ri - 1) ** 2 + 4, 4 * ri**2 - ri)
        else:
            _require(ri > 2, "r > 2")
            _require(
                2 * (ri - 1) ** p > rp,
                f"2*(r-1)**p > r**p  (got 2*{(ri - 1) ** p} vs {rp})",
            )
            _require(
                (ri - 1) ** p + (ri - 2) ** p <= rp,
                f"(r-1)**p + (r-2)**p <= r**p  (got {(ri - 1) ** p + (ri - 2) ** p} vs {rp})",
            )
            basis = ((ri - 1, 2 * ri - 1), (2 * ri, -1))
            predicted_t = ri - 1
            density = Fraction((2 * ri - 1) ** 2, 4 * ri**2 - ri - 1)
    else:
        _require(r.denominator != 1, f"r = {r} must not be an integer for family {kind}")
        m = math.floor(r)
        _require(m >= 1, "floor(r) >= 1")
        _require(
            2 * m**p <= (m + 1) ** p,
            f"2*floor(r)**p <= (floor(r)+1)**p  (got 2*{m**p} vs {(m + 1) ** p})",
        )
        if kind == "C":
            _require(
                2 * m**p > rp,
                f"2*floor(r)**p > r**p  (got 2*{m**p} vs {rp})",
            )
            _require(
                m**p + (m - 1) ** p <= rp,
                f"floor(r)**p + (floor(r)-1)**p <= r**p  (got {m**p + (m - 1) ** p} vs {rp})",
            )
            basis = ((2 * m + 1, -1), (2 * m - 1, 2 * m))
            predicted_t = 1
            density = Fraction((2 * m + 1) ** 2 - 4, 4 * m**2 + 4 * m - 1)
        elif kind == "D":
            _require(
                m**p + (m - 1) ** p > rp,
                f"floor(r)**p + (floor(r)-1)**p > r**p  (got {m**p + (m - 1) ** p} vs {rp})",
            )
            _require(
                m**p + (m - 2) ** p <= rp,
                f"floor(r)**p + (floor(r)-2)**p <= r**p  (got {m**p + (m - 2) ** p} vs {rp})",
            )
            basis = ((2 * m + 1, -2), (2 * m - 2, 2 * m - 1))
            predicted_t = 2
            density = Fraction((2 * m + 1) ** 2 - 12, 4 * m**2 + 4 * m - 5)
        else:
            raise ValueError(f"unknown family kind {kind!r}")
    return FamilySpec(
        kind=kind,
        r=r,
        p=p,
        basis=basis,
        det=hnf_det(hnf(basis)),
        predicted_t=predicted_t,
        predicted_disc_density=density,
    )


def min_p_threshold_A(r: int) -> int:
    """Least integer p with 2*(r-1)**p <= r**p (family-A admissibility)."""
    if r < 2:
        raise ValueError("r >= 2 required")
    p = 1
    while 2 * (r - 1) ** p > r**p:
        p += 1
    return p


def p_range_B(r: int) -> list[int]:
    """All integer p admitted by family B's hypotheses:
    2*(r-1)**p > r**p and (r-1)**p + (r-2)**p <= r**p.

    The first condition caps p below the family-A threshold, so the scan
    is finite by construction.
    """
    if r < 3:
        raise ValueError("r >= 3 required")
    return [
        p
        for p in range(1, min_p_threshold_A(r))
        if (r - 1) ** p + (r - 2) ** p <= r**p
    ]


def perfect_radius_bound(
    n: int, p: int, delta_sup: float
) -> tuple[float, int]:
    """Upper bound on the packing radius of a perfect code, from the
    packing-density supremum: returns (real bound, largest representable
    pow-radius whose real radius stays within the bound)."""
    if not 0.0 < delta_sup < 1.0:
        raise ValueError("delta_sup must lie in (0, 1)")
    root = delta_sup ** (1.0 / n)
    bound = (n ** (1.0 / p) / 2.0) * (1.0 + root) / (1.0 - root)
    cap = math.floor(bound**p)
    r_pow_max = max(s for s in distance_set_at_least(n, p, cap) if s <= cap)
    return bound, r_pow_max


@dataclass(frozen=True)
class BoundRow:
    r_pow: int
    mu: int
    delta_lower: float
    theta_upper_7: float
    theta_upper_8: float


def bound_row(
    n: int,
    p: int,
    r_pow: int,
    mode: Literal["perfect", "quasiperfect"] = "quasiperfect",
) -> BoundRow:
    """Density bounds implied by a (quasi-)perfect code of packing
    pow-radius r_pow.

    delta_lower: lower bound on the packing-density supremum; 0 when
        2r < n^(1/p), where the inner ball it counts is empty.
    theta_upper_7: upper bound on the covering-density infimum via the
        covering radius (equal to r for perfect mode, the distance-set
        successor of r for quasi-perfect mode) plus half the lattice cell
        diagonal.
    theta_upper_8: the coarser packing-radius-only variant.
    """
    if r_pow not in distance_set_at_least(n, p, r_pow):
        raise ValueError(f"{r_pow} is not representable for (n={n}, p={p})")
    big_pow = r_pow if mode == "perfect" else successor(n, p, r_pow)
    r = real_root(r_pow, p)
    big = real_root(big_pow, p)
    nroot = n ** (1.0 / p)
    vol = unit_ball_volume(n, p)
    count = mu(n, p, r_pow)
    delta_lower = (max(2.0 * r - nroot, 0.0) / (2.0 * r + nroot)) ** n
    theta7 = vol * (big + nroot / 2.0) ** n / count
    theta8 = vol * (r + nroot) ** n / count
    return BoundRow(r_pow, count, delta_lower, theta7, theta8)


@dataclass(frozen=True)
class BoundReport:
    n: int
    p: int
    theta_min: float
    mode: str
    rows: tuple[BoundRow, ...]
    r_pow_max: int
    volume_max: int


def bound_report(
    n: int,
    p: int,
    theta_min: float,
    mode: Literal["perfect", "quasiperfect"] = "quasiperfect",
    inequality: Literal[7, 8] = 7,
) -> BoundReport:
    """Walk the distance set upward while the chosen covering bound
    (theta_upper_7 or theta_upper_8 >= theta_min, by `inequality`) stays
    satisfiable, keeping one row per feasible pow-radius.

    r_pow_max is the last feasible pow-radius (0 when none is), and
    volume_max the largest lattice volume a (quasi-)perfect code of that
    radius can have before its covering density would beat theta_min.

    Termination: the bound ratio drifts below theta_min permanently, but
    it wiggles locally, so the scan only stops after a run of consecutive
    failures spanning [s, 4s].
    """
    if not 1.0 < theta_min < math.inf:
        raise ValueError("theta_min must be finite and exceed 1")
    if inequality not in (7, 8):
        raise ValueError("inequality must be 7 or 8")
    rows: list[BoundRow] = []
    fail_start: int | None = None
    s = successor(n, p, 0)
    while True:
        row = bound_row(n, p, s, mode)
        theta = row.theta_upper_7 if inequality == 7 else row.theta_upper_8
        if theta >= theta_min:
            rows.append(row)
            fail_start = None
        elif fail_start is None:
            fail_start = s
        elif s >= 4 * fail_start:
            break
        s = successor(n, p, s)
    r_pow_max = rows[-1].r_pow if rows else 0
    nroot = n ** (1.0 / p)
    big_pow = r_pow_max if mode == "perfect" else successor(n, p, r_pow_max)
    big = real_root(big_pow, p)
    vol = unit_ball_volume(n, p)
    return BoundReport(
        n=n,
        p=p,
        theta_min=theta_min,
        mode=mode,
        rows=tuple(rows),
        r_pow_max=r_pow_max,
        volume_max=math.floor(vol * (big + nroot / 2.0) ** n / theta_min),
    )


def neighbors_in_distance_set(
    n: int, p: int, s: int, before: int = 2, after: int = 2
) -> tuple[int, ...]:
    """The distance-set elements around s: `before` predecessors, s
    itself, `after` successors.  Used to rebuild the bound-table rows."""
    elements = distance_set_at_least(n, p, s)
    if s not in elements:
        raise ValueError(f"{s} not in the distance set for (n={n}, p={p})")
    i = elements.index(s)
    window = list(elements[max(0, i - before) : i + 1])
    for _ in range(after):
        window.append(successor(n, p, window[-1]))
    return tuple(window)
