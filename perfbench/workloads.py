"""Workload definitions and correctness checks for the lpcodes benchmark.

Every workload is a list of `search` queries ("cells"), each run through
the public CLI.  Three workloads are fixed queries whose reports the test
suite pins; `classify` draws its cells from the seed.  Expected values
were recorded from the unmodified library.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Cell:
    n: int
    p: int
    volume_min: int
    volume_max: int
    t_max: int = 1

    def argv(self, jobs: int) -> list[str]:
        return [
            "search",
            "--dim", str(self.n),
            "--p", str(self.p),
            "--min-volume", str(self.volume_min),
            "--max-volume", str(self.volume_max),
            "--t-max", str(self.t_max),
            "--jobs", str(jobs),
        ]

    def fast_path(self) -> "Cell":
        """The same volumes under the default t_max=1 fast path."""
        return Cell(self.n, self.p, self.volume_min, self.volume_max, 1)


@dataclass(frozen=True)
class Expected:
    hits: int
    digest: str
    counts: tuple[int, int, int] | None = None


# Fixed queries: why each was chosen is in BENCHMARK.json and run.py.
SEARCHES: dict[str, tuple[Cell, Expected]] = {
    "cubic_l2": (
        Cell(3, 2, 1, 200),
        Expected(57, "74b470450ff09ab4", (5_324_942, 9_884, 1_000)),
    ),
    "planar_l4": (
        Cell(2, 4, 1, 600),
        Expected(51, "acb3cd19aeda81a4", (296_729, 314, 166)),
    ),
    "quartic": (
        Cell(4, 2, 1, 11),
        Expected(5, "d0563d42b418a613", (7_776, 361, 361)),
    ),
}

# `--t-max` for full classification: above every degree these cells
# reach, so every congruence class is reported.
CLASSIFY_T_MAX = 1_000_000_000

# Full-classification slots (n, volume_min, volume_max); the seed deals
# the exponents p = 1, 2, 3 out to them, one each.  Every run therefore
# decides the same sublattices with the same split into volumes, which
# fixes how well jobs=2 can share the work, and only the metric of each
# window changes.  At p=2 the slots take 1.2, 1.0 and 1.4 s at jobs=1
# (summed per-volume checkpoint millis, 2-vCPU x86-64 VM, Python 3.11);
# p=3 costs about a fifth more and p=1 a tenth less in every slot, so
# each dealing sums to within a few percent of the others.  The slots are
# small so that several rounds fit in one run (see run.py).
CLASSIFY_SLOTS: tuple[tuple[int, int, int], ...] = (
    (2, 21, 34),
    (2, 41, 45),
    (3, 1, 10),
)
CLASSIFY_EXPONENTS = (1, 2, 3)

WORKLOADS = ("cubic_l2", "planar_l4", "quartic", "classify")


def cells(workload: str, seed: int) -> list[Cell]:
    """The queries of one run; only `classify` depends on the seed."""
    if workload in SEARCHES:
        return [SEARCHES[workload][0]]
    if workload == "classify":
        exponents = random.Random(seed).sample(CLASSIFY_EXPONENTS, 3)
        return [
            Cell(n, p, lo, hi, CLASSIFY_T_MAX)
            for (n, lo, hi), p in zip(CLASSIFY_SLOTS, exponents)
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ------------------------------------------------------------ checking

EXACT_FIELDS = (
    "det",
    "t",
    "r_pow",
    "R_pow",
    "mu_r",
    "mu_R",
    "disc_pack_density",
    "disc_cover_density",
    "shortest_pow",
)


def exact_rows(hits: list[dict]) -> list[str]:
    """One canonical string per hit, built from its exact fields only:
    rounded reals and any other report key are left out."""
    return [
        json.dumps(
            [hit["basis"]] + [hit["analysis"][k] for k in EXACT_FIELDS],
            separators=(",", ":"),
        )
        for hit in hits
    ]


def hit_digest(report: dict) -> str:
    """Digest of the hit list, in report order, over exact fields."""
    text = "\n".join(exact_rows(report["hits"]))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def sublattice_count(n: int, volume: int) -> int:
    """Number of index-`volume` sublattices of Z^n, counted here
    independently of the library: HNF diagonals d_1..d_n with product
    `volume` admit prod d_j**(j-1) choices of the entries above them."""
    if n == 1:
        return 1
    return sum(
        d ** (n - 1) * sublattice_count(n - 1, volume // d)
        for d in range(1, volume + 1)
        if volume % d == 0
    )


def counts_tuple(report: dict) -> tuple[int, int, int]:
    c = report["counts"]
    return (c["enumerated"], c["injectivity_survivors"], c["covering_survivors"])


def check_search(workload: str, report: dict) -> list[str]:
    """Problems with a fixed-query report (empty when it is correct)."""
    _, want = SEARCHES[workload]
    problems = []
    if len(report["hits"]) != want.hits:
        problems.append(f"{len(report['hits'])} hits, expected {want.hits}")
    if hit_digest(report) != want.digest:
        problems.append(f"hit digest {hit_digest(report)}, expected {want.digest}")
    if want.counts is not None and counts_tuple(report) != want.counts:
        problems.append(f"counts {counts_tuple(report)}, expected {want.counts}")
    return problems


def check_classify(cell: Cell, report: dict, fast_report: dict) -> list[str]:
    """Problems with a full-classification report.

    Every sublattice must be decided, and its t <= 1 classes must be the
    hits of the t_max=1 fast path over the same volumes.  The fast path
    forces the packing radius, so, as documented in the search tests'
    reference, classes of packing radius 0 above volume 1 are not
    among its hits.
    """
    problems = []
    want = sum(
        sublattice_count(cell.n, m)
        for m in range(cell.volume_min, cell.volume_max + 1)
    )
    if report["counts"]["enumerated"] != want:
        problems.append(
            f"enumerated {report['counts']['enumerated']}, expected {want}"
        )
    low = [
        hit
        for hit in report["hits"]
        if hit["analysis"]["t"] <= 1
        and (hit["analysis"]["r_pow"] > 0 or hit["analysis"]["det"] == 1)
    ]
    if sorted(exact_rows(low)) != sorted(exact_rows(fast_report["hits"])):
        problems.append(
            f"{len(low)} classes with t <= 1 differ from the "
            f"{len(fast_report['hits'])} fast-path hits"
        )
    return problems
