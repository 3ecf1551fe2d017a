"""Frozen expectations shared across the test suite.

Three kinds of fixture live here, kept apart on purpose:

  - expected catalogs for the exhaustive searches.  Catalog entries are
    representatives only; tests must canonicalize both sides before
    comparing, because a congruence class has many HNF spellings and the
    curated lists freely mix them (some classes even appear twice under
    different representatives).
  - reference-table rows for the `tables` CLI command, with exact fields
    (counts, pow-radii, rational densities) separated from the rounded
    4-decimal real fields.
  - oracle-backed regression values.  Every perfect-code representative
    below was re-checked by an independent nearest-translate brute force
    (see test_analysis.py for the in-suite version) before being frozen.

Where a curated catalog deviates from the raw expected list, the
deviation is spelled out next to the data with the verification route
that settled it.  Do not edit these by re-running the code under test.
"""

from fractions import Fraction

# --------------------------------------------------------------------------
# tables --which table1: bound feasibility rows.  Each anchor radius (the
# last feasible pow-radius under the given mode/inequality, plus the
# packing-bound maximum for the perfect mode) is surrounded by its two
# attainable neighbours on each side.  Fields: (block, r_pow, mu,
# delta_lower, theta_upper_7, theta_upper_8 or None).  Reals are the
# expected 4-decimal renderings (validated to +-0.001 in acceptance).

TABLE1_ROWS = (
    ("perfect", 41, 137, 0.6418, 1.1593, None),
    ("perfect", 45, 145, 0.6549, 1.1914, None),
    ("perfect", 49, 149, 0.6667, 1.2524, None),
    ("perfect", 50, 161, 0.6694, 1.1805, None),
    ("perfect", 52, 169, 0.6747, 1.1655, None),
    ("perfect", 829, 2601, 0.9064, 1.0511, None),
    ("perfect", 832, 2609, 0.9066, 1.0516, None),
    ("perfect", 833, 2617, 0.9066, 1.0496, None),
    ("perfect", 841, 2629, 0.9071, 1.0546, None),
    ("perfect", 842, 2637, 0.9071, 1.0526, None),
    ("quasiperfect", 72, 225, 0.716, 1.195, 1.3683),
    ("quasiperfect", 73, 233, 0.7176, 1.1685, 1.3371),
    ("quasiperfect", 74, 241, 0.7193, 1.2143, 1.3079),
    ("quasiperfect", 80, 249, 0.7284, 1.1889, 1.3538),
    ("quasiperfect", 81, 253, 0.7298, 1.1835, 1.3467),
    ("quasiperfect", 193, 601, 0.8156, 1.1197, 1.2247),
    ("quasiperfect", 194, 609, 0.8161, 1.1158, 1.2143),
    ("quasiperfect", 196, 613, 0.8169, 1.1139, 1.2177),
    ("quasiperfect", 197, 621, 0.8174, 1.1155, 1.2076),
    ("quasiperfect", 200, 633, 0.8186, 1.1048, 1.2011),
)

# Anchor values the table is built around (also asserted directly).
LAST_FEASIBLE_QUASI_INEQ7 = 74
LAST_FEASIBLE_QUASI_INEQ8 = 196
LAST_FEASIBLE_PERFECT_INEQ7 = 49
PERFECT_RADIUS_BOUND_RPOW = 833
MAX_SEARCH_VOLUME_2D = 242  # closed form; the gated search cap is 241
# (r_pow_max, volume_max) of bound_report(n, 2, BEST_COVERING_DENSITY[(n, 2)]),
# n = 2, 3, 4; the 4-D cap uses the exact A4* density, not the rounded 1.7655,
# which lies below it and admits one volume more.
BOUND_RANGES_P2 = {2: (74, 242), 3: (49, 1431), 4: (49, 11860)}

# --------------------------------------------------------------------------
# tables --which table2: every volume-24 planar lattice under p=2, one row
# per congruence class, ordered by canonical HNF.  Exact fields first:
# (basis, t, r_pow, R_pow, disc_pack, disc_cover), then the rounded reals
# (real_pack_radius, real_cover_radius, real_pack_density,
# real_cover_density).  The displayed r/R are sqrt(r_pow)/sqrt(R_pow) and
# are checked from the exact ints, so they are not duplicated here.

TABLE2_ROWS = (
    ("1,0;0,24", 58, 0, 144, Fraction(1, 24), Fraction(147, 8),
     0.5, 12.0104, 0.0327, 18.8823),
    ("1,1;0,24", 32, 0, 72, Fraction(1, 24), Fraction(75, 8),
     0.7071, 8.5147, 0.0654, 9.4902),
    ("1,2;0,24", 14, 1, 29, Fraction(5, 24), Fraction(97, 24),
     1.118, 5.4271, 0.1636, 3.8554),
    ("1,3;0,24", 7, 2, 16, Fraction(3, 8), Fraction(49, 24),
     1.5811, 4.0139, 0.3272, 2.1089),
    ("1,4;0,24", 4, 4, 10, Fraction(13, 24), Fraction(37, 24),
     2.0616, 3.3001, 0.5563, 1.4256),
    ("1,5;0,24", 1, 5, 8, Fraction(7, 8), Fraction(25, 24),
     2.5495, 3.0641, 0.8508, 1.229),
    ("1,6;0,24", 5, 2, 10, Fraction(3, 8), Fraction(37, 24),
     2.0, 3.4004, 0.5236, 1.5135),
    ("1,7;0,24", 4, 4, 10, Fraction(13, 24), Fraction(37, 24),
     2.1213, 3.5355, 0.589, 1.6362),
    ("1,8;0,24", 8, 2, 17, Fraction(3, 8), Fraction(19, 8),
     1.5, 4.1552, 0.2945, 2.2601),
    ("1,9;0,24", 4, 4, 10, Fraction(13, 24), Fraction(37, 24),
     2.1213, 3.2596, 0.589, 1.3908),
    ("1,10;0,24", 4, 4, 10, Fraction(13, 24), Fraction(37, 24),
     2.2361, 3.3657, 0.6545, 1.4828),
    ("1,11;0,24", 10, 1, 18, Fraction(5, 24), Fraction(61, 24),
     1.4142, 4.3605, 0.2618, 2.4889),
    ("1,12;0,24", 18, 0, 36, Fraction(1, 24), Fraction(113, 24),
     1.0, 6.0417, 0.1309, 4.7781),
    ("2,0;0,12", 19, 0, 37, Fraction(1, 24), Fraction(121, 24),
     1.0, 6.0828, 0.1309, 4.8433),
    ("2,2;0,12", 11, 1, 20, Fraction(5, 24), Fraction(23, 8),
     1.4142, 4.4721, 0.2618, 2.618),
    ("2,3;0,12", 5, 4, 13, Fraction(13, 24), Fraction(15, 8),
     1.8028, 3.6336, 0.4254, 1.7283),
    ("2,4;0,12", 4, 4, 10, Fraction(13, 24), Fraction(37, 24),
     2.2361, 3.1623, 0.6545, 1.309),
    ("2,6;0,12", 5, 2, 10, Fraction(3, 8), Fraction(37, 24),
     2.0, 3.3333, 0.5236, 1.4544),
    ("3,0;0,8", 8, 2, 17, Fraction(3, 8), Fraction(19, 8),
     1.5, 4.272, 0.2945, 2.3889),
    ("3,4;0,8", 2, 5, 9, Fraction(7, 8), Fraction(29, 24),
     2.5, 3.125, 0.8181, 1.2783),
    ("4,0;0,6", 6, 2, 13, Fraction(3, 8), Fraction(15, 8),
     2.0, 3.6056, 0.5236, 1.7017),
)

# --------------------------------------------------------------------------
# Expected analyze() outcome for the worked planar example, and the
# attainable pow-distances it quotes (the listed prefix omits the trivial
# 0, which the library's distance set does include).

EXAMPLE_BASIS = ((5, 11), (13, 1))
EXAMPLE_R_POW = 37
EXAMPLE_R_COV_POW = 50
DISTSET_2D_PREFIX = (1, 2, 4, 5, 8, 9, 10, 13, 16, 17, 18, 20, 25, 26, 29,
                     32, 34, 36, 37, 40, 41, 45, 49, 50)

# --------------------------------------------------------------------------
# Planar quasi-perfect catalog, p=2, volumes <= 241.  29 shared entries
# plus the four larger ones specific to p=2.  Representatives collapse to
# 24 congruence classes after canonicalization.

CATALOG_2D = (
    ((1, 2), (0, 6)),
    ((1, 2), (0, 7)),
    ((1, 3), (0, 7)),
    ((1, 3), (0, 8)),
    ((1, 3), (0, 11)),
    ((1, 4), (0, 11)),
    ((2, 3), (0, 6)),
    ((1, 4), (0, 14)),
    ((1, 4), (0, 15)),
    ((1, 6), (0, 15)),
    ((1, 6), (0, 16)),
    ((1, 4), (0, 17)),
    ((1, 5), (0, 17)),
    ((1, 7), (0, 17)),
    ((1, 4), (0, 18)),
    ((1, 5), (0, 18)),
    ((1, 7), (0, 18)),
    ((1, 4), (0, 19)),
    ((1, 5), (0, 19)),
    ((1, 8), (0, 20)),
    ((1, 5), (0, 23)),
    ((1, 9), (0, 23)),
    ((1, 5), (0, 24)),
    ((1, 6), (0, 33)),
    ((1, 6), (0, 34)),
    ((1, 10), (0, 35)),
    ((1, 7), (0, 39)),
    ((1, 11), (0, 39)),
    ((1, 12), (0, 42)),
)

CATALOG_2D_P2_EXTRA = (
    ((1, 8), (0, 53)),
    ((1, 20), (0, 53)),
    ((1, 9), (0, 77)),
    ((1, 17), (0, 77)),
)

# quasi-perfect packing pow-radii expected at p=2 (radii 1,2,3,4, sqrt2,
# sqrt5, 2*sqrt5, sqrt10)
QUASI_RPOW_2D_P2 = frozenset({1, 4, 9, 16, 2, 5, 20, 10})
# perfect stratum must contain radii 1, sqrt2, 2, 2*sqrt2 (the identity
# class contributes a trivial radius 0 on top)
PERFECT_RPOW_2D_P2 = frozenset({1, 2, 4, 8})

# Perfect classes actually found (oracle-backed; see module docstring).
PERFECT_CLASSES_2D_P2 = (
    (((1, 0), (0, 1)), 0),
    (((1, 2), (0, 5)), 1),
    (((1, 3), (0, 9)), 2),
    (((3, 0), (0, 3)), 2),
    (((1, 5), (0, 13)), 4),
    (((1, 5), (0, 25)), 8),
    (((1, 10), (0, 25)), 8),
    (((5, 0), (0, 5)), 8),
)

# --------------------------------------------------------------------------
# p=3 and p=4 planar searches, volumes <= 600: the shared catalog plus
# these extras.  Expected quasi packing pow-radii follow each list.

EXTRAS_2D_P3 = (
    ((1, 7), (0, 47)),
    ((1, 20), (0, 47)),
    ((1, 7), (0, 48)),
)
QUASI_RPOW_2D_P3 = frozenset({1, 8, 27, 2, 9, 28, 35})

EXTRAS_2D_P4 = EXTRAS_2D_P3 + (
    ((1, 9), (0, 79)),
    ((1, 35), (0, 79)),
    ((1, 9), (0, 80)),
)
QUASI_RPOW_2D_P4 = frozenset({1, 16, 81, 2, 17, 82, 97, 337})

# The p=4 search also finds these two classes beyond the expected list.
# Both were confirmed by an independent brute force (r_pow 881 = 5^4+4^4,
# R_pow 1250, single attainable distance in between, so t=1), and the
# window mu(2,4,881) = 117 <= det makes them feasible; the expected list
# appears to stop one stratum short of the volume cutoff.  Acceptance
# checks containment of the expected extras; the exact-output regression
# pins expected + these two.
SURPLUS_2D_P4 = (
    ((1, 11), (0, 119)),
    ((1, 11), (0, 120)),
)
SURPLUS_2D_P4_RPOW = 881

PERFECT_CLASSES_2D_P3 = (
    (((1, 0), (0, 1)), 0),
    (((1, 2), (0, 5)), 1),
    (((1, 3), (0, 9)), 2),
    (((3, 0), (0, 3)), 2),
    (((1, 5), (0, 13)), 8),
    (((1, 5), (0, 25)), 16),
    (((1, 10), (0, 25)), 16),
    (((5, 0), (0, 5)), 16),
    (((1, 7), (0, 49)), 54),
    (((1, 14), (0, 49)), 54),
    (((1, 21), (0, 49)), 54),
    (((7, 0), (0, 7)), 54),
)

PERFECT_CLASSES_2D_P4 = (
    (((1, 0), (0, 1)), 0),
    (((1, 2), (0, 5)), 1),
    (((1, 3), (0, 9)), 2),
    (((3, 0), (0, 3)), 2),
    (((1, 5), (0, 13)), 16),
    (((1, 5), (0, 25)), 32),
    (((1, 10), (0, 25)), 32),
    (((5, 0), (0, 5)), 32),
    (((1, 7), (0, 49)), 162),
    (((1, 14), (0, 49)), 162),
    (((1, 21), (0, 49)), 162),
    (((7, 0), (0, 7)), 162),
    (((1, 9), (0, 81)), 512),
    (((1, 18), (0, 81)), 512),
    (((1, 36), (0, 81)), 512),
    (((3, 9), (0, 27)), 512),
    (((9, 0), (0, 9)), 512),
    (((1, 11), (0, 121)), 1250),
    (((1, 22), (0, 121)), 1250),
    (((1, 33), (0, 121)), 1250),
    (((1, 44), (0, 121)), 1250),
    (((1, 55), (0, 121)), 1250),
    (((11, 0), (0, 11)), 1250),
)

# --------------------------------------------------------------------------
# Three-dimensional quasi-perfect catalog, p=2, as bundled: 76
# representatives.  Four of them are wrong (brute-force confirmed twice
# over, by per-lattice nearest-translate checks and by an exhaustive
# independent rescan of the disputed determinants):
#
#   ((1,0,5),(0,1,8),(0,0,25))   is 2-imperfect
#   ((1,0,5),(0,1,9),(0,0,25))   is 3-imperfect
#   ((1,0,5),(0,1,9),(0,0,26))   is 4-imperfect; the intended class is
#                                ((1,0,3),(0,1,9),(0,0,26))  (digit slip)
#   ((1,1,2),(0,3,0),(0,0,15))   has det 45 and t=9; it sits among det-15
#                                entries and misprints the trailing
#                                diagonal of the legitimate det-15 rep
#                                ((1,1,2),(0,3,0),(0,0,5)), whose class
#                                the list already contains elsewhere
#
# The curated catalog drops those four and adds the corrected det-26 rep.
# test_search.py re-derives the disputed determinants from scratch.

CATALOG_3D_RAW = (
    ((1, 0, 2), (0, 1, 3), (0, 0, 8)),
    ((1, 0, 2), (0, 1, 3), (0, 0, 9)),
    ((1, 0, 2), (0, 1, 4), (0, 0, 9)),
    ((1, 0, 3), (0, 1, 4), (0, 0, 9)),
    ((1, 1, 1), (0, 3, 0), (0, 0, 3)),
    ((1, 0, 2), (0, 1, 3), (0, 0, 10)),
    ((1, 0, 2), (0, 1, 4), (0, 0, 10)),
    ((1, 0, 3), (0, 1, 4), (0, 0, 10)),
    ((1, 0, 2), (0, 1, 3), (0, 0, 11)),
    ((1, 0, 2), (0, 1, 4), (0, 0, 11)),
    ((1, 0, 3), (0, 1, 4), (0, 0, 11)),
    ((1, 0, 2), (0, 1, 5), (0, 0, 11)),
    ((1, 0, 3), (0, 1, 5), (0, 0, 11)),
    ((1, 0, 4), (0, 1, 5), (0, 0, 11)),
    ((1, 0, 2), (0, 1, 4), (0, 0, 12)),
    ((1, 0, 2), (0, 1, 5), (0, 0, 12)),
    ((1, 0, 3), (0, 1, 5), (0, 0, 12)),
    ((1, 0, 2), (2, 2, 0), (0, 0, 6)),
    ((1, 0, 2), (0, 2, 3), (0, 0, 6)),
    ((1, 1, 2), (0, 3, 0), (0, 0, 4)),
    ((1, 0, 2), (0, 1, 4), (0, 0, 13)),
    ((1, 0, 3), (0, 1, 4), (0, 0, 13)),
    ((1, 0, 2), (0, 1, 5), (0, 0, 13)),
    ((1, 0, 3), (0, 1, 5), (0, 0, 13)),
    ((1, 0, 2), (0, 1, 6), (0, 0, 13)),
    ((1, 0, 3), (0, 1, 6), (0, 0, 13)),
    ((1, 0, 4), (0, 1, 6), (0, 0, 13)),
    ((1, 0, 2), (0, 1, 5), (0, 0, 14)),
    ((1, 0, 2), (0, 1, 6), (0, 0, 14)),
    ((1, 0, 3), (0, 1, 6), (0, 0, 14)),
    ((1, 0, 4), (0, 1, 6), (0, 0, 14)),
    ((1, 0, 2), (0, 1, 5), (0, 0, 15)),
    ((1, 0, 3), (0, 1, 5), (0, 0, 15)),
    ((1, 0, 2), (0, 1, 6), (0, 0, 15)),
    ((1, 0, 3), (0, 1, 6), (0, 0, 15)),
    ((1, 0, 4), (0, 1, 6), (0, 0, 15)),
    ((1, 0, 3), (0, 1, 7), (0, 0, 15)),
    ((1, 0, 5), (0, 1, 7), (0, 0, 15)),
    ((1, 0, 2), (0, 3, 0), (0, 0, 5)),
    ((1, 1, 2), (0, 3, 0), (0, 0, 15)),
    ((1, 0, 2), (0, 1, 6), (0, 0, 16)),
    ((1, 0, 2), (0, 1, 6), (0, 0, 17)),
    ((1, 0, 3), (0, 1, 6), (0, 0, 17)),
    ((1, 0, 3), (0, 1, 8), (0, 0, 17)),
    ((1, 0, 3), (0, 1, 8), (0, 0, 21)),
    ((1, 0, 3), (0, 1, 8), (0, 0, 23)),
    ((1, 0, 5), (0, 1, 8), (0, 0, 23)),
    ((1, 0, 3), (0, 1, 9), (0, 0, 23)),
    ((1, 0, 3), (0, 1, 8), (0, 0, 24)),
    ((1, 0, 5), (0, 1, 8), (0, 0, 24)),
    ((1, 1, 3), (0, 3, 0), (0, 0, 8)),
    ((1, 0, 5), (0, 1, 8), (0, 0, 25)),
    ((1, 0, 5), (0, 1, 9), (0, 0, 25)),
    ((1, 0, 8), (0, 1, 11), (0, 0, 25)),
    ((1, 0, 5), (0, 1, 9), (0, 0, 26)),
    ((1, 0, 11), (0, 1, 16), (0, 0, 35)),
    ((1, 0, 12), (0, 1, 18), (0, 0, 39)),
    ((1, 0, 5), (0, 1, 13), (0, 0, 41)),
    ((1, 0, 8), (0, 1, 19), (0, 0, 41)),
    ((1, 0, 13), (0, 1, 19), (0, 0, 41)),
    ((1, 0, 9), (0, 2, 6), (0, 0, 21)),
    ((1, 0, 4), (0, 3, 7), (0, 0, 14)),
    ((1, 3, 2), (0, 6, 0), (0, 0, 7)),
    ((1, 0, 14), (0, 1, 20), (0, 0, 44)),
    ((1, 0, 7), (0, 1, 11), (0, 0, 45)),
    ((1, 0, 8), (0, 1, 13), (0, 0, 45)),
    ((1, 0, 4), (0, 1, 17), (0, 0, 45)),
    ((1, 0, 8), (0, 1, 12), (0, 0, 46)),
    ((1, 0, 5), (0, 1, 13), (0, 0, 47)),
    ((1, 0, 4), (0, 1, 18), (0, 0, 47)),
    ((1, 0, 12), (0, 1, 19), (0, 0, 47)),
    ((1, 0, 8), (0, 1, 12), (0, 0, 50)),
    ((1, 0, 5), (0, 1, 21), (0, 0, 55)),
    ((1, 0, 5), (0, 1, 25), (0, 0, 63)),
    ((1, 0, 5), (0, 1, 26), (0, 0, 65)),
    ((1, 1, 5), (0, 5, 0), (0, 0, 13)),
)

CATALOG_3D_BOGUS = (
    ((1, 0, 5), (0, 1, 8), (0, 0, 25)),
    ((1, 0, 5), (0, 1, 9), (0, 0, 25)),
    ((1, 0, 5), (0, 1, 9), (0, 0, 26)),
    ((1, 1, 2), (0, 3, 0), (0, 0, 15)),
)

# measured imperfection degrees of the four bogus representatives
CATALOG_3D_BOGUS_T = (2, 3, 4, 9)

CATALOG_3D_CORRECTED = (
    ((1, 0, 3), (0, 1, 9), (0, 0, 26)),
)

# extras beyond the shared 3-D catalog at p=2, volumes <= 1419
EXTRAS_3D_P2 = (
    ((1, 0, 5), (0, 1, 41), (0, 0, 105)),
    ((1, 1, 5), (0, 6, 6), (0, 0, 18)),
)

# quasi radii 1, 2, sqrt2, 2*sqrt2, sqrt5
QUASI_RPOW_3D_P2 = frozenset({1, 4, 2, 8, 5})

PERFECT_CLASSES_3D_P2 = (
    (((1, 0, 0), (0, 1, 0), (0, 0, 1)), 0),
    (((1, 0, 2), (0, 1, 3), (0, 0, 7)), 1),
    (((1, 0, 3), (0, 1, 9), (0, 0, 27)), 3),
    (((1, 0, 3), (0, 3, 0), (0, 0, 9)), 3),
    (((1, 0, 3), (0, 3, 2), (0, 0, 9)), 3),
    (((1, 0, 3), (0, 3, 3), (0, 0, 9)), 3),
    (((1, 0, 3), (0, 3, 4), (0, 0, 9)), 3),
    (((1, 1, 3), (0, 3, 0), (0, 0, 9)), 3),
    (((3, 0, 0), (0, 3, 0), (0, 0, 3)), 3),
)

# search pipeline counters at the gated reduced scale (regression only)
COUNTS_3D_P2_M200 = (5_324_942, 9_884, 1_000)

# Survivor-count regressions for the other searched ranges, frozen the
# same way (class sets validated against the oracles first, then the
# counters recorded; enumerated totals are recomputable as divisor sums).
COUNTS_2D_P2_M241 = (47_875, 211, 105)
COUNTS_2D_P3_M600 = (296_729, 236, 116)
COUNTS_2D_P4_M600 = (296_729, 314, 166)
COUNTS_3D_P2_M1419 = (1_883_237_964, 9_890, 1_000)

# --------------------------------------------------------------------------
# Family threshold tables.  table3: least p admitting family A per r.
# table4: the p set admitted by family B's two-sided hypothesis per r.
# The bundled reference rendering of table4 deviates from the predicate
# at exactly two cells, adding p=2 at r=3 and p=4 at r=6 (both are the
# family-A threshold values for those r, and at both B's first
# condition 2(r-1)^p > r^p fails).  Measurement rejects the r=3 cell
# outright (t = 3, not 2, and the packing radius is not r-1); the r=6
# cell happens to measure t = 5 = r-1 anyway, but lies outside what the
# stated inequalities guarantee.  The generated table follows the
# inequalities, so it omits both; the deviation is pinned in the tests
# so any drift is caught.

TABLE3_ROWS = tuple(zip(range(2, 15), (1, 2, 3, 4, 4, 5, 6, 6, 7, 8, 8, 9, 10)))

TABLE4_ROWS = (
    (3, (1,)),
    (4, (2,)),
    (5, (2, 3)),
    (6, (3,)),
    (7, (3, 4)),
    (8, (4, 5)),
    (9, (4, 5)),
    (10, (5, 6)),
    (11, (5, 6, 7)),
    (12, (6, 7)),
    (13, (6, 7, 8)),
    (14, (7, 8, 9)),
)

TABLE4_REFERENCE_EXTRA_CELLS = ((3, 2), (6, 4))

# family A at r=3 is congruent to the shared-catalog entry (1,6;0,33)
FAMILY_A_R3_CATALOG_TWIN = ((1, 6), (0, 33))
