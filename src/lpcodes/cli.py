"""Command-line front end.

Subcommands bind the library modules one-to-one: `analyze` wraps
analysis.analyze, `search` wraps search.run_search, `ball`/`distset`
expose the exact ball machinery, `family` builds and optionally verifies
the explicit constructions, `bounds` runs the density-bound feasibility
scan, `tables` regenerates the reference tables from first principles,
and `polyomino` renders a ball's unit-square polyomino as SVG.

This module owns every text format it both reads and writes: compact
bases (`1,5;0,24`), `num/den` rationals, the `{"basis", "analysis"}`
hit record of `analyze` and of each search hit, and the CSV rows.  JSON
is written by `json.dump`, one encoder chunk at a time.  `--out` is
checked before the handler runs, so an unwritable path costs no work.

Exit codes: 0 success, 1 flag validation error (the diagnostic names the
offending flag), 2 internal error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict
from fractions import Fraction
from typing import TextIO

from .analysis import CodeAnalysis, analyze
from .balls import ball_points, distance_set, mu, pow_radius_of, real_root
from .errors import CheckpointError, DimensionUnsupportedError, SingularMatrixError
from .families import (
    BEST_COVERING_DENSITY,
    BEST_PACKING_DENSITY,
    HypothesisViolatedError,
    bound_report,
    bound_row,
    family,
    min_p_threshold_A,
    neighbors_in_distance_set,
    p_range_B,
    perfect_radius_bound,
)
from .lattices import Basis, hnf
from .search import SearchQuery, SearchReport, _SIEVES, jobs_from_env, run_search


class CliError(Exception):
    """Validation failure at the flag level; rendered with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliError(message)


def _int_at_least(low: int):
    """An argparse type for integers >= low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)
_nonneg_int = _int_at_least(0)


def parse_basis(text: str, flag: str = "--basis") -> tuple[tuple[int, ...], ...]:
    """Accept either JSON rows `[[1,5],[0,24]]` or compact `1,5;0,24`;
    every entry must be an integer (a JSON float or bool is refused)."""
    try:
        if text.lstrip().startswith("["):
            rows = json.loads(text)
            if any(type(v) is not int for row in rows for v in row):
                raise ValueError("entries must be integers")
            basis = tuple(tuple(row) for row in rows)
        else:
            basis = tuple(
                tuple(int(v) for v in row.split(",")) for row in text.split(";")
            )
    except (ValueError, TypeError) as exc:
        raise CliError(f"{flag}: cannot parse {text!r} as a basis ({exc})")
    if not basis or any(len(row) != len(basis) for row in basis):
        raise CliError(f"{flag}: basis must be square and nonempty, got {text!r}")
    return basis


def parse_rational(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"{flag}: cannot parse {text!r} as a rational ({exc})")


def fraction_str(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}"


def compact_basis(basis: Basis) -> str:
    return ";".join(",".join(str(v) for v in row) for row in basis)


def analysis_display(a: CodeAnalysis) -> dict:
    """Serializable view of one analysis: exact integers, densities as
    num/den strings, real quantities rounded to 4 decimals."""
    return {
        "n": a.n,
        "p": a.p,
        "basis": [list(row) for row in a.hnf_basis],
        "det": a.det,
        "t": a.t,
        "r_pow": a.r_pow,
        "R_pow": a.R_pow,
        "r": round(real_root(a.r_pow, a.p), 4),
        "R": round(real_root(a.R_pow, a.p), 4),
        "mu_r": a.mu_r,
        "mu_R": a.mu_R,
        "disc_pack_density": fraction_str(a.disc_pack_density),
        "disc_cover_density": fraction_str(a.disc_cover_density),
        "shortest_pow": a.shortest_pow,
        "real_pack_radius": round(a.real_pack_radius, 4),
        "real_pack_density": round(a.real_pack_density, 4),
        "real_cover_radius": (
            None if a.real_cover_radius is None else round(a.real_cover_radius, 4)
        ),
        "real_cover_density": (
            None if a.real_cover_density is None else round(a.real_cover_density, 4)
        ),
    }


def _hit_record(basis: Basis, a: CodeAnalysis) -> dict:
    """One JSON hit: the basis as given and its analysis display."""
    return {"basis": [list(row) for row in basis], "analysis": analysis_display(a)}


def report_to_dict(report: SearchReport) -> dict:
    return {
        "query": asdict(report.query),
        "counts": asdict(report.counts),
        "bound_provenance": report.bound_provenance,
        "hits": [_hit_record(basis, a) for basis, a in report.hits],
    }


CSV_FIELDS = ("det", "basis", "t", "r_pow", "R_pow", "r", "R", "mu_r", "mu_R",
              "disc_pack_density", "disc_cover_density", "shortest_pow",
              "real_pack_radius", "real_pack_density", "real_cover_radius",
              "real_cover_density")


def csv_row(a: CodeAnalysis) -> dict:
    """One CSV row: the analysis display with the HNF basis compacted."""
    d = analysis_display(a)
    d["basis"] = compact_basis(a.hnf_basis)
    return {k: d[k] for k in CSV_FIELDS}


def report_csv_rows(report: SearchReport) -> list[dict]:
    return [csv_row(a) for _, a in report.hits]


def _csv_text(fields: tuple[str, ...], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(fields), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(payload: dict, out: TextIO) -> None:
    """Write `json.dumps(payload, indent=2)` and a newline to `out`.
    `json.dump` writes each encoder chunk as it is produced, so a large
    report is never held as one string."""
    json.dump(payload, out, indent=2)
    out.write("\n")


def _write(output: str | dict, out: TextIO) -> None:
    """Write a handler's output: text as it is, a dict as JSON."""
    if isinstance(output, dict):
        _json_text(output, out)
    else:
        out.write(output)


# ---------------------------------------------------------------- analyze


def _cmd_analyze(args: argparse.Namespace) -> str | dict:
    basis = parse_basis(args.basis)
    if len(basis) != args.dim:
        raise CliError(
            f"--dim: got {args.dim}, but --basis has {len(basis)} rows"
        )
    try:
        a = analyze(basis, args.p)
    except SingularMatrixError as exc:
        raise CliError(f"--basis: {exc}")
    if args.format == "json":
        return _hit_record(basis, a)
    return _csv_text(CSV_FIELDS, [csv_row(a)])


# ----------------------------------------------------------------- search


def _cmd_search(args: argparse.Namespace) -> str | dict:
    try:
        query = SearchQuery(
            n=args.dim,
            p=args.p,
            volume_min=args.min_volume,
            volume_max=args.max_volume,
            t_max=args.t_max,
            dedupe=not args.no_dedupe,
        )
    except ValueError as exc:
        if args.dim not in _SIEVES:
            raise CliError(f"--dim: {exc}")
        raise CliError(f"--min-volume/--max-volume/--t-max: {exc}")
    jobs = args.jobs
    if jobs is None:
        try:
            jobs = jobs_from_env()
        except ValueError as exc:
            raise CliError(str(exc))
    try:
        report = run_search(
            query,
            jobs=jobs,
            checkpoint=args.checkpoint,
            progress=sys.stderr if args.progress else None,
        )
    except CheckpointError as exc:
        raise CliError(f"--checkpoint: {exc}")
    if args.format == "json":
        return report_to_dict(report)
    return _csv_text(CSV_FIELDS, report_csv_rows(report))


# ------------------------------------------------------------ ball/distset


def _cmd_ball(args: argparse.Namespace) -> dict:
    payload = {
        "n": args.dim,
        "p": args.p,
        "r_pow": args.rpow,
        "r": round(real_root(args.rpow, args.p), 4),
        "mu": mu(args.dim, args.p, args.rpow),
    }
    if args.list:
        payload["points"] = [list(pt) for pt in ball_points(args.dim, args.p, args.rpow)]
    return payload


def _cmd_distset(args: argparse.Namespace) -> dict:
    elements = distance_set(args.dim, args.p, args.limit)
    return {
        "n": args.dim,
        "p": args.p,
        "limit": args.limit,
        "count": len(elements),
        "elements": list(elements),
    }


# ----------------------------------------------------------------- family


def _cmd_family(args: argparse.Namespace) -> dict:
    r = parse_rational(args.r, "--r")
    try:
        spec = family(args.kind, r, args.p)
    except HypothesisViolatedError as exc:
        raise CliError(f"--kind {args.kind} with --r {args.r}, --p {args.p}: {exc}")
    payload = {
        "kind": spec.kind,
        "r": str(spec.r),
        "p": spec.p,
        "basis": [list(row) for row in spec.basis],
        "det": spec.det,
        "predicted_t": spec.predicted_t,
        "predicted_disc_density": fraction_str(spec.predicted_disc_density),
    }
    if args.verify:
        a = analyze(spec.basis, spec.p)
        payload["observed"] = analysis_display(a)
        payload["verified"] = bool(
            a.t == spec.predicted_t
            and a.disc_pack_density == spec.predicted_disc_density
        )
    return payload


# ----------------------------------------------------------------- bounds

_BOUND_FIELDS = ("r_pow", "mu", "delta_lower", "theta_upper_7", "theta_upper_8")


def _bound_csv_row(row, with_theta8: bool = True) -> dict:
    return {
        "r_pow": row.r_pow,
        "mu": row.mu,
        "delta_lower": f"{row.delta_lower:.4f}",
        "theta_upper_7": f"{row.theta_upper_7:.4f}",
        "theta_upper_8": f"{row.theta_upper_8:.4f}" if with_theta8 else "",
    }


def _cmd_bounds(args: argparse.Namespace) -> str:
    if not 1.0 < args.theta_min < math.inf:
        raise CliError(f"--theta-min: must be finite and > 1, got {args.theta_min}")
    report = bound_report(args.dim, args.p, args.theta_min, args.mode)
    text = _csv_text(_BOUND_FIELDS, [_bound_csv_row(row) for row in report.rows])
    text += f"# r_pow_max={report.r_pow_max}\n"
    text += f"# volume_max={report.volume_max}\n"
    return text


# ----------------------------------------------------------------- tables


def _table1() -> str:
    theta = BEST_COVERING_DENSITY[(2, 2)]
    delta = BEST_PACKING_DENSITY[(2, 2)]
    anchors = [
        ("perfect", bound_report(2, 2, theta, "perfect", 7).r_pow_max),
        ("perfect", perfect_radius_bound(2, 2, delta)[1]),
        ("quasiperfect", bound_report(2, 2, theta, "quasiperfect", 7).r_pow_max),
        ("quasiperfect", bound_report(2, 2, theta, "quasiperfect", 8).r_pow_max),
    ]
    rows = []
    for mode, anchor in anchors:
        for s in neighbors_in_distance_set(2, 2, anchor):
            row = bound_row(2, 2, s, mode)
            entry = _bound_csv_row(row, with_theta8=(mode == "quasiperfect"))
            entry["block"] = mode
            rows.append(entry)
    return _csv_text(("block",) + _BOUND_FIELDS, rows)


def _table2() -> str:
    query = SearchQuery(n=2, p=2, volume_min=24, volume_max=24, t_max=None)
    report = run_search(query)
    return _csv_text(CSV_FIELDS, report_csv_rows(report))


def _table3() -> str:
    rows = [{"r": r, "min_p": min_p_threshold_A(r)} for r in range(2, 15)]
    return _csv_text(("r", "min_p"), rows)


def _table4() -> str:
    rows = [
        {"r": r, "p_values": " ".join(str(p) for p in p_range_B(r))}
        for r in range(3, 15)
    ]
    return _csv_text(("r", "p_values"), rows)


def _cmd_tables(args: argparse.Namespace) -> str:
    return {"table1": _table1, "table2": _table2, "table3": _table3,
            "table4": _table4}[args.which]()


# -------------------------------------------------------------- polyomino

_TRANSLATE_FILLS = ("#9ecae1", "#a1d99b", "#fdae6b", "#bcbddc", "#fc9272",
                    "#c7e9c0", "#fdd0a2", "#dadaeb")


def _squares(points, fill: str) -> list[str]:
    return [
        f'<rect x="{x - 0.5:g}" y="{y - 0.5:g}" width="1" height="1" '
        f'fill="{fill}" stroke="#333" stroke-width="0.05"/>'
        for x, y in points
    ]


def _cmd_polyomino(args: argparse.Namespace) -> str:
    if args.dim != 2:
        raise DimensionUnsupportedError(
            f"polyomino rendering is planar; --dim must be 2, got {args.dim}"
        )
    r = parse_rational(args.r, "--r")
    if r <= 0:
        raise CliError(f"--r: must be positive, got {args.r}")
    s = pow_radius_of(r, args.p)
    base = ball_points(2, args.p, s)
    groups: list[tuple[tuple[int, int], list]] = []
    if args.basis:
        basis = parse_basis(args.basis)
        if len(basis) != 2:
            raise CliError(f"--basis: polyomino tiling needs a 2x2 basis")
        try:
            hnf(basis)
        except SingularMatrixError as exc:
            raise CliError(f"--basis: {exc}")
        (a, b), (c, d) = basis
        for i in range(-2, 3):
            for j in range(-2, 3):
                if (i, j) == (0, 0):
                    continue
                vx, vy = i * a + j * c, i * b + j * d
                groups.append(
                    ((vx, vy), [(x + vx, y + vy) for x, y in base])
                )
    everything = list(base) + [pt for _, pts in groups for pt in pts]
    xs = [x for x, _ in everything]
    ys = [y for _, y in everything]
    x0, x1 = min(xs) - 1.0, max(xs) + 1.0
    y0, y1 = min(ys) - 1.0, max(ys) + 1.0
    body: list[str] = []
    for k, (_, pts) in enumerate(sorted(groups)):
        body += _squares(pts, _TRANSLATE_FILLS[k % len(_TRANSLATE_FILLS)])
    body += _squares(base, "#555")
    # flip the y axis so mathematical "up" renders upward
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{x0:g} {-y1:g} {x1 - x0:g} {y1 - y0:g}">\n'
        f'<g transform="scale(1,-1)">\n' + "\n".join(body) + "\n</g>\n</svg>\n"
    )


# --------------------------------------------------------------- dispatch


def build_parser() -> _Parser:
    parser = _Parser(prog="lpcodes", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, dim=True, p=True):
        if dim:
            sp.add_argument("--dim", type=_positive_int, required=True,
                            help="ambient dimension n")
        if p:
            sp.add_argument("--p", type=_positive_int, required=True,
                            help="metric exponent p")
        sp.add_argument("--out", help="write output to this path instead of stdout")

    sp = sub.add_parser("analyze", help="full exact analysis of one lattice")
    common(sp)
    sp.add_argument("--basis", required=True,
                    help="JSON rows [[1,5],[0,24]] or compact 1,5;0,24")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(handler=_cmd_analyze)

    sp = sub.add_parser("search", help="exhaustive search over a volume range")
    common(sp)
    sp.add_argument("--min-volume", type=_positive_int, default=1)
    sp.add_argument("--max-volume", type=_positive_int, required=True)
    sp.add_argument("--t-max", type=_nonneg_int, default=1,
                    help="imperfection cap (default 1: perfect + quasi-perfect)")
    sp.add_argument("--no-dedupe", action="store_true",
                    help="keep congruent duplicates")
    sp.add_argument("--jobs", type=_positive_int, default=None,
                    help="worker processes (default: QP_JOBS or 1)")
    sp.add_argument("--checkpoint", help="per-volume progress file, resumable")
    sp.add_argument("--progress", action="store_true",
                    help="one stderr line per finished volume: volume, hits,"
                         " sieve survivors, covering passes and ms")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(handler=_cmd_search)

    sp = sub.add_parser("ball", help="ball point count (and points)")
    common(sp)
    sp.add_argument("--rpow", type=_nonneg_int, required=True,
                    help="pow-radius s = r**p")
    sp.add_argument("--list", action="store_true", help="include the points")
    sp.set_defaults(handler=_cmd_ball)

    sp = sub.add_parser("distset", help="attainable pow-distances up to a limit")
    common(sp)
    sp.add_argument("--limit", type=_nonneg_int, required=True)
    sp.set_defaults(handler=_cmd_distset)

    sp = sub.add_parser("family", help="explicit lattice constructions")
    common(sp, dim=False)
    sp.add_argument("--kind", choices=("A", "B", "C", "D"), required=True)
    sp.add_argument("--r", required=True, help="rational radius parameter, e.g. 3 or 5/2")
    sp.add_argument("--verify", action="store_true",
                    help="analyze the basis and check the predictions")
    sp.set_defaults(handler=_cmd_family)

    sp = sub.add_parser("bounds", help="density-bound feasibility scan")
    common(sp)
    sp.add_argument("--theta-min", type=float, required=True,
                    help="best known covering density for the dimension")
    sp.add_argument("--mode", choices=("perfect", "quasiperfect"),
                    default="quasiperfect")
    sp.set_defaults(handler=_cmd_bounds)

    sp = sub.add_parser("tables", help="regenerate a reference table")
    sp.add_argument("--which", choices=("table1", "table2", "table3", "table4"),
                    required=True)
    sp.add_argument("--out", help="write output to this path instead of stdout")
    sp.set_defaults(handler=_cmd_tables)

    sp = sub.add_parser("polyomino", help="render a ball polyomino as SVG")
    sp.add_argument("--dim", type=_positive_int, default=2)
    sp.add_argument("--p", type=_positive_int, required=True)
    sp.add_argument("--r", required=True, help="rational radius, e.g. 10 or 5/2")
    sp.add_argument("--basis", help="optional lattice basis; renders translates")
    sp.add_argument("--out", help="write output to this path instead of stdout")
    sp.set_defaults(handler=_cmd_polyomino)

    return parser


def _check_out(path: str) -> None:
    """Refuse an --out that cannot be written before any work starts: a
    directory, or a file whose directory is missing or not writable."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise CliError(f"--out: {path!r} is a directory")
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise CliError(f"--out: directory {folder!r} is missing or not writable")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "out", None):
            _check_out(args.out)
        output = args.handler(args)
        if getattr(args, "out", None):
            try:
                with open(args.out, "w") as fh:
                    _write(output, fh)
            except OSError as exc:
                raise CliError(f"--out: {exc}")
        else:
            _write(output, sys.stdout)
    except (CliError, DimensionUnsupportedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal failure, not a usage problem
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
