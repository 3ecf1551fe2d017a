"""lpcodes benchmark: time to solution of exact lattice-code searches.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one workload below, or `all` to run each in turn (metric names
then carry the workload as a prefix).  Run it from the root of a checkout.  It imports the library from ./src,
drives the public CLI (`lpcodes.cli.main(["search", ...])`) and writes
scratch files under ./.bench_build/perfbench/.

Workloads (queries in workloads.py):
  cubic_l2   3-D, p=2, volumes 1..200: the acceptance-gated query; sieve,
             covering test, canonical forms and re-analysis all matter.
  planar_l4  2-D, p=4, volumes 1..600: ball differences dominate.
  quartic    4-D, p=2, volumes 1..11: no sieve for n=4, so every
             sublattice gets the injectivity test, and canonical forms
             try 384 transforms.
  classify   full classification (huge --t-max) of two 2-D and one 3-D
             volume window, the seed dealing p = 1, 2, 3 among them: the
             slow path, where closest-vector search dominates.

--trace 0 gives the end-to-end metrics.  Rounds of cold runs, each query
at jobs=1 and at jobs=2, repeat while another round ends nearer to
--seconds than stopping does (at least one round runs).  A wall time is
the sum over the workload's queries of each query's median run.  Every
run starts a fresh interpreter (child.py) because the library keeps
per-process functools.cache tables (_ball_diffs, distance_set, mu,
is_representable, signed_permutations): each CLI user starts with them
cold, and repeating a query inside one process would time warm caches no
user sees.  Each run must start from the cache state of a freshly
imported library, and the first and last runs of a set must miss those
caches equally often, so a warm-cache leak shows as a failure.  The processes of every run are moved between the
CPUs every ROTATE_S (see there) to average out per-CPU speed drift.

--trace 1 gives the per-layer metrics: an untraced jobs=1 and a jobs=2
run, both writing --checkpoint files whose per-volume millis give the
volume and jobs=2 figures, then one traced jobs=1 run (tracer.py).  The
tracing overhead is the traced wall time minus the untraced one; it
carries the run-to-run noise of two single runs, so it can be negative.

Every report is checked (workloads.py).  A failed check, an exception, a
timeout or a nonzero exit counts as a failed query.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracer import self_times
from workloads import (
    SEARCHES,
    WORKLOADS,
    Cell,
    cells,
    check_classify,
    check_search,
    hit_digest,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

DEADLINE_S = 170.0  # the whole run, including checks, must end by then
# The machine this was built on is a 2-vCPU VM on a shared host.  Each
# vCPU's speed drifts by up to 1.7x over seconds, independently of the
# other (correlation 0.18 over 40 s).  A process that stays on one vCPU
# takes on that drift: twelve 4 s single-process runs spread 22%
# (quartile distance over median).  Moved between the vCPUs every
# ROTATE_S they spread 7%, with the same median.  So every run's
# processes are dealt out over the CPUs, one CPU step further each turn.
ROTATE_S = 0.05
MIN_SETUP_SAMPLES = 9

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_s_jobs2": "s",
    "candidates_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Per-layer self times: metric name -> traced layer (see tracer.py).
LAYER_SELF_TIMES = {
    "search.radii_s": "search.radii",
    "search.diffs_s": "search.diffs",
    "search.sieve_s": "search.sieve",
    "search.covering_test_s": "search.covering_test",
    "search.injectivity_test_s": "search.injectivity_test",
    "lattices.canonical_form_s": "lattices.canonical_form",
    "lattices.closest_vector_s": "lattices.closest_vector",
    "lattices.shortest_vector_s": "lattices.shortest_vector",
    "lattices.enumerate_sublattices_s": "lattices.enumerate_sublattices",
    "analysis.analyze_s": "analysis.analyze",
    "analysis.packing_radius_s": "analysis.packing_radius",
    "analysis.covering_radius_s": "analysis.covering_radius",
    "analysis.labels_are_distinct_s": "analysis.labels_are_distinct",
    "balls.ball_points_s": "balls.ball_points",
    "balls.distance_set_s": "balls.distance_set",
    "cli.render_s": "cli.render",
}

# Per-layer counts: metric name -> tracer count key.
LAYER_COUNTS = {
    "search.diffs_computed": "search.diffs.computed",
    "search.diffs_rows": "search.diffs.rows",
    "search.sieve_survivors": "search.sieve.items",
    "search.covering_test_calls": "search.covering_test.calls",
    "search.covering_labels": "search.covering_test.labels",
    "search.injectivity_test_calls": "search.injectivity_test.calls",
    "lattices.canonical_form_calls": "lattices.canonical_form.calls",
    "lattices.closest_vector_calls": "lattices.closest_vector.calls",
    "analysis.analyze_calls": "analysis.analyze.calls",
    "analysis.labels_are_distinct_calls": "analysis.labels_are_distinct.calls",
    "balls.ball_points_calls": "balls.ball_points.calls",
    "balls.ball_points_rows": "balls.ball_points.rows",
    "balls.distance_set_computed": "balls.distance_set.computed",
}

# Per-layer ratios: metric name -> (numerator, denominator) count keys;
# distinct tallies are keyed "distinct:<layer>".
LAYER_RATIOS = {
    "search.sieve_yield": ("search.sieve.items", "search.sieve.candidates"),
    "search.covering_pass_ratio": (
        "search.covering_test.passed",
        "search.covering_test.calls",
    ),
    "lattices.canonical_distinct_ratio": (
        "distinct:lattices.canonical_form",
        "lattices.canonical_form.calls",
    ),
    "analysis.analyze_distinct_ratio": (
        "distinct:analysis.analyze",
        "analysis.analyze.calls",
    ),
}

PER_LAYER_UNITS = {
    **{name: "s" for name in LAYER_SELF_TIMES},
    **{name: "count" for name in LAYER_COUNTS},
    **{name: "ratio" for name in LAYER_RATIOS},
    "search.volume_ms_p50": "ms",
    "search.volume_ms_max": "ms",
    "search.jobs2_idle_frac": "ratio",
    "search.jobs2_work_inflation": "ratio",
    "trace.overhead_s": "s",
}


class RunFailed(Exception):
    """A query that crashed, timed out, exited nonzero or gave a wrong report."""


class Bench:
    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.cells = cells(workload, seed)
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setups: list[float] = []
        self.fresh_caches: dict | None = None
        self.fast_reports: dict[Cell, dict] = {}
        self.digests: dict[Cell, str] = {}
        self.misses: dict[tuple, dict] = {}
        self._tag = 0

    # ------------------------------------------------------ cold runs

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def spawn(self, argv: list[str] | None, trace: bool = False,
              checkpoint: Path | None = None) -> dict:
        """One fresh interpreter running child.py; its result dict, with
        the parsed report under "report" when argv was given."""
        self._tag += 1
        stderr_path = WORK / f"stderr-{self._tag}.txt"
        result_path = WORK / f"result-{self._tag}.json"
        report_path = WORK / f"report-{self._tag}.json"
        spans_path = WORK / f"spans-{self._tag}.json"
        if argv is not None:
            argv = argv + ["--out", str(report_path)]
            if checkpoint is not None:
                argv += ["--checkpoint", str(checkpoint)]
        spec = json.dumps({
            "argv": argv,
            "trace": trace,
            "result": str(result_path),
            "spans": str(spans_path),
        })
        if self.remaining() <= 0:
            raise RunFailed("out of time before the run started")
        cpus = sorted(os.sched_getaffinity(0))
        with open(stderr_path, "wb") as err_fh:
            t0 = time.monotonic_ns()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(SRC), str(t0), spec],
                stdout=subprocess.DEVNULL,
                stderr=err_fh,
                start_new_session=True,  # so a timeout also stops pool workers
            )
            turn = 0
            while proc.poll() is None:
                if self.remaining() <= 0:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
                    raise RunFailed(f"timed out: {argv}")
                rotate_cpus(proc.pid, cpus, turn)
                turn += 1
                time.sleep(ROTATE_S)
        err = stderr_path.read_text(errors="replace")[-500:]
        stderr_path.unlink()
        if proc.returncode != 0:
            raise RunFailed(f"child exit {proc.returncode}: {err}")
        result = json.loads(result_path.read_text())
        if argv is not None:
            if result["rc"] != 0:
                raise RunFailed(f"CLI exit {result['rc']}: {err}")
            result["report"] = json.loads(report_path.read_text())
            report_path.unlink()
            if trace:
                result["trace"] = json.loads(spans_path.read_text())
                spans_path.unlink()
        result_path.unlink()
        self.setups.append(result["setup_s"])
        return result

    def warm_up(self) -> None:
        """An import-only run: compiles bytecode and records the cache
        state of a freshly imported library."""
        self.fresh_caches = self.spawn(None)["caches_before"]

    def query(self, cell: Cell, jobs: int, trace: bool = False,
              checkpoint: Path | None = None) -> dict | None:
        """One checked cold run of a cell; None when it failed."""
        self.attempted += 1
        try:
            result = self.spawn(cell.argv(jobs), trace, checkpoint)
            self.check(cell, jobs, result)
        except (RunFailed, OSError, ValueError, KeyError) as exc:
            self.failed += 1
            self.problems.append(f"{cell} jobs={jobs}: {exc}")
            return None
        return result

    def check(self, cell: Cell, jobs: int, result: dict) -> None:
        report = result["report"]
        if self.workload in SEARCHES:
            problems = check_search(self.workload, report)
        elif cell not in self.fast_reports:
            problems = ["no fast-path reference report"]
        else:
            problems = check_classify(cell, report, self.fast_reports[cell])
        digest = self.digests.setdefault(cell, hit_digest(report))
        if hit_digest(report) != digest:
            problems.append("hit digest differs between runs of one query")
        if result["caches_before"] != self.fresh_caches:
            problems.append("caches were not cold when the query started")
        key = (cell, jobs)
        misses = {k: v[1] for k, v in result["caches_after"].items()}
        first = self.misses.setdefault(key, misses)
        if misses != first:
            problems.append(f"cache misses {misses} differ from first run {first}")
        if problems:
            raise RunFailed("; ".join(problems))

    def prepare(self) -> None:
        """Untimed runs before measuring: the warm-up, and for classify
        the fast-path reports its t <= 1 check compares against.  A
        failure here counts as a failed query."""
        steps = [(None, self.warm_up)]
        if self.workload == "classify":
            steps += [(cell, lambda cell=cell: self.fast_reference(cell))
                      for cell in self.cells]
        for cell, step in steps:
            self.attempted += 1
            try:
                step()
            except (RunFailed, OSError, ValueError, KeyError) as exc:
                self.failed += 1
                self.problems.append(f"untimed run for {cell}: {exc}")

    def fast_reference(self, cell: Cell) -> None:
        self.fast_reports[cell] = self.spawn(cell.fast_path().argv(1))["report"]

    # -------------------------------------------------------- trace 0

    def end_to_end(self, seconds: float) -> tuple[dict, dict]:
        """Rounds of cold runs: every query at jobs=1, then every query
        at jobs=2.  A wall time is the sum over the queries of each
        query's median run, so a slow spell of the shared host spoils one
        run of one query rather than a whole round."""
        runs: dict[tuple[Cell, int], list[float]] = {
            (cell, jobs): [] for jobs in (1, 2) for cell in self.cells
        }
        rss: dict[Cell, list[float]] = {cell: [] for cell in self.cells}
        enumerated: dict[Cell, int] = {}
        begin = time.monotonic()
        while True:
            round_begin = time.monotonic()
            for (cell, jobs), walls in runs.items():
                result = self.query(cell, jobs)
                if result is None:
                    continue
                walls.append(result["wall_s"])
                if jobs == 1:
                    rss[cell].append(result["peak_rss_mb"])
                    enumerated[cell] = result["report"]["counts"]["enumerated"]
            now = time.monotonic()
            round_s = now - round_begin
            # Stop when a further round would end further past --seconds
            # than stopping now ends short of it.
            if now - begin + round_s / 2 > seconds or self.remaining() < 2 * round_s + 10:
                break
        while len(self.setups) < MIN_SETUP_SAMPLES and self.remaining() > 10:
            self.spawn(None)
        metrics = {}
        if self.setups:
            metrics["setup_s"] = statistics.median(self.setups)
        if all(runs.values()):
            wall = {
                jobs: sum(statistics.median(runs[cell, jobs]) for cell in self.cells)
                for jobs in (1, 2)
            }
            metrics.update(
                wall_s=wall[1],
                wall_s_jobs2=wall[2],
                candidates_per_s=sum(enumerated.values()) / wall[1],
                peak_rss_mb=max(statistics.median(v) for v in rss.values()),
            )
        detail = {
            "setup_s": self.setups,
            "wall_s_runs": {
                " ".join(cell.argv(jobs)[1:]): walls
                for (cell, jobs), walls in runs.items()
            },
        }
        return metrics, detail

    # -------------------------------------------------------- trace 1

    def per_layer(self) -> tuple[dict, dict]:
        totals = {"untraced": 0.0, "traced": 0.0, "jobs2": 0.0}
        ms1: list[int] = []
        ms2: list[int] = []
        self_s: dict[str, float] = {}
        counts: dict[str, int] = {}
        for cell in self.cells:
            ck1 = WORK / "checkpoint-jobs1.tsv"
            ck2 = WORK / "checkpoint-jobs2.tsv"
            for ck in (ck1, ck2):
                ck.unlink(missing_ok=True)
            plain = self.query(cell, 1, checkpoint=ck1)
            pair = self.query(cell, 2, checkpoint=ck2)
            traced = self.query(cell, 1, trace=True)
            if None in (plain, pair, traced):
                continue
            totals["untraced"] += plain["wall_s"]
            totals["jobs2"] += pair["wall_s"]
            totals["traced"] += traced["wall_s"]
            ms1 += read_checkpoint_millis(ck1)
            ms2 += read_checkpoint_millis(ck2)
            for layer, s in self_times(traced["trace"]["spans"]).items():
                self_s[layer] = self_s.get(layer, 0.0) + s
            tallies = dict(traced["trace"]["counts"])
            for layer, n in traced["trace"]["distinct"].items():
                tallies["distinct:" + layer] = n
            for key, n in tallies.items():
                counts[key] = counts.get(key, 0) + n
        if not ms1 or not ms2:
            return {}, {}
        metrics = {
            name: self_s.get(layer, 0.0) for name, layer in LAYER_SELF_TIMES.items()
        }
        metrics.update({name: counts.get(key, 0) for name, key in LAYER_COUNTS.items()})
        for name, (num, den) in LAYER_RATIOS.items():
            metrics[name] = counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
        metrics["search.volume_ms_p50"] = statistics.median(ms1)
        metrics["search.volume_ms_max"] = max(ms1)
        busy_s = sum(ms2) / 1000.0
        metrics["search.jobs2_idle_frac"] = 1.0 - busy_s / (2 * totals["jobs2"])
        metrics["search.jobs2_work_inflation"] = sum(ms2) / max(sum(ms1), 1)
        metrics["trace.overhead_s"] = totals["traced"] - totals["untraced"]
        return metrics, {"wall_s": totals, "self_s": self_s, "counts": counts}


def rotate_cpus(pid: int, cpus: list[int], turn: int) -> None:
    """Pin a run's process and its children (pool workers) to one CPU
    each, starting `turn` places along `cpus`; two workers never share a
    CPU when there are as many CPUs as workers."""
    if len(cpus) < 2:
        return
    tree = [pid]
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            tree += [int(c) for c in (task / "children").read_text().split()]
        except OSError:
            pass  # the task ended while being read
    for k, member in enumerate(tree):
        try:
            os.sched_setaffinity(member, {cpus[(turn + k) % len(cpus)]})
        except OSError:
            pass  # the process ended after it was listed


def read_checkpoint_millis(path: Path) -> list[int]:
    """Per-volume millis from a `volume<TAB>hits<TAB>millis` checkpoint."""
    return [
        int(line.split("\t")[2])
        for line in path.read_text().splitlines()
        if line.strip()
    ]


def provenance(workload: str, args: argparse.Namespace, bench: Bench) -> dict:
    git = None
    if shutil.which("git") and (ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        git = out.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "lpcodes").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cells": [c.argv(1)[1:-2] for c in bench.cells],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "git_sha": git,
        "src_sha256": src.hexdigest()[:16],
        "cold_runs": "one fresh interpreter per query: the library's "
                     "functools.cache tables are per process",
    }


def run_workload(workload: str, args: argparse.Namespace) -> dict:
    """Measure one workload, print its report and return its result."""
    bench = Bench(workload, args.seed)
    bench.prepare()
    if args.trace:
        metrics, detail = bench.per_layer()
        units = PER_LAYER_UNITS
    else:
        metrics, detail = bench.end_to_end(args.seconds)
        units = END_TO_END_UNITS

    info = provenance(workload, args, bench)
    fail_frac = bench.failed / max(bench.attempted, 1)
    print(f"provenance: {json.dumps(info)}")
    for problem in bench.problems:
        print(f"FAILED: {problem}")
    print(f"queries: {bench.attempted} attempted, {bench.failed} failed, "
          f"fail_frac {fail_frac:.4f}")
    for name in units:
        value = metrics.get(name)
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"{name:36s} {shown:>14s} {units[name]}")
    (WORK / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": info, "metrics": metrics, "detail": detail,
                    "problems": bench.problems}, indent=1)
    )
    return {
        "correct": bench.failed == 0 and set(metrics) == set(units),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "lpcodes" / "cli.py").is_file():
        print(f"error: no lpcodes sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)

    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args)))
        return 0
    # Every workload in turn; metric names get the workload as a prefix.
    results = {workload: run_workload(workload, args) for workload in WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{workload}.{name}": metric
            for workload, r in results.items()
            for name, metric in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
