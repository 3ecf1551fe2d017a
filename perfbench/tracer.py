"""Span tracing of lpcodes from outside the library.

The library is not changed: `Tracer.install` replaces public functions at
each module boundary with timing wrappers, under the name the *caller*
looks up (the modules use `from .x import y`, so `lpcodes.search.analyze`
and `lpcodes.analysis.analyze` are separate bindings of one function).
`Tracer.uninstall` puts every original back.

Spans are kept in memory, one row per call: (span id, parent span id,
layer, start ns, end ns, ns covered by child spans), and written out once
at the end.  The traced run is single-threaded (`jobs=1`), so child spans
nest strictly and a span's self time is its duration minus the summed
durations of its direct children.  Generators (the congruence sieves and
`enumerate_sublattices`) are timed only inside `next()`, so the time their
consumer spends between items is not charged to them.  Counts are
recorded at the same boundaries, after the span has closed, so the
bookkeeping is not charged to the layer.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from typing import Any, Callable, Iterator

_now = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        self.counts: Counter[str] = Counter()
        self.distinct: dict[str, set] = {}
        self._stack: list[list] = []  # open spans: [id, layer, start, child_ns]
        self._next_id = 0
        self._misses_seen: dict[str, int] = {}
        self._patched: list[tuple[Any, Any, Any]] = []

    # ------------------------------------------------------------ spans

    def _begin(self, layer: str) -> list:
        self._next_id += 1
        frame = [self._next_id, layer, _now(), 0]
        self._stack.append(frame)
        return frame

    def _end(self, frame: list) -> None:
        end = _now()
        self._stack.pop()
        span_id, layer, start, child_ns = frame
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += end - start
        self.spans.append(
            (span_id, parent[0] if parent else 0, layer, start, end, child_ns)
        )

    def span(self, layer: str, fn: Callable, after=None) -> Callable:
        """Wrap fn in a span; after(args, result) records counts."""

        def wrapper(*args, **kwargs):
            frame = self._begin(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._end(frame)
            self.counts[layer + ".calls"] += 1
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def span_per_item(self, layer: str, gen_fn: Callable, before=None) -> Callable:
        """Wrap a generator function so that each next() is one span."""

        def wrapper(*args):
            self.counts[layer + ".calls"] += 1
            if before is not None:
                before(args)
            it = gen_fn(*args)

            def items() -> Iterator:
                while True:
                    frame = self._begin(layer)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._end(frame)
                    self.counts[layer + ".items"] += 1
                    yield item

            return items()

        return wrapper

    def count_misses(self, layer: str, cached_fn: Callable, rows=None) -> Callable:
        """An `after` hook counting functools.cache misses of cached_fn
        (and the rows of each freshly computed result) since install."""
        self._misses_seen[layer] = cached_fn.cache_info().misses

        def after(args, out):
            misses = cached_fn.cache_info().misses
            if misses > self._misses_seen[layer]:
                self._misses_seen[layer] = misses
                self.counts[layer + ".computed"] += 1
                if rows is not None:
                    self.counts[layer + ".rows"] += rows(out)

        return after

    def note_distinct(self, layer: str, key: Callable) -> Callable:
        """An `after` hook tallying the distinct values of key(args, out)."""
        seen = self.distinct.setdefault(layer, set())
        return lambda args, out: seen.add(key(args, out))

    # ---------------------------------------------------------- patching

    def _patch(self, owner: Any, key: Any, wrapper: Callable) -> None:
        if isinstance(owner, dict):
            self._patched.append((owner, key, owner[key]))
            owner[key] = wrapper
        else:
            self._patched.append((owner, key, getattr(owner, key)))
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patched.clear()

    def install(self) -> None:
        """Wrap the lpcodes layer boundaries (see module docstring)."""
        import lpcodes.analysis as analysis
        import lpcodes.balls as balls
        import lpcodes.cli as cli
        import lpcodes.lattices as lattices
        import lpcodes.search as search

        def wrap(layer: str, owners: tuple, attr: str, after=None) -> None:
            fn = self.span(layer, getattr(owners[0], attr), after)
            for owner in owners:
                self._patch(owner, attr, fn)

        def sieve_candidates(n: int) -> Callable:
            def before(args):
                volume = args[0]
                self.counts["search.sieve.candidates"] += lattices.sublattice_count(
                    n, volume
                )

            return before

        def covering_counts(args, out):
            basis, p, s = args
            self.counts["search.covering_test.passed"] += bool(out)
            self.counts["search.covering_test.labels"] += balls.mu(len(basis), p, s)

        def ball_rows(args, out):
            self.counts["balls.ball_points.rows"] += len(out)

        wrap("search.radii", (search,), "algorithm_radii")
        wrap(
            "search.diffs",
            (search,),
            "_ball_diffs",
            self.count_misses("search.diffs", search._ball_diffs, rows=len),
        )
        for n, sieve in list(search._SIEVES.items()):
            self._patch(
                search._SIEVES,
                n,
                self.span_per_item("search.sieve", sieve, sieve_candidates(n)),
            )
        wrap("search.covering_test", (search,), "covering_test", covering_counts)
        wrap("search.injectivity_test", (search,), "injectivity_test")
        self._patch(
            search,
            "enumerate_sublattices",
            self.span_per_item(
                "lattices.enumerate_sublattices", search.enumerate_sublattices
            ),
        )
        wrap(
            "lattices.canonical_form",
            (search,),
            "canonical_form",
            self.note_distinct("lattices.canonical_form", lambda a, out: out),
        )
        wrap(
            "analysis.analyze",
            (search,),
            "analyze",
            self.note_distinct("analysis.analyze", lambda a, out: repr(a)),
        )
        wrap("analysis.packing_radius", (analysis,), "packing_radius_pow")
        wrap("analysis.covering_radius", (analysis,), "covering_radius_pow")
        wrap("lattices.closest_vector", (analysis,), "closest_lattice_distance_pow")
        wrap("lattices.shortest_vector", (analysis,), "shortest_vector_pow")
        wrap("analysis.labels_are_distinct", (analysis, search), "labels_are_distinct")
        wrap("balls.ball_points", (analysis, search), "ball_points", ball_rows)
        wrap(
            "balls.distance_set",
            (balls, analysis),
            "distance_set",
            self.count_misses("balls.distance_set", balls.distance_set),
        )
        wrap("search.run_search", (cli,), "run_search")
        wrap("cli.render", (cli,), "report_to_dict")
        wrap("cli.render", (cli,), "_json_text")

    # ------------------------------------------------------------ output

    def dump(self, path: str) -> None:
        """Write the spans, counts and distinct tallies as JSON."""
        payload = {
            "spans": self.spans,
            "counts": dict(self.counts),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def self_times(spans) -> dict[str, float]:
    """Summed self time in seconds per layer."""
    out: dict[str, float] = {}
    for _, _, layer, start, end, child_ns in spans:
        out[layer] = out.get(layer, 0.0) + (end - start - child_ns) / 1e9
    return out
