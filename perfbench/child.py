"""One cold run of the lpcodes CLI in a fresh interpreter.

Usage (started by run.py):
    python3 child.py SRC_DIR PARENT_T0_NS SPEC_JSON

The library keeps per-process functools.cache tables, so every timed run
starts a new interpreter, as every CLI user does.  Set-up is measured from
PARENT_T0_NS (CLOCK_MONOTONIC, taken by the parent just before it started
this process) until `lpcodes.cli` is imported; nothing else runs first.
The spec names the CLI arguments (none: import only), whether to trace,
and where to write the result and spans.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
import lpcodes.cli  # noqa: E402

IMPORTED_NS = time.monotonic_ns()

import json  # noqa: E402
import resource  # noqa: E402

import lpcodes.balls  # noqa: E402
import lpcodes.lattices  # noqa: E402
import lpcodes.search  # noqa: E402

# The per-process caches a warm interpreter would carry between queries.
CACHES = {
    "search._ball_diffs": lpcodes.search._ball_diffs,
    "balls.distance_set": lpcodes.balls.distance_set,
    "balls.mu": lpcodes.balls.mu,
    "balls.is_representable": lpcodes.balls.is_representable,
    "lattices.signed_permutations": lpcodes.lattices.signed_permutations,
}


def cache_state() -> dict:
    return {
        name: [fn.cache_info().currsize, fn.cache_info().misses]
        for name, fn in CACHES.items()
    }


def main() -> None:
    spec = json.loads(sys.argv[3])
    result = {
        "setup_s": (IMPORTED_NS - int(sys.argv[2])) / 1e9,
        "caches_before": cache_state(),
    }
    if spec["argv"] is not None:
        tracer = None
        if spec["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        begin = time.perf_counter()
        try:
            rc = lpcodes.cli.main(spec["argv"])
        finally:
            wall = time.perf_counter() - begin
            if tracer is not None:
                tracer.uninstall()
        result.update(
            rc=rc,
            wall_s=wall,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            caches_after=cache_state(),
        )
        if tracer is not None:
            tracer.dump(spec["spans"])
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
