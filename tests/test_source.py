"""Source-level checks on the library.

Re-proofs and input checks must be real errors: `python -O` strips
`assert` statements, so none may appear under src/lpcodes.  The
benchmark's tracer patches library functions by name, so renaming or
deleting one of them must fail here, not only in a traced benchmark run,
and so must changing how the search and the CLI call them: the tracer's
wrappers pass the sieve's arguments positionally, read `covering_test`'s
as (basis, p, s), and time rendering only where `search` looks up
`report_to_dict` and `_json_text` in cli's globals.  Every imported name must be used, except those the
tracer patches under a name the module itself no longer calls, and
every module-level function or class must be loaded somewhere in the
library outside its own body, except the oracles the benchmark names.
"""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import lpcodes
import lpcodes.cli
import lpcodes.search
from lpcodes.balls import mu
from lpcodes.cli import report_to_dict
from lpcodes.search import SearchQuery, run_search

LIBRARY = Path(lpcodes.__file__).parent
PERFBENCH = LIBRARY.parents[1] / "perfbench"

# (module, name) imported but not used there: perfbench/tracer.py patches
# each of these bindings.
TRACER_ONLY_IMPORTS = {
    ("search", "canonical_form"),
    ("search", "enumerate_sublattices"),
    ("analysis", "distance_set"),
    ("analysis", "closest_lattice_distance_pow"),
}

# module.name of library functions that no library code calls: the tests
# use them as oracles, and perfbench/ names each one, so they stay until
# the benchmark stops naming them.
BENCHMARK_ORACLES = {
    "balls.is_representable",
    "lattices.enumerate_sublattices",
    "lattices.canonical_form",
    "lattices.closest_lattice_distance_pow",
    "search.covering_test",
}


def test_library_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(LIBRARY.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(LIBRARY.glob("*.py"))) > 1
    assert found == []


def test_every_imported_name_is_used():
    unused = set()
    for path in sorted(LIBRARY.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = {
            item.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for item in node.value.elts
        }
        unused |= {(path.stem, name) for name in imported - used - exported}
    assert unused == TRACER_ONLY_IMPORTS


def test_every_definition_is_used_in_the_library():
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(LIBRARY.glob("*.py"))
    }
    loads = [
        (module, node.id if isinstance(node, ast.Name) else node.attr, node.lineno)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
        and isinstance(node.ctx, ast.Load)
    ]
    unused = {
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not any(
            name == node.name
            and not (at == module and node.lineno <= line <= node.end_lineno)
            for at, name, line in loads
        )
    }
    assert unused == BENCHMARK_ORACLES
    perfbench = "".join(
        path.read_text(encoding="utf-8") for path in PERFBENCH.glob("*.py")
    )
    assert {name for name in unused if name.split(".")[1] not in perfbench} == set()


def test_benchmark_tracer_finds_every_name_it_patches():
    test = "Tracing.test_install_then_uninstall_restores_the_library"
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "selftest.py"), test],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "Ran 1 test" in done.stderr


def _load_tracer():
    spec = importlib.util.spec_from_file_location("tracer", PERFBENCH / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    return tracer_module


def test_traced_search_reports_what_an_untraced_one_does():
    query = SearchQuery(3, 2, 1, 40)
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        traced = report_to_dict(run_search(query, jobs=1))
        assert lpcodes.search.covering_test(((1, 2), (0, 5)), 2, 1)
    finally:
        tracer.uninstall()
    assert traced == report_to_dict(run_search(query, jobs=1))
    survivors = traced["counts"]["injectivity_survivors"]
    assert tracer.counts["search.sieve.items"] == survivors > 0
    assert tracer.counts["search.covering_test.labels"] == mu(2, 2, 1)


def test_a_cli_search_renders_inside_the_tracer(tmp_path):
    # The tracer times rendering by wrapping cli.report_to_dict and
    # cli._json_text, so `search` must reach both through cli's globals:
    # one cli.render span each, the dict built before the text is written.
    originals = (lpcodes.cli.report_to_dict, lpcodes.cli._json_text)
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        assert lpcodes.cli.report_to_dict is not originals[0]
        assert lpcodes.cli._json_text is not originals[1]
        argv = ["search", "--dim", "2", "--p", "2", "--max-volume", "30",
                "--out", str(tmp_path / "report.json")]
        assert lpcodes.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    render = sorted(
        (span for span in tracer.spans if span[2] == "cli.render"),
        key=lambda span: span[3],
    )
    assert tracer.counts["cli.render.calls"] == len(render) == 2
    to_dict, to_text = render
    assert to_dict[1] == to_text[1] == 0  # neither nests in another span
    assert to_dict[4] <= to_text[3]
    assert tracer.counts["search.run_search.calls"] == 1
