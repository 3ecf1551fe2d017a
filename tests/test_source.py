"""Source-level checks on the library.

Re-proofs and input checks must be real errors: `python -O` strips
`assert` statements, so none may appear under src/lpcodes.  The
benchmark's tracer patches library functions by name, so renaming or
deleting one of them must fail here, not only in a traced benchmark run.
"""

import ast
import subprocess
import sys
from pathlib import Path

import lpcodes

LIBRARY = Path(lpcodes.__file__).parent
PERFBENCH = LIBRARY.parents[1] / "perfbench"


def test_library_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(LIBRARY.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(LIBRARY.glob("*.py"))) > 1
    assert found == []


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
