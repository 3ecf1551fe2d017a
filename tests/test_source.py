"""Source-level checks on the library.

Re-proofs and input checks must be real errors: `python -O` strips
`assert` statements, so none may appear under src/lpcodes.
"""

import ast
from pathlib import Path

import lpcodes

LIBRARY = Path(lpcodes.__file__).parent


def test_library_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(LIBRARY.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(LIBRARY.glob("*.py"))) > 1
    assert found == []
