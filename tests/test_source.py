"""Checks on the package source itself."""

import ast
from pathlib import Path

import spectral_lb

SRC = Path(spectral_lb.__file__).parent


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so no check may rely on one
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in the package: {found}"
