"""Checks on the package source itself."""

import ast
import sys
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


def test_no_unused_imports_in_package():
    # __init__ imports only to re-export, so it is left out
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert not found, f"unused imports in the package: {sorted(found)}"


def test_no_raise_assertion_error_in_package():
    # a failed check raises CertificateError or SimplexError, which the CLI maps to exit 1
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(target, ast.Name) and target.id == "AssertionError":
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, f"raise AssertionError in the package: {found}"


def test_no_environment_reads_in_package():
    # the package has no knobs: no result or code path depends on an environment variable
    names = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in names
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
            ):
                found.append(f"{path.name}:{node.lineno} os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                hits = [a.name for a in node.names if a.name in names]
                found += [f"{path.name}:{node.lineno} from os import {name}" for name in hits]
    assert not found, f"environment reads in the package: {found}"


def test_no_function_level_imports_in_package():
    # every import sits at module level, where a reader sees the dependencies
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for inner in ast.walk(node):
                    if isinstance(inner, (ast.Import, ast.ImportFrom)):
                        found.append(f"{path.name}:{inner.lineno}")
    assert not found, f"function-level imports in the package: {sorted(set(found))}"


def test_cap_wording_is_written_once_in_package():
    # every size cap is compared and worded by graphs.require_order alone
    hits = [
        f"{path.name}:{i}"
        for path in sorted(SRC.glob("*.py"))
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if "exceeds the cap" in line
    ]
    assert len(hits) == 1, hits


def test_every_definition_is_named_elsewhere_in_package():
    # code that only tests call belongs in tests/: every module-level function and
    # class is called, read as an attribute or imported somewhere in src/
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    found = [
        f"{name[:-3]}.{node.name}"
        for name, tree in trees.items()
        if name != "__init__.py"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in named
    ]
    assert not found, f"defined in the package but named nowhere else in it: {found}"


def test_package_imports_only_the_standard_library_and_numpy():
    # numpy is the one dependency in pyproject.toml; the oracles (networkx,
    # scipy, hypothesis) are test extras and stay in tests/
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name.split(".")[0] not in allowed]
    assert not found, f"imports outside the standard library and numpy: {found}"
