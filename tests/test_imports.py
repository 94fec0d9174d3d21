"""The engine is stdlib-only and exact: no third-party import, no fractions."""

import ast
import pathlib
import sys

import artifact


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_engine_imports_only_the_standard_library():
    files = sorted(pathlib.Path(artifact.__file__).parent.glob("*.py"))
    assert len(files) > 5
    tops = [(f.name, name.partition(".")[0])
            for f in files for name in _absolute_imports(f)]
    assert tops
    assert [t for t in tops if t[1] not in sys.stdlib_module_names] == []
    assert [t for t in tops if t[1] == "fractions"] == []


def test_engine_has_no_assert_statements():
    # python -O strips assert, so every check in the engine is a raise
    files = sorted(pathlib.Path(artifact.__file__).parent.glob("*.py"))
    asserts = [(f.name, node.lineno)
               for f in files for node in ast.walk(ast.parse(f.read_text(), str(f)))
               if isinstance(node, ast.Assert)]
    assert asserts == []
