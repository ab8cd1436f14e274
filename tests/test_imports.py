"""Every name a `slisum` module imports is used in it.

No linter runs on the package, so this is its unused-import check: an
imported name must appear as a name somewhere outside the import that binds
it. A name kept on purpose, because the benchmark's span tracer patches it
on that module by name, is marked `# noqa: F401` on its own line or on the
first line of its import statement. The check also keeps any module from
re-exporting a name it does not use itself.
"""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "slisum"
MARKER = "# noqa: F401"


def unused_imports(source: str) -> list[str]:
    """The names `source` imports, unmarked, that no other node of it uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or getattr(node, "module", None) == "__future__"
                or MARKER in lines[node.lineno - 1]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and MARKER not in lines[alias.lineno - 1]:
                unused.append(name)
    return unused


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, unused", [
    ("import os\n", ["os"]),
    ("import os.path\nos.sep\n", []),
    ("from a import b as c\nb\n", ["c"]),
    ("from a import (\n    b,\n    c,  # noqa: F401\n)\nb\n", []),
    ("from a import (  # noqa: F401\n    b,\n    c,\n)\n", []),
    ("from __future__ import annotations\n", []),
    ("def f():\n    import yaml\n    return yaml.safe_load('')\n", []),
    ("from a import b\nx: 'b'\n", ["b"]),
])
def test_the_check(source, unused):
    assert unused_imports(source) == unused
