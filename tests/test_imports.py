"""Every name a source file imports is used in that file.

No linter is part of the toolchain, so this parses ``src/``, ``tests/`` and
``scripts/`` with ``ast``. ``from __future__`` imports are skipped, and so
are the package ``__init__.py`` files, whose imports are re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(tree: ast.AST) -> list[tuple[int, str]]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for top in ("src", "tests", "scripts")
             for path in sorted((ROOT / top).rglob("*.py")) if path.name != "__init__.py"
             for line, name in unused_imports(ast.parse(path.read_text(), str(path)))]
    assert found == []


def test_checker_flags_an_unused_name():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nimport sys as system\nfrom a import b, c\n"
                     "system.exit(b)\n")
    assert unused_imports(tree) == [(2, "os"), (4, "c")]
