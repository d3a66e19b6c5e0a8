"""Every name a source file imports is used in that file, and every
top-level function and class of the package is referred to somewhere.

No linter is part of the toolchain, so this parses ``src/``, ``tests/`` and
``scripts/`` (and, for references, ``perfbench/``) with ``ast``. For unused
imports, ``from __future__`` imports are skipped, and so are the package
``__init__.py`` files, whose imports are re-exports.
"""

import ast
import re
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


def referenced_names(tree: ast.AST) -> set[str]:
    """Names a file uses: loads, attributes, imports, and the identifiers in
    its string constants other than docstrings (the benchmark names its
    patch targets in strings)."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            names.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return names


def unreferenced_definitions(package: list[ast.Module], others: list[ast.AST]) -> list[str]:
    """Top-level defs and classes of ``package`` that no file refers to."""
    used = set().union(*map(referenced_names, package + others))
    return sorted(node.name for tree in package for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and node.name not in used)


def test_every_definition_is_referenced():
    def trees(top):
        return [ast.parse(path.read_text(), str(path))
                for path in sorted((ROOT / top).rglob("*.py"))]

    package = trees("src/corebench")
    others = [t for top in ("tests", "scripts", "perfbench") for t in trees(top)]
    assert unreferenced_definitions(package, others) == []


def test_checker_flags_an_unreferenced_definition():
    package = [ast.parse("def used(): pass\ndef unused(): return used()\n"
                         "class Named: pass\n")]
    others = [ast.parse("TARGET = 'mod.Named.method'\n")]
    assert unreferenced_definitions(package, others) == ["unused"]


def test_all_names_exactly_the_reexports():
    import corebench

    init = ROOT / "src" / "corebench" / "__init__.py"
    imported = {alias.asname or alias.name for node in ast.parse(init.read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(corebench.__all__) == sorted(imported)
    assert all(hasattr(corebench, name) for name in corebench.__all__)
