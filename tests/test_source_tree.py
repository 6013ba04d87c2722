"""The source tree holds no dead weight: every import is read, and every
top-level definition in `src/` is named by code outside `tests/`.

A definition that only the tests reach belongs in the tests. The names in
`sparsect.__all__` are the public API and need no caller. The scan reads
the code with `ast` only; nothing is imported.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sparsect"


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _read_names(node: ast.AST) -> set[str]:
    """Names the code under `node` reads, as variables or attributes, or
    imports from a module."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(a.name for a in n.names)
    return out


def _exported(tree: ast.Module) -> set[str]:
    """The strings of a module's `__all__`."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            return {e.value for e in stmt.value.elts}
    return set()


def unused_imports(path: Path) -> list[str]:
    """Names an import binds in `path` that no code there reads."""
    tree = _tree(path)
    read = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)
    } | _exported(tree)
    bound = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in n.names]
        elif isinstance(n, ast.ImportFrom) and n.module != "__future__":
            bound += [a.asname or a.name for a in n.names]
    return [name for name in bound if name not in read]


def _defined(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def unnamed_definitions(users: list[Path]) -> list[str]:
    """Top-level definitions in the package that no other top-level statement
    in `users` names, and methods of its classes (dunders aside) that none
    names at all."""
    statements = [(path, stmt) for path in users for stmt in _tree(path).body]
    readers: dict[str, set[int]] = {}  # name -> statements that name it
    for k, (_, stmt) in enumerate(statements):
        for name in _read_names(stmt):
            readers.setdefault(name, set()).add(k)
    public = _exported(_tree(PACKAGE / "__init__.py"))
    found = []
    for k, (path, stmt) in enumerate(statements):
        if path.parent != PACKAGE:
            continue
        for name in _defined(stmt):
            named_elsewhere = readers.get(name, set()) - {k}
            if not name.startswith("__") and name not in public and not named_elsewhere:
                found.append(f"{path.name}: {name}")
        if isinstance(stmt, ast.ClassDef):
            for member in stmt.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("__") and (
                        member.name not in readers):
                    found.append(f"{path.name}: {stmt.name}.{member.name}")
    return found


def _sources(*patterns: str) -> list[Path]:
    return sorted(p for pattern in patterns for p in ROOT.glob(pattern))


def test_every_import_is_read():
    files = _sources("src/**/*.py", "tests/**/*.py", "scripts/*.py")
    assert len(files) > 20
    unused = [f"{p.relative_to(ROOT)}: {name}" for p in files for name in unused_imports(p)]
    assert unused == []


def test_every_package_definition_has_a_caller_outside_the_tests():
    users = _sources("src/**/*.py", "scripts/*.py", "perfbench/*.py")
    assert unnamed_definitions(users) == []
