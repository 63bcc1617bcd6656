"""The package carries only what its callers run, read off the source.

The package root re-exports exactly the names that `scripts/` imports from
`eprsim`, and every public top-level function of `src/eprsim` is named by
`cli.py`, by a script, or by another function or class of the package.  A
helper that only tests call belongs in `tests/oracles.py`.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "eprsim"
SCRIPTS = sorted((REPO / "scripts").glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _names(node: ast.AST) -> set[str]:
    """Every name that `node` reads, bare or as an attribute."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _root_exports() -> set[str]:
    """The public names `__init__.py` binds at its top level."""
    bound = set()
    for node in _tree(PACKAGE / "__init__.py").body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            bound |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return {name for name in bound if not name.startswith("_")}


def _script_imports() -> set[str]:
    return {
        alias.name
        for path in SCRIPTS
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom) and node.module == "eprsim" and node.level == 0
        for alias in node.names
    }


def _unused_functions() -> list[str]:
    public, used = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _tree(path).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                public[node.name] = f"{path.stem}.{node.name}"
            # cli.py counts at any level; elsewhere a name counts inside
            # another function or class, so a re-export alone does not
            if path.stem == "cli":
                used |= _names(node)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                used |= _names(node) - {node.name}
    for path in SCRIPTS:
        used |= _names(_tree(path))
    return sorted(qualname for name, qualname in public.items() if name not in used)


def test_package_carries_only_what_its_callers_run():
    assert _root_exports() == _script_imports()
    assert _unused_functions() == []
