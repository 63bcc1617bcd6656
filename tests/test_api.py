"""The package carries only what its callers run, read off the source.

The package root re-exports exactly the names that `scripts/` imports from
`eprsim`, and every public top-level function and class of `src/eprsim`, and
every public method and property of those classes, is named by `cli.py`, by
a script, or by another function or class of the package.  A helper that
only tests call belongs in `tests/oracles.py`.  No module imports a thread
or process library: every command runs on the caller's thread.  `analysis.py`
builds no measure: its callers pass the ones they built.  Only `streams.py`
makes, copies or advances a stream or reads a raw word's 16-bit lanes.
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


def _public_definitions(path: Path, tree: ast.Module):
    """(qualified name, name) of each public top-level function and class
    of a module, and of each public method and property of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{path.stem}.{node.name}", node.name
            for member in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{path.stem}.{node.name}.{member.name}", member.name


def _unused_definitions() -> list[str]:
    public, used = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _tree(path)
        public += _public_definitions(path, tree)
        for node in tree.body:
            # cli.py counts at any level; elsewhere a name counts inside
            # another function or class, so a re-export alone does not
            if path.stem == "cli":
                used |= _names(node)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                used |= _names(node) - {node.name}
    for path in SCRIPTS:
        used |= _names(_tree(path))
    return sorted(qualname for qualname, name in public if name not in used)


def test_package_carries_only_what_its_callers_run():
    assert _root_exports() == _script_imports()
    assert _unused_definitions() == []


# modules that start or manage threads or processes
CONCURRENCY = {"threading", "_thread", "concurrent", "multiprocessing"}


def _imported_modules(tree: ast.Module) -> set[str]:
    """The top-level package of every module a source imports, at any depth."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return {name.partition(".")[0] for name in names}


def test_package_runs_on_the_callers_thread():
    found = {
        path.stem: sorted(_imported_modules(_tree(path)) & CONCURRENCY)
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {stem: mods for stem, mods in found.items() if mods} == {}


def test_analysis_builds_no_measure():
    """The analysis takes the measures its caller built once: no function of
    `analysis.py` calls `build_measure`, so none rebuilds one per call."""
    calls = [
        node.lineno
        for node in ast.walk(_tree(PACKAGE / "analysis.py"))
        if isinstance(node, ast.Call) and "build_measure" in _names(node.func)
    ]
    assert calls == []


# the calls that make a seed sequence, a bit generator or a stream
STREAM_MAKERS = {"default_rng", "SeedSequence", "Generator", "PCG64", "PCG64DXSM", "MT19937",
                 "Philox", "SFC64"}
# the calls that copy a stream or move it without reading: a kernel that
# made them would keep its own count of the words it read
STREAM_MOVERS = {"deepcopy", "advance"}


def _stream_calls(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each call that makes, copies or advances a stream,
    or that views an array as 16-bit unsigned lanes by a dtype string such
    as '<u2'."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        lane_view = name == "view" and any(
            isinstance(arg, ast.Constant) and str(arg.value).lstrip("<>=|") in ("u2", "uint16")
            for arg in node.args
        )
        if name in STREAM_MAKERS | STREAM_MOVERS or lane_view:
            found.append((node.lineno, name))
    return found


def test_only_streams_makes_streams_or_reads_lanes():
    """The seed check, the bit generator, the lane layout and the order of a
    kernel's fixed and refinement words are decided in `streams.py` alone;
    every other module and script goes through it."""
    found = {
        path.relative_to(REPO).as_posix(): _stream_calls(_tree(path))
        for path in [*sorted(PACKAGE.glob("*.py")), *SCRIPTS]
        if path != PACKAGE / "streams.py"
    }
    assert {name: calls for name, calls in found.items() if calls} == {}
    # the guard sees the calls it guards, where they are made
    made = {name for _, name in _stream_calls(_tree(PACKAGE / "streams.py"))}
    assert made == {"SeedSequence", "Generator", "PCG64", "view", "deepcopy", "advance"}
