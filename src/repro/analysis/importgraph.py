"""The parity surface, computed from the import graph — never hand-listed.

The standing contract says every optimization produces bit-identical
images. The modules that can break that contract are exactly the ones
the render path *executes*, i.e. everything transitively imported from
the parity roots (by default :mod:`repro.render.renderer`, the
end-to-end tracer). Hand-maintained module lists rot the moment someone
adds an import; deriving the surface from the AST import graph means a
new dependency is strict the instant it is reachable.

The walk is purely static: every ``import``/``from ... import`` in a
module body — including function-local imports, which this codebase
uses for laziness, not optionality — contributes an edge. ``from x
import y`` counts both ``x.y`` (it may be a submodule) and ``x``.
"""

from __future__ import annotations

import ast
from pathlib import Path


def _module_name(path: Path, package_root: Path) -> str | None:
    """Dotted module name of ``path`` relative to the directory that
    *contains* the ``repro`` package, else ``None``."""
    try:
        rel = path.resolve().relative_to(package_root.resolve())
    except ValueError:
        return None
    parts = list(rel.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else None


def module_imports(tree: ast.Module, module: str,
                   is_package: bool = False) -> set[str]:
    """Every absolute module name this module imports (repro.* only)."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # Relative import: resolve against the enclosing package
                # (level 1 = that package; one more level per extra dot).
                parts = module.split(".")
                drop = node.level - 1 if is_package else node.level
                base = ".".join(parts[:len(parts) - drop]) if drop < len(parts) else ""
                stem = f"{base}.{node.module}" if node.module and base else (
                    node.module or base)
            else:
                stem = node.module or ""
            if stem:
                out.add(stem)
                for alias in node.names:
                    out.add(f"{stem}.{alias.name}")
    return {name for name in out if name == "repro" or name.startswith("repro.")}


def build_import_graph(files: dict[str, ast.Module]) -> dict[str, set[str]]:
    """``module -> imported repro modules`` over parsed package files."""
    known = set(files)
    packages = {m for m in known if any(k.startswith(m + ".") for k in known)}
    graph: dict[str, set[str]] = {}
    for module, tree in files.items():
        edges = set()
        for target in module_imports(tree, module, is_package=module in packages):
            # ``from repro.rt import recorder`` produces both ``repro.rt``
            # and ``repro.rt.recorder``; keep whichever are real modules.
            if target in known:
                edges.add(target)
            # Importing a package executes its __init__, which imports
            # its public submodules — the package node carries those
            # edges itself, so nothing more to do here.
        graph[module] = edges
    return graph


def parity_surface(files: dict[str, ast.Module],
                   roots: tuple[str, ...]) -> set[str]:
    """Modules transitively imported from the parity roots (inclusive)."""
    graph = build_import_graph(files)
    seen: set[str] = set()
    frontier = [r for r in roots if r in graph]
    while frontier:
        module = frontier.pop()
        if module in seen:
            continue
        seen.add(module)
        for target in graph.get(module, ()):
            if target not in seen:
                frontier.append(target)
    return seen
