#!/usr/bin/env python3
"""List module-level definitions that nothing outside the tests uses.

A definition (function, class, or assigned name at module level) is
*dead* when no code outside ``tests/`` refers to it: no name, attribute,
import, or identifier-valued string constant anywhere in the repository's
program trees (``src``, ``tools``, ``benchmarks``, ``examples``,
``perfbench``) or in ``pyproject.toml``'s entry points mentions it, apart
from the definition's own body.  String constants count because
``__all__`` lists and patch-by-name helpers (``setattr(module, "name",
...)``) reach symbols that way.  Matching is by bare name, so a dead
definition sharing its name with a live one elsewhere goes unreported —
the tool lists candidates, it does not prove liveness.

Usage:  python tools/find_dead_defs.py [PATH ...]

PATHs (files or directories, default ``src/repro``) select which
definitions to report.  The definitions in :data:`ALLOWED` are kept on
purpose and never reported; an entry that names no existing definition
is reported as stale.  Prints one ``path:line: name`` per finding (and
one ``stale allow-list entry: path:name`` per stale entry) and exits 1
if there is any, 0 otherwise.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Trees whose code counts as a use; ``tests/`` deliberately absent.
PROGRAM_TREES = ("src", "tools", "benchmarks", "examples", "perfbench")

#: Definitions only the tests use, kept on purpose:
#: ``"<path from the repo root>:<name>"`` -> why.
ALLOWED = {
    "src/repro/algorithms/mis.py:is_maximal_independent_set": (
        "the MIS test oracle in tests/test_mis.py"
    ),
    "src/repro/analysis/regimes.py:thm14_wins_somewhere_in_gap": (
        "the paper-claim check in tests/test_regimes.py"
    ),
    "src/repro/io.py:save_graph_edgelist": (
        "fixture writer for the live load_graph_edgelist in tests/test_io.py"
    ),
    "src/repro/io.py:load_run": (
        "golden-record reader in tests/test_golden.py and tests/test_io.py"
    ),
}

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _python_files(paths: list[Path]) -> list[Path]:
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(
                p for p in sorted(path.rglob("*.py")) if "tests" not in p.parts
            )
        elif path.suffix == ".py":
            files.append(path)
    return files


def _names_in(node: ast.AST) -> list[str]:
    """Every identifier ``node`` refers to (names, attributes, imports,
    identifier-valued strings)."""
    out: list[str] = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
        elif isinstance(sub, ast.alias):
            out.append(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if _IDENT.match(sub.value):
                out.append(sub.value)
    return out


def _defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def definitions(files: list[Path]) -> list[tuple[Path, int, str]]:
    """Module-level ``(path, line, name)`` definitions, dunders skipped."""
    out = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            for name in _defined_names(node):
                if not (name.startswith("__") and name.endswith("__")):
                    out.append((path, node.lineno, name))
    return out


def references(files: list[Path]) -> dict[str, set[tuple[Path, int]]]:
    """``name -> {(path, top-level statement line)}`` over ``files``.

    Keyed by the enclosing top-level statement so a definition's own body
    (recursion, a class naming itself) can be discounted.
    """
    refs: dict[str, set[tuple[Path, int]]] = {}
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            for name in _names_in(node):
                refs.setdefault(name, set()).add((path, node.lineno))
    return refs


def entry_point_names(pyproject: Path) -> set[str]:
    """Callables named by ``module:attr`` entry points."""
    if not pyproject.is_file():
        return set()
    return set(re.findall(r'"[\w.]+:(\w+)"', pyproject.read_text()))


def _allow_key(path: Path, name: str, repo: Path) -> str:
    try:
        return f"{path.relative_to(repo).as_posix()}:{name}"
    except ValueError:  # a target outside the repo
        return name


def find_dead(targets: list[Path], repo: Path = REPO) -> list[tuple[Path, int, str]]:
    """The definitions under ``targets`` that no program code uses,
    except the ones in :data:`ALLOWED`."""
    program = _python_files([repo / tree for tree in PROGRAM_TREES])
    refs = references(program)
    live = entry_point_names(repo / "pyproject.toml")
    dead = []
    for path, line, name in definitions(_python_files(targets)):
        if name in live or _allow_key(path, name, repo) in ALLOWED:
            continue
        users = refs.get(name, set()) - {(path, line)}
        if not users:
            dead.append((path, line, name))
    return dead


def stale_allowed(repo: Path = REPO) -> list[str]:
    """The :data:`ALLOWED` entries whose file no longer defines the name."""
    stale = []
    for key in ALLOWED:
        rel, name = key.rsplit(":", 1)
        path = repo / rel
        if not path.is_file() or name not in {
            defined for _, _, defined in definitions([path])
        }:
            stale.append(key)
    return stale


def main(argv: list[str]) -> int:
    targets = [Path(a) for a in argv[1:]] or [REPO / "src" / "repro"]
    dead = find_dead([t.resolve() for t in targets])
    for path, line, name in dead:
        try:
            shown = path.relative_to(REPO)
        except ValueError:
            shown = path
        print(f"{shown}:{line}: {name}")
    stale = stale_allowed()
    for key in stale:
        print(f"stale allow-list entry: {key}")
    return 1 if dead or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
