"""Every ``repro`` module is reached by a served, measured or CLI path.

The roots are the CLI (``repro.cli``) and every script under ``bench/``,
``benchmarks/``, ``examples/`` and ``tools/``.  Imports are parsed with
``ast``, so function-level lazy imports count.  A name imported through
a package ``__init__`` counts only for the submodule that defines it: a
re-export alone does not make a module reachable.  An ``__init__``'s
own imports are followed only where its own code uses the name (or
inside its functions).

A module no root reaches is test-only code.  Delete it, or name it in
:data:`ALLOWED` with the reason it stays.

The same holds one level down: a top-level name defined in ``src/repro``
must be used somewhere.  Its own definition, ``__init__`` re-export
lines and ``__all__`` do not count; any other line of any ``.py`` file
in the repo does, and so does a doctest line in the README or
``docs/``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
ROOT_GLOBS = ("bench/*.py", "benchmarks/*.py", "examples/*.py",
              "tools/*.py")
CODE_GLOBS = ("src/**/*.py", "tests/**/*.py", "bench/**/*.py",
              "benchmarks/**/*.py", "examples/**/*.py", "tools/**/*.py")
DOC_GLOBS = ("README.md", "docs/*.md")
WORD = re.compile(r"[A-Za-z_]\w*")

#: Unreached modules that stay for now, each with its reason.
ALLOWED = {
    "repro.analysis.closed_forms":
        "checked form of EXPERIMENTS.md's Appendix A.2 optima",
}


def imports(tree: ast.Module, package: str):
    """``(node, module, imported name or None)`` for every import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.name, None
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.rsplit(".", node.level - 1)[0]
                base = f"{parent}.{base}" if base else parent
            for alias in node.names:
                yield node, base, alias.name


class Package:
    """The parsed modules of one source tree."""

    def __init__(self, src: Path):
        self.paths: dict[str, Path] = {}
        for path in sorted(src.rglob("*.py")):
            parts = path.relative_to(src).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            self.paths[".".join(parts)] = path
        self.trees = {name: ast.parse(path.read_text(), str(path))
                      for name, path in self.paths.items()}

    def is_package(self, name: str) -> bool:
        return self.paths[name].name == "__init__.py"

    def resolve(self, module: str, name: str | None) -> str | None:
        """The module that defines ``module.name`` (or ``module``)."""
        if name is not None and f"{module}.{name}" in self.paths:
            return f"{module}.{name}"
        if module not in self.paths:
            return None
        if name is not None and self.is_package(module):
            for node in self.trees[module].body:
                if isinstance(node, ast.ImportFrom) and not node.level:
                    for alias in node.names:
                        if (alias.asname or alias.name) == name:
                            return self.resolve(node.module, alias.name)
        return module

    def followed(self, name: str):
        """Modules that ``name``'s own code uses."""
        tree = self.trees[name]
        package = (name if self.is_package(name)
                   else name.rpartition(".")[0])
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        top = set(map(id, tree.body))
        for node, module, alias in imports(tree, package):
            if self.is_package(name) and id(node) in top:
                bound = {a.asname or a.name.partition(".")[0]
                         for a in node.names}
                if not bound & used:
                    continue  # a re-export
            target = self.resolve(module, alias)
            if target is not None:
                yield target


def unreached(src: Path, roots: list[Path], entry: list[str]) -> list[str]:
    """Non-package modules under ``src`` no root reaches."""
    pkg = Package(src)
    seen: set[str] = set()
    todo = list(entry)
    for path in roots:
        tree = ast.parse(path.read_text(), str(path))
        for _, module, alias in imports(tree, ""):
            target = pkg.resolve(module, alias)
            if target is not None:
                todo.append(target)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(pkg.followed(name))
    return sorted(name for name in pkg.paths
                  if name not in seen and not pkg.is_package(name))


def definitions(tree: ast.Module):
    """``(name, node)`` for every top-level definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def lines_of(node: ast.AST) -> set[int]:
    return set(range(node.lineno, node.end_lineno + 1))


def unused_names(repo: Path) -> list[str]:
    """``module.py:name`` for each top-level name in ``src`` nothing uses.

    A name defined in two modules counts one use for both.
    """
    defined: dict[str, list[Path]] = {}
    # Per file: lines that never count as a use, and per name the lines
    # of its own definition there.
    ignored: dict[Path, set[int]] = {}
    own: dict[tuple[Path, str], set[int]] = {}
    for path in sorted((repo / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        init = path.name == "__init__.py"
        for name, node in definitions(tree):
            if name == "__all__" and init:
                ignored.setdefault(path, set()).update(lines_of(node))
            if name.startswith("__"):
                continue
            defined.setdefault(name, []).append(path)
            own.setdefault((path, name), set()).update(lines_of(node))
        if init:
            for node in tree.body:
                if isinstance(node, ast.ImportFrom):
                    ignored.setdefault(path, set()).update(lines_of(node))
    used: set[str] = set()
    for path in sorted(p for g in CODE_GLOBS for p in repo.glob(g)):
        skip = ignored.get(path, set())
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if number in skip:
                continue
            used.update(word for word in WORD.findall(line)
                        if word in defined
                        and number not in own.get((path, word), ()))
    for path in sorted(p for g in DOC_GLOBS for p in repo.glob(g)):
        for line in path.read_text().splitlines():
            if line.lstrip().startswith((">>>", "...")):
                used.update(WORD.findall(line))
    return sorted(f"{path.relative_to(repo / 'src')}:{name}"
                  for name, paths in defined.items() if name not in used
                  for path in paths)


def test_every_module_is_reached_or_allowed():
    roots = sorted(p for g in ROOT_GLOBS for p in REPO.glob(g))
    assert roots
    missing = unreached(REPO / "src", roots, ["repro.cli"])
    assert sorted(ALLOWED) == [m for m in missing if m in ALLOWED], \
        "an allowlisted module is reached or gone; drop it from ALLOWED"
    assert [m for m in missing if m not in ALLOWED] == []


def test_orphan_and_reexport_only_modules_are_reported(tmp_path):
    pkg = tmp_path / "src" / "demo"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "__init__.py").write_text(
        "from demo.core import run\n"
        "from demo.helper import shout\n"
        "def main():\n"
        "    return run()\n")
    (pkg / "core.py").write_text(
        "def run():\n"
        "    from demo.sub import lazy\n"
        "    return lazy()\n")
    (pkg / "sub" / "__init__.py").write_text(
        "from demo.sub.used import lazy\n"
        "from demo.sub.exported import unused\n")
    (pkg / "sub" / "used.py").write_text("def lazy():\n    return 1\n")
    (pkg / "sub" / "exported.py").write_text("def unused():\n    pass\n")
    (pkg / "helper.py").write_text("def shout():\n    pass\n")
    (pkg / "orphan.py").write_text("X = 1\n")
    root = tmp_path / "main.py"
    root.write_text("from demo import main\n")
    assert unreached(tmp_path / "src", [root], []) == [
        "demo.helper", "demo.orphan", "demo.sub.exported"]


def test_every_top_level_name_is_used():
    assert unused_names(REPO) == []


def test_unused_and_reexport_only_names_are_reported(tmp_path):
    pkg = tmp_path / "src" / "demo"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text(
        "from demo.core import (\n"
        "    exported,\n"
        "    run,\n"
        ")\n"
        "__all__ = [\"exported\", \"run\"]\n")
    (pkg / "core.py").write_text(
        "LIMIT = 3\n"
        "ORPHAN = (\n"
        "    LIMIT,\n"
        ")\n"
        "def run():\n"
        "    return LIMIT\n"
        "def exported():\n"
        "    pass\n"
        "def documented():\n"
        "    pass\n"
        "class _Private:\n"
        "    pass\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_core.py").write_text(
        "from demo import run\n")
    (tmp_path / "README.md").write_text(
        "Call `exported` by hand, or:\n\n"
        "    >>> from demo.core import documented\n")
    assert unused_names(tmp_path) == [
        "demo/core.py:ORPHAN", "demo/core.py:_Private",
        "demo/core.py:exported"]
