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
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
ROOT_GLOBS = ("bench/*.py", "benchmarks/*.py", "examples/*.py",
              "tools/*.py")

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
