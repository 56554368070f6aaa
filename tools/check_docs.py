"""Documentation checks: internal links resolve, doctests pass.

Run from the repo root (CI's docs job does both)::

    python tools/check_docs.py            # link-check + doctests
    python tools/check_docs.py --links    # link-check only
    python tools/check_docs.py --doctests # doctests only

Link-check: every markdown link in ``docs/*.md``, ``README.md``,
``EXPERIMENTS.md`` and ``DESIGN.md`` whose target is a relative path must
resolve to a file in the repository (anchors and external URLs are
skipped), and every ``[[wiki-style]]`` reference must resolve to a doc
file.  Dotted names: every backticked span in those files that opens
with a ``repro.`` dotted name must name something that exists — the
longest importable module prefix, then ``getattr`` for the rest.  File
paths: every ``bench_*.py``, ``test_*.py`` (with or without ``::node``
parts), ``results/*.txt`` or ``BENCH_*.json`` named in a backticked span
must exist under the repo root, ``benchmarks/`` or ``tests/`` (see
``PATH_ROOTS``), and each ``::node`` must be a ``def`` or ``class`` in
it.  CLI examples: every ``repro-inference ...`` command line in those
files (a line that opens with it, after an optional ``$`` prompt; a
trailing ``\\`` continues it) and in the ``repro.cli`` module docstring
must parse with ``repro.cli.build_parser()`` — parsed only, never run.
Required headings: sections other parts of the repo point at (CI
jobs, module docstrings) must keep existing — see
``REQUIRED_HEADINGS``.  Paper tables: every "ours" cell of
EXPERIMENTS.md's Table 1, 2 and 3 sections must equal its row of the
regenerated ``benchmarks/results/`` table at the cell's printed
precision (``87.16`` prints as ``87.2 s``) — see ``PAPER_TABLES``.
Module docstrings: every public module under
``src/repro/`` must open with a non-empty docstring (the architecture
tour in docs/architecture.md leans on them).  Doctests:
``doctest.testmod`` runs on every module under ``src/`` whose source
contains a ``>>>`` prompt, so examples in docstrings cannot rot.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import doctest
import importlib
import io
import pathlib
import re
import shlex
import sys
from decimal import ROUND_HALF_UP, Decimal

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Files whose internal references must resolve (the CI docs contract).
DOC_FILES = ("README.md", "EXPERIMENTS.md", "DESIGN.md")
DOC_GLOBS = ("docs/*.md",)

#: ``[text](target)`` — excluding images' leading ``!`` is unnecessary,
#: image targets must resolve too.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

_EXTERNAL = ("http://", "https://", "mailto:")

#: ``[[target]]`` — wiki-style references must resolve to a doc file
#: (``docs/<target>.md``, ``<target>.md`` or the literal path).
_WIKI_LINK = re.compile(r"\[\[([^\]\n]+)\]\]")

#: A backticked span opening with a ``repro.`` dotted name; the name ends
#: where the span stops being one (``(``, a space, the closing backtick).
_DOTTED_NAME = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)[^`\n]*`")

#: A backticked span, and a repository file path inside one: a bench or
#: test script (tests may carry ``::node`` parts), a results table (one
#: ``{a,b}`` brace group allowed) or a ``BENCH_*.json`` artifact.
#: Globs (``*``) are not paths and are skipped.
_SPAN = re.compile(r"`([^`\n]+)`")
_FILE_PATH = re.compile(
    r"(?<![\w/.*-])((?:[\w.-]+/)*(?:bench_\w+\.py"
    r"|test_\w+\.py(?:::[\w\[\]-]+)*|results/[\w{},.-]+\.txt"
    r"|BENCH_\w+\.json))(?![\w*])")
_BRACES = re.compile(r"\{([^{}]*)\}")

#: A documented CLI command line: ``repro-inference`` opening the line,
#: after an optional ``$`` shell prompt.
_COMMAND = re.compile(r"^\s*(?:\$\s+)?repro-inference\s+(.*)$")

#: Where a relative file path in the docs may be rooted.
PATH_ROOTS = (".", "benchmarks", "tests", "tests/unit", "tests/integration")

#: Doc sections that code elsewhere relies on (CI job descriptions,
#: module docstrings, README cross-references).  Heading matching is by
#: exact line prefix, so a renamed or deleted section fails the docs job
#: instead of silently orphaning its references.
REQUIRED_HEADINGS: dict[str, tuple[str, ...]] = {
    "docs/architecture.md": (
        "## The mesh: simulated chips, real numerics",
        "## Layouts and partitioning: the paper's Section 3",
        "## Capture: trace-once decode programs",
        "## Serving: one replica, two phases",
        "## Cluster: fleets, faults, admission",
        "## Autoscaling and disaggregation",
        "## The paged KV store: prefix sharing",
    ),
    "docs/cluster.md": (
        "## Replicas and health (`repro.cluster.replica`)",
        "## Admission control (`repro.cluster.admission`)",
        "## Dispatch, failover, drain, hedging "
        "(`repro.cluster.control_plane`)",
        "## Disaggregated prefill/decode pools (`repro.cluster.disagg`)",
        "## Chaos harness (`repro.cluster.chaos`)",
    ),
    "docs/fault_tolerance.md": (
        "## Crash recovery & the journal",
    ),
    "docs/kvstore.md": (
        "## Pages and the arena (`repro.kvstore.arena`)",
        "## The radix index (`repro.kvstore.radix`)",
        "## The store facade (`repro.kvstore.store`)",
        "## Cluster integration",
        "## The benchmark gate",
    ),
    "docs/mesh_backends.md": (
        "## Capture and replay: the step compiler",
        "### Bit-exactness contract",
        "### Invalidation rules",
        "## Capture v2: the program cache",
        "### Prefill programs",
        "### Hedges step serially",
    ),
    "docs/autoscaling.md": (
        "## The trace generator: load as pure data",
        "## The autoscaler policy",
        "## The brownout ladder",
        "### The disagg ladder: collapse-to-colocated",
        "### Recovery conditions",
        "## The autoscale benchmark",
    ),
}


#: EXPERIMENTS.md sections whose "ours" column is copied from a results
#: table the paper-claim benchmarks regenerate: heading prefix -> file.
PAPER_TABLES = {
    "## Table 1 ": "benchmarks/results/table1_max_context.txt",
    "## Table 2 ": "benchmarks/results/table2_palm540b.txt",
    "## Table 3 ": "benchmarks/results/table3_palm62b.txt",
}

_NUMBER = re.compile(r"\d[\d,]*(?:\.\d+)?")


def markdown_table(text: str, heading: str) -> list[list[str]]:
    """Header and body cells of the markdown table in the section that
    opens with ``heading`` (empty when there is no such section)."""
    rows, inside = [], False
    for line in text.splitlines():
        if line.startswith("## "):
            inside = line.startswith(heading)
        elif inside and line.startswith("|") \
                and not set(line) <= set("|-: "):
            rows.append([cell.strip() for cell in line.strip("| ").split("|")])
    return rows


def results_table(path: pathlib.Path) -> list[list[str]]:
    """Header and body cells of a results table (after its title line;
    columns are separated by two or more spaces)."""
    lines = path.read_text().splitlines()[1:]
    return [re.split(r"\s{2,}", line.strip()) for line in lines
            if line.strip()]


def same_when_printed(printed: str, value: str) -> bool:
    """``value`` rounded to ``printed``'s decimals equals ``printed``."""
    printed = Decimal(printed.replace(",", ""))
    value = Decimal(value.replace(",", ""))
    return value.quantize(printed, rounding=ROUND_HALF_UP) == printed


def check_experiments() -> list[str]:
    text = (ROOT / "EXPERIMENTS.md").read_text()
    errors = []
    for heading, results in PAPER_TABLES.items():
        where = f"EXPERIMENTS.md {heading.strip('# ')}"
        doc = markdown_table(text, heading)
        if not doc:
            errors.append(f"{where}: no table")
            continue
        (header, *rows), (res_header, *res_rows) = (
            doc, results_table(ROOT / results))
        if len(rows) != len(res_rows):
            errors.append(f"{where}: {len(rows)} rows, {results} has "
                          f"{len(res_rows)}")
        ours = header.index("ours")
        res_ours = [i for i, name in enumerate(res_header)
                    if name.startswith("ours")]
        # Columns both tables carry (Table 1's batch) must agree too.
        shared = [(header.index(name), i)
                  for i, name in enumerate(res_header[1:], 1)
                  if name in header]
        for row, res in zip(rows, res_rows):
            if not row[0].startswith(res[0]) or any(
                    row[d] != res[r] for d, r in shared):
                errors.append(f"{where}: row {row[0]!r} is not {results}'s "
                              f"{' '.join(res[:1 + len(shared)])!r}")
                continue
            cells = _NUMBER.findall(row[ours])
            want = [res[i].rstrip("%") for i in res_ours]
            if len(cells) != len(want) or not all(
                    map(same_when_printed, cells, want)):
                errors.append(f"{where}, {row[0]!r}: ours {row[ours]!r} "
                              f"disagrees with {results} "
                              f"({' / '.join(want)})")
    return errors


def check_headings() -> list[str]:
    """All missing required headings, as ``file: heading`` strings."""
    errors = []
    for rel, headings in REQUIRED_HEADINGS.items():
        path = ROOT / rel
        if not path.exists():
            errors.append(f"{rel}: required doc file missing")
            continue
        lines = {line.rstrip() for line in path.read_text().splitlines()}
        for heading in headings:
            if heading not in lines:
                errors.append(f"{rel}: missing required heading "
                              f"{heading!r}")
    return errors


def doc_files() -> list[pathlib.Path]:
    files = [ROOT / name for name in DOC_FILES]
    for pattern in DOC_GLOBS:
        files.extend(sorted(ROOT.glob(pattern)))
    return [f for f in files if f.exists()]


def check_links() -> list[str]:
    """All broken internal references, as ``file: target`` strings."""
    errors = []
    for doc in doc_files():
        for match in _LINK.finditer(doc.read_text()):
            target = match.group(1)
            if target.startswith(_EXTERNAL) or target.startswith("#"):
                continue
            path = target.split("#")[0]
            if not path:
                continue
            resolved = (doc.parent / path).resolve()
            if not resolved.exists():
                errors.append(f"{doc.relative_to(ROOT)}: broken link "
                              f"-> {target}")
    return errors


def check_wiki_links() -> list[str]:
    """All dangling ``[[...]]`` references, as ``file: target`` strings."""
    errors = []
    for doc in doc_files():
        for match in _WIKI_LINK.finditer(doc.read_text()):
            target = match.group(1).strip()
            candidates = (
                ROOT / "docs" / f"{target}.md",
                ROOT / f"{target}.md",
                doc.parent / target,
                ROOT / target,
            )
            if not any(c.exists() for c in candidates):
                errors.append(f"{doc.relative_to(ROOT)}: dangling wiki "
                              f"link -> [[{target}]]")
    return errors


def resolves(name: str) -> bool:
    """Whether dotted ``name`` imports, or resolves by ``getattr`` from
    its longest importable module prefix."""
    parts = name.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def check_names() -> list[str]:
    """All backticked ``repro.`` names that do not resolve, as
    ``file: name`` strings."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    errors = []
    for doc in doc_files():
        for match in _DOTTED_NAME.finditer(doc.read_text()):
            name = match.group(1)
            if not resolves(name):
                errors.append(f"{doc.relative_to(ROOT)}: unresolved "
                              f"name `{name}`")
    return errors


def path_resolves(span_path: str) -> bool:
    """Whether ``span_path`` names an existing file under one of
    :data:`PATH_ROOTS`, and each of its ``::node`` parts (parameter ids
    stripped) is a ``def`` or ``class`` in that file."""
    path, *nodes = span_path.split("::")
    braces = _BRACES.search(path)
    if braces:
        return all(path_resolves(path[:braces.start()] + alt
                                 + path[braces.end():])
                   for alt in braces.group(1).split(","))
    for root in PATH_ROOTS:
        candidate = ROOT / root / path
        if candidate.is_file():
            source = candidate.read_text()
            return all(re.search(rf"^\s*(?:def|class) "
                                 rf"{re.escape(node.split('[')[0])}\b",
                                 source, re.MULTILINE)
                       for node in nodes)
    return False


def check_paths() -> list[str]:
    """All backticked file paths that do not resolve, as ``file: path``
    strings."""
    errors = []
    for doc in doc_files():
        for span in _SPAN.finditer(doc.read_text()):
            for path in _FILE_PATH.findall(span.group(1)):
                if not path_resolves(path):
                    errors.append(f"{doc.relative_to(ROOT)}: unresolved "
                                  f"path `{path}`")
    return errors


def command_lines(text: str) -> list[str]:
    """The ``repro-inference`` command lines in ``text``, continuation
    lines joined, each without its program name."""
    commands = []
    lines = iter(text.splitlines())
    for line in lines:
        match = _COMMAND.match(line)
        if not match:
            continue
        command = match.group(1)
        while command.endswith("\\"):
            command = command[:-1] + " " + next(lines, "").strip()
        commands.append(command)
    return commands


def command_error(parser: argparse.ArgumentParser,
                  command: str) -> str | None:
    """Why ``repro-inference <command>`` does not parse, or None."""
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr), \
                contextlib.redirect_stdout(io.StringIO()):
            parser.parse_args(shlex.split(command, comments=True))
    except SystemExit as exc:
        if exc.code:
            return stderr.getvalue().strip().splitlines()[-1]
    return None


def check_commands() -> list[str]:
    """All documented CLI examples that no longer parse, as
    ``file: command (reason)`` strings."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from repro import cli

    sources = [(doc.relative_to(ROOT), doc.read_text())
               for doc in doc_files()]
    sources.append(("src/repro/cli.py docstring", cli.__doc__))
    parser = cli.build_parser()
    errors = []
    for where, text in sources:
        for command in command_lines(text):
            reason = command_error(parser, command)
            if reason:
                errors.append(f"{where}: `repro-inference {command}` "
                              f"does not parse ({reason})")
    return errors


def public_modules() -> list[pathlib.Path]:
    """Every public module file under ``src/repro/`` (``_private`` skipped,
    package ``__init__.py`` files included)."""
    modules = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        if path.name.startswith("_") and path.name != "__init__.py":
            continue
        modules.append(path)
    return modules


def check_docstrings() -> list[str]:
    """Public ``src/repro/`` modules lacking a non-empty docstring."""
    errors = []
    for path in public_modules():
        doc = ast.get_docstring(ast.parse(path.read_text()))
        if not doc or not doc.strip():
            errors.append(f"{path.relative_to(ROOT)}: public module has "
                          f"no docstring")
    return errors


def doctest_modules() -> list[str]:
    """Dotted names of ``src/`` modules containing doctest prompts."""
    modules = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        if ">>>" in path.read_text():
            rel = path.relative_to(ROOT / "src").with_suffix("")
            modules.append(".".join(rel.parts))
    return modules


def run_doctests() -> list[str]:
    """Doctest failures, as ``module: n failed`` strings."""
    sys.path.insert(0, str(ROOT / "src"))
    errors = []
    for name in doctest_modules():
        module = importlib.import_module(name)
        result = doctest.testmod(module, verbose=False)
        if result.failed:
            errors.append(f"{name}: {result.failed} of "
                          f"{result.attempted} doctests failed")
        elif not result.attempted:
            errors.append(f"{name}: contains '>>>' but doctest collected "
                          f"no examples (malformed docstring?)")
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--links", action="store_true",
                        help="only check markdown links")
    parser.add_argument("--doctests", action="store_true",
                        help="only run doctests")
    args = parser.parse_args(argv)
    do_links = args.links or not args.doctests
    do_doctests = args.doctests or not args.links

    errors = []
    if do_links:
        errors += check_links()
        errors += check_wiki_links()
        errors += check_names()
        errors += check_paths()
        errors += check_commands()
        errors += check_headings()
        errors += check_experiments()
        errors += check_docstrings()
        print(f"link-check: {len(doc_files())} files scanned, "
              f"{len(public_modules())} module docstrings checked")
    if do_doctests:
        errors += run_doctests()
        print(f"doctests: {len(doctest_modules())} modules run")
    for error in errors:
        print(f"ERROR: {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
