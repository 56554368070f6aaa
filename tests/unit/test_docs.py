"""The docs job's checker (`tools/check_docs.py`) works and passes.

`tools/` is deliberately not a package, so the module is loaded by file
path.  Two contracts: (1) the checker finds real problems — a synthetic
broken link, failing doctest or hand-edited paper-table cell is
reported; (2) the repository as committed is clean — no broken internal
links, all doctests pass, EXPERIMENTS.md's paper tables match
``benchmarks/results/``.
"""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", ROOT / "tools" / "check_docs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checker = _load_checker()


class TestDocFiles:
    def test_readme_and_experiments_are_scanned(self):
        names = {f.name for f in checker.doc_files()}
        assert {"README.md", "EXPERIMENTS.md", "DESIGN.md"} <= names

    def test_docs_directory_globbed(self):
        files = checker.doc_files()
        assert any(f.parent.name == "docs" for f in files)
        assert any(f.name == "observability.md" for f in files)


class TestLinkCheck:
    def test_repository_has_no_broken_links(self):
        assert checker.check_links() == []

    def test_broken_link_detected(self, tmp_path, monkeypatch):
        doc = tmp_path / "README.md"
        doc.write_text("see [missing](does/not/exist.md) and "
                       "[ok](#anchor) and [web](https://example.com)")
        monkeypatch.setattr(checker, "ROOT", tmp_path)
        monkeypatch.setattr(checker, "DOC_FILES", ("README.md",))
        monkeypatch.setattr(checker, "DOC_GLOBS", ())
        errors = checker.check_links()
        assert len(errors) == 1
        assert "does/not/exist.md" in errors[0]

    def test_anchor_suffix_stripped_before_resolving(self, tmp_path,
                                                     monkeypatch):
        (tmp_path / "other.md").write_text("target")
        doc = tmp_path / "README.md"
        doc.write_text("see [sec](other.md#some-section)")
        monkeypatch.setattr(checker, "ROOT", tmp_path)
        monkeypatch.setattr(checker, "DOC_FILES", ("README.md",))
        monkeypatch.setattr(checker, "DOC_GLOBS", ())
        assert checker.check_links() == []


class TestRequiredHeadings:
    def test_repository_has_required_headings(self):
        assert checker.check_headings() == []

    def test_missing_heading_detected(self, tmp_path, monkeypatch):
        docs = tmp_path / "docs"
        docs.mkdir()
        for rel in checker.REQUIRED_HEADINGS:
            (tmp_path / rel).write_text("# Title\n\nprose\n")
        monkeypatch.setattr(checker, "ROOT", tmp_path)
        errors = checker.check_headings()
        assert errors and all("missing required heading" in e
                              for e in errors)

    def test_missing_file_detected(self, tmp_path, monkeypatch):
        monkeypatch.setattr(checker, "ROOT", tmp_path)
        errors = checker.check_headings()
        assert any("required doc file missing" in e for e in errors)


class TestWikiLinks:
    def test_repository_has_no_dangling_wiki_links(self):
        assert checker.check_wiki_links() == []

    def test_dangling_wiki_link_detected(self, tmp_path, monkeypatch):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "real.md").write_text("exists")
        doc = tmp_path / "README.md"
        doc.write_text("see [[real]] and [[no-such-doc]]")
        monkeypatch.setattr(checker, "ROOT", tmp_path)
        monkeypatch.setattr(checker, "DOC_FILES", ("README.md",))
        monkeypatch.setattr(checker, "DOC_GLOBS", ())
        errors = checker.check_wiki_links()
        assert len(errors) == 1
        assert "no-such-doc" in errors[0]


class TestDottedNames:
    def test_repository_names_resolve(self):
        assert checker.check_names() == []

    def test_bogus_name_detected(self, tmp_path, monkeypatch):
        doc = tmp_path / "README.md"
        doc.write_text("`repro.serving.ContinuousBatchingEngine` and "
                       "`repro.serving.chunked.chunked_prefill(...)` "
                       "resolve; `repro.serving.NoSuchServer(x)` and "
                       "`repro.no_such_module` do not")
        monkeypatch.setattr(checker, "ROOT", tmp_path)
        monkeypatch.setattr(checker, "DOC_FILES", ("README.md",))
        monkeypatch.setattr(checker, "DOC_GLOBS", ())
        errors = checker.check_names()
        assert len(errors) == 2
        assert "`repro.serving.NoSuchServer`" in errors[0]
        assert "`repro.no_such_module`" in errors[1]


class TestPaperTables:
    def test_repository_tables_match_results(self):
        assert checker.check_experiments() == []

    def test_every_row_is_compared(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        rows = [len(checker.markdown_table(text, heading)) - 1
                for heading in checker.PAPER_TABLES]
        assert rows == [6, 4, 4]

    def test_printed_precision(self):
        assert checker.same_when_printed("87.2", "87.16")
        assert checker.same_when_printed("61", "61.0")
        assert checker.same_when_printed("1,332", "1,332")
        assert not checker.same_when_printed("87.1", "87.16")

    def test_hand_edited_cell_detected(self, tmp_path, monkeypatch):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        edited = text.replace("| 87.2 s / 73.9% |", "| 87.3 s / 73.9% |")
        assert edited != text
        (tmp_path / "EXPERIMENTS.md").write_text(edited)
        (tmp_path / "benchmarks").symlink_to(ROOT / "benchmarks")
        monkeypatch.setattr(checker, "ROOT", tmp_path)
        errors = checker.check_experiments()
        assert len(errors) == 1
        assert "87.3 s" in errors[0] and "87.16" in errors[0]


class TestFilePaths:
    def test_repository_paths_resolve(self):
        assert checker.check_paths() == []

    def test_bogus_path_detected(self, tmp_path, monkeypatch):
        (tmp_path / "benchmarks" / "results").mkdir(parents=True)
        (tmp_path / "benchmarks" / "bench_real.py").write_text("")
        (tmp_path / "benchmarks" / "results" / "a_x.txt").write_text("")
        (tmp_path / "benchmarks" / "results" / "a_y.txt").write_text("")
        (tmp_path / "tests" / "unit").mkdir(parents=True)
        (tmp_path / "tests" / "unit" / "test_real.py").write_text(
            "class TestReal:\n    def test_ok(self):\n        pass\n")
        doc = tmp_path / "README.md"
        doc.write_text(
            "`pytest benchmarks/bench_real.py -q`, `results/a_{x,y}.txt`, "
            "`test_real.py::TestReal::test_ok[loop]` and `BENCH_*.json` "
            "resolve; `bench_gone.py`, `results/a_{x,z}.txt`, "
            "`tests/unit/test_real.py::test_gone` and `BENCH_gone.json` "
            "do not")
        monkeypatch.setattr(checker, "ROOT", tmp_path)
        monkeypatch.setattr(checker, "DOC_FILES", ("README.md",))
        monkeypatch.setattr(checker, "DOC_GLOBS", ())
        errors = checker.check_paths()
        assert len(errors) == 4
        for missing, error in zip(
                ("`bench_gone.py`", "`results/a_{x,z}.txt`",
                 "`tests/unit/test_real.py::test_gone`",
                 "`BENCH_gone.json`"), errors):
            assert missing in error


class TestCliExamples:
    def test_repository_examples_parse(self):
        assert checker.check_commands() == []

    def test_cli_docstring_examples_scanned(self):
        from repro import cli
        commands = checker.command_lines(cli.__doc__)
        assert any(c.startswith("estimate ") for c in commands)

    def test_bogus_command_detected(self, tmp_path, monkeypatch):
        doc = tmp_path / "README.md"
        doc.write_text(
            "$ repro-inference metrics --topology 2x2x2\n"
            "    repro-inference chaos --backend both  # comment\n"
            "$ repro-inference estimate --model palm-62b \\\n"
            "      --phase decode\n"
            "prose mentioning `repro-inference frobnicate` is skipped\n"
            "$ repro-inference frobnicate\n"
            "$ repro-inference trace --preset tiny\n"
            "$ repro-inference estimate \\\n"
            "      --no-such-flag\n")
        monkeypatch.setattr(checker, "ROOT", tmp_path)
        monkeypatch.setattr(checker, "DOC_FILES", ("README.md",))
        monkeypatch.setattr(checker, "DOC_GLOBS", ())
        errors = checker.check_commands()
        assert len(errors) == 3
        assert "frobnicate" in errors[0] and "invalid choice" in errors[0]
        assert "--preset tiny" in errors[1]
        assert "--no-such-flag" in errors[2]


class TestModuleDocstrings:
    def test_repository_modules_all_documented(self):
        assert checker.check_docstrings() == []

    def test_cluster_docstrings_state_invariants(self):
        # The cluster layer's contract words must stay in its module
        # docstrings — docs/architecture.md leans on them.
        import ast
        for path in (ROOT / "src" / "repro" / "cluster").glob("*.py"):
            doc = (ast.get_docstring(ast.parse(path.read_text()))
                   or "").lower()
            assert any(word in doc for word in
                       ("virtual", "bit-ident", "determin", "typed")), \
                f"{path.name}: docstring states no invariant"

    def test_missing_docstring_detected(self, tmp_path, monkeypatch):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "documented.py").write_text('"""Has a docstring."""\n')
        (pkg / "bare.py").write_text("x = 1\n")
        (pkg / "_private.py").write_text("y = 2\n")
        monkeypatch.setattr(checker, "ROOT", tmp_path)
        errors = checker.check_docstrings()
        assert len(errors) == 1
        assert "bare.py" in errors[0]


class TestCommandConsistency:
    TIER1 = "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -x -q"

    def test_tier1_verify_line_documented_consistently(self):
        # README quickstart and the ROADMAP verify line must advertise
        # the exact same command.
        assert self.TIER1 in (ROOT / "README.md").read_text()
        assert self.TIER1 in (ROOT / "ROADMAP.md").read_text()


class TestDoctests:
    def test_modules_with_prompts_discovered(self):
        modules = checker.doctest_modules()
        assert "repro/observability/spans".replace("/", ".") in modules
        assert "repro.events" in modules

    def test_repository_doctests_pass(self):
        assert checker.run_doctests() == []


class TestMain:
    def test_clean_repo_exits_zero(self, capsys):
        assert checker.main([]) == 0
        out = capsys.readouterr().out
        assert "link-check" in out and "doctests" in out

    def test_links_only_flag(self, capsys):
        assert checker.main(["--links"]) == 0
        assert "doctests" not in capsys.readouterr().out
