"""Tests for the documentation tooling and repo-level doc invariants."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, REPO / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_gen_api_docs():
    return load_tool("gen_api_docs")


class TestApiDocGenerator:
    def test_generates_all_packages(self, tmp_path):
        gen = load_gen_api_docs()
        out = tmp_path / "API.md"
        rc = gen.main(["gen_api_docs.py", str(out)])
        assert rc == 0
        text = out.read_text()
        for pkg in gen.PACKAGES:
            assert f"## `{pkg}`" in text

    def test_deterministic(self, tmp_path):
        gen = load_gen_api_docs()
        a, b = tmp_path / "a.md", tmp_path / "b.md"
        gen.main(["x", str(a)])
        gen.main(["x", str(b)])
        assert a.read_text() == b.read_text()

    def test_first_paragraph_helper(self):
        gen = load_gen_api_docs()
        assert gen.first_paragraph(None) == "(undocumented)"
        assert gen.first_paragraph("One.\n\nTwo.") == "One."
        assert gen.first_paragraph("  spread\n  over lines\n\nrest") == (
            "spread over lines"
        )

    def test_committed_docs_fresh_enough(self):
        """docs/API.md must exist and mention the main entry points."""
        text = (REPO / "docs" / "API.md").read_text()
        for needle in (
            "congest_delta_plus_one",
            "solve_oldc_main",
            "solve_list_arbdefective",
            "ListDefectiveInstance",
        ):
            assert needle in text, f"{needle} missing from docs/API.md"


class TestFindDeadDefs:
    def test_reports_only_test_referenced_definitions(self, tmp_path):
        tool = load_tool("find_dead_defs")
        pkg = tmp_path / "src" / "pkg"
        pkg.mkdir(parents=True)
        (pkg / "mod.py").write_text(
            "LIMIT = 3\n"
            "def used():\n    return LIMIT\n"
            "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
            "def by_name():\n    pass\n"
            "def tested_only():\n    pass\n"
            "class Orphan:\n    pass\n"
        )
        (pkg / "app.py").write_text(
            "from .mod import used\n"
            "import pkg.mod as m\n"
            "def main():\n    return used(), getattr(m, 'by_name')\n"
        )
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_mod.py").write_text(
            "from pkg.mod import tested_only, Orphan, recursive\n"
        )
        (tmp_path / "pyproject.toml").write_text(
            '[project.scripts]\ncli = "pkg.app:main"\n'
        )
        dead = tool.find_dead([tmp_path / "src"], repo=tmp_path)
        assert sorted(name for _, _, name in dead) == [
            "Orphan",
            "recursive",
            "tested_only",
        ]

    def test_sim_package_has_no_dead_definitions(self):
        tool = load_tool("find_dead_defs")
        assert tool.find_dead([REPO / "src" / "repro" / "sim"]) == []

    def test_allow_listed_definitions_are_skipped(self, tmp_path):
        tool = load_tool("find_dead_defs")
        for rel in ("src/repro/io.py", "src/repro/other.py"):
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(
                "def load_run():\n    pass\n"
                "def load_other():\n    pass\n"
            )
        assert tool.ALLOWED["src/repro/io.py:load_run"]
        dead = tool.find_dead([tmp_path / "src"], repo=tmp_path)
        # the entry names one module's definition, not every same-named one
        assert sorted(
            (path.name, name) for path, _, name in dead
        ) == [
            ("io.py", "load_other"),
            ("other.py", "load_other"),
            ("other.py", "load_run"),
        ]
        # the other entries name definitions this tree lacks
        assert "src/repro/io.py:load_run" not in tool.stale_allowed(tmp_path)
        assert len(tool.stale_allowed(tmp_path)) == len(tool.ALLOWED) - 1

    def test_allow_list_names_existing_definitions(self):
        tool = load_tool("find_dead_defs")
        assert tool.stale_allowed() == []


class TestRepoDocs:
    def test_design_lists_all_experiments(self):
        text = (REPO / "DESIGN.md").read_text()
        from repro.experiments import EXPERIMENTS

        for eid in EXPERIMENTS:
            assert eid in text, f"{eid} missing from DESIGN.md"

    def test_experiments_md_covers_ids(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        from repro.experiments import EXPERIMENTS

        for eid in EXPERIMENTS:
            assert f"## {eid}" in text or f"| {eid}" in text, (
                f"{eid} missing from EXPERIMENTS.md"
            )

    def test_readme_quickstart_runs(self):
        """The README quickstart snippet must stay executable."""
        import repro

        g = repro.graphs.gnp(20, 0.3, seed=1)
        coloring, metrics, report = repro.algorithms.congest_delta_plus_one(g)
        inst = repro.degree_plus_one_instance(g)
        assert repro.validate_ldc(inst, coloring)
