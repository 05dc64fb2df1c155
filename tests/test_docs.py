"""Documentation honesty checks.

The package docstring's quickstart and the repository documents make
checkable claims; these tests keep them true.
"""

import doctest
import re
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(repro.__file__).resolve().parents[2]


class TestPackageDoctest:
    def test_quickstart_docstring_runs(self):
        """The >>> block in repro/__init__ must execute and hold."""
        results = doctest.testmod(repro, verbose=False)
        assert results.failed == 0
        assert results.attempted >= 3      # the quickstart really ran


class TestRepositoryDocuments:
    @pytest.mark.parametrize("name", [
        "README.md", "DESIGN.md", "EXPERIMENTS.md", "THEORY.md",
    ])
    def test_document_exists_and_nonempty(self, name):
        path = REPO_ROOT / name
        assert path.exists(), f"{name} missing"
        assert len(path.read_text()) > 500

    def test_design_maps_every_paper_artifact(self):
        text = (REPO_ROOT / "DESIGN.md").read_text()
        for artifact in ("Table I", "Table II", "Table III", "Fig. 2",
                         "Fig. 3", "Fig. 4", "Fig. 5", "Fig. 6", "Fig. 7",
                         "Fig. 8"):
            assert artifact in text, f"DESIGN.md lost {artifact}"

    def test_design_bench_targets_exist(self):
        """Every bench target DESIGN.md names must be a real file."""
        text = (REPO_ROOT / "DESIGN.md").read_text()
        for target in set(re.findall(r"benchmarks/bench_\w+\.py", text)):
            assert (REPO_ROOT / target).exists(), f"{target} missing"

    def test_experiments_md_covers_every_table_and_figure(self):
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        for artifact in ("Table I", "Table II", "Table III", "Fig. 2",
                         "Fig. 3", "Fig. 4", "Fig. 5", "Fig. 6", "Fig. 7",
                         "Fig. 8"):
            assert artifact in text, f"EXPERIMENTS.md lost {artifact}"

    def test_readme_examples_exist(self):
        """Every examples/*.py the README mentions must exist (and vice
        versa: every example file should be documented)."""
        text = (REPO_ROOT / "README.md").read_text()
        mentioned = set(re.findall(r"examples/(\w+\.py)", text))
        actual = {p.name for p in (REPO_ROOT / "examples").glob("*.py")}
        assert mentioned == actual

    def test_paper_check_recorded_in_design(self):
        """DESIGN.md must record the paper-text verification the task
        demands."""
        text = (REPO_ROOT / "DESIGN.md").read_text()
        assert "Paper-text check" in text


class TestModuleDoctests:
    @pytest.mark.parametrize("module_name", [
        "repro.core.tro",
        "repro.queueing.erlang",
        "repro.utils.tables",
        "repro.net.clock",
    ])
    def test_module_doctests_pass(self, module_name):
        import importlib
        module = importlib.import_module(module_name)
        results = doctest.testmod(module, verbose=False)
        assert results.failed == 0
        assert results.attempted >= 1, f"{module_name} lost its doctests"
