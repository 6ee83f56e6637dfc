"""Engine-level tests: exit codes, parse failures, module inference,
rule selection, reporters — and the demonstrated-catch acceptance test
(inject three convention violations into a fresh module and assert the
linter reports all three)."""

import json
import os

import pytest

from repro.lint import (
    PROJECT_RULES,
    RULES,
    all_project_rule_ids,
    all_rule_ids,
    infer_module_name,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
    render_json,
    render_rule_table,
    render_text,
)


class TestDemonstratedCatch:
    def test_injected_violations_all_reported(self, tmp_path):
        """The acceptance check: a module with a global-RNG draw, a
        dtype-less np.empty in repro.core context, and an unvalidated
        Schedule must produce all three findings."""
        bad = tmp_path / "tmpmod.py"
        bad.write_text(
            "import numpy as np\n"
            "from repro.core import Schedule\n"
            "\n"
            "\n"
            "def build(cycles):\n"
            "    rank = np.random.random()\n"
            "    buf = np.empty(8)\n"
            "    sched = Schedule(cycles=cycles)\n"
            "    return rank, buf, sched.num_cycles\n"
        )
        result = lint_file(str(bad), module="repro.core.tmpmod")
        rules = sorted(f.rule for f in result.findings)
        assert rules == [
            "dtype-contract",
            "rng-discipline",
            "schedule-hygiene",
        ]
        assert result.exit_code == 3


class TestExitCodes:
    def test_clean_source_exits_zero(self):
        result = lint_source("x = 1\n")
        assert result.exit_code == 0
        assert result.files_checked == 1

    def test_findings_exit_three(self):
        result = lint_source("import numpy as np\nx = np.zeros(3)\n")
        assert result.exit_code == 3

    def test_parse_failure_exits_two(self):
        result = lint_source("def broken(:\n")
        assert result.exit_code == 2
        assert result.parse_failures[0].line == 1

    def test_parse_failure_takes_precedence_over_findings(self, tmp_path):
        (tmp_path / "bad.py").write_text("import numpy as np\nx = np.zeros(3)\n")
        (tmp_path / "broken.py").write_text("def broken(:\n")
        result = lint_paths([str(tmp_path)])
        assert result.findings and result.parse_failures
        assert result.exit_code == 2

    def test_unreadable_file_is_a_parse_failure(self, tmp_path):
        result = lint_file(str(tmp_path / "missing.py"))
        assert result.exit_code == 2
        assert "unreadable" in result.parse_failures[0].message


class TestRuleSelection:
    def test_unknown_rule_id_raises(self):
        with pytest.raises(ValueError, match="unknown rule"):
            lint_source("x = 1\n", rule_ids=["no-such-rule"])

    def test_single_rule_selection(self):
        src = "import numpy as np\nx = np.random.random()\ny = np.zeros(3)\n"
        result = lint_source(src, rule_ids=["dtype-contract"])
        assert [f.rule for f in result.findings] == ["dtype-contract"]

    def test_registry_has_the_five_module_rules(self):
        assert all_rule_ids() == sorted(RULES) == [
            "dtype-contract",
            "kernel-oracle-pairing",
            "nondeterminism-ban",
            "rng-discipline",
            "schedule-hygiene",
        ]

    def test_registry_has_the_four_project_rules(self):
        assert all_project_rule_ids() == sorted(PROJECT_RULES) == [
            "async-blocking",
            "cache-invalidation",
            "obs-rng-flow",
            "pickle-boundary",
        ]
        # the two registries never share an id: suppression comments and
        # --rule selection would become ambiguous
        assert not set(RULES) & set(PROJECT_RULES)

    def test_project_rule_id_without_project_flag_raises(self):
        with pytest.raises(ValueError, match="--project"):
            lint_paths([], rule_ids=["pickle-boundary"])


class TestModuleInference:
    def test_src_layout(self):
        assert (
            infer_module_name("/repo/src/repro/core/online.py")
            == "repro.core.online"
        )

    def test_package_init_drops_segment(self):
        assert infer_module_name("src/repro/core/__init__.py") == "repro.core"

    def test_outside_package_is_script(self):
        assert infer_module_name("benchmarks/bench_routing.py") is None
        assert infer_module_name("tests/lint/fixtures/bad_dtype_contract.py") is None


class TestFileWalking:
    def test_skips_caches_and_sorts(self, tmp_path):
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "junk.py").write_text("x = 1\n")
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "a.py").write_text("x = 1\n")
        files = iter_python_files([str(tmp_path)])
        assert [os.path.basename(f) for f in files] == ["a.py", "b.py"]


class TestReporters:
    def test_text_report_lines_are_clickable(self):
        result = lint_source("import numpy as np\nx = np.zeros(3)\n", path="mod.py")
        text = render_text(result)
        assert "mod.py:2:" in text
        assert "dtype-contract" in text
        assert "1 finding(s)" in text

    def test_json_report_is_stable_and_versioned(self):
        result = lint_source("import numpy as np\nx = np.zeros(3)\n", path="mod.py")
        payload = json.loads(render_json(result))
        assert payload["version"] == 1
        assert payload["files"] == 1
        assert payload["findings"][0]["rule"] == "dtype-contract"
        assert payload["findings"][0]["line"] == 2
        assert payload["parse_failures"] == []

    def test_rule_table_lists_every_rule(self):
        table = render_rule_table()
        for rule_id in RULES:
            assert rule_id in table


class TestSelfHosting:
    def test_src_tree_is_lint_clean(self):
        """CI's zero-tolerance gate, run in-process: the package source
        must carry no findings (suppressions are allowed and counted)."""
        root = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        result = lint_paths([os.path.normpath(root)])
        assert result.parse_failures == []
        assert [f.format() for f in result.findings] == []
