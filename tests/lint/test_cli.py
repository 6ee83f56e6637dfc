"""CLI tests for ``repro lint`` and ``repro fuzz --lint-corpus``."""

import json
import os

from repro.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLintCommand:
    def test_clean_file_exits_zero(self, capsys):
        code, out, _ = run(
            capsys, "lint", os.path.join(FIXTURES, "good_dtype_contract.py")
        )
        assert code == 0
        assert "0 finding(s)" in out

    def test_findings_exit_three(self, capsys):
        path = os.path.join(FIXTURES, "bad_dtype_contract.py")
        code, out, _ = run(capsys, "lint", path)
        assert code == 3
        assert f"{path}:7:12: dtype-contract:" in out

    def test_parse_failure_exits_two(self, capsys, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def broken(:\n")
        code, out, _ = run(capsys, "lint", str(broken))
        assert code == 2

    def test_src_tree_clean_via_cli(self, capsys):
        root = os.path.normpath(
            os.path.join(os.path.dirname(__file__), "..", "..", "src")
        )
        code, out, _ = run(capsys, "lint", root)
        assert code == 0

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            "lint",
            os.path.join(FIXTURES, "bad_dtype_contract.py"),
            "--format",
            "json",
        )
        assert code == 3
        payload = json.loads(out)
        assert payload["version"] == 1
        assert payload["findings"][0]["rule"] == "dtype-contract"

    def test_rule_selection(self, capsys):
        code, out, _ = run(
            capsys,
            "lint",
            os.path.join(FIXTURES, "bad_dtype_contract.py"),
            "--rule",
            "rng-discipline",
        )
        assert code == 0

    def test_unknown_rule_exits_two(self, capsys):
        code, _, err = run(
            capsys, "lint", "--rule", "no-such-rule", FIXTURES
        )
        assert code == 2
        assert "unknown rule" in err

    def test_list_rules(self, capsys):
        code, out, _ = run(capsys, "lint", "--list-rules")
        assert code == 0
        assert "rng-discipline" in out
        assert "kernel-oracle-pairing" in out

    def test_list_rules_includes_project_section(self, capsys):
        code, out, _ = run(capsys, "lint", "--list-rules")
        assert code == 0
        assert "project rules (require --project):" in out
        assert "pickle-boundary" in out
        assert "obs-rng-flow" in out


class TestLintProjectCLI:
    def test_src_tree_clean_under_project_lint(self, capsys):
        """The CI tier-2 gate: whole-program rules over src/ must be
        finding-free."""
        root = os.path.normpath(
            os.path.join(os.path.dirname(__file__), "..", "..", "src")
        )
        code, out, _ = run(capsys, "lint", "--project", root)
        assert code == 0
        assert "0 finding(s)" in out

    def test_project_rule_without_project_flag_errors(self, capsys):
        code, _, err = run(
            capsys, "lint", "--rule", "pickle-boundary", FIXTURES
        )
        assert code == 2
        assert "--project" in err

    def test_github_format(self, capsys):
        path = os.path.join(FIXTURES, "bad_dtype_contract.py")
        code, out, _ = run(capsys, "lint", path, "--format", "github")
        assert code == 3
        assert f"::error file={path},line=7,col=13," in out
        assert "title=repro-lint dtype-contract::" in out
        assert "::notice title=repro-lint summary::" in out


class TestFuzzLintCorpus:
    def test_reproducer_snippets_are_lint_clean(self, capsys):
        code, out, _ = run(
            capsys, "fuzz", "--lint-corpus", "--iters", "5", "--seed", "1"
        )
        assert code == 0
        assert "lint-clean" in out
