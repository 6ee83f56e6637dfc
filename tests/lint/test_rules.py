"""Fixture-based tests for every lint rule.

Each rule has a ``bad_*`` fixture whose findings are pinned to exact
``(line, col)`` positions and a ``good_*`` fixture that must stay
silent.  The suppression round-trip appends ``# reprolint:
ignore[<rule>]`` to every flagged line of a bad fixture and asserts the
findings disappear (and are counted as suppressed).
"""

import os

import pytest

from repro.lint import lint_file, lint_source

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

#: rule id -> (fixture stem, module name for scoping, expected bad (line, col))
CASES = {
    "rng-discipline": (
        "rng_discipline",
        "repro.analysis.fixture",
        [(9, 12), (10, 4), (15, 10), (16, 16)],
    ),
    "dtype-contract": (
        "dtype_contract",
        "repro.core.fixture",
        [(7, 12), (8, 11)],
    ),
    "schedule-hygiene": (
        "schedule_hygiene",
        "repro.analysis.fixture",
        [(7, 12)],
    ),
    "nondeterminism-ban": (
        "nondeterminism_ban",
        "repro.core.fixture",
        [(9, 14), (10, 12)],
    ),
    "kernel-oracle-pairing": (
        "kernel_oracle_pairing",
        "repro.perf.fixture",
        [(5, 0), (10, 0)],
    ),
}


def fixture_path(kind, stem):
    return os.path.join(FIXTURES, f"{kind}_{stem}.py")


@pytest.mark.parametrize("rule_id", sorted(CASES), ids=sorted(CASES))
class TestRuleFixtures:
    def test_bad_fixture_flagged_at_exact_positions(self, rule_id):
        stem, module, expected = CASES[rule_id]
        result = lint_file(fixture_path("bad", stem), module=module)
        assert result.parse_failures == []
        got = [(f.rule, f.line, f.col) for f in result.findings]
        assert got == [(rule_id, line, col) for line, col in expected]
        assert result.exit_code == 3

    def test_good_fixture_silent(self, rule_id):
        stem, module, _ = CASES[rule_id]
        result = lint_file(fixture_path("good", stem), module=module)
        assert result.parse_failures == []
        assert result.findings == []
        assert result.exit_code == 0

    def test_suppression_round_trip(self, rule_id):
        stem, module, expected = CASES[rule_id]
        path = fixture_path("bad", stem)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        for line, _ in expected:
            lines[line - 1] += f"  # reprolint: ignore[{rule_id}]"
        suppressed_src = "\n".join(lines) + "\n"
        result = lint_source(suppressed_src, path, module=module)
        assert result.findings == []
        assert result.suppressed == len(expected)
        assert result.exit_code == 0

    def test_messages_name_the_problem(self, rule_id):
        stem, module, _ = CASES[rule_id]
        result = lint_file(fixture_path("bad", stem), module=module)
        for finding in result.findings:
            assert finding.message
            rendered = finding.format()
            assert rule_id in rendered
            assert f":{finding.line}:" in rendered


class TestSuppressionForms:
    def test_standalone_comment_covers_next_line(self):
        src = (
            "import numpy as np\n"
            "# reprolint: ignore[rng-discipline]\n"
            "x = np.random.random()\n"
        )
        result = lint_source(src, module="repro.analysis.tmp")
        assert result.findings == []
        assert result.suppressed == 1

    def test_bare_ignore_suppresses_all_rules(self):
        src = (
            "import numpy as np\n"
            "x = np.zeros(np.random.randint(4))  # reprolint: ignore\n"
        )
        result = lint_source(src, module="repro.core.tmp")
        assert result.findings == []
        assert result.suppressed == 2

    def test_wrong_rule_id_does_not_suppress(self):
        src = (
            "import numpy as np\n"
            "x = np.random.random()  # reprolint: ignore[dtype-contract]\n"
        )
        result = lint_source(src, module="repro.analysis.tmp")
        assert [f.rule for f in result.findings] == ["rng-discipline"]
        assert result.suppressed == 0


class TestRuleScoping:
    def test_nondeterminism_ban_ignores_obs_module(self):
        path = fixture_path("bad", "nondeterminism_ban")
        result = lint_file(path, module="repro.obs.timing")
        assert result.findings == []

    def test_schedule_hygiene_exempts_defining_module(self):
        path = fixture_path("bad", "schedule_hygiene")
        result = lint_file(path, module="repro.core.schedule")
        assert result.findings == []

    def test_aliased_import_still_resolves(self):
        src = (
            "import numpy.random as nr\n"
            "x = nr.random()\n"
        )
        result = lint_source(src, module="repro.analysis.tmp")
        assert [f.rule for f in result.findings] == ["rng-discipline"]

    def test_local_variable_named_random_not_confused(self):
        src = (
            "def f(random):\n"
            "    return random.random()\n"
        )
        result = lint_source(src, module="repro.analysis.tmp")
        assert result.findings == []
