"""Repo-level guards around ``repro.lint``.

Mutable default arguments and bare ``except:`` are left to ruff (B006
and E722), so the ruff configuration and the CI step that runs it are
now the only guard for those two bug classes.  Suppression comments
with an unknown rule id are tolerated by the engine, so a stale id
(left behind by a rule rename or deletion) is caught here instead.
"""

import io
import os
import re
import tokenize

import pytest

from repro.lint import PROJECT_RULES, RULES, iter_python_files

REPO = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))

#: the trees ``repro lint`` checks, and so the ones ruff must cover too
LINTED_DIRS = ("src", "benchmarks", "examples")

_IGNORE_IDS = re.compile(r"#\s*reprolint:\s*ignore\[(?P<ids>[^\]]*)\]")


def _covers(selectors, code):
    """Whether any ruff selector (a code prefix, or ``ALL``) names ``code``."""
    return any(s == "ALL" or code.startswith(s) for s in selectors)


def _ci_step_run(name):
    """The one-line ``run:`` command of the CI step called ``name``."""
    with open(
        os.path.join(REPO, ".github", "workflows", "ci.yml"), encoding="utf-8"
    ) as fh:
        lines = [line.strip() for line in fh]
    start = lines.index(f"- name: {name}")
    for line in lines[start + 1:]:
        if line.startswith("- "):
            break
        if line.startswith("run:"):
            return line[len("run:"):].strip()
    raise AssertionError(f"CI step {name!r} has no one-line run: command")


class TestRuffGuardsDeletedRules:
    def test_pyproject_selects_b006_and_e722(self):
        tomllib = pytest.importorskip("tomllib")
        with open(os.path.join(REPO, "pyproject.toml"), "rb") as fh:
            ruff = tomllib.load(fh)["tool"]["ruff"]
        lint = ruff["lint"]
        select = lint.get("select", []) + lint.get("extend-select", [])
        ignore = lint.get("ignore", []) + lint.get("extend-ignore", [])
        per_file = [
            s for codes in lint.get("per-file-ignores", {}).values() for s in codes
        ]
        for code in ("B006", "E722"):
            assert _covers(select, code), f"ruff no longer selects {code}"
            assert not _covers(ignore, code), f"ruff ignores {code}"
            assert not _covers(per_file, code), f"ruff ignores {code} per file"
        excluded = ruff.get("exclude", []) + ruff.get("extend-exclude", [])
        for directory in LINTED_DIRS:
            assert not any(
                directory == e.strip("/").split("/")[0] for e in excluded
            ), f"ruff excludes {directory}/"

    def test_ci_ruff_step_covers_the_linted_trees(self):
        args = _ci_step_run("Ruff").split()
        assert args[:4] == ["python", "-m", "ruff", "check"]
        for directory in LINTED_DIRS:
            assert directory + "/" in args or directory in args


class TestSuppressionIds:
    def test_every_suppression_names_a_registered_rule(self):
        known = set(RULES) | set(PROJECT_RULES)
        seen = []
        for path in iter_python_files([os.path.join(REPO, d) for d in LINTED_DIRS]):
            with open(path, encoding="utf-8") as fh:
                tokens = tokenize.generate_tokens(io.StringIO(fh.read()).readline)
                for token in tokens:
                    match = _IGNORE_IDS.search(token.string)
                    if token.type != tokenize.COMMENT or match is None:
                        continue
                    for rule_id in match.group("ids").split(","):
                        seen.append((os.path.relpath(path, REPO),
                                     token.start[0], rule_id.strip()))
        assert seen, "expected the repo's own suppressions to be found"
        stale = [s for s in seen if s[2] not in known]
        assert stale == []
