"""Reporters: render a :class:`~repro.lint.engine.LintResult`.

Three formats, selected by ``repro lint --format``:

* ``text`` — one ``path:line:col: rule-id: message`` line per finding
  (editor-clickable), parse failures first, then a summary line;
* ``json`` — a single stable JSON object (``version``, ``files``,
  ``findings``, ``parse_failures``, ``suppressed``) for the CI job and
  any downstream tooling;
* ``github`` — GitHub Actions workflow commands (``::error file=…``),
  one per finding, so the CI lint job annotates the offending lines
  inline on pull requests.
"""

from __future__ import annotations

import json

from .engine import LintResult
from .rules import RULES
from .rules_project import PROJECT_RULES

__all__ = ["render_text", "render_json", "render_github", "render_rule_table"]


def render_text(result: LintResult) -> str:
    """Editor-clickable report: one ``path:line:col: rule: message`` line
    per finding (parse failures first), then a one-line summary."""
    lines: list[str] = []
    for failure in result.parse_failures:
        lines.append(failure.format())
    for finding in result.findings:
        lines.append(finding.format())
    summary = (
        f"{len(result.findings)} finding(s), "
        f"{len(result.parse_failures)} parse failure(s), "
        f"{result.suppressed} suppressed, "
        f"{result.files_checked} file(s) checked"
    )
    lines.append(summary)
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """Stable machine-readable report (``--format=json``): a single
    versioned object with the findings, parse failures and counts."""
    payload = {
        "version": 1,
        "files": result.files_checked,
        "suppressed": result.suppressed,
        "findings": [f.as_dict() for f in result.findings],
        "parse_failures": [p.as_dict() for p in result.parse_failures],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _escape_property(value: str) -> str:
    """Escape a workflow-command *property* value (title, file)."""
    return (
        value.replace("%", "%25")
        .replace("\r", "%0D")
        .replace("\n", "%0A")
        .replace(":", "%3A")
        .replace(",", "%2C")
    )


def _escape_data(value: str) -> str:
    """Escape workflow-command *message* data."""
    return value.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def render_github(result: LintResult) -> str:
    """GitHub Actions annotations (``--format=github``): one
    ``::error file=…,line=…,col=…,title=…::message`` command per finding
    and parse failure, then the human summary as a ``::notice``.

    The runner surfaces each command as an inline annotation on the PR
    diff; the exit code still comes from
    :attr:`~repro.lint.engine.LintResult.exit_code`, so the job fails
    exactly when the other formats would.
    """
    lines: list[str] = []
    for failure in result.parse_failures:
        lines.append(
            f"::error file={_escape_property(failure.path)},"
            f"line={failure.line},title={_escape_property('repro-lint parse')}"
            f"::{_escape_data(failure.message)}"
        )
    for finding in result.findings:
        title = _escape_property(f"repro-lint {finding.rule}")
        lines.append(
            f"::error file={_escape_property(finding.path)},"
            f"line={finding.line},col={finding.col + 1},title={title}"
            f"::{_escape_data(finding.message)}"
        )
    lines.append(
        f"::notice title={_escape_property('repro-lint summary')}::"
        f"{len(result.findings)} finding(s), "
        f"{len(result.parse_failures)} parse failure(s), "
        f"{result.suppressed} suppressed, "
        f"{result.files_checked} file(s) checked"
    )
    return "\n".join(lines)


def render_rule_table() -> str:
    """The ``--list-rules`` output: every registered rule (module rules
    first, then the ``--project`` rules) and its one-line summary."""
    all_rules = {**RULES, **PROJECT_RULES}
    width = max(len(rule_id) for rule_id in all_rules)
    lines = [
        f"{rule_id:<{width}}  {RULES[rule_id].summary}"
        for rule_id in sorted(RULES)
    ]
    lines.append("")
    lines.append("project rules (require --project):")
    lines.extend(
        f"{rule_id:<{width}}  {PROJECT_RULES[rule_id].summary}"
        for rule_id in sorted(PROJECT_RULES)
    )
    return "\n".join(lines)
