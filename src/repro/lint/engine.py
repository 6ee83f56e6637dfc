"""The lint driver: files in, findings out.

:func:`lint_source` checks one in-memory module (used by the fixture
tests and the fuzz ``--lint-corpus`` smoke); :func:`lint_paths` walks
files and directories, infers each file's dotted module name from its
path (overridable), applies every registered rule in scope, drops
suppressed findings, and returns a :class:`LintResult` the reporters
and the CLI exit-code logic consume.

``lint_paths(..., project=True)`` is tier 2: after the per-module
rules, every successfully parsed package module feeds one
:class:`~repro.lint.project.ProjectContext` and the whole-program
rules from :data:`~repro.lint.rules_project.PROJECT_RULES` run over
it.  Project findings honour the same per-file suppression comments,
which are the one way to accept a finding.
"""

from __future__ import annotations

import ast
import os
import tokenize
from dataclasses import dataclass, field

from .context import ModuleContext, infer_module_name
from .findings import Finding, ParseFailure
from .rules import RULES, Rule
from .rules_project import PROJECT_RULES, ProjectRule
from .suppress import SuppressionIndex, scan_suppressions

__all__ = ["LintResult", "lint_source", "lint_file", "lint_paths"]

#: directories never descended into when walking a tree
_SKIP_DIRS = {
    ".git",
    "__pycache__",
    ".mypy_cache",
    ".ruff_cache",
    ".pytest_cache",
    "build",
    "dist",
}


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: list[Finding] = field(default_factory=list)
    parse_failures: list[ParseFailure] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0

    def merge(self, other: "LintResult") -> None:
        self.findings.extend(other.findings)
        self.parse_failures.extend(other.parse_failures)
        self.files_checked += other.files_checked
        self.suppressed += other.suppressed

    def sort(self) -> None:
        self.findings.sort(key=Finding.sort_key)
        self.parse_failures.sort(key=lambda p: (p.path, p.line))

    @property
    def exit_code(self) -> int:
        """The ``repro lint`` convention: 2 on parse failures (they hide
        arbitrarily many findings), 3 on findings, 0 when clean."""
        if self.parse_failures:
            return 2
        if self.findings:
            return 3
        return 0


def _select_rules(
    rule_ids: list[str] | None, *, project: bool = False
) -> tuple[list[Rule], list[ProjectRule]]:
    """Split a rule selection into (module rules, project rules).

    Project rule ids are only selectable when ``project`` is on — they
    need the whole-program context, so picking one in per-module mode
    is a usage error, not a silent no-op.
    """
    if rule_ids is None:
        return list(RULES.values()), (
            list(PROJECT_RULES.values()) if project else []
        )
    known = set(RULES) | set(PROJECT_RULES)
    unknown = [r for r in rule_ids if r not in known]
    if unknown:
        raise ValueError(
            f"unknown rule id(s) {unknown}; known: {sorted(known)}"
        )
    project_picked = [r for r in rule_ids if r in PROJECT_RULES]
    if project_picked and not project:
        raise ValueError(
            f"rule id(s) {project_picked} are project rules; "
            f"they need --project"
        )
    return (
        [RULES[r] for r in rule_ids if r in RULES],
        [PROJECT_RULES[r] for r in project_picked],
    )


def lint_source(
    source: str,
    path: str = "<string>",
    *,
    module: str | None = None,
    rule_ids: list[str] | None = None,
) -> LintResult:
    """Lint one module given as a string.

    ``module`` is the dotted module name used for rule scoping (e.g.
    ``"repro.core.mymod"``); ``None`` treats the source as a script
    outside the package.
    """
    result = LintResult(files_checked=1)
    rules, _ = _select_rules(rule_ids)
    try:
        tree = ast.parse(source, filename=path)
        suppressions = scan_suppressions(source)
    except (SyntaxError, tokenize.TokenError) as exc:
        line = getattr(exc, "lineno", None) or 1
        msg = getattr(exc, "msg", None) or str(exc)
        result.parse_failures.append(ParseFailure(path=path, line=line, message=msg))
        return result
    ctx = ModuleContext(path, source, tree, module)
    for rule in rules:
        if not rule.applies(module):
            continue
        for finding in rule.check(ctx):
            if suppressions.is_suppressed(finding.rule, finding.line):
                result.suppressed += 1
            else:
                result.findings.append(finding)
    result.sort()
    return result


def lint_file(
    path: str,
    *,
    module: str | None = None,
    rule_ids: list[str] | None = None,
) -> LintResult:
    """Lint one file; the module name is inferred from the path unless
    given explicitly."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        result = LintResult(files_checked=1)
        result.parse_failures.append(
            ParseFailure(path=path, line=1, message=f"unreadable: {exc}")
        )
        return result
    if module is None:
        module = infer_module_name(path)
    return lint_source(source, path, module=module, rule_ids=rule_ids)


def iter_python_files(paths: list[str]) -> list[str]:
    """Expand files and directories into a sorted list of ``.py`` files."""
    out: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(d for d in dirs if d not in _SKIP_DIRS)
                for name in sorted(files):
                    if name.endswith(".py"):
                        out.append(os.path.join(root, name))
        else:
            out.append(path)
    return out


def lint_paths(
    paths: list[str],
    *,
    rule_ids: list[str] | None = None,
    project: bool = False,
) -> LintResult:
    """Lint every ``.py`` file under the given files/directories.

    With ``project=True`` the per-module pass also collects every
    successfully parsed file, builds one
    :class:`~repro.lint.project.ProjectContext` over the package
    modules, and runs the whole-program rules; their findings honour
    each file's own suppression comments.
    """
    module_rules, project_rules = _select_rules(rule_ids, project=project)
    module_rule_ids = [r.id for r in module_rules] if rule_ids else None
    result = LintResult()
    parsed: list[tuple[ModuleContext, SuppressionIndex]] = []
    for path in iter_python_files(paths):
        result.merge(lint_file(path, rule_ids=module_rule_ids))
        if not project:
            continue
        try:
            with open(path, "r", encoding="utf-8") as fh:
                source = fh.read()
            tree = ast.parse(source, filename=path)
            suppressions = scan_suppressions(source)
        except (OSError, UnicodeDecodeError, SyntaxError, tokenize.TokenError):
            continue  # already recorded as a parse failure above
        parsed.append(
            (
                ModuleContext(path, source, tree, infer_module_name(path)),
                suppressions,
            )
        )
    if project and project_rules:
        from .project import ProjectContext

        suppression_for = {ctx.path: index for ctx, index in parsed}
        project_ctx = ProjectContext(ctx for ctx, _ in parsed)
        for rule in project_rules:
            for finding in rule.check_project(project_ctx):
                index = suppression_for.get(finding.path)
                if index is not None and index.is_suppressed(
                    finding.rule, finding.line
                ):
                    result.suppressed += 1
                else:
                    result.findings.append(finding)
    result.sort()
    return result
