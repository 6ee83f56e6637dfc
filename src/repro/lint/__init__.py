"""Project-aware static analysis for the fat-tree reproduction.

The runtime layers — fault injection, the vectorised kernels with their
``_reference_*`` oracles, observability accounting, the differential
fuzzer — all rest on conventions: seeded instance-based RNG, explicit
int64 dtypes, validated :class:`~repro.core.Schedule` construction,
``obs=`` threading through every scheduler entry point.  This package
turns those conventions into machine-checked rules over the stdlib
:mod:`ast` (no new runtime dependencies) with per-rule suppression
comments (``# reprolint: ignore[rule-id]``), text/JSON/GitHub-Actions
reporters, and a ``repro lint`` CLI subcommand that CI self-hosts on
``src/`` with zero tolerated findings.

Two tiers:

* **module rules** (:data:`~repro.lint.rules.RULES`) check one file at
  a time;
* **project rules** (:data:`~repro.lint.rules_project.PROJECT_RULES`,
  enabled by ``lint_paths(..., project=True)`` / ``repro lint
  --project``) parse the whole package into a
  :class:`~repro.lint.project.ProjectContext` — an import-resolved
  call graph plus light dataflow — and check cross-module invariants:
  pickle/ProcessPool boundaries, event-loop blocking,
  capacity-fingerprint invalidation, and ``obs=`` threading along
  the call graph to :func:`repro.obs.resolve_obs`.

Usage::

    from repro.lint import lint_paths, render_text
    result = lint_paths(["src"], project=True)
    print(render_text(result))
    raise SystemExit(result.exit_code)   # 0 clean / 3 findings / 2 parse

Adding a rule: subclass :class:`~repro.lint.rules.Rule` (or
:class:`~repro.lint.rules_project.ProjectRule` for whole-program
checks), set ``id`` and ``summary``, implement ``check`` /
``check_project``, and decorate with the matching ``register_*``
function — the CLI, reporters and suppression machinery pick it up
automatically.
"""

from __future__ import annotations

from .context import ModuleContext, infer_module_name
from .engine import LintResult, iter_python_files, lint_file, lint_paths, lint_source
from .findings import Finding, ParseFailure
from .project import ClassInfo, FunctionInfo, ProjectContext
from .report import render_github, render_json, render_rule_table, render_text
from .rules import RULES, Rule, all_rule_ids, register_rule
from .rules_project import (
    PROJECT_RULES,
    ProjectRule,
    all_project_rule_ids,
    register_project_rule,
)
from .suppress import SUPPRESS_ALL, SuppressionIndex, scan_suppressions

__all__ = [
    "ClassInfo",
    "Finding",
    "FunctionInfo",
    "ParseFailure",
    "LintResult",
    "ModuleContext",
    "ProjectContext",
    "ProjectRule",
    "Rule",
    "RULES",
    "PROJECT_RULES",
    "register_rule",
    "register_project_rule",
    "all_rule_ids",
    "all_project_rule_ids",
    "infer_module_name",
    "iter_python_files",
    "lint_source",
    "lint_file",
    "lint_paths",
    "render_text",
    "render_json",
    "render_github",
    "render_rule_table",
    "scan_suppressions",
    "SuppressionIndex",
    "SUPPRESS_ALL",
]
