"""Per-rule suppression comments: ``# reprolint: ignore[rule-id]``.

A finding is suppressed when a suppression comment sits on the flagged
line, or stands alone on the line directly above it (for spans inside
multi-line expressions, where the flagged line is the start of the
call).  ``# reprolint: ignore`` with no bracket suppresses every rule on
that line; ``# reprolint: ignore[rule-a,rule-b]`` suppresses exactly the
named rules.  Unknown rule ids in the bracket are tolerated (they simply
never match), so a rule rename never crashes the lint run; a tier-1 test
checks that every suppression in the repo names a registered rule.
"""

from __future__ import annotations

import io
import re
import tokenize

__all__ = ["SuppressionIndex", "scan_suppressions", "SUPPRESS_ALL"]

#: sentinel rule id meaning "every rule" (bare ``# reprolint: ignore``)
SUPPRESS_ALL = "*"

_PATTERN = re.compile(
    r"#\s*reprolint:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_\-, ]+)\])?"
)


class SuppressionIndex:
    """Which rule ids are suppressed on which (1-based) source lines."""

    __slots__ = ("_by_line",)

    def __init__(self) -> None:
        self._by_line: dict[int, set[str]] = {}

    def add(self, line: int, rules: set[str]) -> None:
        self._by_line.setdefault(line, set()).update(rules)

    def is_suppressed(self, rule: str, line: int) -> bool:
        rules = self._by_line.get(line)
        if rules is None:
            return False
        return SUPPRESS_ALL in rules or rule in rules

    def __len__(self) -> int:
        return len(self._by_line)


def _parse_comment(comment: str) -> set[str] | None:
    match = _PATTERN.search(comment)
    if match is None:
        return None
    rules = match.group("rules")
    if rules is None:
        return {SUPPRESS_ALL}
    return {r.strip() for r in rules.split(",") if r.strip()}


def scan_suppressions(source: str) -> SuppressionIndex:
    """Tokenise ``source`` and build its suppression index.

    A comment that shares its line with code applies to that line; a
    comment alone on its line applies to the following line as well (the
    conventional way to suppress a finding inside a multi-line call).
    Raises ``tokenize.TokenizeError``/``SyntaxError`` on unparsable
    input — callers fold that into a parse failure.
    """
    index = SuppressionIndex()
    lines = source.splitlines()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type != tokenize.COMMENT:
            continue
        rules = _parse_comment(token.string)
        if rules is None:
            continue
        line = token.start[0]
        index.add(line, rules)
        text_before = lines[line - 1][: token.start[1]] if line <= len(lines) else ""
        if not text_before.strip():  # standalone comment: covers the next line
            index.add(line + 1, rules)
    return index
