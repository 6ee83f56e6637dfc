"""Light intraprocedural dataflow helpers for the project-level rules.

Nothing here is a real abstract interpreter: the helpers answer the few
structural questions the tier-2 rules need — *which statements belong to
a function's own scope*, *which attributes does a function write*,
*which string literals does a subtree mention* — with syntactic
approximations.

Scope discipline matches :mod:`repro.lint.rules`: :func:`walk_scope`
yields a function's own statements without descending into nested
``def`` bodies, which are scopes (and :class:`FunctionInfo` entries) of
their own.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

__all__ = [
    "attribute_writes",
    "collect_str_constants",
    "walk_scope",
]


def walk_scope(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk a scope without descending into nested function scopes.

    A nested ``def``/``async def``/``lambda`` statement is itself
    yielded (it *is* a statement of this scope) but its body belongs to
    the inner scope and is skipped.  Class bodies *are* descended into:
    a class statement introduces a namespace, not a control-flow scope,
    and method defs inside it are then skipped by the same test.
    """
    body = (
        scope.body
        if isinstance(scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef))
        else [scope]
    )
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def collect_str_constants(node: ast.AST) -> set[str]:
    """Every string literal in the subtree (docstrings included)."""
    return {
        n.value
        for n in ast.walk(node)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
    }


def attribute_writes(scope: ast.AST, *, receiver: str = "self") -> list[ast.AST]:
    """Assignment targets of the form ``<receiver>.attr`` or
    ``<receiver>.attr[...]`` in the scope (augmented assignments too).

    Returns the target nodes; callers read ``.attr`` off the
    :class:`ast.Attribute` (for subscripts, off ``.value``).
    """
    out: list[ast.AST] = []
    for node in walk_scope(scope):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            for leaf in _flatten_targets(target):
                attr = leaf
                if isinstance(attr, ast.Subscript):
                    attr = attr.value
                if (
                    isinstance(attr, ast.Attribute)
                    and isinstance(attr.value, ast.Name)
                    and attr.value.id == receiver
                ):
                    out.append(leaf)
    return out


def _flatten_targets(target: ast.expr) -> Iterator[ast.expr]:
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _flatten_targets(elt)
    else:
        yield target
