"""Tier-2 rules: whole-program invariants over the project call graph.

Each rule here encodes a bug class that actually shipped in PRs 6–8 —
a module-local linter cannot see any of them, because each one lives in
the *seam* between modules:

``pickle-boundary``
    Any class whose instances get derived caches stashed onto them via
    ``setattr`` (the :mod:`repro.perf.pathindex` LRU and capacity
    fingerprint) must exclude those attributes in ``__getstate__``
    whenever the project ships instances across a
    ``ProcessPoolExecutor.submit`` boundary.  The PR 8 bug: warm
    path-index LRUs rode inside pickled trees into every shard worker.
``async-blocking``
    No blocking call — ``time.sleep``, blocking ``subprocess``, sync
    stdout writes, ``open``, ``Future.result()`` — may be reachable
    through the call graph from an ``async def`` in ``repro.serve``.
    One blocked event loop stalls every in-flight request.
``cache-invalidation``
    Any method of a :class:`~repro.core.fattree.FatTree` subclass that
    mutates effective-capacity state (``self._eff`` /
    ``self._effective``) must reach a fingerprint sink
    (``fold_capacity_fingerprint`` / ``invalidate_capacity_fingerprint``
    / ``clear_path_index_cache``) or the path-index cache serves routes
    for capacities that no longer exist — the PR 6 bug.
``obs-rng-flow``
    Public entry points (``schedule_*`` / ``simulate_*`` / ``run_*`` /
    ``batch_*``) on the observability path must accept **and** forward
    ``obs=``.  The path is derived, not listed: an entry point is on it
    when its module calls :func:`repro.obs.resolve_obs` or its call
    graph reaches it.  A ``seed=``/``rng=`` parameter that is accepted
    but never read is a finding too (dead knob, silently
    unreproducible).

Rules self-register in :data:`PROJECT_RULES`; they run only under
``repro lint --project``, which builds the :class:`ProjectContext` the
``check_project`` hook consumes.  Suppression comments work exactly as
for tier-1 rules — a ``# reprolint: ignore[async-blocking]`` on (or
above) the flagged line silences it in its own file.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from .context import ModuleContext
from .dataflow import attribute_writes, collect_str_constants, walk_scope
from .findings import Finding
from .project import ClassInfo, FunctionInfo, ProjectContext
from .rules import Rule, _walk_scope

__all__ = [
    "ProjectRule",
    "PROJECT_RULES",
    "register_project_rule",
    "all_project_rule_ids",
]


class ProjectRule(Rule):
    """Base class: one whole-program invariant.

    Shares ``id``, ``summary`` and :meth:`~repro.lint.rules.Rule.finding`
    with :class:`~repro.lint.rules.Rule`, but the engine calls
    :meth:`check_project` on a :class:`ProjectContext` instead of
    ``check`` on one module — findings may land in any file of the
    project.
    """

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        raise NotImplementedError


PROJECT_RULES: dict[str, ProjectRule] = {}


def register_project_rule(cls: type[ProjectRule]) -> type[ProjectRule]:
    """Class decorator adding a project rule to the tier-2 registry."""
    rule = cls()
    if not rule.id:
        raise ValueError(f"{cls.__name__} has no rule id")
    PROJECT_RULES[rule.id] = rule
    return cls


def all_project_rule_ids() -> list[str]:
    """The registered project rule ids, sorted."""
    return sorted(PROJECT_RULES)


def _module_str_constants(ctx: ModuleContext) -> dict[str, str]:
    """Module-level ``NAME = "literal"`` string constants by name."""
    out: dict[str, str] = {}
    for stmt in ctx.tree.body:
        target: ast.expr | None = None
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            target, value = stmt.target, stmt.value
        if (
            isinstance(target, ast.Name)
            and isinstance(value, ast.Constant)
            and isinstance(value.value, str)
        ):
            out[target.id] = value.value
    return out


# -- pickle-boundary ---------------------------------------------------------

_POOL_EXECUTOR = "concurrent.futures.ProcessPoolExecutor"


@register_project_rule
class PickleBoundaryRule(ProjectRule):
    id = "pickle-boundary"
    summary = (
        "classes carrying setattr-stashed derived caches must exclude "
        "them in __getstate__ when instances cross a ProcessPool boundary"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        stashed = self._stashed_attrs(project)
        if not stashed or not self._has_pool_boundary(project):
            return
        reported: set[str] = set()
        for cls_qual, attrs in sorted(stashed.items()):
            base = project.classes.get(cls_qual)
            if base is None:
                continue
            for cls in [base] + project.subclasses(cls_qual):
                getstate = project.find_method(cls, "__getstate__")
                if getstate is None:
                    if cls.qualname in reported:
                        continue
                    reported.add(cls.qualname)
                    yield self.finding(
                        cls.ctx,
                        cls.node,
                        f"instances of {cls.node.name} cross a ProcessPool "
                        f"pickle boundary with stashed cache attribute(s) "
                        f"{sorted(attrs)} but the class defines no "
                        f"__getstate__ to exclude them",
                    )
                    continue
                if getstate.qualname in reported:
                    continue
                excluded = self._excluded_names(project, cls, getstate)
                missing = sorted(a for a in attrs if a not in excluded)
                if missing:
                    reported.add(getstate.qualname)
                    yield self.finding(
                        getstate.ctx,
                        getstate.node,
                        f"__getstate__ of {cls.node.name} does not exclude "
                        f"stashed cache attribute(s) {missing}; warm caches "
                        f"will ride inside every pickled instance across "
                        f"the ProcessPool boundary",
                    )

    def _stashed_attrs(self, project: ProjectContext) -> dict[str, set[str]]:
        """Class qualname -> private attrs stashed onto its instances
        via ``setattr(obj, KEY, ...)`` with a module-constant key."""
        out: dict[str, set[str]] = {}
        consts_cache: dict[str, dict[str, str]] = {}
        for info in project.functions.values():
            consts = consts_cache.setdefault(
                info.module, _module_str_constants(info.ctx)
            )
            for node in walk_scope(info.node):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "setattr"
                    and len(node.args) >= 3
                ):
                    continue
                target, key = node.args[0], node.args[1]
                attr: str | None = None
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    attr = key.value
                elif isinstance(key, ast.Name):
                    attr = consts.get(key.id)
                if attr is None or not attr.startswith("_"):
                    continue
                if not isinstance(target, ast.Name):
                    continue
                cls_qual: str | None = None
                if target.id in info.param_names():
                    annotation = info.param_annotation(target.id)
                    if annotation is not None:
                        cls_qual = project.resolve_annotation(
                            annotation, info.ctx
                        )
                if cls_qual is not None and cls_qual in project.classes:
                    out.setdefault(cls_qual, set()).add(attr)
        return out

    def _has_pool_boundary(self, project: ProjectContext) -> bool:
        for info in project.functions.values():
            for node in walk_scope(info.node):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "submit"
                    and project.receiver_type(info, node.func.value)
                    == _POOL_EXECUTOR
                ):
                    return True
        return False

    def _excluded_names(
        self, project: ProjectContext, cls: ClassInfo, getstate: FunctionInfo
    ) -> set[str]:
        """Attribute names ``__getstate__`` excludes: string literals in
        its body plus the contents of any class-level string tuple it
        references (``self._EPHEMERAL_ATTRS``-style)."""
        excluded = collect_str_constants(getstate.node)
        tuples: dict[str, tuple[str, ...]] = {}
        for ancestor in project.mro(cls):
            for name, values in ancestor.str_tuples.items():
                tuples.setdefault(name, values)
        for node in ast.walk(getstate.node):
            name = None
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            if name is not None and name in tuples:
                excluded.update(tuples[name])
        return excluded


# -- async-blocking ----------------------------------------------------------

#: canonical call names that block the thread (and with it the loop)
_BLOCKING_CALLS = {
    "time.sleep",
    "os.system",
    "os.popen",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "subprocess.getoutput",
    "subprocess.getstatusoutput",
    "subprocess.Popen",
    "sys.stdout.write",
    "sys.stdout.flush",
}


@register_project_rule
class AsyncBlockingRule(ProjectRule):
    id = "async-blocking"
    summary = (
        "no blocking call (time.sleep/subprocess/sync stdout/open/"
        "Future.result) reachable from an async def in repro.serve"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        roots = [
            qual
            for qual, info in project.functions.items()
            if info.module.startswith("repro.serve") and info.is_async
        ]
        async_roots = set(roots)
        for qual in sorted(
            project.reachable(roots, module_prefix="repro.serve")
        ):
            info = project.functions[qual]
            where = (
                f"inside async def {info.name}()"
                if qual in async_roots
                else f"in {info.name}(), which is reachable from the "
                f"repro.serve event loop"
            )
            for node in walk_scope(info.node):
                if not isinstance(node, ast.Call):
                    continue
                label = self._blocking_label(info, node)
                if label is not None:
                    yield self.finding(
                        info.ctx,
                        node,
                        f"blocking call {label} {where}; it stalls every "
                        f"in-flight request — use the asyncio equivalent "
                        f"or run_in_executor",
                    )

    def _blocking_label(
        self, info: FunctionInfo, node: ast.Call
    ) -> str | None:
        canonical = info.ctx.resolve_call(node)
        if canonical in _BLOCKING_CALLS:
            return canonical
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id == "open"
            and "open" not in info.ctx.imports
        ):
            return "open()"
        if isinstance(func, ast.Attribute) and func.attr == "result":
            # Future.result() parks the loop thread on the pool —
            # asyncio.wrap_future is the non-blocking bridge
            return f"{ast.unparse(func)}()"
        return None


# -- cache-invalidation ------------------------------------------------------

_FATTREE = "repro.core.fattree.FatTree"
_CAPACITY_ATTRS = {"_eff", "_effective"}
_FP_SINKS = {
    "fold_capacity_fingerprint",
    "invalidate_capacity_fingerprint",
    "clear_path_index_cache",
}
#: constructors/unpicklers build state from scratch; nothing stale exists
_INVALIDATION_EXEMPT = {"__init__", "__setstate__"}


@register_project_rule
class CacheInvalidationRule(ProjectRule):
    id = "cache-invalidation"
    summary = (
        "FatTree methods mutating effective capacities must fold or "
        "invalidate the capacity fingerprint"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for cls in sorted(project.classes.values(), key=lambda c: c.qualname):
            if not any(a.qualname == _FATTREE for a in project.mro(cls)):
                continue
            for name, method in sorted(cls.methods.items()):
                if name in _INVALIDATION_EXEMPT:
                    continue
                for target in attribute_writes(method.node):
                    attr_node = target
                    if isinstance(attr_node, ast.Subscript):
                        attr_node = attr_node.value
                    assert isinstance(attr_node, ast.Attribute)
                    if attr_node.attr not in _CAPACITY_ATTRS:
                        continue
                    if self._reaches_sink(project, method):
                        continue
                    if self._setter_invalidates(project, cls, attr_node.attr):
                        continue
                    yield self.finding(
                        method.ctx,
                        target,
                        f"{name}() mutates capacity state "
                        f"self.{attr_node.attr} without reaching a "
                        f"fingerprint sink ({'/'.join(sorted(_FP_SINKS))}); "
                        f"the path-index cache will serve routes for "
                        f"capacities that no longer exist",
                    )

    def _reaches_sink(
        self, project: ProjectContext, method: FunctionInfo
    ) -> bool:
        for qual in project.reachable([method.qualname]):
            if qual.rsplit(".", 1)[-1] in _FP_SINKS:
                return True
            info = project.functions[qual]
            for node in walk_scope(info.node):
                if isinstance(node, ast.Call):
                    canonical = info.ctx.resolve_call(node)
                    if (
                        canonical is not None
                        and canonical.rsplit(".", 1)[-1] in _FP_SINKS
                    ):
                        return True
        return False

    def _setter_invalidates(
        self, project: ProjectContext, cls: ClassInfo, attr: str
    ) -> bool:
        """A write through a property whose setter reaches a sink is
        already covered — the setter runs on every assignment."""
        setter = project.find_method(cls, attr)
        if setter is None or not any(
            isinstance(d, ast.Attribute) and d.attr == "setter"
            for d in setter.node.decorator_list
        ):
            return False
        return self._reaches_sink(project, setter)


# -- obs-rng-flow ------------------------------------------------------------

_RESOLVE_OBS = "repro.obs.resolve_obs"
_ENTRY_POINT_PREFIXES = ("schedule_", "simulate_", "run_", "batch_")


@register_project_rule
class ObsRngFlowRule(ProjectRule):
    id = "obs-rng-flow"
    summary = (
        "public entry points in a module that calls resolve_obs, or whose "
        "call graph reaches it, must accept and forward obs=; no dead "
        "seed=/rng= parameters"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        obs_callers = {
            qual
            for qual, info in project.functions.items()
            if any(
                isinstance(node, ast.Call)
                and info.ctx.resolve_call(node) == _RESOLVE_OBS
                for node in walk_scope(info.node)
            )
        }
        obs_modules = {project.functions[qual].module for qual in obs_callers}
        obs_sinks = obs_callers | {_RESOLVE_OBS}
        for qual in sorted(project.functions):
            info = project.functions[qual]
            if info.cls is not None or info.parent is not None:
                continue
            name = info.name
            if name.startswith("_") or not name.startswith(
                _ENTRY_POINT_PREFIXES
            ):
                continue
            params = info.param_names()
            for knob in ("seed", "rng"):
                if knob in params and not _uses_name(info.node, knob):
                    yield self.finding(
                        info.ctx,
                        info.node,
                        f"{name}() accepts {knob}= but never reads it; a "
                        f"dead determinism knob is silently "
                        f"unreproducible behaviour",
                    )
            if info.module not in obs_modules and not (
                project.reachable([qual]) & obs_sinks
            ):
                continue
            if "obs" not in params:
                yield self.finding(
                    info.ctx,
                    info.node,
                    f"public entry point {name}() does not accept obs=, but "
                    f"its module or its call graph reaches resolve_obs; "
                    f"callers cannot thread observability through it",
                )
            elif not _uses_name(info.node, "obs"):
                yield self.finding(
                    info.ctx,
                    info.node,
                    f"{name}() accepts obs= but never forwards it "
                    f"(resolve_obs(obs) or pass obs= downstream)",
                )


def _uses_name(fn: ast.FunctionDef | ast.AsyncFunctionDef, target: str) -> bool:
    """Whether ``fn``'s own scope reads ``target`` or passes ``target=``."""
    for node in _walk_scope(fn):
        if isinstance(node, ast.Name) and node.id == target and isinstance(
            node.ctx, ast.Load
        ):
            return True
        if isinstance(node, ast.Call) and any(
            kw.arg == target for kw in node.keywords
        ):
            return True
    return False
