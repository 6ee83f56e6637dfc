"""Tier-2 (``--project``) lint tests.

The demonstrated-catch tests are the PR's acceptance evidence: each one
copies the real ``src/repro`` tree, re-injects a bug class that actually
shipped in PRs 6–8 (or a fresh violation of the same seam), runs the
whole-program lint, and asserts the exact rule id, file and line of the
finding.  The remaining classes cover the engine edge cases: suppression
comments on decorated/async defs, per-rule suppression scoping across
project rules, baseline round-trips, and aliased relative-import call
graph resolution.
"""

import ast
import os
import shutil

from repro.lint import (
    Baseline,
    Finding,
    ModuleContext,
    ProjectContext,
    lint_paths,
    lint_source,
    load_baseline,
    write_baseline,
)

REPO_SRC = os.path.normpath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src")
)


def copy_tree(tmp_path):
    """Copy the real package into tmp, preserving the ``src/repro``
    layout that :func:`~repro.lint.context.infer_module_name` keys off."""
    root = tmp_path / "src"
    shutil.copytree(
        os.path.join(REPO_SRC, "repro"),
        root / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    return root


def mutate(root, rel, old, new):
    """Replace ``old`` (asserted unique) with ``new`` in one file."""
    path = root / "repro" / rel
    text = path.read_text()
    assert text.count(old) == 1, f"expected exactly one {old!r} in {rel}"
    path.write_text(text.replace(old, new))
    return path


def line_of(path, needle):
    """1-based line number of the unique line containing ``needle``."""
    hits = [
        i
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if needle in line
    ]
    assert len(hits) == 1, f"{needle!r} matched lines {hits} in {path}"
    return hits[0]


def project_lint(root, rule):
    result = lint_paths([str(root)], rule_ids=[rule], project=True)
    assert result.parse_failures == []
    return result


def locations(result):
    return {(f.rule, os.path.basename(f.path), f.line) for f in result.findings}


class TestDemonstratedCatch:
    """Re-inject each historical bug; the matching rule must name it."""

    def test_pickle_boundary_catches_the_pr8_getstate_bug(self, tmp_path):
        # PR 8 shipped __getstate__ without excluding the setattr-stashed
        # path-index LRU; warm caches rode inside every pickled tree.
        root = copy_tree(tmp_path)
        fattree = mutate(
            root,
            os.path.join("core", "fattree.py"),
            '("_path_index_cache", "_capacity_fp")',
            '("_capacity_fp",)',
        )
        result = project_lint(root, "pickle-boundary")
        assert result.exit_code == 3
        assert (
            "pickle-boundary",
            "fattree.py",
            line_of(fattree, "def __getstate__"),
        ) in locations(result)
        assert all(f.rule == "pickle-boundary" for f in result.findings)
        assert "'_path_index_cache'" in result.findings[0].message

    def test_cache_invalidation_catches_the_pr6_fingerprint_bug(self, tmp_path):
        # PR 6 shipped a capacity mutation that skipped the fingerprint
        # fold; the path-index cache served routes for dead capacities.
        root = copy_tree(tmp_path)
        degraded = mutate(
            root,
            os.path.join("faults", "degraded.py"),
            "        fold_capacity_fingerprint(self, h.digest())\n",
            "",
        )
        result = project_lint(root, "cache-invalidation")
        assert result.exit_code == 3
        assert (
            "cache-invalidation",
            "degraded.py",
            line_of(degraded, "self._eff[key] = vec"),
        ) in locations(result)
        assert "fingerprint" in result.findings[0].message

    def test_async_blocking_catches_sleep_and_result_in_serve(self, tmp_path):
        root = copy_tree(tmp_path)
        daemon = root / "repro" / "serve" / "daemon.py"
        daemon.write_text(
            daemon.read_text()
            + "\n\nasync def _lint_probe(fut) -> None:\n"
            "    import time\n\n"
            "    time.sleep(0.5)\n"
            "    fut.result()\n"
        )
        result = project_lint(root, "async-blocking")
        assert result.exit_code == 3
        assert locations(result) == {
            ("async-blocking", "daemon.py", line_of(daemon, "time.sleep(0.5)")),
            ("async-blocking", "daemon.py", line_of(daemon, "fut.result()")),
        }
        by_line = {f.line: f.message for f in result.findings}
        assert "time.sleep" in by_line[line_of(daemon, "time.sleep(0.5)")]
        assert "_lint_probe" in by_line[line_of(daemon, "time.sleep(0.5)")]

    def test_obs_rng_flow_catches_dead_knob_entropy_and_missing_obs(
        self, tmp_path
    ):
        # Three legs of the interprocedural successor to tier-1
        # obs-threading/rng-discipline: a dead seed= knob, an OS-entropy
        # RNG at module scope, and an entry point that reaches
        # resolve_obs through the call graph without accepting obs=.
        root = copy_tree(tmp_path)
        probe = root / "repro" / "workloads" / "probe_lint.py"
        probe.write_text(
            '"""Lint probe (test-injected)."""\n\n'
            "import numpy as np\n\n"
            "_RNG = np.random.default_rng()\n\n\n"
            "def run_probe_dead_knob(n, *, seed=0):\n"
            "    return int(n)\n\n\n"
            "def run_probe_chained(ft, ms):\n"
            "    from ..core.greedy import schedule_greedy_first_fit\n\n"
            "    return schedule_greedy_first_fit(ft, ms)\n"
        )
        result = project_lint(root, "obs-rng-flow")
        assert result.exit_code == 3
        assert locations(result) == {
            (
                "obs-rng-flow",
                "probe_lint.py",
                line_of(probe, "_RNG = np.random.default_rng()"),
            ),
            (
                "obs-rng-flow",
                "probe_lint.py",
                line_of(probe, "def run_probe_dead_knob"),
            ),
            (
                "obs-rng-flow",
                "probe_lint.py",
                line_of(probe, "def run_probe_chained"),
            ),
        }
        by_line = {f.line: f.message for f in result.findings}
        assert "seed=" in by_line[line_of(probe, "def run_probe_dead_knob")]
        assert (
            "resolve_obs" in by_line[line_of(probe, "def run_probe_chained")]
        )


class TestProjectSuppression:
    """Project findings honour each file's own suppression comments."""

    def test_matching_ignore_silences_wrong_rule_does_not(self, tmp_path):
        root = copy_tree(tmp_path)
        daemon = root / "repro" / "serve" / "daemon.py"
        daemon.write_text(
            daemon.read_text()
            + "\n\nasync def _lint_probe(fut) -> None:\n"
            "    import time\n\n"
            "    time.sleep(0.5)  # reprolint: ignore[async-blocking]\n"
            "    fut.result()  # reprolint: ignore[pickle-boundary]\n"
        )
        result = project_lint(root, "async-blocking")
        # the sleep is suppressed by the right rule id; the result() call
        # carries an ignore for a *different* rule and must still fire
        assert locations(result) == {
            ("async-blocking", "daemon.py", line_of(daemon, "fut.result()")),
        }
        assert result.suppressed >= 1

    def test_standalone_ignore_between_decorator_and_def(self):
        src = (
            "import functools\n\n"
            "@functools.lru_cache\n"
            "# reprolint: ignore[mutable-default]\n"
            "def f(a=[]):\n"
            "    return a\n"
        )
        result = lint_source(src, module="repro.core.tmpmod")
        assert result.findings == []
        assert result.suppressed == 1

    def test_same_line_ignore_on_async_def(self):
        src = (
            "async def f(a=[]):  # reprolint: ignore[mutable-default]\n"
            "    return a\n"
        )
        result = lint_source(src, module="repro.core.tmpmod")
        assert result.findings == []
        assert result.suppressed == 1


class TestBaseline:
    def test_round_trip_keys_on_message_not_line(self, tmp_path):
        finding = Finding(
            rule="async-blocking",
            path="src/repro/serve/daemon.py",
            line=10,
            col=4,
            message="blocking call time.sleep inside async def handle()",
        )
        path = tmp_path / "baseline.json"
        written = write_baseline(str(path), [finding])
        assert len(written) == 1
        loaded = load_baseline(str(path))
        assert finding in loaded
        # same finding at a shifted line (unrelated edit) stays baselined
        moved = Finding(
            rule=finding.rule,
            path="./src/repro/serve/daemon.py",
            line=999,
            col=0,
            message=finding.message,
        )
        assert moved in loaded
        # a changed message (the code changed materially) resurfaces
        changed = Finding(
            rule=finding.rule,
            path=finding.path,
            line=finding.line,
            col=finding.col,
            message="blocking call os.system inside async def handle()",
        )
        assert changed not in loaded

    def test_empty_baseline_subtracts_nothing(self):
        result = lint_source("def f(a=[]):\n    return a\n")
        empty = Baseline()
        assert len(empty) == 0
        assert result.findings[0] not in empty

    def test_baselined_project_findings_do_not_fail_the_run(self, tmp_path):
        root = copy_tree(tmp_path)
        daemon = root / "repro" / "serve" / "daemon.py"
        daemon.write_text(
            daemon.read_text()
            + "\n\nasync def _lint_probe() -> None:\n"
            "    import time\n\n"
            "    time.sleep(0.5)\n"
        )
        first = project_lint(root, "async-blocking")
        assert first.exit_code == 3
        baseline_path = tmp_path / "baseline.json"
        write_baseline(str(baseline_path), first.findings)
        again = lint_paths(
            [str(root)],
            rule_ids=["async-blocking"],
            project=True,
            baseline=load_baseline(str(baseline_path)),
        )
        assert again.findings == []
        assert again.baselined == len(first.findings) == 1
        assert again.exit_code == 0


def _ctx(module, source, *, package=False):
    rel = module.replace(".", "/") + ("/__init__.py" if package else ".py")
    return ModuleContext("src/" + rel, source, ast.parse(source), module)


class TestCallGraphResolution:
    """Aliased and relative imports resolve to defining qualnames."""

    def test_aliased_relative_imports_and_reexports(self):
        impl = _ctx(
            "repro.pkgx.impl",
            "def target():\n    return 1\n",
        )
        package = _ctx(
            "repro.pkgx",
            "from .impl import target as exported\n",
            package=True,
        )
        user = _ctx(
            "repro.pkgx.user",
            "from . import impl as im\n"
            "from .impl import target as aliased\n"
            "from repro.pkgx import exported as chained\n\n\n"
            "def caller():\n"
            "    aliased()\n"
            "    im.target()\n"
            "    chained()\n",
        )
        project = ProjectContext([impl, package, user])
        # all three spellings collapse onto the one defining qualname
        assert project.calls["repro.pkgx.user.caller"] == {
            "repro.pkgx.impl.target"
        }
        # package-level re-export chases through __init__'s import table
        assert (
            project.resolve_symbol("repro.pkgx.exported")
            == "repro.pkgx.impl.target"
        )
        assert project.reachable(["repro.pkgx.user.caller"]) == {
            "repro.pkgx.user.caller",
            "repro.pkgx.impl.target",
        }

    def test_real_package_reexport_resolves(self):
        # the smoke case from the repo itself: the repro.core package
        # re-export resolves to the defining module
        with open(
            os.path.join(REPO_SRC, "repro", "core", "__init__.py"),
            encoding="utf-8",
        ) as fh:
            init_src = fh.read()
        with open(
            os.path.join(REPO_SRC, "repro", "core", "greedy.py"),
            encoding="utf-8",
        ) as fh:
            greedy_src = fh.read()
        project = ProjectContext(
            [
                _ctx("repro.core", init_src, package=True),
                _ctx("repro.core.greedy", greedy_src),
            ]
        )
        assert (
            project.resolve_symbol("repro.core.schedule_greedy_first_fit")
            == "repro.core.greedy.schedule_greedy_first_fit"
        )


class TestProjectSelfHost:
    def test_src_tree_is_project_lint_clean(self):
        """CI's tier-2 zero-tolerance gate, run in-process: the package
        source must carry no project findings either."""
        result = lint_paths([REPO_SRC], project=True)
        assert result.parse_failures == []
        assert [f.format() for f in result.findings] == []
        assert result.exit_code == 0
