"""Tests for the analysis helpers (bounds, fits, sweeps, tables)."""

import os
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.analysis import (
    bounds,
    fit_loglog,
    format_table,
    growth_ratios,
    sweep,
)


class TestBounds:
    def test_lg_clamps(self):
        assert bounds.lg(1) == 1.0
        assert bounds.lg(0.5) == 1.0
        assert bounds.lg(1024) == 10.0

    def test_theorem1(self):
        assert bounds.theorem1_cycles(3.0, 256) == 2 * 3 * 8

    def test_corollary2(self):
        assert bounds.corollary2_cycles(5.0, 2.0) == 2 * 10
        with pytest.raises(ValueError):
            bounds.corollary2_cycles(1.0, 1.0)

    def test_theorem10_cube_log(self):
        assert bounds.theorem10_slowdown(256, 1.0) == 8 ** 3

    def test_corollary9(self):
        assert bounds.corollary9_blowup(2.0) == 8.0
        with pytest.raises(ValueError):
            bounds.corollary9_blowup(3.0)

    def test_volume_comparisons(self):
        n = 1024
        assert bounds.hypercube_volume(n) == n ** 1.5
        assert bounds.planar_volume(n) == n

    def test_theorem5(self):
        assert bounds.theorem5_decay() == pytest.approx(4 ** (1 / 3))
        assert bounds.theorem5_root_bandwidth(1000.0, 1.0) == pytest.approx(100.0)


class TestFit:
    def test_recovers_exponent(self):
        xs = [2 ** k for k in range(4, 12)]
        ys = [7.0 * x ** 1.5 for x in xs]
        fit = fit_loglog(xs, ys)
        assert fit.slope == pytest.approx(1.5)
        assert fit.r_squared == pytest.approx(1.0)

    def test_predict(self):
        fit = fit_loglog([1, 2, 4, 8], [3, 6, 12, 24])
        assert fit.predict(16) == pytest.approx(48.0)

    def test_noisy_data_r2_below_one(self):
        rng = np.random.default_rng(0)
        xs = np.arange(10, 100, 10)
        ys = xs ** 2.0 * rng.uniform(0.8, 1.2, xs.size)
        fit = fit_loglog(xs, ys)
        assert 1.8 < fit.slope < 2.2
        assert fit.r_squared < 1.0

    def test_validates_input(self):
        with pytest.raises(ValueError):
            fit_loglog([1], [1])
        with pytest.raises(ValueError):
            fit_loglog([1, 0], [1, 1])

    def test_growth_ratios(self):
        assert growth_ratios([1, 2, 4]) == [2.0, 2.0]
        with pytest.raises(ValueError):
            growth_ratios([1, 0])


def _double(n):
    """Module-level so the process-pool sweep can pickle it."""
    return {"double": 2 * n}


def _fail_on_two(n):
    if n == 2:
        raise RuntimeError("boom")
    return {"double": 2 * n}


def _mark_and_sleep(tag, outdir, fail):
    """Leave a marker file proving this parameter set started running."""
    (outdir / f"ran-{tag}").touch()
    if fail:
        raise RuntimeError(f"boom at {tag}")
    time.sleep(0.3)
    return {"tag": tag}


def _crash_run(n):
    """Kills its pool worker outright, as a segfault or OOM kill would."""
    os._exit(1)


def _global_rng_draw(seed, n):
    """Deliberately draws from the *global* RNGs.

    This is the regression target for sweep's per-parameter-set
    re-seeding: forked pool workers inherit the parent's global RNG
    state, so without re-seeding these rows would depend on which worker
    ran them.  (Library code must never do this — the rng-discipline
    lint rule bans it — but sweep guards against third-party callables
    that do.)
    """
    import random

    return {
        "py": random.random(),
        "np": float(np.random.random()),
        "draws": int(np.random.randint(0, 1000, size=n).sum()),
    }


class TestSweepAndTables:
    def test_sweep_merges_params_and_results(self):
        rows = sweep(lambda n: {"double": 2 * n}, [{"n": 1}, {"n": 3}])
        assert rows == [{"n": 1, "double": 2}, {"n": 3, "double": 6}]

    def test_parallel_sweep_matches_serial_in_order(self):
        params = [{"n": i} for i in range(8)]
        assert sweep(_double, params, n_jobs=2) == sweep(_double, params)

    def test_serial_error_capture(self):
        rows = sweep(
            _fail_on_two, [{"n": 1}, {"n": 2}, {"n": 3}], on_error="capture"
        )
        assert rows[0] == {"n": 1, "double": 2}
        assert rows[1] == {"n": 2, "error": "RuntimeError: boom"}
        assert rows[2] == {"n": 3, "double": 6}

    def test_parallel_error_capture(self):
        rows = sweep(
            _fail_on_two,
            [{"n": 1}, {"n": 2}, {"n": 3}],
            n_jobs=2,
            on_error="capture",
        )
        assert rows[1]["error"] == "RuntimeError: boom"
        assert rows[2] == {"n": 3, "double": 6}

    def test_error_raises_by_default(self):
        with pytest.raises(RuntimeError):
            sweep(_fail_on_two, [{"n": 2}])

    def test_parallel_error_raises(self):
        with pytest.raises(RuntimeError, match="boom"):
            sweep(_fail_on_two, [{"n": 1}, {"n": 2}, {"n": 3}], n_jobs=2)

    def test_parallel_raise_cancels_pending_param_sets(self, tmp_path):
        """An early failure with on_error="raise" must not run the whole
        remaining sweep: parameter sets that have not started when the
        exception propagates are cancelled, not drained."""
        total = 16
        params = [
            {"tag": i, "outdir": tmp_path, "fail": i == 0} for i in range(total)
        ]
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="boom at 0"):
            sweep(_mark_and_sleep, params, n_jobs=2)
        elapsed = time.monotonic() - t0
        started = len(list(tmp_path.glob("ran-*")))
        assert started >= 1  # the failing set certainly ran
        # only in-flight and already-queued sets may have started; running
        # all 15 survivors at 0.3 s each on 2 workers would take > 2 s
        assert started < total
        assert elapsed < 2.0

    def test_parallel_worker_crash_captured(self):
        """A worker dying hard breaks the pool; ``on_error="capture"``
        turns every unfinished run into an error row instead of
        propagating ``BrokenProcessPool``."""
        params = [{"n": i} for i in range(6)]
        rows = sweep(_crash_run, params, n_jobs=2, on_error="capture")
        assert len(rows) == len(params)
        assert all("error" in row for row in rows)
        assert all(row["error"].startswith("BrokenProcessPool") for row in rows)

    def test_parallel_worker_crash_raises(self):
        params = [{"n": i} for i in range(6)]
        with pytest.raises(BrokenProcessPool):
            sweep(_crash_run, params, n_jobs=2, on_error="raise")

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            sweep(_double, [], on_error="ignore")
        with pytest.raises(ValueError):
            sweep(_double, [], n_jobs=0)

    def test_parallel_global_rng_matches_serial(self):
        # Regression: forked workers inherit the parent's global RNG
        # state, so before per-parameter-set re-seeding these rows
        # depended on worker scheduling.  With it, parallel == serial,
        # row for row.
        params = [{"seed": s, "n": 8} for s in range(6)]
        serial = sweep(_global_rng_draw, params)
        parallel = sweep(_global_rng_draw, params, n_jobs=2)
        assert parallel == serial

    def test_reseeded_rows_are_pure_functions_of_their_seed(self):
        params = [{"seed": 7, "n": 4}]
        assert sweep(_global_rng_draw, params) == sweep(_global_rng_draw, params)

    def test_sweep_without_seed_param_leaves_global_rng_alone(self):
        import random

        random.seed(12345)
        before = random.getstate()
        sweep(_double, [{"n": 1}])
        assert random.getstate() == before

    def test_format_table_alignment(self):
        out = format_table(
            [{"n": 64, "lam": 1.5}, {"n": 1024, "lam": 12.25}],
            title="demo",
        )
        lines = out.splitlines()
        assert lines[0] == "demo"
        assert "1024" in lines[4]
        assert all(len(l) == len(lines[1]) for l in lines[2:])

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])

    def test_format_table_floats(self):
        out = format_table([{"x": 0.000123, "y": 123456.0, "z": True}])
        assert "0.000123" in out and "yes" in out

    def test_column_selection(self):
        out = format_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in out.splitlines()[0]
