"""Parameter-sweep runner producing row-oriented results.

:func:`sweep` is how the benches regenerate their experiment tables: one
callable, many parameter sets, one merged row per run.  ``n_jobs`` fans
the runs out over a ``ProcessPoolExecutor`` — parameter sets are
independent by construction, so sweeps scale with cores — while results
are merged back **in input order** regardless of completion order, so a
parallel sweep produces byte-identical tables to a serial one.  A
parameter set that declares an integer ``seed`` additionally has the
global RNGs re-seeded from it before the run on both the serial and the
worker path (:func:`_reseed_from_params`), so rows stay pure functions
of their parameters even for callables that touch global RNG state.
``on_error="capture"`` turns a failing run into a row with an
``"error"`` column instead of aborting the whole sweep; with the default
``on_error="raise"`` a failure propagates immediately and **cancels**
every parameter set that has not started yet (the pool only waits for
runs already in flight, not for the whole remaining sweep).

``metrics=True`` gives each run a fresh enabled
:class:`~repro.obs.MetricsRegistry` installed as the scoped default
observability, so anything the run routes through the instrumented
schedulers is recorded; the registry's snapshot ships back with the row
under the ``"metrics"`` key — including across process boundaries, since
snapshots are plain picklable dicts.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping

__all__ = ["sweep"]


def _reseed_from_params(params: Mapping) -> None:
    """Re-seed the *global* RNGs from the parameter set's declared seed.

    Forked pool workers inherit the parent's global RNG state at whatever
    point the fork happened, so a ``fn`` that (even indirectly) touches
    ``random`` or legacy ``np.random`` would see worker-dependent,
    submission-order-dependent state — parallel sweeps would stop being
    byte-identical to serial ones.  Deriving the global state from the
    declared ``seed`` on *both* paths makes the row a pure function of
    its parameter set again.

    This is the one sanctioned exception to the rng-discipline lint
    rule: it *writes* global state deterministically before handing
    control to ``fn``; it never draws from it.
    """
    seed = params.get("seed")
    if not isinstance(seed, int) or isinstance(seed, bool):
        return
    import random

    random.seed(seed)  # reprolint: ignore[rng-discipline]
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - numpy is a hard dep elsewhere
        return
    np.random.seed(seed % 2**32)  # reprolint: ignore[rng-discipline]


def _call(
    fn: Callable[..., Mapping],
    params: Mapping,
    with_metrics: bool,
) -> tuple[Mapping, dict | None]:
    """Top-level trampoline so (fn, params) pickles into worker processes;
    returns the result plus the run's metrics snapshot when requested."""
    _reseed_from_params(params)
    if not with_metrics:
        return fn(**params), None
    from ..obs import MetricsRegistry, Obs, Tracer, use_obs

    # metrics only: a tracer ring buffer would be dead weight in a worker
    obs = Obs(MetricsRegistry(enabled=True), Tracer(enabled=False))
    with use_obs(obs):
        result = fn(**params)
    return result, obs.metrics.snapshot()


def _merge(
    params: Mapping,
    result: Mapping | None,
    error: str | None,
    metrics: dict | None = None,
) -> dict:
    row = dict(params)
    if result is not None:
        row.update(result)
    if error is not None:
        row["error"] = error
    if metrics is not None:
        row["metrics"] = metrics
    return row


def sweep(
    fn: Callable[..., Mapping],
    param_sets: Iterable[Mapping],
    *,
    n_jobs: int | None = None,
    on_error: str = "raise",
    metrics: bool = False,
) -> list[dict]:
    """Run ``fn(**params)`` for each parameter set; each call returns a
    mapping of measured values, merged with its parameters into one row.

    Parameters
    ----------
    n_jobs:
        ``None`` or 1 runs serially in-process.  Larger values run the
        parameter sets on a process pool of that many workers (``fn``
        and the parameter values must then be picklable, i.e. ``fn``
        must be a module-level function).  Rows always come back in the
        order of ``param_sets``.
    on_error:
        ``"raise"`` (default) propagates the first exception and cancels
        the parameter sets that have not started yet.
        ``"capture"`` records ``"error": "ExcType: message"`` on the
        failing row and keeps sweeping.
    metrics:
        ``True`` runs each parameter set under a fresh scoped
        observability default and adds its
        :meth:`~repro.obs.MetricsRegistry.snapshot` to the row as
        ``"metrics"`` (parallel workers ship theirs back with the row).
    """
    if on_error not in ("raise", "capture"):
        raise ValueError(f'on_error must be "raise" or "capture", got {on_error!r}')
    param_sets = [dict(p) for p in param_sets]
    if n_jobs is not None and n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")

    rows = []
    if n_jobs is None or n_jobs == 1:
        for params in param_sets:
            try:
                result, snapshot = _call(fn, params, metrics)
            except Exception as exc:
                if on_error == "raise":
                    raise
                rows.append(_merge(params, None, f"{type(exc).__name__}: {exc}"))
            else:
                rows.append(_merge(params, result, None, snapshot))
        return rows

    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=n_jobs) as pool:
        futures = [pool.submit(_call, fn, params, metrics) for params in param_sets]
        try:
            for params, future in zip(param_sets, futures):
                try:
                    result, snapshot = future.result()
                except Exception as exc:
                    if on_error == "raise":
                        raise
                    rows.append(_merge(params, None, f"{type(exc).__name__}: {exc}"))
                else:
                    rows.append(_merge(params, result, None, snapshot))
        except BaseException:
            # a propagating failure (or interrupt) must not leave the
            # pool draining the whole remaining sweep: cancel everything
            # that has not started, then only in-flight runs are awaited
            pool.shutdown(wait=False, cancel_futures=True)
            raise
    return rows
