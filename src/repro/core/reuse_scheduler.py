"""The Corollary 2 scheduler: near-optimal when channels are Ω(lg n) wide.

    *Corollary 2.  Let FT be a fat-tree on n processors, let C be the set
    of channels in FT, and suppose there is a constant a > 1 such that
    cap(c) >= a·lg n for all c ∈ C.  Then for any message set M there is
    an off-line schedule M_1, …, M_d such that
    d <= 2·ceil((a/(a−1))·λ(M)).*

Instead of re-partitioning at every tree level (which costs the Theorem 1
``lg n`` factor), the whole message set is split globally: every
(LCA node, direction) group is halved evenly at once, and the resulting
halves are reused down the tree.  A channel at level ``k`` serves at most
``k <= lg n`` groups, so each global halving adds at most ``1/2`` error
per group and the accumulated per-channel error over the entire recursion
is below ``lg n``.  Scheduling against the *fictitious* capacities
``cap'(c) = cap(c) − lg n`` therefore guarantees the real capacities are
never exceeded, and the fictitious load factor is at most
``(a/(a−1))·λ(M)``.

The halvings run level-synchronously
(:func:`~repro.core.partition.halve_until_fit`): each round tests every
open piece against the real capacities and splits all that overload in
one batched even split, every (piece, group) pair halved on its own.
Pieces come back in the order the depth-first pending-stack loop of
:func:`_reference_schedule_corollary2` (the bit-parity oracle) finishes
them, which visits the ``b`` half before the ``a`` half.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..obs import Obs

import numpy as np

from .fattree import FatTree
from .load import channel_loads
from .message import MessageSet
from .partition import (  # even_split_all: perfbench wraps it on this module
    _reference_even_split_all,
    even_split_all,  # noqa: F401
    halve_until_fit,
    message_group_keys,
)
from .schedule import Schedule

__all__ = ["schedule_corollary2", "corollary2_cycle_bound", "capacity_ratio"]


def capacity_ratio(ft: FatTree) -> float:
    """The largest ``a`` with ``cap(c) >= a·lg n`` for all channels.

    Uses the paper's ``lg n`` = the tree depth.  Corollary 2 requires the
    returned value to exceed 1.
    """
    lgn = max(1, ft.depth)
    return min(ft.cap(k) for k in range(1, ft.depth + 1)) / lgn


def corollary2_cycle_bound(ft: FatTree, lam: float) -> int:
    """The Corollary 2 bound ``2·ceil((a/(a−1))·λ)`` for this fat-tree."""
    a = capacity_ratio(ft)
    if a <= 1:
        raise ValueError(
            f"Corollary 2 needs cap(c) >= a·lg n with a > 1; widest a here is {a:.3f}"
        )
    return 2 * max(1, math.ceil(a / (a - 1) * max(lam, 1.0)))


def schedule_corollary2(
    ft: FatTree, messages: MessageSet, *, obs: Obs | None = None
) -> Schedule:
    """Schedule ``messages`` on ``ft`` per Corollary 2.

    Raises ``ValueError`` unless every channel satisfies
    ``cap(c) > lg n`` (the corollary's hypothesis with some ``a > 1``).

    ``obs`` (default: the module-level
    :func:`~repro.obs.get_default_obs`) receives a kernel wall-time
    span and per-cycle ``cycle`` trace events matching the returned
    schedule exactly.  Bit-identical to
    :func:`_reference_schedule_corollary2`.
    """
    from ..obs import resolve_obs

    obs = resolve_obs(obs)
    _check_hypothesis(ft, messages)
    routable = messages.without_self_messages()
    n_self = len(messages) - len(routable)

    # Termination argument: after t global halvings a channel's load is at
    # most load(M, c)/2**t + lg n (each halving splits each of its <= lg n
    # groups evenly), so once 2**t >= λ'(M) — the load factor against the
    # fictitious capacities cap'(c) = cap(c) − lg n — every piece fits the
    # real capacities.  The loop simply halves until the real capacities
    # are met, which happens no later than that.
    cycles: list[MessageSet] = []
    with obs.kernel("schedule_corollary2", n=ft.n, m=len(routable)):
        if len(routable):
            keys, lca = message_group_keys(routable, ft.depth)
            order = np.argsort(keys, kind="stable")
            starts = halve_until_fit(
                ft, routable, keys, lca, order, np.zeros(1, dtype=np.int64),
                per_channel=False,
            )
            if starts.size == 1:  # fits whole: never split, never reordered
                cycles.append(routable)
            else:
                cycles.extend(
                    routable.take(piece) for piece in np.split(order, starts[1:])
                )
    if obs.enabled:
        from .scheduler import _record_offline_cycles

        _record_offline_cycles(obs, "corollary2", cycles, n_self)
    return Schedule(cycles=cycles, n_self_messages=n_self)


def _check_hypothesis(ft: FatTree, messages: MessageSet) -> None:
    """Raise ``ValueError`` unless the sizes agree and every channel is
    wider than ``lg n``."""
    if messages.n != ft.n:
        raise ValueError("message set and fat-tree disagree on n")
    lgn = max(1, ft.depth)
    if capacity_ratio(ft) <= 1:
        raise ValueError(
            "Corollary 2 requires cap(c) > lg n on every channel; "
            f"minimum capacity is {min(ft.cap(k) for k in range(1, ft.depth + 1))}, "
            f"lg n = {lgn}"
        )


def _reference_schedule_corollary2(ft: FatTree, messages: MessageSet) -> Schedule:
    """Depth-first pending-stack loop over whole-set halvings by
    :func:`~repro.core.partition._reference_even_split_all`.  The oracle
    :func:`schedule_corollary2` is held bit-identical to."""
    _check_hypothesis(ft, messages)
    routable = messages.without_self_messages()
    pending = [routable]
    cycles: list[MessageSet] = []
    while pending:
        piece = pending.pop()
        if len(piece) == 0:
            continue
        if _fits_real(ft, piece):
            cycles.append(piece)
        else:
            a, b = _reference_even_split_all(ft, piece)
            pending.append(a)
            pending.append(b)
    return Schedule(cycles=cycles, n_self_messages=len(messages) - len(routable))


def _fits_real(ft: FatTree, piece: MessageSet) -> bool:
    """One-cycle test against the *real* capacities (lets the scheduler
    stop as soon as a piece is actually routable, which is often earlier
    than the fictitious-capacity test guarantees)."""
    loads = channel_loads(ft, piece)
    for k in range(1, ft.depth + 1):
        cap = ft.cap(k)
        if loads.up[k].max(initial=0) > cap or loads.down[k].max(initial=0) > cap:
            return False
    return True
