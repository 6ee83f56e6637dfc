"""The routing-stack registry: one ``name → Stack`` row per entry point.

``repro trace``, the fuzz oracle, the chaos entry point,
``repro batch`` and the serve protocol all read this table, so adding a
stack is one :data:`STACKS` row.  Keys are the CLI spellings.  Entry
points are imported at call time: ``repro.core`` never imports
``repro.hardware``, and attribute-level wrappers see every call.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from importlib import import_module
from typing import TYPE_CHECKING, Any, Literal

if TYPE_CHECKING:
    from ..obs import Obs
    from .fattree import FatTree
    from .message import MessageSet

__all__ = ["Stack", "STACKS", "BATCH_KERNELS"]


@dataclass(frozen=True)
class Stack:
    """``kind``; the obs ``scheduler`` ``label``; the ``"module:function"``
    ``entry``; whether it is ``seeded`` (takes ``seed``/``max_cycles``);
    its :func:`~repro.perf.batch_schedule` ``batch`` kernel name."""

    kind: Literal["offline", "online", "hardware"]
    label: str
    entry: str
    seeded: bool
    batch: str | None = None

    def function(self) -> Callable[..., Any]:
        """The entry point, imported now (so attribute wrappers see it)."""
        module, _, name = self.entry.partition(":")
        fn: Callable[..., Any] = getattr(import_module(module), name)
        return fn

    def run(
        self, ft: FatTree, m: MessageSet, *, seed: int, max_cycles: int, obs: Obs | None = None
    ) -> Any:
        """Run the entry point (unseeded ones ignore ``seed``/``max_cycles``)."""
        fn = self.function()
        if self.seeded:
            return fn(ft, m, seed=seed, max_cycles=max_cycles, obs=obs)
        return fn(ft, m, obs=obs)


STACKS: dict[str, Stack] = {
    "theorem1": Stack("offline", "theorem1", "repro.core.scheduler:schedule_theorem1", False),
    "corollary2": Stack(
        "offline", "corollary2", "repro.core.reuse_scheduler:schedule_corollary2", False
    ),
    "greedy": Stack(
        "offline", "greedy_first_fit", "repro.core.greedy:schedule_greedy_first_fit", False,
        "greedy",
    ),
    "random-rank": Stack(
        "online", "random_rank", "repro.core.online:schedule_random_rank", True, "random_rank"
    ),
    "online-retry": Stack(
        "online", "online_retry", "repro.core.greedy:simulate_online_retry", True
    ),
    "switchsim": Stack(
        "hardware", "switchsim", "repro.hardware.switchsim:run_until_delivered", True
    ),
    "buffered": Stack(
        "hardware", "store_and_forward", "repro.hardware.buffered:run_store_and_forward", False
    ),
}

#: the :func:`~repro.perf.batch_schedule` kernels (the serve wire spelling)
BATCH_KERNELS: tuple[str, ...] = tuple(s.batch for s in STACKS.values() if s.batch)
