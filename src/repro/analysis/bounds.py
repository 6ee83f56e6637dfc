"""Every closed-form bound from the paper as a callable.

The benches print measured values next to these so the reader can check
the *shape* claims (exponents, log factors) without chasing constants.
The scheduling bounds live beside their schedulers and take the tree:
:func:`repro.core.scheduler.theorem1_cycle_bound` and
:func:`repro.core.reuse_scheduler.corollary2_cycle_bound`.
"""

from __future__ import annotations

import math

__all__ = [
    "lg",
    "theorem4_components",
    "theorem4_volume",
    "theorem5_root_bandwidth",
    "theorem5_decay",
    "corollary9_blowup",
    "theorem10_slowdown",
    "fixed_connection_degradation",
    "permutation_cycles",
    "hypercube_volume",
    "planar_volume",
]


def lg(n: float) -> float:
    """The paper's lg: max(1, log2 n)."""
    return max(1.0, math.log2(max(n, 1.0)))


def theorem4_components(n: int, w: int, constant: float = 12.0) -> float:
    """Theorem 4: O(n·lg(w³/n²)) components (additive Θ(n) included)."""
    return constant * n * (1.0 + lg(max(2.0, w ** 3 / n ** 2)))


def theorem4_volume(n: int, w: int, constant: float = 8.0) -> float:
    """Theorem 4: volume O((w·lg(n/w))^{3/2})."""
    return constant * (w * lg(max(2.0, n / w))) ** 1.5


def theorem5_root_bandwidth(volume: float, constant: float = 6.35) -> float:
    """Theorem 5: w_0 = O(v^{2/3})."""
    return constant * volume ** (2.0 / 3.0)


def theorem5_decay() -> float:
    """Theorem 5: per-level bandwidth decay ∛4."""
    return 4.0 ** (1.0 / 3.0)


def corollary9_blowup(a: float) -> float:
    """Corollary 9: balanced-tree bandwidth blow-up 4a/(a−1)."""
    if not (1.0 < a <= 2.0):
        raise ValueError("Corollary 9 needs 1 < a <= 2")
    return 4.0 * a / (a - 1.0)


def theorem10_slowdown(n: int, constant: float = 4.0) -> float:
    """Theorem 10: O(lg³ n) slowdown at equal volume."""
    return constant * lg(n) ** 3


def fixed_connection_degradation(n: int, constant: float = 4.0) -> float:
    """§VI: O(lg n) degradation emulating a fixed-connection network."""
    return constant * lg(n)


def permutation_cycles(n: int, constant: float = 4.0) -> float:
    """§VI: a full-volume universal fat-tree routes any permutation
    off-line in O(lg n) time."""
    return constant * lg(n)


def hypercube_volume(n: int) -> float:
    """§I: hypercube-based networks need ~n^{3/2} volume."""
    return float(n) ** 1.5


def planar_volume(n: int, constant: float = 1.0) -> float:
    """§I: planar interconnection strategies need only Θ(n) volume."""
    return constant * float(n)
