"""Property test: the array delivery cycle is frame-for-frame identical
to the retained per-frame ``_reference_run_delivery_cycle``.

Every frame list (``src``, ``dst``, partially stripped ``address``,
``payload``, in order) and ``wave_ticks`` must agree, over healthy and
degraded trees, every concentrator model, seeded and unseeded runs,
duplicate pairs and self-messages.  The CI smoke job fails if this test
is skipped.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConstantCapacity, FatTree, MessageSet
from repro.faults import DegradedFatTree, FaultModel
from repro.hardware.switchsim import (
    _reference_run_delivery_cycle,
    run_delivery_cycle,
)


def _frames(frames):
    return [(f.src, f.dst, list(f.address), f.payload) for f in frames]


@st.composite
def _cases(draw):
    n = draw(st.sampled_from([8, 16, 32]))
    depth = n.bit_length() - 1
    width = draw(st.sampled_from([None, 1, 2, 3]))
    ft = FatTree(n) if width is None else FatTree(n, ConstantCapacity(depth, width))
    if draw(st.booleans()):
        faults = FaultModel(
            seed=draw(st.integers(0, 99)),
            loss_rate=draw(st.sampled_from([0.0, 0.1, 0.4])),
        )
        ft = DegradedFatTree(ft, faults.kill_random_wires(ft, draw(st.floats(0.0, 0.5))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(0, 6 * n))
    pairs = rng.integers(0, n, size=(m, 2))
    # repeat some pairs and add self-messages, so duplicate (src, dst)
    # pairs and arrived-at-injection frames are always in play
    if m:
        pairs = np.vstack([pairs, pairs[rng.integers(0, m, size=m // 4)]])
    selfs = rng.integers(0, n, size=draw(st.integers(0, 4)))
    pairs = rng.permutation(np.vstack([pairs, np.column_stack([selfs, selfs])]))
    concentrators = draw(st.sampled_from(["ideal", "pippenger", "faulty"]))
    kwargs = {
        "concentrators": concentrators,
        "seed": draw(st.integers(0, 2**31 - 1)) if draw(st.booleans()) else None,
        "payload_bits": draw(st.integers(0, 5)),
    }
    if concentrators == "faulty":
        kwargs["fault_rate"] = draw(st.floats(0.01, 0.6))
    return ft, MessageSet(pairs[:, 0], pairs[:, 1], n), kwargs


@settings(max_examples=150, deadline=None)
@given(_cases())
def test_array_cycle_matches_reference(case):
    ft, ms, kwargs = case
    new = run_delivery_cycle(ft, ms, **kwargs)
    ref = _reference_run_delivery_cycle(ft, ms, **kwargs)
    assert new.wave_ticks == ref.wave_ticks
    assert new.losses == ref.losses
    for name in ("delivered", "congested", "deferred"):
        assert _frames(getattr(new, name)) == _frames(getattr(ref, name)), name
