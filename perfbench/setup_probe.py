"""Print the seconds a fresh interpreter needs to import repro and build
the trees of one in-process workload.

Usage: ``python3 perfbench/setup_probe.py offline-paper|online-chaos``
(with ``src`` on ``PYTHONPATH``).  The last line of output is the time.
"""

import sys
import time

from inproc import CHAOS_N, OFFLINE_N

t0 = time.perf_counter()
import repro  # noqa: E402,F401
from repro.core import FatTree  # noqa: E402

if sys.argv[1] == "offline-paper":
    import repro.core.reuse_scheduler  # noqa: F401
    import repro.core.scheduler  # noqa: F401
    import repro.workloads  # noqa: F401
    from repro.core.capacity import ConstantCapacity

    ft = FatTree(OFFLINE_N)
    FatTree(OFFLINE_N, ConstantCapacity(ft.depth, 2 * ft.depth))
else:
    import repro.chaos  # noqa: F401
    import repro.core.greedy  # noqa: F401
    import repro.core.online  # noqa: F401
    import repro.hardware  # noqa: F401
    import repro.perf  # noqa: F401

    FatTree(CHAOS_N)
print(time.perf_counter() - t0)
