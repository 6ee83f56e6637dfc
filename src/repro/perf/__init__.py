"""Performance layer: shared path index and vectorised routing kernels.

See :mod:`repro.perf.pathindex` for the design.  The vectorised kernels
themselves live next to the algorithms they accelerate
(:mod:`repro.core.online`, :mod:`repro.core.greedy`), each keeping its
pure-Python predecessor as a ``_reference_*`` oracle that the property
tests hold the kernels bit-identical to.  Tier-2 entry points live
here: :func:`first_fit_assign` (the wave/scan first-fit engine) and
:func:`batch_schedule` (B message sets against one tree in a single
pass).
"""

from .batch import batch_schedule
from .firstfit import first_fit_assign
from .pathindex import (
    PAD_GID,
    PathIndex,
    clear_path_index_cache,
    fold_capacity_fingerprint,
    get_path_index,
    index_cache_key,
    invalidate_capacity_fingerprint,
    pack_gid,
    unpack_gid,
)

__all__ = [
    "PAD_GID",
    "PathIndex",
    "batch_schedule",
    "clear_path_index_cache",
    "first_fit_assign",
    "fold_capacity_fingerprint",
    "get_path_index",
    "index_cache_key",
    "invalidate_capacity_fingerprint",
    "pack_gid",
    "unpack_gid",
]
