"""Stable integer argsort by 16-bit digits.

numpy sorts integer types of 16 bits or fewer with a radix sort when
``kind="stable"``, and wider ones with timsort.  On 8192 shuffled int64
keys one ``uint16`` pass is about 10× faster than the int64 argsort
(numpy 2.4.6; E38).  The random-rank grant, the off-line halving and
both off-line schedulers sort their bounded non-negative keys with
:func:`_radix_argsort`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from ._types import IntArray


def _radix_argsort(keys: IntArray, bound: int) -> IntArray:
    """``np.argsort(keys, kind="stable")`` for keys in ``[0, bound)``.

    The keys are sorted one 16-bit digit at a time, least significant
    first, each digit one stable ``uint16`` argsort; ``bound`` sets how
    many digits there are.  A key outside ``[0, bound)`` is sorted by
    its low digits only, so the result is then not the stable argsort.
    """
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    shift = 16
    while bound > 1 << shift:
        digit = (keys[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order
