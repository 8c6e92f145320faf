"""Machine-speed calibration of the timing metrics.

On a 2-core VM that shares its host, the same code runs up to 1.8x slower
for stretches of tens of seconds to minutes; taking each op's best time
over the passes of a run does not help when the whole run falls in such a
stretch.  So every pass also runs a fixed *reference kernel* at SLOTS
evenly spaced points between its ops.  The kernel is shaped like the DP and
guess-enumeration loops but lives here, so no change to ``pcsm`` changes
it.  Each slot keeps its best time over the passes, exactly as each op
does, so the kernel sees the machine the way the ops do.  Calibrated
seconds are measured seconds times ``REFERENCE_S / median slot best``: the
time on a machine that runs the kernel in REFERENCE_S.

Garbage collection is off while the kernel runs, as ``timeit`` does, so the
kernel's time does not depend on how many objects the workload holds.
"""

from __future__ import annotations

import gc
import random
import statistics
from time import perf_counter

SLOTS = 24                    # kernel runs per pass

_rng = random.Random(0)
_N = 16
_PACK = [_rng.randint(0, 9) for _ in range(_N)]
_COVER = [_rng.randint(0, 9) for _ in range(_N)]
_PACK_BOUND = sum(_PACK) // 2
_COVER_BOUND = sum(_COVER) // 2


def dp_kernel():
    """The reachable (size, pack, saturated cover) signatures of a fixed
    16-element instance, grown one element at a time: tuple keys and set
    churn, as in the greedy, forbidden-set and completion DPs."""
    states = {(0, 0, 0)}
    for pack, cover in zip(_PACK, _COVER):
        grown = set()
        for size, p, c in states:
            if p + pack <= _PACK_BOUND:
                grown.add((size + 1, p + pack, min(c + cover, _COVER_BOUND)))
        states |= grown
    return len(states)


# dp_kernel's best time on the reference machine: a 2-core x86-64 VM,
# Python 3.11
REFERENCE_S = 0.004


def sample():
    """Seconds one run of the kernel takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        dp_kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def every(n_ops):
    """Ops between two kernel slots in a pass of ``n_ops`` ops."""
    return max(1, -(-n_ops // SLOTS))


def scale(slot_best):
    """Factor that turns this run's seconds into calibrated seconds."""
    return REFERENCE_S / statistics.median(slot_best)
