"""Host-speed calibration for the benchmark's timings.

The benchmark runs on a shared virtual machine whose CPU speed drifts by
about a quarter over stretches of ten seconds and more: the same op takes
90 ms in one stretch and 160 ms in the next.  The drift moves every
pure-Python loop alike, so the benchmark measures it with a fixed
reference kernel run next to the ops and reports times scaled to a
nominal host speed::

    calibrated time = wall time * REF_NOMINAL_S / reference time

where the reference time is that of the kernel measured around the op.
On a host where the kernel takes exactly ``REF_NOMINAL_S`` the two agree.

The kernel is a Gaussian elimination over GF(65537) of one fixed 40 x 40
matrix, the same instruction mix as dmuss's dense solves.  It imports
nothing from dmuss and its input does not depend on the workload seed, so
a change to dmuss moves the ops' times and not the reference.
"""

from __future__ import annotations

import random
import statistics
import time

REF_NOMINAL_S = 0.008  # about the kernel's time on the baseline host
REF_REPEATS = 3  # kernel runs per reading; the reading is their median
REF_INTERVAL_S = 0.2  # the loop takes a reading at least this often

_P = 65537
_N = 40
_rng = random.Random("calibration-kernel")
_MATRIX = [[_rng.randrange(_P) for _ in range(_N)] for _ in range(_N)]


def kernel() -> None:
    """Reduce the fixed matrix to row echelon form over GF(65537)."""
    p = _P
    r = [row[:] for row in _MATRIX]
    lead = 0
    for col in range(_N):
        piv = next((i for i in range(lead, _N) if r[i][col]), None)
        if piv is None:
            continue
        r[lead], r[piv] = r[piv], r[lead]
        inv = pow(r[lead][col], p - 2, p)
        r[lead] = [x * inv % p for x in r[lead]]
        lead_row = r[lead]
        for i in range(_N):
            if i != lead and r[i][col]:
                f = r[i][col]
                r[i] = [(x - f * y) % p for x, y in zip(r[i], lead_row)]
        lead += 1


def reading() -> float:
    """The kernel's time now: the median of ``REF_REPEATS`` runs, in seconds."""
    times = []
    for _ in range(REF_REPEATS):
        began = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - began)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor that turns wall time between two readings into calibrated time."""
    return REF_NOMINAL_S / ((before + after) / 2.0)
