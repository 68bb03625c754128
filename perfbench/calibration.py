"""How fast the host runs right now, from a fixed kernel timed next to the work.

The hosts this benchmark runs on change speed by up to 2x over seconds to
minutes.  The kernel does the same kind of work as harperlab (interpreter
loops and small LAPACK calls); run.py divides each measured time by the
kernel's time around it over NOMINAL_S, which turns the time into seconds
on the reference machine at full speed.
"""

import time

import numpy as np

# seconds of kernel() at full speed on the reference machine (Intel Xeon,
# 2 vCPU, python 3.11, numpy 2.4, OpenBLAS 0.3.31, one BLAS thread)
NOMINAL_S = 0.0085
EVERY_S = 0.25  # how often the kernel runs during an operation

_rng = np.random.default_rng(12345)
_SYM = _rng.standard_normal((40, 40))
_SYM = _SYM + _SYM.T
_BATCH = _rng.standard_normal((16, 13, 13)) + 1j * _rng.standard_normal((16, 13, 13)) + 8 * np.eye(13)
# bound before a traced pass wraps numpy.linalg
_eigvalsh, _inv = np.linalg.eigvalsh, np.linalg.inv


def kernel():
    """Seconds taken by one fixed unit of work."""
    t0 = time.perf_counter()
    acc = 0
    for _ in range(20):
        _eigvalsh(_SYM)
        _inv(_BATCH)
        for k in range(2500):
            acc += k * k % 7
    return time.perf_counter() - t0
