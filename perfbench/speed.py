"""Host-speed probe, so that timings follow the program and not the host.

On shared virtual machines the speed of a vCPU drifts by up to 2x over
minutes, in process CPU time as much as in wall time (no steal is reported),
so neither a longer window, the minimum of the repetitions nor CPU time
gives steady figures.  A fixed piece of work, the probe, therefore runs
right before and right after every timed command and every set-up (one
probe sits between two commands).  A command's wall time is scaled by
`REFERENCE_S / mean of the two probes around it`: it is then in reference
seconds, the wall time on a host where the probe takes `REFERENCE_S`.
The wall times stay in the result file.

The probes use only the Python interpreter and numpy, never convneg, so a
change to the program leaves them alone and moves the scaled time in full.
A workload picks the probe whose work is most like its own: `probe` mixes
interpreter-bound object churn with LAPACK eigensolves at dims 3-200, like
`verify` and the grids; `probe_dense` does only dim-300 eigensolves, which
are three quarters of `lexicon`'s time.  A host slowdown hits the two kinds
of work by different amounts, so a probe of the wrong kind adds noise.
"""

from __future__ import annotations

import gc
import time

import numpy as np

# Nominal probe time.  A fixed constant: it sets the unit, not the result.
REFERENCE_S = 0.1

_RNG = np.random.default_rng(0)
_SMALL = [(lambda a: a @ a.T)(_RNG.standard_normal((n, n))) for n in (3, 6, 10, 50)]
_LARGE = (lambda a: a @ a.T)(_RNG.standard_normal((200, 200)))
_DENSE = (lambda a: a @ a.T)(_RNG.standard_normal((300, 300)))


def probe() -> float:
    """Seconds the fixed probe work takes now.

    The cyclic garbage collector is off meanwhile, so that a collection of
    the program's objects does not land in the probe.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(300):
            for m in _SMALL:
                acc += float(np.linalg.eigvalsh(m)[-1])
            table = {str(k): [k] * 3 for k in range(50)}
            acc += sum(len(v) for v in table.values())
        for _ in range(6):
            acc += float(np.linalg.eigvalsh(_LARGE)[-1])
        return time.perf_counter() - t0
    finally:
        gc.enable()


def probe_dense() -> float:
    """Seconds that sixteen dim-300 eigensolves take now."""
    t0 = time.perf_counter()
    for _ in range(16):
        np.linalg.eigvalsh(_DENSE)
    return time.perf_counter() - t0


class Clock:
    """Times callables in wall and reference seconds, probing between calls."""

    def __init__(self, probe=probe):
        self._probe = probe
        probe()  # warm up: first-call costs are not host speed
        self.probes = [probe()]

    def time(self, fn):
        """Call fn(); return (its result, wall seconds, reference seconds)."""
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        self.probes.append(self._probe())
        return result, wall, wall * REFERENCE_S * 2 / (self.probes[-2] + self.probes[-1])
