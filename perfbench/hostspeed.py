"""Host-speed probes: fixed kernels timed in the same child as the pass.

The host this benchmark was built on is shared with other virtual machines,
and its speed drifts. A pure-Python pass took 0.75 s in one minute and
1.5 s a few minutes later, with CPU time tracking wall time, and the raw
medians of two sets of ten runs differed by 30 %. A median over more passes
cannot remove a drift that lasts minutes. So each child times two fixed
kernels next to its work. run.py rescales the wall times to the host speed
at which the kernels take REFERENCE_S. The raw wall times are printed
beside them.

Each kind of work slows by its own factor, so it is rescaled by the kernel
that slows the same way:

- ``interpreter``: bytecode, dict and integer work on one thread. It
  matches the closed-form CLI passes and interpreter start-up.
- ``lapack``: a dense Hermitian eigensolve on the BLAS threads. It matches
  the oracle passes: sector eigensolves, evolution and pair-reduction GEMMs,
  and the Lindblad sparse products.
"""

from __future__ import annotations

import time

import numpy as np

# The 10th percentile of 150 probes on the machine of BENCH_baseline.json:
# rescaled times read as seconds on that machine in its faster state.
REFERENCE_S = {"interpreter": 0.0081, "lapack": 0.0101}
_REPEATS = 5


def _interpreter(n: int) -> None:
    acc = 0
    table = {}
    for i in range(n):
        acc += i * i % 7
        table[i & 1023] = acc


def _hermitian() -> np.ndarray:
    k = np.arange(200.0)
    return (np.cos(0.37 * np.multiply.outer(k, k))
            + 1j * np.sin(0.11 * np.subtract.outer(k, k)))


# kind -> (timed kernel, untimed builder of its argument)
_KERNELS = {"interpreter": (_interpreter, lambda: 60_000),
            "lapack": (np.linalg.eigh, _hermitian)}


def probe(kinds) -> dict[str, float]:
    """Fastest of a few repeats of each kernel, measured now.

    A slow phase of the host lasts seconds to minutes and slows every
    repeat; the minimum ignores a blip that hits only some of them.

    Probe only the kinds a child needs: the first LAPACK call allocates the
    BLAS thread buffers, which would raise a closed-form pass's peak RSS.
    """
    out = {}
    for kind in kinds:
        kernel, build = _KERNELS[kind]
        arg = build()
        times = []
        for _ in range(_REPEATS):
            start = time.perf_counter()
            kernel(arg)
            times.append(time.perf_counter() - start)
        out[kind] = min(times)
    return out
