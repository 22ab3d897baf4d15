"""Host-speed reference: scales measured times to an unloaded host.

The benchmark host is a shared 2-vCPU VM.  Under load from its neighbours the
same op runs up to 1.9x slower, in bursts of seconds and for minutes at a
time, with CPU time tracking wall time (no steal), so neither longer runs nor
CPU time remove the drift.  A fixed kernel of pure-Python and small
numpy/LAPACK work, sharing no code with spinorlab, is timed every
``KERNEL_EVERY_S`` from a timer signal, so also inside ops that last seconds.
An op's time, less the kernel runs inside it, is multiplied by
``KERNEL_REF_S`` over the mean time of the kernel runs just before, inside
and just after it.  A change to spinorlab moves the ops but not the kernel.
"""

import bisect
import contextlib
import signal
import statistics
import time

import numpy as np

# Kernel time on the unloaded host (fastest of 100 runs): Intel Xeon, 2 vCPUs,
# Python 3.11.7, numpy 2.4.6, one OpenBLAS thread.
KERNEL_REF_S = 0.032
KERNEL_EVERY_S = 0.5          # wall time between two kernel runs

_RNG = np.random.default_rng(0)
_SMALL = _RNG.normal(size=(2, 4, 4)) + 1j * _RNG.normal(size=(2, 4, 4))
_TALL = _RNG.normal(size=(64, 16)) + 1j * _RNG.normal(size=(64, 16))
_BULK = _RNG.normal(size=(20_000, 4)) + 1j * _RNG.normal(size=(20_000, 4))


class _Pair:
    """Dual-number-like scalar: the interpreter work of the field layers."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __add__(self, o):
        return _Pair(self.a + o.a, self.b + o.b)

    def __mul__(self, o):
        return _Pair(self.a * o.a, self.a * o.b + self.b * o.a)


def kernel_seconds() -> float:
    """Wall time of one fixed run of the reference kernel."""
    t0 = time.perf_counter()
    for _ in range(45):
        x, acc = _Pair(1.0001, 1.0), _Pair(0.0, 0.0)
        for _ in range(300):
            acc = acc + x * x
        out = np.zeros((4, 4), dtype=complex)
        for c in (0.5, 1.5, -2.0, 0.25, 1j, -1j, 3.0, 0.125):
            out = out + c * _SMALL[0]
            out = out @ _SMALL[0] - _SMALL[1] @ out
            out = out / np.abs(out).max()
        for _ in range(2):
            np.linalg.svd(_TALL, compute_uv=False)
        np.einsum("ni,ni->n", _BULK.conj(), _BULK)
    return time.perf_counter() - t0


class HostSpeed:
    """Kernel samples taken through a run, and the time scale they give."""

    def __init__(self):
        self.kernels = []
        self.times = []           # perf_counter() at the end of each sample
        self.spans = []           # wall time of each sample, bookkeeping too
        self._busy = False

    def sample(self, *_):
        """Time the kernel once; also the handler of the timer signal."""
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self.kernels.append(kernel_seconds())
        t1 = time.perf_counter()
        self.times.append(t1)
        self.spans.append(t1 - t0)
        self._busy = False

    @contextlib.contextmanager
    def sampling(self):
        """Sample every ``KERNEL_EVERY_S`` while the block runs."""
        old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, KERNEL_EVERY_S, KERNEL_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def reference_seconds(self, t0, t1) -> float:
        """Work timed from ``t0`` to ``t1``, in reference seconds.

        Needs a sample that ended before ``t0`` and one taken after ``t1``.
        The signal handler runs between bytecodes of the main thread, so a
        sample lies wholly inside or wholly outside the work.
        """
        i = bisect.bisect_right(self.times, t0)
        j = bisect.bisect_right(self.times, t1)
        work = t1 - t0 - sum(self.spans[i:j])
        return work * KERNEL_REF_S / statistics.fmean(self.kernels[i - 1:j + 1])
